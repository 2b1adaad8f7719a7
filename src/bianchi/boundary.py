"""Boundary map onto cusp classes and the cuspidal subspace.

A symbol [P, (u, v)] (SymbolSpace.generator, at every weight) has boundary
supported on two cusp classes read off from the pair itself: the class with
data (a, c) = (v^-1 mod gcd(u, nu), u) weighted by P(1, 0), minus the class
of (-u^-1 mod gcd(v, nu), v) weighted by P(0, 1).  Class data is (c mod nu,
a mod gcd(c, nu)) with both entries identified under unit scalings, which
twist weight-k coefficients by lambda^(2-k); a class fixed by a scaling
with nontrivial twist vanishes.

orbit_boundary is the boundary the package computes, at every weight, from
the space's cusp-orbit pass (SymbolSpace.cusp_pass): the point p of g
stands for the cusp g*oo and its S image for g*0, whose data is the oo data
of p*S, and the pass numbers the classes by orbits and carries each point's
unit twist.  cusp_class, boundary_of_gen and boundary_matrix label the
classes on ring elements instead; they are the oracle verify's
boundary-bridge and the tests hold the pass to.  The labelled boundary is
the orbit boundary with its classes renamed and each class's pair of rows
multiplied by a unit, so both have one kernel.  cuspidal_subspace keeps its
result on the space, so it is freed with it.
"""

from __future__ import annotations

import numpy as np

from .linalg import Subspace, kernel, vec_axpy
from .quadints import QuadInt, gcd, inverse_mod, reduce_mod
from .symbols import SymbolSpace, cusp_count, unit_multiples


def cusp_class(space: SymbolSpace, a: QuadInt, c: QuadInt):
    """Canonical class key for the cusp vector data (a, c), with the unit
    twist carrying a coefficient onto it; (None, 0) for a vanishing class.

    a only matters mod gcd(c, nu), and c mod nu.
    """
    fld = space.field
    nu = space.level
    k = space.weight
    best = None
    for lam in fld.units:
        c1 = reduce_mod(lam * c, nu)
        if best is None or c1.sort_key() < best[0].sort_key():
            best = (c1, lam)
    c0, lam0 = best
    m = gcd(c0, nu)
    a1 = lam0 * a
    best2 = None
    for dlt in fld.units:
        r1 = reduce_mod(dlt * a1, m)
        if best2 is None or r1.sort_key() < best2[0].sort_key():
            best2 = (r1, dlt)
    r0, dlt0 = best2
    for lam in fld.units:
        if reduce_mod(lam * c0, nu) != c0:
            continue
        for dlt in fld.units:
            if reduce_mod(dlt * lam * r0, m) == r0 and (lam * dlt) ** (k - 2) != fld.one:
                return None, fld.zero
    # [v] = (lam0 * dlt0)^(k-2) [v0] under the scaling identification
    return (c0, r0), (lam0 * dlt0) ** (k - 2)


def boundary_of_gen(space: SymbolSpace, gen: int, classes: dict | None = None) -> dict:
    """Boundary of one generator, as an int vector over (class key, part).

    classes, when given, is the caller's memo of cusp_class on (a, c).
    """
    fld = space.field
    nu = space.level
    poly, pt = space.generator(gen)
    u, v = space.point(pt)
    # P(1, 0) and P(0, 1): the coefficients of X^(k-2) and of Y^(k-2)
    c_inf = poly.get(space.weight - 2, fld.zero)
    c_zero = poly.get(0, fld.zero)
    classes = {} if classes is None else classes
    out: dict = {}
    for coeff, sign, c_raw in ((c_inf, 1, u), (c_zero, -1, v)):
        if coeff.is_zero():
            continue
        m = gcd(c_raw, nu)
        if sign == 1:
            a_raw = inverse_mod(v, m)
        else:
            a_raw = reduce_mod(-inverse_mod(u, m), m)
        if (a_raw, c_raw) not in classes:
            classes[a_raw, c_raw] = cusp_class(space, a_raw, c_raw)
        key, tw = classes[a_raw, c_raw]
        if key is None:
            continue
        total = coeff * tw
        for part, c in enumerate((total.a, total.b)):
            if c:
                vec_axpy(out, sign * c, {(key, part): 1})
    return out


def boundary_matrix(space: SymbolSpace) -> tuple[tuple, list[dict]]:
    """Label list and the integer rows of the boundary matrix on the
    quotient basis, one row per label."""
    classes: dict = {}
    cols = [boundary_of_gen(space, g, classes) for g in space.free_gens]
    keys = sorted(
        {k for col in cols for k in col},
        key=lambda k: (k[0][0].sort_key(), k[0][1].sort_key(), k[1]),
    )
    kidx = {k: i for i, k in enumerate(keys)}
    rows: list[dict] = [{} for _ in keys]
    for j, col in enumerate(cols):
        for k, val in col.items():
            rows[kidx[k]][j] = val
    return tuple(keys), rows


def orbit_boundary(space: SymbolSpace, gens) -> list[dict[int, int]]:
    """Boundary of the generators gens, as the nonzero integer rows on the
    cusp orbits.

    Row (orbit, part), in that order, holds the 1- (part 0) or omega-part
    (part 1) of the coefficient at the orbit, column j that of generator
    gens[j].  From the cusp pass (orbit, s_image, twist): generator g =
    (2*mono + part) * npts + p adds (1 or omega) * tau^twist[p] at
    orbit[p] when mono = k-2, and subtracts (1 or omega) * tau^twist[pS]
    at orbit[pS], pS = s_image[p], when mono = 0, where tau = zeta^(k-2)
    (see SymbolSpace._set_cusp_pass); a dead orbit takes nothing.  At
    weight 2 both terms are 1 and cancel when p and pS share an orbit.
    """
    orbit, s_image, twist = space.cusp_pass
    deg = space.weight - 2
    value = unit_multiples(space.J.a, deg).tolist()
    comp, pt = np.divmod(np.asarray(gens, dtype=np.int64), space.npts)
    ends = np.stack([pt, s_image[pt]])
    (r_inf, r_zero), (e_inf, e_zero) = (2 * orbit[ends]).tolist(), twist[ends].tolist()
    rows: list[dict[int, int]] = [{} for _ in range(2 * cusp_count(space))]
    for c, (cm, ri, rz, ei, ez) in enumerate(zip(comp.tolist(), r_inf, r_zero, e_inf, e_zero)):
        mono, part = divmod(cm, 2)
        if mono == deg and ei >= 0:
            a, b = value[ei][part]
            if a:
                rows[ri][c] = a
            if b:
                rows[ri + 1][c] = b
        if mono == 0 and ez >= 0:
            # at weight 2 this term may meet the first one and cancel it
            for row, x in zip(rows[rz:rz + 2], value[ez][part]):
                if x:
                    y = row.get(c, 0) - x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
    return [row for row in rows if row]


def cuspidal_subspace(space: SymbolSpace) -> Subspace:
    """Kernel of the boundary map, inside the quotient space, computed once
    per space and kept on it, from orbit_boundary on the free generators.
    """
    if space._cuspidal is None:
        space._cuspidal = Subspace(space.dim,
                                   kernel(orbit_boundary(space, space.free_gens), space.dim))
    return space._cuspidal

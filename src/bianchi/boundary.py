"""Boundary map onto cusp classes and the cuspidal subspace.

A symbol [P, (u, v)] (SymbolSpace.generator, at every weight) has boundary
supported on two cusp classes read off from the pair itself: the class with
data (a, c) = (v^-1 mod gcd(u, nu), u) weighted by P(1, 0), minus the class
of (-u^-1 mod gcd(v, nu), v) weighted by P(0, 1).  Class data is (c mod nu,
a mod gcd(c, nu)) with both entries identified under unit scalings, which
twist weight-k coefficients by lambda^(2-k); a class fixed by a scaling
with nontrivial twist vanishes.

boundary_matrix labels the classes with cusp_class on ring elements.  Where
every twist is 1, orbit_boundary_matrix has the same kernel from the
space's cusp-orbit pass (SymbolSpace.cusp_pass): the symbol of g has
boundary g*oo - g*0, two array lookups.  cuspidal_subspace keeps its
result on the space, so it is freed with it.
"""

from __future__ import annotations

import numpy as np

from .linalg import Subspace, kernel, vec_axpy
from .quadints import QuadInt, gcd, inverse_mod, reduce_mod
from .symbols import SymbolSpace, normalize_cusp


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


def cusp_label(space: SymbolSpace, p: QuadInt, q: QuadInt):
    """Boundary class key of the cusp (p : q); None when the class is dead.

    Weight 2 only: for higher weights the projective label is defined only
    up to a unit twist.
    """
    assert space.weight == 2
    p, q = normalize_cusp(p, q)
    key, _ = cusp_class(space, p, q)
    return key


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


def orbit_boundary_matrix(space: SymbolSpace) -> list[dict]:
    """Weight-2 boundary on the quotient basis, as integer rows, one per cusp
    orbit.

    Column j is e_orbit(g) - e_orbit(g*S) for the free generator g =
    free_gens[j], read from the space's cusp pass; the column is zero when
    both cusps lie in one orbit.
    """
    orbit, s_image = space.cusp_pass
    gens = np.asarray(space.free_gens, dtype=np.int64)
    rows: list[dict] = [{} for _ in range(int(orbit.max()) + 1)]
    for j, (top, bottom) in enumerate(zip(orbit[gens].tolist(),
                                          orbit[s_image[gens]].tolist())):
        if top != bottom:
            rows[top][j] = 1
            rows[bottom][j] = -1
    return rows


def cuspidal_subspace(space: SymbolSpace) -> Subspace:
    """Kernel of the boundary map, inside the quotient space, computed once
    per space and kept on it.

    Weight 2 takes orbit_boundary_matrix; above it the unit twists are not
    +-1 and the labelled boundary_matrix is used.  Both give the same
    kernel at weight 2, and Subspace's reduced echelon basis depends only
    on the kernel.
    """
    if space._cuspidal is None:
        if space.weight == 2:
            rows = orbit_boundary_matrix(space)
        else:
            _, rows = boundary_matrix(space)
        space._cuspidal = Subspace(space.dim, kernel(rows, space.dim))
    return space._cuspidal

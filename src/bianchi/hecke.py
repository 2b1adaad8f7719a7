"""Hecke operators on the symbol quotient.

The production action pushes a Heilbronn family of determinant eta through
the generators: [P, (u, v)] goes to the sum of [P(aX+bY, cX+dY), (u, v)M]
over family members M with unimodular image pair.  An independent oracle
recomputes the operator from scratch as a sum over coset representatives of
the determinant-eta congruence matrices, acting on cusp paths; agreement of
the two matrices is the correctness certificate for this layer.

Rational eigensystem extraction refines the cuspidal subspace through the
operators in order of increasing norm, reporting irrational characteristic
factors instead of splitting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .boundary import cuspidal_subspace
from .heilbronn import heilbronn_family
from .linalg import (
    SparseMat,
    Subspace,
    eigenspace,
    full_space,
    rational_eigensystem,
    vec_axpy,
    vec_dot,
)
from .quadints import (
    Field,
    QuadInt,
    divides,
    divisors_up_to_units,
    exact_div,
    gcd,
    inverse_mod,
    residues_mod,
    xgcd,
)
from .symbols import (
    Mat2,
    SymbolSpace,
    lift_to_sl2,
    modular_symbol_vec,
    slash_poly,
)


@lru_cache(maxsize=None)
def heilbronn_action(space: SymbolSpace, alpha: QuadInt, tie: str = "low") -> SparseMat:
    """Quotient matrix of the family sum of determinant alpha.

    For alpha coprime to the level this is the Hecke operator; the same sum
    with no coprimality restriction defines the Fourier coefficient at alpha.
    """
    fam = heilbronn_family(alpha, tie)
    npts = len(space.points)
    # P -> P(aX+bY, cX+dY) is the slash by the adjugate
    sub_rows = None if space.weight == 2 else [space.slash_rows(m.adj()) for m in fam]
    out = SparseMat(space.dim, space.dim)
    for j, g in enumerate(space.free_gens):
        col: dict = {}
        if space.weight == 2:
            for m in fam:
                pt = space.act_point(g, m)
                if pt is not None:
                    vec_axpy(col, Fraction(1), space.gen_map[pt])
        else:
            comp, p = divmod(g, npts)
            for m, rows in zip(fam, sub_rows):
                pt = space.act_point(p, m)
                if pt is None:
                    continue
                for cj, cv in rows[comp].items():
                    vec_axpy(col, Fraction(cv), space.gen_map[cj * npts + pt])
        for i, c in col.items():
            out.add_to(i, j, c)
    return out


def hecke_matrix(space: SymbolSpace, eta: QuadInt, tie: str = "low") -> SparseMat:
    if eta.is_zero():
        raise ValueError("eta must be nonzero")
    if not gcd(eta, space.level).is_unit():
        raise ValueError("eta must be coprime to the level")
    return heilbronn_action(space, eta, tie)


@dataclass(frozen=True)
class HeckeOperator:
    space: SymbolSpace
    eta: QuadInt
    matrix: SparseMat
    cuspidal_matrix: SparseMat


def hecke_on_manin(space: SymbolSpace, eta: QuadInt, tie: str = "low") -> HeckeOperator:
    """The Hecke operator at eta, with its cuspidal restriction.

    The restriction step doubles as an invariance certificate: it raises
    when a column leaves the cuspidal subspace.
    """
    mat = hecke_matrix(space, eta, tie)
    cusp = cuspidal_subspace(space)
    return HeckeOperator(space, eta, mat, cusp.restrict(mat))


def commute_check(a: HeckeOperator, b: HeckeOperator) -> bool:
    """Exact commutation of two operators on the quotient and its cuspidal part."""
    if a.space is not b.space:
        raise ValueError("operators live on different spaces")
    if (a.matrix * b.matrix) != (b.matrix * a.matrix):
        return False
    return (a.cuspidal_matrix * b.cuspidal_matrix) == (b.cuspidal_matrix * a.cuspidal_matrix)


def coset_count(eta: QuadInt) -> int:
    """Number of left cosets of determinant-eta matrices, sum of divisor norms."""
    return sum(d.norm() for d in divisors_up_to_units(eta))


def same_coset(m1: Mat2, m2: Mat2, nu: QuadInt, eta: QuadInt) -> bool:
    """Whether m2 = gamma * m1 for gamma with det 1, c = 0 and d = 1 mod nu."""
    fld = nu.field
    a = m2 * m1.adj()
    for e in a.entries():
        if not divides(eta, e):
            return False
    q = Mat2(*(exact_div(e, eta) for e in a.entries()))
    return q.det() == fld.one and divides(nu, q.c) and divides(nu, q.d - fld.one)


def coset_representatives(fld: Field, nu: QuadInt, eta: QuadInt) -> list[Mat2]:
    """Coset representatives assembled from column Hermite forms.

    Each canonical divisor delta contributes gamma * [[delta, beta], [0,
    eta/delta]] over a full residue box, with gamma in SL2 chosen to land the
    product in the congruence set (a = 1, c = 0 mod nu).
    """
    if not gcd(eta, nu).is_unit():
        raise ValueError("eta must be coprime to the level")
    reps = []
    for delta in divisors_up_to_units(eta):
        a0 = fld.one if nu.is_unit() else inverse_mod(delta, nu)
        g, s, t = xgcd(a0, nu)
        assert g == fld.one
        gamma = Mat2(a0, -t, nu, s)
        assert gamma.det() == fld.one
        cof = exact_div(eta, delta)
        # two Hermite forms with the same diagonal share a coset exactly when
        # the beta entries agree mod cof, so the box below cof enumerates once
        for beta in residues_mod(cof):
            r = gamma * Mat2(delta, beta, fld.zero, cof)
            assert divides(nu, r.a - fld.one) and divides(nu, r.c)
            reps.append(r)
    return reps


def coset_reps_bruteforce(fld: Field, nu: QuadInt, eta: QuadInt, budget: int = 5) -> list[Mat2]:
    """Desk-scale search for coset representatives of determinant eta.

    Scans integral matrices satisfying det = eta, a = 1 and c = 0 mod nu in
    growing coordinate boxes, keeping one per coset, until the predicted
    count is reached; raises if the budget box is exhausted first.
    """
    if not gcd(eta, nu).is_unit():
        raise ValueError("eta must be coprime to the level")
    target = coset_count(eta)
    for lim in range(1, budget + 1):
        box = [fld.elt(x, y) for x in range(-lim, lim + 1) for y in range(-lim, lim + 1)]
        box.sort(key=lambda z: z.sort_key())
        avals = [a for a in box if divides(nu, a - fld.one)]
        cvals = [c for c in box if divides(nu, c)]
        reps: list[Mat2] = []
        for a in avals:
            for c in cvals:
                if a.is_zero() and c.is_zero():
                    continue
                g, s, t = xgcd(a, c)
                if not divides(g, eta):
                    continue
                w = exact_div(eta, g)
                b0, d0 = -(t * w), s * w
                ag, cg = exact_div(a, g), exact_div(c, g)
                for k in box:
                    m = Mat2(a, b0 + k * ag, c, d0 + k * cg)
                    if not any(same_coset(r, m, nu, eta) for r in reps):
                        reps.append(m)
                        if len(reps) == target:
                            return reps
    raise RuntimeError("coset representative search budget exhausted")


def hecke_oracle(space: SymbolSpace, eta: QuadInt, budget: int = 5,
                 reps: list[Mat2] | None = None) -> HeckeOperator:
    """Recompute the Hecke operator from its coset definition.

    Every generator is lifted to a matrix g, read as a modular symbol from
    g*0 to g*oo, pushed through each representative, and converted back via
    continued fractions.  Shares nothing with the Heilbronn path beyond the
    symbol space itself.
    """
    fld = space.field
    if reps is None:
        reps = coset_reps_bruteforce(fld, space.level, eta, budget)
    npts = len(space.points)
    out = SparseMat(space.dim, space.dim)
    for j, gidx in enumerate(space.free_gens):
        if space.weight == 2:
            p, poly = gidx, None
        else:
            comp, p = divmod(gidx, npts)
            mono, part = divmod(comp, 2)
            poly = {mono: fld.one if part == 0 else fld.omega}
        u, v = space.points[p]
        g = lift_to_sl2(fld, space.level, u, v)
        base = None if poly is None else slash_poly(poly, g, space.weight)
        col: dict = {}
        for r in reps:
            alpha = r.act_cusp(g.b, g.d)
            beta = r.act_cusp(g.a, g.c)
            moved = None if base is None else slash_poly(base, r, space.weight)
            vec_axpy(col, 1, modular_symbol_vec(space, alpha, beta, moved))
        for i, c in col.items():
            out.add_to(i, j, c)
    cusp = cuspidal_subspace(space)
    return HeckeOperator(space, eta, out, cusp.restrict(out))


@dataclass
class EigenSystem:
    label: str
    eigenvalues: dict[QuadInt, Fraction]
    dim: int
    vector: dict | None = None
    functional: dict | None = None


@dataclass
class EigenTable:
    space: SymbolSpace
    etas: list[QuadInt]
    systems: list[EigenSystem] = field(default_factory=list)
    residual_factors: list[tuple[QuadInt, list[int]]] = field(default_factory=list)


def _label(idx: int) -> str:
    s = ""
    idx += 1
    while idx:
        idx, r = divmod(idx - 1, 26)
        s = chr(97 + r) + s
    return s


def _left_functional(space: SymbolSpace, etas, vals, vector) -> dict | None:
    # simultaneous left eigenvector, normalized to pair to 1 with vector
    F = full_space(space.dim)
    for eta in etas:
        at = hecke_matrix(space, eta).transpose()
        F = eigenspace(F.restrict(at), F, vals[eta])
        if F.dim == 0:
            return None
    for phi in F.basis:
        c = vec_dot(phi, vector)
        if c:
            return {key: val / c for key, val in phi.items()}
    return None


def eigensystems(space: SymbolSpace, etas: list[QuadInt]) -> EigenTable:
    """Simultaneous rational eigensystems of the cuspidal Hecke action.

    Refines through the given etas in order of increasing norm.  Systems are
    labelled a, b, ... after sorting by eigenvalue tuple; one-dimensional
    systems carry an eigenvector (quotient coordinates) and a left
    functional scaled so functional(vector) = 1.
    """
    order = []
    for eta in sorted(etas, key=lambda e: e.sort_key()):
        if eta.is_zero() or not gcd(eta, space.level).is_unit():
            raise ValueError("eta must be nonzero and coprime to the level")
        if eta not in order:
            order.append(eta)
    cusp = cuspidal_subspace(space)
    table = EigenTable(space, order)
    if cusp.dim == 0:
        return table
    pieces: list[tuple[dict, Subspace]] = [({}, full_space(cusp.dim))]
    for eta in order:
        mat = cusp.restrict(hecke_matrix(space, eta))
        refined = []
        for vals, sub in pieces:
            eigs, residual = rational_eigensystem(mat, sub)
            if len(residual) > 1:
                table.residual_factors.append((eta, residual))
            for val, es in eigs:
                nv = dict(vals)
                nv[eta] = val
                refined.append((nv, es))
        pieces = refined
    pieces.sort(key=lambda piece: tuple(piece[0][e] for e in order))
    for idx, (vals, sub) in enumerate(pieces):
        vector = functional = None
        if sub.dim == 1:
            vector = cusp.lift(sub.basis[0])
            functional = _left_functional(space, order, vals, vector)
        table.systems.append(EigenSystem(_label(idx), vals, sub.dim, vector, functional))
    return table

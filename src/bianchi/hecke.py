"""Hecke operators on the symbol quotient.

The production action pushes a Heilbronn family of determinant eta through
the generators: [P, (u, v)] goes to the sum of [P(aX+bY, cX+dY), (u, v)M]
over family members M with unimodular image pair, at every weight.  It
runs on int64 arrays, a batch of operators at a time: heilbronn_actions
moves every free generator's point through every family of the batch in
one SymbolSpace.act_points call, and each operator is the space's quotient
map (SymbolSpace.qmap) at its family's images, weighted by the members'
integer slash coefficients (slash_tensor) and summed over the family.  A
command builds every operator it needs in one batch (hecke_operators,
eigensystems); heilbronn_action and hecke_on_manin are batches of one.  An
operator is a linalg.IntMat, an int64 array over the map's denominator; its
cuspidal restriction, the commutation check, its JSON and the eigen
refinement (eigenvalues, eigenvectors and left functionals) all run on
those ints.  An oracle recomputes the operator as a sum over Hermite-form
coset representatives of the determinant-eta congruence matrices, acting
on cusp paths; the tests check those cosets against a brute-force search.
Agreement of the two matrices is the correctness certificate for this
layer.

The operators are functions of the space and the determinant only.  Every
Heilbronn family that satisfies Merel's condition gives the same matrix on
the symbol quotient, and the telescoping certificate checks that condition
for every family, so the Euclidean tie rule that picks one family belongs
to the heilbronn module and is no parameter here.  Nothing is memoised: a
caller that needs an operator twice keeps the matrix it built, and a
caller that needs several asks for them in one batch.

Rational eigensystem extraction refines the cuspidal subspace through the
operators in order of increasing norm, reporting irrational characteristic
factors instead of splitting them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boundary import cuspidal_subspace
from .heilbronn import DEFAULT_TIE, heilbronn_family
from .linalg import (
    INT64_MAX,
    IntMat,
    Subspace,
    absmax,
    eigenspace,
    full_space,
    int_product,
    rational_eigensystem,
    vec_axpy,
    vec_dot,
)
from .quadints import (
    Field,
    InvariantError,
    QuadInt,
    coprime,
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
    slash_tensor,
)


def heilbronn_actions(space: SymbolSpace, alphas: list[QuadInt]) -> list[IntMat]:
    """Quotient matrix of the family sum of each determinant in alphas.

    For alpha coprime to the level this is the Hecke operator.  With no
    coprimality restriction, phi(M v) is the operator side of the
    coefficient identity that fourier_coefficients is checked against.

    There is no tie parameter: any family satisfying Merel's condition,
    which the telescoping certificate checks, gives this same matrix, so
    the family of heilbronn.DEFAULT_TIE is used.

    One SymbolSpace.act_points call moves every free generator's point
    through every family of the batch, and one slash_tensor call gives
    every member's slash coefficients (at weight 2, the one coefficient 1).
    Column j of an operator, the image of free generator j, sums over its
    family and the components cj of the slash of j's component by the
    member's adjugate the coefficient of cj times the quotient map's terms
    at generator cj at the moved point, on int64 over the map's
    denominator: one batched matmul per family.  InvariantError when a
    slash coefficient, or a sum under the batch's one bound, could leave it.
    """
    if not alphas:
        return []
    fams = [heilbronn_family(alpha, DEFAULT_TIE) for alpha in alphas]
    sizes = [len(fam) for fam in fams]
    members = np.asarray([row for fam in fams for row in fam], dtype=np.int64).reshape(-1, 8)
    qmap, npts = space.qmap, space.npts
    comps, pts = np.divmod(np.asarray(space.free_gens, dtype=np.int64), npts)
    ncomp, r = qmap.ngens // npts, qmap.row.shape[1]
    # weights[m, j, cj]: the coefficient of component cj in the slash of free
    # generator j's component by the adjugate (d, -b, -c, a) of member m,
    # which is P -> P(aX+bY, cX+dY)
    weights = slash_tensor(space.field, space.weight,
                           members[:, [6, 7, 2, 3, 4, 5, 0, 1]] * [1, 1, -1, -1, -1, -1, 1, 1])
    if weights.dtype == object:
        raise InvariantError(f"weight-{space.weight} slash coefficients of the families "
                             f"leave int64 (d={space.field.d})")
    weights = weights[:, comps, :ncomp]
    # one bound on every family's sums: largest family * weight * map reach
    if max(sizes) * absmax(weights) * ncomp * qmap.reach > INT64_MAX:
        raise InvariantError(f"slash coefficients over {max(sizes)} family rows overflow int64 "
                             f"on the quotient map (d={space.field.d}, etas "
                             f"{', '.join(map(str, alphas))})")
    starts = np.cumsum([0, *sizes]) * ncomp * r
    images = space.act_points(pts, members)[..., None]
    keys = np.where(images >= 0, images + npts * np.arange(ncomp), -1)
    # terms[j, (m, cj, t)]: weight times coefficient of the map's term t at
    # generator cj * npts + (image of j's point by m); rows, its row
    terms = (weights.transpose(1, 0, 2)[..., None]
             * qmap.coef[keys]).reshape(len(comps), len(members) * ncomp * r)
    rows = qmap.row[keys].reshape(terms.shape)
    cols = [np.matmul(terms[:, None, a:b], qmap.matrix[rows[:, a:b]])[:, 0]
            for a, b in zip(starts, starts[1:])]
    return [IntMat(np.ascontiguousarray(col.T), qmap.den) for col in cols]


def heilbronn_action(space: SymbolSpace, alpha: QuadInt) -> IntMat:
    """heilbronn_actions for one determinant."""
    return heilbronn_actions(space, [alpha])[0]


def check_eta(space: SymbolSpace, eta: QuadInt) -> None:
    """ValueError unless eta gives a Hecke operator on the space: eta must be
    nonzero and coprime to the level, and its family within START_LIMIT
    (heilbronn_family builds it, and keeps it for the operator)."""
    if eta.is_zero():
        raise ValueError("eta must be nonzero")
    if not coprime(eta, space.level):
        raise ValueError("eta must be coprime to the level")
    heilbronn_family(eta, DEFAULT_TIE)


def hecke_matrix(space: SymbolSpace, eta: QuadInt) -> IntMat:
    check_eta(space, eta)
    return heilbronn_action(space, eta)


@dataclass(frozen=True)
class HeckeOperator:
    space: SymbolSpace
    eta: QuadInt
    matrix: IntMat
    cuspidal_matrix: IntMat


def hecke_operators(space: SymbolSpace, etas: list[QuadInt]) -> list[HeckeOperator]:
    """The Hecke operator at each eta, with its cuspidal restriction, from
    one heilbronn_actions batch; every eta is checked first, in order.

    The restriction step doubles as an invariance certificate: it raises
    when a column leaves the cuspidal subspace.
    """
    for eta in etas:
        check_eta(space, eta)
    cusp = cuspidal_subspace(space)
    return [HeckeOperator(space, eta, mat, cusp.restrict_ints(mat))
            for eta, mat in zip(etas, heilbronn_actions(space, etas))]


def hecke_on_manin(space: SymbolSpace, eta: QuadInt) -> HeckeOperator:
    """hecke_operators for one eta."""
    return hecke_operators(space, [eta])[0]


def commute_check(a: HeckeOperator, b: HeckeOperator) -> bool:
    """Exact commutation of two operators on the quotient and its cuspidal part.

    X / dx and Y / dy commute exactly when X @ Y == Y @ X, two int64
    products per pair.  int_product refuses X @ Y with InvariantError where
    it could overflow, and its bound n |X| |Y| covers Y @ X as well.
    """
    if a.space is not b.space:
        raise ValueError("operators live on different spaces")
    for x, y in ((a.matrix, b.matrix), (a.cuspidal_matrix, b.cuspidal_matrix)):
        if not np.array_equal(int_product(x.num, y.num), y.num @ x.num):
            return False
    return True


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
        if g != fld.one:
            raise InvariantError(f"{a0} is not invertible mod {nu}: gcd {g} (d={fld.d})")
        gamma = Mat2(a0, -t, nu, s)
        if gamma.det() != fld.one:
            raise InvariantError(f"{gamma!r} has determinant {gamma.det()}, not 1 (d={fld.d})")
        cof = exact_div(eta, delta)
        # two Hermite forms with the same diagonal share a coset exactly when
        # the beta entries agree mod cof, so the box below cof enumerates once
        for beta in residues_mod(cof):
            r = gamma * Mat2(delta, beta, fld.zero, cof)
            if not (divides(nu, r.a - fld.one) and divides(nu, r.c)):
                raise InvariantError(f"coset {r!r} of determinant {eta} misses the "
                                     f"congruences mod {nu} (d={fld.d})")
            reps.append(r)
    return reps


def hecke_oracle(space: SymbolSpace, eta: QuadInt) -> HeckeOperator:
    """Recompute the Hecke operator from its coset definition.

    The cosets come from coset_representatives: Hermite forms moved into
    the congruence set by one SL2 matrix, not the division chains of the
    Heilbronn family.  Every generator [P, (u, v)] (SymbolSpace.generator)
    is lifted to a matrix g, read as the modular symbol from g*0 to g*oo
    times P|g, pushed through each representative, and converted back via
    continued fractions and point_of (slash_poly on QuadInts at every
    weight), not act_points or slash_tensor, and summed as Fractions.  Beyond
    the symbol space, the two paths share only divisors_up_to_units, which
    both use to list the divisors of eta, the quotient map, and the
    cuspidal restriction of the result.
    """
    fld = space.field
    reps = coset_representatives(fld, space.level, eta)
    cols = []
    for gidx in space.free_gens:
        poly, p = space.generator(gidx)
        g = lift_to_sl2(fld, space.level, *space.point(p))
        base = slash_poly(poly, g, space.weight)
        col: dict = {}
        for r in reps:
            alpha = r.act_cusp(g.b, g.d)
            beta = r.act_cusp(g.a, g.c)
            moved = slash_poly(base, r, space.weight)
            vec_axpy(col, 1, modular_symbol_vec(space, alpha, beta, moved))
        cols.append(col)
    mat = IntMat.from_columns(cols, space.dim)
    return HeckeOperator(space, eta, mat, cuspidal_subspace(space).restrict_ints(mat))


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


def _left_functional(dim: int, mats: dict[QuadInt, IntMat], vals, vector) -> dict | None:
    # simultaneous left eigenvector of the full operators, normalized to pair
    # to 1 with vector; None when their transposes share no eigenvector with
    # these eigenvalues
    F = full_space(dim)
    for eta, mat in mats.items():
        F = eigenspace(F.restrict_ints(IntMat(mat.num.T, mat.den)), F, vals[eta])
        if F.dim == 0:
            return None
    for phi in F.basis:
        c = vec_dot(phi, vector)
        if c:
            return {key: val / c for key, val in phi.items()}
    return None


def eigensystems(space: SymbolSpace, etas: list[QuadInt]) -> EigenTable:
    """Simultaneous rational eigensystems of the cuspidal Hecke action.

    Every distinct eta is checked by check_eta before any operator is
    built.  Refines through the given etas in order of increasing norm.
    Systems are labelled a, b, ... after sorting by eigenvalue tuple;
    one-dimensional systems carry an eigenvector (quotient coordinates) and
    a left functional scaled so functional(vector) = 1.
    """
    order = []
    for eta in sorted(etas, key=lambda e: e.sort_key()):
        if eta not in order:
            check_eta(space, eta)
            order.append(eta)
    cusp = cuspidal_subspace(space)
    table = EigenTable(space, order)
    if cusp.dim == 0:
        return table
    pieces: list[tuple[dict, Subspace]] = [({}, full_space(cusp.dim))]
    mats = dict(zip(order, heilbronn_actions(space, order)))
    for eta in order:
        mat = cusp.restrict_ints(mats[eta])
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
            functional = _left_functional(space.dim, mats, vals, vector)
        table.systems.append(EigenSystem(_label(idx), vals, sub.dim, vector, functional))
    return table

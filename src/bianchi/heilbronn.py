"""Heilbronn families: determinant-eta matrices driving the Hecke action.

For each canonical divisor delta of eta and each minimal-norm residue beta
below delta, a division chain starting from (delta, beta) produces a run of
matrices of determinant eta; the run for beta = 0 is the single diagonal
matrix.  Because the beta are global norm minimizers in their classes, the
chain quotients are never units and the top-right norms strictly decrease,
so every run terminates in a matrix with top-right entry zero.

The chains run on plain ints: a family is a tuple of 8-int rows
(a.a, a.b, b.a, b.b, c.a, c.b, d.a, d.b), each step is one call of
quadints.divide_ints (the single division kernel, which
euclidean_division wraps for QuadInts), and the determinant of every row
is checked as ints.  A failed invariant (unit quotient, norms that do not
decrease, wrong determinant) raises InvariantError, which survives
python -O.  Mat2.from_row turns a row back into a matrix where the
certificates need one.

Grouped by unimodular equivalence (M ~ M' when adj(M') M / eta lies in
SL2(O)), the cusp paths of each class chain from oo to 0; that telescoping
is the correctness certificate checked by the tests.
"""

from __future__ import annotations

from functools import lru_cache

from .quadints import (
    Field,
    InvariantError,
    QuadInt,
    divide_ints,
    divisors_up_to_units,
    exact_div,
    reduce_mod,
    residues_below,
    xgcd,
)
from .symbols import Mat2, normalize_cusp


# The tie rule of the family that Hecke operators and coefficient tables
# use.  Every family that passes the telescoping certificate gives the same
# operator on the symbol quotient (Merel's condition), so this only fixes
# one.  Callers pass it positionally, as the certificates pass theirs:
# lru_cache keys heilbronn_family(eta) and heilbronn_family(eta, "low") apart.
DEFAULT_TIE = "low"


def _chain(fld: Field, delta: tuple[int, int], beta: tuple[int, int],
           cof: tuple[int, int], tie: str) -> list[tuple[int, ...]]:
    # rows [[x0, x1], [y0, y1]] from [[delta, beta], [0, cof]]: x2 = x1*q - x0
    # is minus the remainder of x0 by x1, and y2 = y1*q - y0
    t, m = fld.t, fld.m
    x0a, x0b = delta
    x1a, x1b = beta
    y0a = y0b = 0
    y1a, y1b = cof
    n1 = x1a * x1a + t * x1a * x1b + m * x1b * x1b
    out = []
    while True:
        out.append((x0a, x0b, x1a, x1b, y0a, y0b, y1a, y1b))
        if not n1:
            return out
        qa, qb, ra, rb = divide_ints(fld, x0a, x0b, x1a, x1b, tie)
        if qa * qa + t * qa * qb + m * qb * qb == 1:
            raise InvariantError(f"unit chain quotient at ({delta}, {beta}), d={fld.d}")
        n2 = ra * ra + t * ra * rb + m * rb * rb
        if n2 and n2 >= n1:
            raise InvariantError(f"chain norms failed to decrease at ({delta}, {beta}), "
                                 f"d={fld.d}: {n1} -> {n2}")
        qbb = y1b * qb
        y2a = y1a * qa - m * qbb - y0a
        y2b = y1a * qb + y1b * qa + t * qbb - y0b
        x0a, x0b, x1a, x1b, n1 = x1a, x1b, -ra, -rb, n2
        y0a, y0b, y1a, y1b = y1a, y1b, y2a, y2b


@lru_cache(maxsize=None)
def heilbronn_family(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[tuple[int, ...], ...]:
    """The full determinant-eta family as 8-int rows, in deterministic order.

    For a unit u, heilbronn_family(u*eta) is heilbronn_family(eta) row for
    row with the bottom-row entries c and d multiplied by u: u*eta has the
    same divisors and residues, a chain's top rows depend only on delta and
    beta, and its bottom rows are linear in the cofactor, which becomes
    u*cof.  fourier_coefficients builds only the canonical families.
    """
    if eta.is_zero():
        raise ValueError("determinant must be nonzero")
    fld = eta.field
    t, m = fld.t, fld.m
    out: list[tuple[int, ...]] = []
    for delta in divisors_up_to_units(eta):
        cof = exact_div(eta, delta)
        for beta in residues_below(delta, tie):
            for row in _chain(fld, (delta.a, delta.b), (beta.a, beta.b), (cof.a, cof.b), tie):
                aa, ab, ba, bb, ca, cb, da, db = row
                # a*d - b*c, with omega^2 = t*omega - m
                abd, bbc = ab * db, bb * cb
                if (aa * da - m * abd - ba * ca + m * bbc != eta.a
                        or aa * db + ab * da + t * abd - ba * cb - bb * ca - t * bbc != eta.b):
                    raise InvariantError(f"family row {row} has determinant other than "
                                         f"{eta} (d={fld.d})")
                out.append(row)
    return tuple(out)


@lru_cache(maxsize=None)
def heilbronn_classes(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[tuple[int, ...], ...]:
    """Partition of the family into unimodular classes (index tuples).

    M ~ M' when adj(M) M' / eta is integral; both determinants are eta, so
    that quotient lies in SL2(O) and the classes are the orbits M SL2(O),
    told apart by the column lattice M O^2.  With a x + b y = g, g the
    canonical gcd of the top row, the column operation
    [[x, -b/g], [y, a/g]] in SL2(O) takes M to [[g, 0], [e, eta/g]] with
    e = c x + d y, and e is fixed mod eta/g.  So (g, e reduced mod eta/g)
    is one key per class.  Classes come in order of their first row, and
    each lists its rows in family order.
    """
    fld = eta.field
    classes: dict = {}
    for i, (aa, ab, ba, bb, ca, cb, da, db) in enumerate(heilbronn_family(eta, tie)):
        g, x, y = xgcd(QuadInt(fld, aa, ab), QuadInt(fld, ba, bb))
        e = QuadInt(fld, ca, cb) * x + QuadInt(fld, da, db) * y
        classes.setdefault((g, reduce_mod(e, exact_div(eta, g))), []).append(i)
    return tuple(map(tuple, classes.values()))


def class_path_sums(eta: QuadInt, tie: str = DEFAULT_TIE, family=None) -> list[dict]:
    """Formal cusp sums sum([M oo] - [M 0]) for each class.

    A correct family telescopes each class to [oo] - [0].  The partition
    into classes is always that of heilbronn_family(eta, tie); family, when
    given, supplies the rows summed in its place, so that a corrupted copy
    can be put through the same certificate.
    """
    fam = heilbronn_family(eta, tie) if family is None else family
    sums = []
    for cls in heilbronn_classes(eta, tie):
        total: dict = {}
        for i in cls:
            m = Mat2.from_row(eta.field, fam[i])
            top = normalize_cusp(m.a, m.c)
            bot = normalize_cusp(m.b, m.d)
            total[top] = total.get(top, 0) + 1
            total[bot] = total.get(bot, 0) - 1
        sums.append({k: v for k, v in total.items() if v})
    return sums


def telescoping_ok(eta: QuadInt, tie: str = DEFAULT_TIE) -> bool:
    """Check the certificate: every class path sum equals [oo] - [0]."""
    fld = eta.field
    inf = normalize_cusp(fld.one, fld.zero)
    zero = normalize_cusp(fld.zero, fld.one)
    return all(s == {inf: 1, zero: -1} for s in class_path_sums(eta, tie))

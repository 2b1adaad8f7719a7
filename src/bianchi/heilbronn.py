"""Heilbronn families: determinant-eta matrices driving the Hecke action.

For each canonical divisor delta of eta and each minimal-norm residue beta
below delta, a division chain starting from (delta, beta) produces a run of
matrices of determinant eta; the run for beta = 0 is the single diagonal
matrix.  Because the beta are global norm minimizers in their classes, the
chain quotients are never units and the top-right norms strictly decrease,
so every run terminates in a matrix with top-right entry zero.

Grouped by unimodular equivalence (M ~ M' when adj(M') M / eta lies in
SL2(O)), the cusp paths of each class chain from oo to 0; that telescoping
is the correctness certificate checked by the tests.
"""

from __future__ import annotations

from functools import lru_cache

from .quadints import (
    QuadInt,
    divides,
    divisors_up_to_units,
    euclidean_division,
    exact_div,
    residues_below,
)
from .symbols import Mat2, normalize_cusp


# The tie rule of the family that Hecke operators and coefficient tables
# use.  Every family that passes the telescoping certificate gives the same
# operator on the symbol quotient (Merel's condition), so this only fixes
# one.  Callers pass it positionally, as the certificates pass theirs:
# lru_cache keys heilbronn_family(eta) and heilbronn_family(eta, "low") apart.
DEFAULT_TIE = "low"


def _chain(delta: QuadInt, beta: QuadInt, cof: QuadInt, tie: str) -> list[Mat2]:
    fld = delta.field
    if beta.is_zero():
        return [Mat2(delta, beta, fld.zero, cof)]
    out = []
    x0, x1 = delta, beta
    y0, y1 = fld.zero, cof
    while True:
        out.append(Mat2(x0, x1, y0, y1))
        if x1.is_zero():
            return out
        q, _ = euclidean_division(x0, x1, tie)
        assert not q.is_unit(), f"unit chain quotient at ({delta}, {beta})"
        x2 = x1 * q - x0
        y2 = y1 * q - y0
        if not x2.is_zero() and x2.norm() >= x1.norm():
            raise AssertionError(
                f"chain norms failed to decrease at ({delta}, {beta}): "
                f"{x1.norm()} -> {x2.norm()}"
            )
        x0, x1, y0, y1 = x1, x2, y1, y2


@lru_cache(maxsize=None)
def heilbronn_family(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[Mat2, ...]:
    """The full determinant-eta family, in deterministic order."""
    if eta.is_zero():
        raise ValueError("determinant must be nonzero")
    out: list[Mat2] = []
    for delta in divisors_up_to_units(eta):
        cof = exact_div(eta, delta)
        for beta in residues_below(delta, tie):
            for m in _chain(delta, beta, cof, tie):
                assert m.det() == eta
                out.append(m)
    return tuple(out)


def _same_class(m1: Mat2, m2: Mat2, eta: QuadInt) -> bool:
    a = m1.adj() * m2
    for e in a.entries():
        if not divides(eta, e):
            return False
    fld = eta.field
    q = Mat2(*(exact_div(e, eta) for e in a.entries()))
    return q.det() == fld.one


@lru_cache(maxsize=None)
def heilbronn_classes(eta: QuadInt, tie: str = DEFAULT_TIE) -> tuple[tuple[int, ...], ...]:
    """Partition of the family into unimodular classes (index tuples)."""
    fam = heilbronn_family(eta, tie)
    assigned = [-1] * len(fam)
    classes: list[tuple[int, ...]] = []
    for i in range(len(fam)):
        if assigned[i] >= 0:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, len(fam)):
            if assigned[j] < 0 and _same_class(fam[i], fam[j], eta):
                cls.append(j)
                assigned[j] = len(classes)
        classes.append(tuple(cls))
    return tuple(classes)


def class_path_sums(eta: QuadInt, tie: str = DEFAULT_TIE, family=None) -> list[dict]:
    """Formal cusp sums sum([M oo] - [M 0]) for each class.

    A correct family telescopes each class to [oo] - [0].  The partition
    into classes is always that of heilbronn_family(eta, tie); family, when
    given, supplies the matrices summed in its place, so that a corrupted
    copy can be put through the same certificate.
    """
    fam = heilbronn_family(eta, tie) if family is None else family
    sums = []
    for cls in heilbronn_classes(eta, tie):
        total: dict = {}
        for i in cls:
            m = fam[i]
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

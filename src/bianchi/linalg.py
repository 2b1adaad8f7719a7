"""Exact linear algebra over the rationals.

Vectors are dicts {index: Fraction} holding only the nonzero entries.  rref
returns the unique reduced row echelon form of the span of a list of such
row dicts (ints or Fractions) with monic pivots, built incrementally on
primitive integer rows by rref_ints (which the symbol builds read
directly), so it does not depend on the order or scaling of the input rows;
kernels, subspaces and eigenspaces built on it are canonical functions of
their input.

IntMat is the one matrix type: a rational matrix as an int64 array over
one denominator, the form the Hecke operators take.  Subspace.restrict_ints
restricts one to an invariant subspace, int_product multiplies two, and
both refuse with InvariantError a product that could leave int64.  The
eigen refinement reduces a restriction to its lowest denominator D: charpoly
on the integer matrix gives the characteristic polynomial, integer_roots
reads its rational roots off as integers mu, and each eigenspace is the
kernel of the integer rows of D times the restriction minus mu I.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd as _igcd, isqrt, lcm as _ilcm

import numpy as np

from .quadints import InvariantError

INT64_MAX = int(np.iinfo(np.int64).max)


def vec_axpy(u: dict, c, v: dict) -> dict:
    """u += c*v in place; returns u."""
    if c:
        for k, x in v.items():
            s = u.get(k, 0) + c * x
            if s:
                u[k] = s
            else:
                u.pop(k, None)
    return u


def vec_dot(u: dict, v: dict):
    if len(u) > len(v):
        u, v = v, u
    return sum((c * v[k] for k, c in u.items() if k in v), Fraction(0))


def absmax(a: np.ndarray) -> int:
    """The largest |entry| of an int64 or object (Python int) array, as a
    Python int; 0 when empty."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def int_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on int64 arrays; InvariantError when a sum could leave int64."""
    bound = a.shape[1] * absmax(a) * absmax(b)
    if bound > INT64_MAX:
        raise InvariantError(f"{a.shape} by {b.shape} int64 product could reach {bound}")
    return a @ b


def check_int64(vals: list[int], den: int, what: str) -> None:
    """InvariantError unless den and every numerator in vals fit int64."""
    if den > INT64_MAX or any(abs(v) > INT64_MAX for v in vals):
        raise InvariantError(f"{what}: numerators or the denominator {den} leave int64")


def _int_rows(vectors: list[dict], width: int, what: str) -> tuple[np.ndarray, int]:
    # (den * vectors as the rows of an int64 array, den), den the lcm of the
    # denominators of the {index: rational} vectors
    den = _ilcm(1, *(c.denominator for v in vectors for c in v.values()))
    at = [(i, k) for i, v in enumerate(vectors) for k in v]
    vals = [c.numerator * (den // c.denominator) for v in vectors for c in v.values()]
    check_int64(vals, den, what)
    out = np.zeros((len(vectors), width), dtype=np.int64)
    if at:
        out[tuple(zip(*at))] = vals
    return out, den


def _fraction_texts(num: np.ndarray, den: int) -> list[str]:
    # str(Fraction(n, den)) for each n of a 1-D int64 array, with numpy gcds
    g = np.gcd(num, den)
    return [f"{n}" if d == 1 else f"{n}/{d}"
            for n, d in zip((num // g).tolist(), (den // g).tolist())]


class IntMat:
    """The rational matrix num / den: num a read-only 2-D int64 array, den a
    positive int.  Two IntMats are equal when they are the same rational
    matrix, whatever their denominators."""

    __slots__ = ("num", "den", "__weakref__")

    def __init__(self, num: np.ndarray, den: int) -> None:
        if not 0 < den <= INT64_MAX:
            raise InvariantError(f"matrix denominator {den} is outside int64")
        num.flags.writeable = False
        self.num, self.den = num, den

    @classmethod
    def from_columns(cls, cols: list[dict], nrows: int) -> IntMat:
        """The matrix whose column j is the {row: rational} vector cols[j];
        InvariantError when its numerators or denominator leave int64."""
        rows, den = _int_rows(cols, nrows, "matrix")
        return cls(rows.T, den)

    def _reduced(self) -> tuple[np.ndarray, int]:
        g = int(np.gcd.reduce(self.num, axis=None, initial=self.den))
        return self.num // g, self.den // g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMat):
            return NotImplemented
        (a, da), (b, db) = self._reduced(), other._reduced()
        return da == db and a.shape == b.shape and np.array_equal(a, b)

    def matvec(self, v: dict) -> dict:
        """The product with a {column: rational} vector, as {row: Fraction}
        holding the nonzero entries."""
        den = self.den
        cols = list(v)
        out = {}
        for i, line in enumerate(self.num[:, cols].tolist()):
            s = sum((a * c for a, c in zip(line, v.values()) if a), Fraction(0)) / den
            if s:
                out[i] = s
        return out

    def to_json(self) -> dict:
        """{"rows", "cols", "entries"}, with [i, j, str(Fraction)] for each
        nonzero entry in row-major order."""
        rows, cols = np.nonzero(self.num)
        texts = _fraction_texts(self.num[rows, cols], self.den)
        nrows, ncols = self.num.shape
        return {"rows": nrows, "cols": ncols,
                "entries": [list(e) for e in zip(rows.tolist(), cols.tolist(), texts)]}


def _primitive_row(row: dict) -> dict[int, int]:
    # a new dict of coprime integers proportional to the rational row
    row = {k: c for k, c in row.items() if c}
    return dict(zip(row, _primitive(list(row.values())))) if row else {}


def _eliminate(row: dict[int, int], col: int, prow: dict[int, int]) -> dict[int, int]:
    # clear row's col entry with prow and divide out the content; row is a
    # private integer row, updated in place unless it has to be rescaled
    a, b = row[col], prow[col]
    g = _igcd(a, b)
    a, b = a // g, b // g
    if b != 1:
        row = {k: b * c for k, c in row.items()}
    for k, c in prow.items():
        s = row.get(k, 0) - a * c
        if s:
            row[k] = s
        else:
            del row[k]
    g = _igcd(*row.values())
    return row if g == 1 else {k: c // g for k, c in row.items()}


def rref_ints(rows: list[dict]) -> dict[int, dict[int, int]]:
    """The reduced echelon form of rref on primitive integer rows.

    Returns {pivot column: row}: each row is a dict of coprime ints with a
    positive entry at its pivot column and none at the other pivot columns,
    and rref's row at that pivot is it divided by that entry.  The rows may
    hold ints or Fractions and are not modified.

    The form is kept incrementally.  An incoming row is cleared at the
    existing pivot columns; one pass suffices because the stored rows are
    reduced against each other.  A nonzero remainder becomes a new pivot at
    its leading column, which is then cleared from the stored rows found
    through a column -> pivot columns index.
    """
    piv: dict[int, dict[int, int]] = {}
    # column -> pivot columns whose stored row held it (entries may be stale)
    users: dict[int, set[int]] = {}
    for r in rows:
        row = _primitive_row(r)
        for col in [c for c in row if c in piv]:
            row = _eliminate(row, col, piv[col])
        if not row:
            continue
        lead = min(row)
        if row[lead] < 0:
            # positive pivot entries let most eliminations skip the rescale
            row = {k: -c for k, c in row.items()}
        for pc in users.pop(lead, ()):
            prow = piv[pc]
            if lead in prow:
                for k in row.keys() - prow.keys():
                    users.setdefault(k, set()).add(pc)
                piv[pc] = _eliminate(prow, lead, row)
        piv[lead] = row
        for k in row:
            if k != lead:
                users.setdefault(k, set()).add(lead)
    return piv


def rref(rows: list[dict]) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form of a list of row dicts.

    Returns (out_rows, pivots): the unique reduced echelon basis of the row
    span, with monic pivots and Fraction entries, each row's keys ascending,
    out_rows ordered by pivot column and pivots mapping pivot column -> row
    index.  The result depends only on the span, not on the order or scale
    of the input rows, which may hold ints or Fractions and are not modified.
    The rows are rref_ints' rows over their pivot entries.
    """
    piv = rref_ints(rows)
    out = []
    for col in sorted(piv):
        prow = piv[col]
        d = prow[col]
        out.append({k: Fraction(prow[k], d) for k in sorted(prow)})
    return out, {min(r): i for i, r in enumerate(out)}


def kernel(rows: list[dict], ncols: int) -> list[dict]:
    """Canonical basis of the right kernel of the matrix with these row
    dicts and ncols columns, echelonized over the free columns."""
    rows, pivots = rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = {f: Fraction(1)}
        for col, ri in pivots.items():
            c = rows[ri].get(f)
            if c:
                v[col] = -c
        basis.append(v)
    return basis


class Subspace:
    """A subspace of Q^n carried as a reduced echelon basis."""

    def __init__(self, ambient: int, vectors: list[dict]) -> None:
        self.ambient = ambient
        self.basis, self.pivots = rref(vectors)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def lift(self, coords: dict) -> dict:
        """Ambient vector with the given coordinates in the echelon basis."""
        out: dict = {}
        for i, c in coords.items():
            vec_axpy(out, c, self.basis[i])
        return out

    def coords(self, v: dict) -> dict | None:
        """Coordinates of v in the echelon basis, or None when v lies outside."""
        r = {k: c for k, c in v.items() if c}
        out = {}
        for col, ri in self.pivots.items():
            c = r.get(col)
            if c:
                out[ri] = c
                vec_axpy(r, -c, self.basis[ri])
        return None if r else out

    @cached_property
    def int_basis(self) -> tuple[np.ndarray, int, list[int]]:
        """(B, bden, cols): column i of the ambient x dim int64 array B is
        bden times basis[i], and cols lists the pivot columns in basis order."""
        rows, bden = _int_rows(self.basis, self.ambient, "subspace basis")
        basis = rows.T.copy()
        basis.flags.writeable = False
        return basis, bden, sorted(self.pivots)

    def restrict_ints(self, mat: IntMat) -> IntMat:
        """Matrix of an invariant operator in the echelon basis (columns =
        images), over den * bden.

        V = mat.num @ B holds den * bden times the images of the basis, and,
        the basis being reduced echelon with monic pivots, C = V[pivots]
        holds their coordinates; the subspace is invariant exactly when
        V * bden == B @ C.  The echelon basis of the whole space is the
        identity, so there the restriction is mat itself.
        """
        if self.dim == self.ambient == mat.num.shape[1]:
            return mat
        basis, bden, cols = self.int_basis
        images = int_product(mat.num, basis)
        coords = images[cols]
        reach = absmax(images)
        if reach * bden > INT64_MAX:
            raise InvariantError(f"images up to {reach} times {bden} leave int64")
        if not np.array_equal(images * bden, int_product(basis, coords)):
            raise ValueError("subspace is not invariant under the operator")
        return IntMat(coords, mat.den * bden)


def charpoly(num: list[list[int]]) -> list[int]:
    """det(x - A) for a square matrix A of Python ints, constant term first.

    Faddeev-LeVerrier (Cohen, GTM 138, section 2.2) on a numpy object array
    of Python ints: with M_1 = A, c_(n-k) = -tr(M_k) / k and M_(k+1) =
    A (M_k + c_(n-k) I).  Every division is exact, so the polynomial is
    monic with int coefficients.
    """
    n = len(num)
    a = np.array(num, dtype=object).reshape(n, n)
    coeffs = [0] * n + [1]
    diag = np.diag_indices(n)
    m = np.identity(n, dtype=object)
    for k in range(1, n + 1):
        m = a.dot(m)
        tr = int(m.trace())
        if tr % k:
            raise InvariantError(f"Faddeev-LeVerrier trace {tr} is not divisible by {k}")
        coeffs[n - k] = -tr // k
        m[diag] += coeffs[n - k]
    return coeffs


def poly_eval(coeffs: list, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list, r) -> list:
    # divide by (x - r), assuming r is a root; constant-first coefficients
    n = len(coeffs) - 1
    q = [0] * n
    q[n - 1] = coeffs[n]
    for i in range(n - 1, 0, -1):
        q[i - 1] = coeffs[i] + r * q[i]
    if coeffs[0] + r * q[0] != 0:
        raise InvariantError(f"{r} is not a root of the polynomial {coeffs}")
    return q


def _primitive(coeffs: list) -> list[int]:
    # coprime integers proportional to the rational (int or Fraction)
    # coeffs, last one positive; int rows, the symbol builds' relations,
    # skip the common denominator
    if not all(type(c) is int for c in coeffs):
        den = _ilcm(*[c.denominator for c in coeffs])
        coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
    g = _igcd(*coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _root_bound(coeffs: list[int]) -> int:
    # Fujiwara: every root of x^n + c_(n-1) x^(n-1) + ... + c_0 has |z| <=
    # 2 max |c_(n-k)|^(1/k), and 2^ceil(bits/k) bounds each k-th root
    n = len(coeffs) - 1
    return 2 * max(1 << -(-abs(coeffs[n - k]).bit_length() // k) for k in range(1, n + 1))


def integer_roots(coeffs: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Integer roots (with multiplicity, ascending) of a monic integer
    polynomial, and its rootless cofactor; coefficients constant first.

    These are all of its rational roots: a rational root of a monic integer
    polynomial is an integer dividing the constant term.  Such a divisor
    also lies within the Fujiwara bound B, so the divisors are found by
    trial division up to min(B, sqrt|c_0|).  For the characteristic
    polynomial of an integer matrix, B is at most 4 n times its spectral
    radius, small for Hecke operators whatever the size of c_0.
    """
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("expected a monic polynomial")
    work = list(coeffs)
    roots = []
    zeros = 0
    while len(work) > 1 and not work[0]:
        work = work[1:]
        zeros += 1
    if zeros:
        roots.append((0, zeros))
    if len(work) > 1:
        c0, bound = abs(work[0]), _root_bound(work)
        cands = set()
        for k in range(1, min(bound, isqrt(c0)) + 1):
            if not c0 % k:
                cands.update(x for x in (k, c0 // k) if x <= bound)
        # candidates from the original cofactor stay valid after deflation
        for p in sorted(cands):
            for r in (p, -p):
                mult = 0
                while len(work) > 1 and poly_eval(work, r) == 0:
                    work = _deflate(work, r)
                    mult += 1
                if mult:
                    roots.append((r, mult))
    roots.sort()
    return roots, work


def full_space(n: int) -> Subspace:
    return Subspace(n, [{i: Fraction(1)} for i in range(n)])


def eigenspace(restricted: IntMat, sub: Subspace, val) -> Subspace:
    """Eigenspace of val in ambient coordinates, given the operator already
    restricted to the invariant subspace sub.

    It is the kernel of the integer rows of num - mu I, mu = den * val.  When
    mu is not an integer the space is empty: a rational eigenvalue of the
    integer matrix num is an integer.
    """
    mu = val * restricted.den
    if mu.denominator != 1:
        return Subspace(sub.ambient, [])
    rows = []
    for i, line in enumerate(restricted.num.tolist()):
        line[i] -= mu.numerator
        rows.append({j: c for j, c in enumerate(line) if c})
    return Subspace(sub.ambient, [sub.lift(kv) for kv in kernel(rows, sub.dim)])


def rational_eigensystem(
    mat: IntMat, sub: Subspace | None = None
) -> tuple[list[tuple[Fraction, Subspace]], list[int]]:
    """Rational eigenvalues of mat on an invariant subspace, with eigenspaces.

    Eigenspaces come back in ambient coordinates.  The rootless part of the
    characteristic polynomial is returned as primitive constant-first integer
    coefficients instead of being dropped.

    The restriction r (Subspace.restrict_ints) is reduced to num / D, D its
    lowest denominator: the integer roots mu of the characteristic
    polynomial of num give the eigenvalues mu / D, each eigenspace is the
    kernel of num - mu I, and the rootless cofactor q(y) gives the residual
    as the primitive form of q(D x).
    """
    if sub is None:
        sub = full_space(mat.num.shape[1])
    num, den = sub.restrict_ints(mat)._reduced()
    r = IntMat(num, den)
    roots, cofactor = integer_roots(charpoly(num.tolist()))
    residual = _primitive([c * den**k for k, c in enumerate(cofactor)])
    return [(val, eigenspace(r, sub, val))
            for val in (Fraction(mu, den) for mu, _ in roots)], residual

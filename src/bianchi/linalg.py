"""Sparse exact linear algebra over the rationals.

Vectors are dicts {index: Fraction} holding only the nonzero entries, and
matrices keep a list of such row dicts.  All pivoting is deterministic
(position and sparsity, never hash order), so every reduced object here is
a canonical function of its input.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from .quadints import rational_prime_factors


def vec_clean(v: dict) -> dict:
    return {k: c for k, c in v.items() if c}


def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(v: dict, c) -> dict:
    if not c:
        return {}
    return {k: x * c for k, x in v.items()}


def vec_sub(u: dict, v: dict) -> dict:
    return vec_add(u, vec_scale(v, -1))


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


class SparseMat:
    """Row-major sparse matrix over Q."""

    def __init__(self, nrows: int, ncols: int, rows: list[dict] | None = None) -> None:
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)] if rows is None else rows

    @classmethod
    def identity(cls, n: int) -> SparseMat:
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> SparseMat:
        m = cls(nrows, ncols)
        for i, j, c in entries:
            m.add_to(i, j, c)
        return m

    def add_to(self, i: int, j: int, c) -> None:
        row = self.rows[i]
        s = row.get(j, 0) + c
        if s:
            row[j] = s
        else:
            row.pop(j, None)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[i].get(j, 0))

    def transpose(self) -> SparseMat:
        rows = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                rows[j][i] = c
        return SparseMat(self.ncols, self.nrows, rows)

    def matvec(self, v: dict) -> dict:
        out = {}
        for i, row in enumerate(self.rows):
            s = vec_dot(row, v)
            if s:
                out[i] = s
        return out

    def vecmat(self, phi: dict) -> dict:
        out = {}
        for i, c in phi.items():
            vec_axpy(out, c, self.rows[i])
        return out

    def __mul__(self, other: SparseMat) -> SparseMat:
        assert self.ncols == other.nrows
        rows = []
        for row in self.rows:
            acc = {}
            for k, c in row.items():
                vec_axpy(acc, c, other.rows[k])
            rows.append(acc)
        return SparseMat(self.nrows, other.ncols, rows)

    def __add__(self, other: SparseMat) -> SparseMat:
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return SparseMat(self.nrows, self.ncols,
                         [vec_add(r, s) for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: SparseMat) -> SparseMat:
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return SparseMat(self.nrows, self.ncols,
                         [vec_sub(r, s) for r, s in zip(self.rows, other.rows)])

    def scale(self, c) -> SparseMat:
        return SparseMat(self.nrows, self.ncols, [vec_scale(r, c) for r in self.rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and all(
            vec_clean(r) == vec_clean(s) for r, s in zip(self.rows, other.rows)
        )

    def is_zero(self) -> bool:
        return all(not vec_clean(r) for r in self.rows)

    def trace(self) -> Fraction:
        return sum((Fraction(row.get(i, 0)) for i, row in enumerate(self.rows)), Fraction(0))

    def to_dense(self) -> list[list[Fraction]]:
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def to_json(self) -> dict:
        entries = [
            [i, j, str(Fraction(c))]
            for i, row in enumerate(self.rows)
            for j, c in sorted(row.items())
        ]
        return {"rows": self.nrows, "cols": self.ncols, "entries": entries}

    @classmethod
    def from_json(cls, obj: dict) -> SparseMat:
        m = cls(int(obj["rows"]), int(obj["cols"]))
        for i, j, s in obj["entries"]:
            m.add_to(int(i), int(j), Fraction(s))
        return m


def rref(rows: list[dict]) -> tuple[list[dict], dict[int, int]]:
    """Reduced row echelon form of a list of row dicts.

    Returns (out_rows, pivots) with monic pivot entries, out_rows ordered by
    pivot column and pivots mapping pivot column -> row index.  Pivot choice:
    leftmost column, then fewest nonzeros, then lowest current position.
    """
    work = [vec_clean(dict(r)) for r in rows]
    work = [r for r in work if r]
    done: list[dict] = []
    while work:
        col = min(min(r) for r in work)
        cand = [i for i, r in enumerate(work) if col in r]
        cand.sort(key=lambda i: (len(work[i]), i))
        prow = work.pop(cand[0])
        pc = prow[col]
        prow = {k: c / pc for k, c in prow.items()}
        for r in work + done:
            c = r.get(col)
            if c:
                vec_axpy(r, -c, prow)
        work = [r for r in work if r]
        done.append(prow)
    done.sort(key=min)
    return done, {min(r): i for i, r in enumerate(done)}


def kernel(mat: SparseMat) -> list[dict]:
    """Canonical basis of the right kernel, echelonized over the free columns."""
    rows, pivots = rref(mat.rows)
    basis = []
    for f in range(mat.ncols):
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

    def reduce(self, v: dict) -> dict:
        r = vec_clean(dict(v))
        for col, ri in self.pivots.items():
            c = r.get(col)
            if c:
                vec_axpy(r, -c, self.basis[ri])
        return r

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def lift(self, coords: dict) -> dict:
        """Ambient vector with the given coordinates in the echelon basis."""
        out: dict = {}
        for i, c in coords.items():
            vec_axpy(out, c, self.basis[i])
        return out

    def coords(self, v: dict) -> dict | None:
        """Coordinates of v in the echelon basis, or None when v lies outside."""
        r = vec_clean(dict(v))
        out = {}
        for col, ri in self.pivots.items():
            c = r.get(col)
            if c:
                out[ri] = c
                vec_axpy(r, -c, self.basis[ri])
        return None if r else out

    def restrict(self, mat: SparseMat) -> SparseMat:
        """Matrix of an invariant operator in the echelon basis (columns = images)."""
        out = SparseMat(self.dim, self.dim)
        for j, b in enumerate(self.basis):
            co = self.coords(mat.matvec(b))
            if co is None:
                raise ValueError("subspace is not invariant under the operator")
            for i, c in co.items():
                out.add_to(i, j, c)
        return out


def charpoly(mat: SparseMat) -> list[Fraction]:
    """Monic characteristic polynomial by trace recursion, constant term first."""
    n = mat.nrows
    assert mat.ncols == n
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = SparseMat.identity(n)
    for k in range(1, n + 1):
        m = mat * m
        ck = -m.trace() / k
        coeffs[n - k] = ck
        for i in range(n):
            m.add_to(i, i, ck)
    return coeffs


def poly_eval(coeffs: list, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list, r) -> list:
    # divide by (x - r), assuming r is a root; constant-first coefficients
    n = len(coeffs) - 1
    q = [Fraction(0)] * n
    q[n - 1] = Fraction(coeffs[n])
    for i in range(n - 1, 0, -1):
        q[i - 1] = coeffs[i] + r * q[i]
    assert coeffs[0] + r * q[0] == 0
    return q


def _positive_divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in rational_prime_factors(abs(n)).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _primitive(coeffs: list) -> list[int]:
    # coprime integers proportional to the rational coeffs, last one positive
    den = _ilcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = _igcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def rational_roots(coeffs: list) -> tuple[list[tuple[Fraction, int]], list[int]]:
    """Rational roots (with multiplicity) and the primitive rootless cofactor.

    Input and output coefficients are constant-first; the residual cofactor
    comes back as coprime integers with positive leading coefficient.
    """
    work = [Fraction(c) for c in coeffs]
    while work and not work[-1]:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    roots = []
    mult0 = 0
    while len(work) > 1 and not work[0]:
        work = work[1:]
        mult0 += 1
    if mult0:
        roots.append((Fraction(0), mult0))
    if len(work) > 1:
        ints = _primitive(work)
        # candidates from the original cofactor stay valid after deflation
        for p in _positive_divisors(ints[0]):
            for q in _positive_divisors(ints[-1]):
                for sgn in (1, -1):
                    r = Fraction(sgn * p, q)
                    mult = 0
                    while len(work) > 1 and poly_eval(work, r) == 0:
                        work = _deflate(work, r)
                        mult += 1
                    if mult:
                        roots.append((r, mult))
    roots.sort()
    return roots, _primitive(work)


def full_space(n: int) -> Subspace:
    return Subspace(n, [{i: Fraction(1)} for i in range(n)])


def eigenspace(restricted: SparseMat, sub: Subspace, val) -> Subspace:
    """Eigenspace of val in ambient coordinates, given the operator already
    restricted to the invariant subspace sub."""
    shifted = restricted - SparseMat.identity(sub.dim).scale(val)
    return Subspace(sub.ambient, [sub.lift(kv) for kv in kernel(shifted)])


def rational_eigensystem(
    mat: SparseMat, sub: Subspace | None = None
) -> tuple[list[tuple[Fraction, Subspace]], list[int]]:
    """Rational eigenvalues of mat on an invariant subspace, with eigenspaces.

    Eigenspaces come back in ambient coordinates.  The rootless part of the
    characteristic polynomial is returned as primitive constant-first integer
    coefficients instead of being dropped.
    """
    if sub is None:
        sub = full_space(mat.ncols)
    r = sub.restrict(mat)
    roots, residual = rational_roots(charpoly(r))
    return [(val, eigenspace(r, sub, val)) for val, _ in roots], residual

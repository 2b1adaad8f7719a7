"""Exact linear algebra tests, checked against sympy on random inputs."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, strategies as st

import bianchi.symbols
from bianchi.linalg import (
    IntMat,
    Subspace,
    _deflate,
    _primitive,
    charpoly,
    full_space,
    integer_roots,
    kernel,
    poly_eval,
    rational_eigensystem,
    rref,
    rref_ints,
    vec_axpy,
    vec_dot,
)
from bianchi.quadints import Field, parse_element, rational_prime_factors


def vec_clean(v):
    return {k: c for k, c in v.items() if c}


def vec_add(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(v, c):
    return {k: x * c for k, x in v.items()} if c else {}


def vec_sub(u, v):
    return vec_add(u, vec_scale(v, -1))


class Mat:
    """Row-major sparse matrix of Fractions: the independent form the tests
    and their references compute with, converted to and from IntMat."""

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)] if rows is None else rows

    @classmethod
    def identity(cls, n):
        return cls(n, n, [{i: Fraction(1)} for i in range(n)])

    @classmethod
    def of_int(cls, im):
        # the same matrix as an IntMat's num / den
        nrows, ncols = im.num.shape
        return cls(nrows, ncols, [{j: Fraction(v, im.den) for j, v in enumerate(row) if v}
                                  for row in im.num.tolist()])

    def to_int(self):
        return IntMat.from_columns(self.transpose().rows, self.nrows)

    @classmethod
    def from_entries(cls, nrows, ncols, entries):
        m = cls(nrows, ncols)
        for i, j, c in entries:
            m.add_to(i, j, c)
        return m

    def add_to(self, i, j, c):
        row = self.rows[i]
        s = row.get(j, 0) + c
        if s:
            row[j] = s
        else:
            row.pop(j, None)

    def entry(self, i, j):
        return Fraction(self.rows[i].get(j, 0))

    def transpose(self):
        rows = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                rows[j][i] = c
        return Mat(self.ncols, self.nrows, rows)

    def matvec(self, v):
        out = {}
        for i, row in enumerate(self.rows):
            s = vec_dot(row, v)
            if s:
                out[i] = s
        return out

    def __mul__(self, other):
        assert self.ncols == other.nrows
        rows = []
        for row in self.rows:
            acc = {}
            for k, c in row.items():
                vec_axpy(acc, c, other.rows[k])
            rows.append(acc)
        return Mat(self.nrows, other.ncols, rows)

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Mat(self.nrows, self.ncols, [vec_add(r, s) for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Mat(self.nrows, self.ncols, [vec_sub(r, s) for r, s in zip(self.rows, other.rows)])

    def scale(self, c):
        return Mat(self.nrows, self.ncols, [vec_scale(r, c) for r in self.rows])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and all(
            vec_clean(r) == vec_clean(s) for r, s in zip(self.rows, other.rows)
        )

    def is_zero(self):
        return all(not vec_clean(r) for r in self.rows)

    def trace(self):
        return sum((self.entry(i, i) for i in range(self.nrows)), Fraction(0))

    def to_dense(self):
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    def to_json(self):
        entries = [[i, j, str(Fraction(c))]
                   for i, row in enumerate(self.rows) for j, c in sorted(row.items())]
        return {"rows": self.nrows, "cols": self.ncols, "entries": entries}

    @classmethod
    def from_json(cls, obj):
        m = cls(int(obj["rows"]), int(obj["cols"]))
        for i, j, text in obj["entries"]:
            m.add_to(int(i), int(j), Fraction(text))
        return m


def random_mat(rng, nrows, ncols, density=0.5, lim=6):
    m = Mat(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m.add_to(i, j, Fraction(rng.randint(-lim, lim), rng.randint(1, 3)))
    return m


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(c) for c in row] for row in m.to_dense()])


def test_vector_ops():
    u = {0: Fraction(1), 2: Fraction(-2)}
    v = {0: Fraction(-1), 1: Fraction(3)}
    assert vec_add(u, v) == {1: Fraction(3), 2: Fraction(-2)}
    assert vec_scale(u, 0) == {}
    assert vec_dot(u, v) == Fraction(-1)
    w = dict(u)
    vec_axpy(w, Fraction(2), v)
    assert w == {0: Fraction(-1), 1: Fraction(6), 2: Fraction(-2)}


def test_matmul_matvec_against_dense():
    rng = random.Random(10)
    for _ in range(20):
        a = random_mat(rng, 4, 5)
        b = random_mat(rng, 5, 3)
        ad, bd = a.to_dense(), b.to_dense()
        cd = (a * b).to_dense()
        for i in range(4):
            for j in range(3):
                assert cd[i][j] == sum(ad[i][k] * bd[k][j] for k in range(5))
        v = {j: Fraction(rng.randint(-4, 4)) for j in range(5)}
        av = a.matvec(v)
        for i in range(4):
            assert av.get(i, 0) == sum(ad[i][k] * v.get(k, 0) for k in range(5))


def test_transpose_add_scale_trace():
    rng = random.Random(11)
    a = random_mat(rng, 5, 5)
    b = random_mat(rng, 5, 5)
    assert a.transpose().transpose() == a
    assert (a + b) - b == a
    assert a.scale(Fraction(3)).to_dense() == [[3 * c for c in r] for r in a.to_dense()]
    assert a.trace() == sum(a.entry(i, i) for i in range(5))
    assert (a - a).is_zero()


def test_rref_matches_sympy():
    rng = random.Random(12)
    for _ in range(25):
        m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 7), density=0.45)
        rows, pivots = rref(m.rows)
        got = Mat(len(rows), m.ncols, [dict(r) for r in rows]).to_dense()
        ref, piv = to_sympy(m).rref()
        assert sorted(pivots) == list(piv)
        expect = [[Fraction(int(ref[i, j].p), int(ref[i, j].q)) for j in range(m.ncols)]
                  for i in range(len(rows))]
        assert got == expect


def rref_reference(rows):
    # the Fraction elimination the incremental integer rref replaced: pivot on
    # the leftmost column, then the fewest nonzeros, then the lowest position
    work = [vec_clean({k: Fraction(c) for k, c in r.items()}) for r in rows]
    work = [r for r in work if r]
    done = []
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


def snapshot(rows):
    return [[(k, type(c), c) for k, c in r.items()] for r in rows]


def assert_rref_matches_reference(rows):
    before = snapshot(rows)
    got, pivots = rref(rows)
    assert snapshot(rows) == before
    want, want_pivots = rref_reference(rows)
    assert got == want and pivots == want_pivots
    for r in got:
        assert list(r) == sorted(r)
        assert all(type(c) is Fraction for c in r.values())
        assert r[min(r)] == 1


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)
sparse_rows = st.dictionaries(st.integers(0, 11), coefficients, max_size=6)


@st.composite
def sparse_systems(draw):
    rows = draw(st.lists(sparse_rows, max_size=12))
    # duplicates, scalar multiples (int or Fraction) and zero rows
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4)):
            scale = draw(st.sampled_from([1, -1, 3, Fraction(-2, 7), Fraction(5, 3)]))
            rows.append({k: scale * c for k, c in rows[i].items()})
    rows.extend([{}] * draw(st.integers(0, 2)))
    return draw(st.permutations(rows))


@given(sparse_systems())
@example([])
@example([{}, {3: 0}])
@example([{0: 2, 1: 4}, {0: Fraction(1, 2), 1: 1}, {1: 3}])
def test_rref_matches_reference(rows):
    assert_rref_matches_reference(rows)


int_rows = st.dictionaries(st.integers(0, 11), st.integers(-6, 6), max_size=6)


@given(st.lists(int_rows, max_size=12), st.data())
@example([{0: 2, 1: 4}, {1: -3, 4: 6}], None)
def test_rref_on_int_rows_and_on_them_mixed_with_fractions(rows, data):
    # rows of ints alone, the symbol builds' relations, skip the common
    # denominator in _primitive; the same rows with some entries turned into
    # Fractions of the same value, and beside rows with proper Fractions,
    # reduce as rref_reference does
    assert_rref_matches_reference(rows)
    flip = [True, False] * 6 if data is None else \
        data.draw(st.lists(st.booleans(), min_size=12, max_size=12))
    mixed = [{k: Fraction(c) if f else c for k, c in r.items()} for r, f in zip(rows, flip)]
    assert rref(mixed) == rref(rows)
    extra = [{k: Fraction(c, 3) for k, c in r.items()} for r in rows[:2]] + [{5: Fraction(1, 2)}]
    assert_rref_matches_reference(mixed + extra)


def test_primitive_on_int_fraction_and_mixed_coefficients():
    assert _primitive([2, 4, -6]) == [-1, -2, 3]
    assert _primitive([Fraction(1, 2), 1]) == [1, 2]
    assert _primitive([2, Fraction(2, 3)]) == [3, 1]
    assert _primitive([Fraction(4), -2]) == [-2, 1]
    assert all(type(c) is int for c in _primitive([Fraction(6, 4), 3]))


def test_rref_leaves_the_input_alone():
    rows = [{2: 1, 0: 2}, {0: Fraction(1, 2), 5: Fraction(3)}, {2: 0, 1: -1}]
    before = snapshot(rows)
    kernel(rows, 6)
    Subspace(6, rows)
    assert snapshot(rows) == before


@pytest.mark.parametrize("d, level, weight", [(7, "3+3w", 2), (11, "3-w", 4)])
def test_rref_on_relation_rows(monkeypatch, d, level, weight):
    # a build hands _distinct_rows its word rows (at weight 2 one per class
    # up to sign, at weight k on the free columns of the S and J classes), so
    # its relation system is read off them, merged here column by column;
    # both systems must reduce to the same form
    captured = []
    system = []
    distinct_rows = bianchi.symbols._distinct_rows

    def capture(rows):
        captured.append(rows)
        return rref_ints(rows)

    def capture_system(cols, vals, blank):
        for cs, vs in zip(cols.tolist(), vals.tolist()):
            row = {}
            for c, a in zip(cs, vs):
                if a:
                    row[c] = row.get(c, 0) + a
            system.append(row)
        return distinct_rows(cols, vals, blank)

    monkeypatch.setattr(bianchi.symbols, "rref_ints", capture)
    monkeypatch.setattr(bianchi.symbols, "_distinct_rows", capture_system)
    fld = Field.get(d)
    space = bianchi.symbols.SymbolSpace(fld, parse_element(fld, level), weight)
    (rows,) = captured
    assert all(type(c) is int for r in rows for c in r.values())
    assert len(rows) < len(system) and rref(rows) == rref(system)
    if weight > 2:
        # the word rows reach rref without the S and J rows; the one-shot
        # system of every S, J and word row, which the tests keep as the
        # weight-k reference, is the large one
        from test_symbols import general_relation_rows

        assert_rref_matches_reference(system)
        system = general_relation_rows(space)
    assert len(system) > 1000 and all(type(c) is int for r in system for c in r.values())
    assert_rref_matches_reference(system)


@given(st.lists(sparse_rows, max_size=12), st.data())
def test_rref_ignores_order_repeats_signs_and_scale(rows, data):
    # what the weight-2 build relies on when it drops repeated rows and
    # reorders the rest: rref is a function of the row span alone
    scales = st.sampled_from([1, -1, 2, -3, Fraction(5, 3), Fraction(-1, 4)])
    changed = [vec_scale(r, data.draw(scales)) for r in rows]
    if rows:
        repeats = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
        changed += [changed[i] for i in repeats]
    assert rref(data.draw(st.permutations(changed))) == rref(rows)


def test_kernel_matches_sympy():
    rng = random.Random(13)
    for _ in range(25):
        m = random_mat(rng, rng.randint(1, 6), rng.randint(1, 7), density=0.4)
        basis = kernel(m.rows, m.ncols)
        for v in basis:
            assert not m.matvec(v)
        null = to_sympy(m).nullspace()
        assert len(basis) == len(null)
        space = Subspace(m.ncols, basis)
        assert space.dim == len(basis)
        for nv in null:
            v = {i: Fraction(int(nv[i].p), int(nv[i].q)) for i in range(m.ncols) if nv[i] != 0}
            assert space.coords(v) is not None


def charpoly_reference(mat):
    # the Fraction trace recursion charpoly replaced: monic characteristic
    # polynomial of a Mat, constant term first
    n = mat.nrows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = Mat.identity(n)
    for k in range(1, n + 1):
        m = mat * m
        ck = -m.trace() / k
        coeffs[n - k] = ck
        for i in range(n):
            m.add_to(i, i, ck)
    return coeffs


def _positive_divisors(n):
    divs = [1]
    for p, e in rational_prime_factors(abs(n)).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots_reference(coeffs):
    # the p/q candidate search integer_roots replaced: rational roots (with
    # multiplicity) and the primitive rootless cofactor, constant first
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


class RefSpace:
    """A subspace of Q^n as the reduced echelon basis of rref_reference."""

    def __init__(self, ambient, vectors):
        self.ambient = ambient
        self.basis, self.pivots = rref_reference(vectors)

    @property
    def dim(self):
        return len(self.basis)


def full_reference(n):
    return RefSpace(n, [{i: Fraction(1)} for i in range(n)])


def lift_reference(sub, coords):
    # the ambient vector with these coordinates in the echelon basis of sub
    out = {}
    for i, c in coords.items():
        out = vec_add(out, vec_scale(sub.basis[i], c))
    return out


def restrict_reference(sub, mat):
    # the Fraction restriction Subspace.restrict_ints replaced: column j
    # holds the coordinates of mat times basis vector j, read off at the
    # monic pivots; ValueError when an image leaves the subspace.  sub is a
    # RefSpace or a Subspace
    out = Mat(sub.dim, sub.dim)
    for j, b in enumerate(sub.basis):
        image = mat.matvec(b)
        co = {ri: image[col] for col, ri in sub.pivots.items() if col in image}
        if vec_sub(image, lift_reference(sub, co)):
            raise ValueError("subspace is not invariant under the operator")
        for i, c in co.items():
            out.add_to(i, j, c)
    return out


def kernel_reference(mat):
    # right kernel of a Mat from rref_reference, one vector per free column
    rows, pivots = rref_reference(mat.rows)
    basis = []
    for f in range(mat.ncols):
        if f not in pivots:
            v = {f: Fraction(1)}
            for col, ri in pivots.items():
                if f in rows[ri]:
                    v[col] = -rows[ri][f]
            basis.append(v)
    return basis


def rational_eigensystem_reference(mat, sub=None):
    # (eigenvalue, eigenspace basis) pairs and the residual, from the
    # Fraction restriction, charpoly, p/q root search and kernels; each basis
    # is the reduced echelon basis in ambient coordinates
    sub = full_reference(mat.ncols) if sub is None else sub
    r = restrict_reference(sub, mat)
    roots, residual = rational_roots_reference(charpoly_reference(r))
    eigs = []
    for val, _ in roots:
        null = kernel_reference(r - Mat.identity(r.nrows).scale(val))
        eigs.append((val, RefSpace(sub.ambient, [lift_reference(sub, v) for v in null]).basis))
    return eigs, residual


def int_rows(m):
    # D and the int matrix D*m, D the least common denominator
    den = math.lcm(1, *(c.denominator for row in m.rows for c in row.values()))
    return den, [[int(m.entry(i, j) * den) for j in range(m.ncols)] for i in range(m.nrows)]


def test_charpoly_matches_sympy():
    rng = random.Random(14)
    lam = sympy.symbols("lam")
    for n in (1, 2, 4, 6):
        for _ in range(6):
            m = random_mat(rng, n, n, density=0.6)
            ref = to_sympy(m).charpoly(lam).all_coeffs()  # highest degree first
            ref = [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                   for c in reversed(ref)]
            assert charpoly_reference(m) == ref
            # the integer polynomial of D*m is D^(n-k) times coefficient k
            den, num = int_rows(m)
            got = charpoly(num)
            assert all(type(c) is int for c in got)
            assert got == [c * den ** (n - k) for k, c in enumerate(ref)]
    assert charpoly([]) == [1] and charpoly_reference(Mat(0, 0)) == [Fraction(1)]


def test_subspace_coords_and_restrict():
    vecs = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}]
    s = Subspace(3, vecs)
    assert s.dim == 2
    v = vec_add(vec_scale(s.basis[0], Fraction(5)), vec_scale(s.basis[1], Fraction(-7)))
    co = s.coords(v)
    assert co == {0: Fraction(5), 1: Fraction(-7)}
    assert s.coords({2: Fraction(1)}) is None
    diag = Mat.from_entries(3, 3, [(0, 0, 1), (1, 1, 2), (2, 2, 3)])
    r = s.restrict_ints(diag.to_int())
    assert Mat.of_int(r).to_dense() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert Mat.of_int(r) == restrict_reference(s, diag)
    bad = Mat.from_entries(3, 3, [(2, 0, 1)])
    with pytest.raises(ValueError):
        s.restrict_ints(bad.to_int())
    with pytest.raises(ValueError):
        restrict_reference(s, bad)


def test_rational_roots_pin():
    # (x - 2) * (x + 1/3)^2 * (x^2 + 1), scaled by 9
    x = sympy.symbols("x")
    expr = sympy.expand(9 * (x - 2) * (x + sympy.Rational(1, 3)) ** 2 * (x**2 + 1))
    coeffs = [Fraction(int(c)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    roots, residual = rational_roots_reference(coeffs)
    assert roots == [(Fraction(-1, 3), 2), (Fraction(2), 1)]
    assert residual == [1, 0, 1]
    roots, residual = rational_roots_reference([Fraction(0), Fraction(0), Fraction(1)])  # x^2
    assert roots == [(Fraction(0), 2)]
    assert residual == [1]
    with pytest.raises(ValueError):
        rational_roots_reference([Fraction(0)])


def test_integer_roots_pin():
    # y = 3x above: (y - 6) * (y + 1)^2 * (y^2 + 9), monic with int coefficients
    y = sympy.symbols("y")
    expr = sympy.expand((y - 6) * (y + 1) ** 2 * (y**2 + 9))
    coeffs = [int(c) for c in reversed(sympy.Poly(expr, y).all_coeffs())]
    roots, cofactor = integer_roots(coeffs)
    assert roots == [(-1, 2), (6, 1)]
    assert cofactor == [9, 0, 1]
    assert integer_roots([0, 0, 1]) == ([(0, 2)], [1])
    assert integer_roots([1]) == ([], [1])
    # large roots: x - 10^6, and (x - p)(x + q) for primes whose product
    # has no other divisors below the root bound
    assert integer_roots([-(10**6), 1]) == ([(10**6, 1)], [1])
    p, q = 10007, 9973
    assert integer_roots([-p * q, q - p, 1]) == ([(-q, 1), (p, 1)], [1])
    for bad in ([], [0], [1, 2]):
        with pytest.raises(ValueError):
            integer_roots(bad)


@given(st.lists(st.integers(-30, 30), min_size=0, max_size=5),
       st.lists(st.integers(-40, 40), min_size=0, max_size=3))
@example([0, 0, 5], [])
@example([7, 7, -7], [0, 1])
def test_integer_roots_on_drawn_products(roots, extra):
    # prod (x - r) times a monic factor: every integer root of the product
    # is found with its multiplicity, and the cofactor has none left
    x = sympy.symbols("x")
    expr = sympy.Mul(*[(x - r) for r in roots]) * (x ** len(extra) + sum(
        c * x**k for k, c in enumerate(extra)))
    coeffs = [int(c) for c in reversed(sympy.Poly(sympy.expand(expr), x).all_coeffs())]
    got, cofactor = integer_roots(coeffs)
    ref, residual = rational_roots_reference(coeffs)
    assert [(Fraction(r), m) for r, m in got] == ref
    assert _primitive(cofactor) == residual
    assert cofactor[-1] == 1 and len(cofactor) - 1 + sum(m for _, m in got) == len(coeffs) - 1


def test_deflate_refuses_a_non_root_under_python_O(run_optimized):
    # x^2 + 1 has no root at 1
    out = run_optimized(
        "from fractions import Fraction\n"
        "from bianchi.linalg import _deflate\n"
        "from bianchi.quadints import InvariantError\n"
        "assert _deflate([Fraction(-1), 0, Fraction(1)], 1) == [1, 1]\n"
        "try:\n"
        "    _deflate([Fraction(1), 0, Fraction(1)], 1)\n"
        "except InvariantError as exc:\n"
        "    print('deflate:', exc)\n"
    )
    assert [line.split(":")[0] for line in out] == ["deflate"], out


def test_rational_roots_match_charpoly_eigenvalues():
    rng = random.Random(15)
    for _ in range(10):
        n = 5
        m = random_mat(rng, n, n, density=0.5)
        coeffs = charpoly_reference(m)
        roots, residual = rational_roots_reference(coeffs)
        for r, mult in roots:
            assert poly_eval(coeffs, r) == 0
        # degree bookkeeping
        assert sum(mult for _, mult in roots) + len(residual) - 1 == n
        ref = to_sympy(m).eigenvals(rational=True)
        sym_rational = {
            Fraction(int(sympy.Rational(v).p), int(sympy.Rational(v).q)): mult
            for v, mult in ref.items() if v.is_rational
        }
        assert dict(roots) == sym_rational
        # the integer route: the roots of the polynomial of D*m over D
        den, num = int_rows(m)
        iroots, cofactor = integer_roots(charpoly(num))
        assert [(Fraction(mu, den), k) for mu, k in iroots] == roots
        assert _primitive([c * den**k for k, c in enumerate(cofactor)]) == residual


def test_rational_eigensystem_matches_fraction_route():
    rng = random.Random(22)
    for n in (1, 3, 5, 7):
        for _ in range(8):
            m = random_mat(rng, n, n, density=0.5, lim=4)
            # rational eigenvalues are common in lower-triangular blocks
            if rng.random() < 0.5:
                for i in range(n):
                    for j in range(i + 1, n):
                        m.rows[i].pop(j, None)
            eigs, residual = rational_eigensystem(m.to_int())
            assert ([(val, es.basis) for val, es in eigs], residual) == \
                rational_eigensystem_reference(m)
            # and on the subspace spanned by the first eigenspace
            if eigs and 0 < eigs[0][1].dim < n:
                sub = eigs[0][1]
                got, residual = rational_eigensystem(m.to_int(), sub)
                assert ([(val, es.basis) for val, es in got], residual) == \
                    rational_eigensystem_reference(m, sub)


def test_sparsemat_json_roundtrip():
    rng = random.Random(16)
    m = random_mat(rng, 4, 6)
    blob = json.dumps(m.to_json(), sort_keys=True)
    assert Mat.from_json(json.loads(blob)) == m


def test_intmat_views_match_fraction_matrices():
    # the Fraction view, the JSON text and equality of the int form, against
    # the Fraction matrix it was made from
    rng = random.Random(17)
    for _ in range(40):
        m = random_mat(rng, rng.randint(0, 5), rng.randint(0, 5), density=0.5)
        im = m.to_int()
        assert im.num.dtype == np.int64 and not im.num.flags.writeable
        assert Mat.of_int(im) == m
        assert im.to_json() == m.to_json()
        v = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for j in range(m.ncols)
             if rng.random() < 0.7}
        got = im.matvec(v)
        assert got == m.matvec(v) and all(type(c) is Fraction for c in got.values())
        k = rng.randint(2, 9)
        scaled = IntMat(im.num * k, im.den * k)
        assert scaled == im and scaled.to_json() == m.to_json()
        if im.num.size:
            num = im.num.copy()
            num[0, 0] += 1
            assert IntMat(num, im.den) != im
        if im.num.any():
            assert IntMat(im.num, 2 * im.den) != im
    assert IntMat(np.zeros((2, 3), dtype=np.int64), 1) != IntMat(np.zeros((3, 2), dtype=np.int64), 1)


def test_rational_eigensystem_rotation_has_no_rational_part():
    rot = Mat.from_entries(2, 2, [(0, 1, Fraction(-1)), (1, 0, Fraction(1))])
    eigs, residual = rational_eigensystem(rot.to_int())
    assert eigs == []
    assert residual == [1, 0, 1]


def test_rational_eigensystem_defective_block():
    # [[2, 1], [0, 2]]: eigenvalue 2 with a one-dimensional eigenspace
    m = Mat.from_entries(2, 2, [(0, 0, 2), (0, 1, 1), (1, 1, 2)])
    eigs, residual = rational_eigensystem(m.to_int())
    assert residual == [1]
    assert len(eigs) == 1
    val, es = eigs[0]
    assert val == 2 and es.dim == 1
    for v in es.basis:
        assert m.matvec(v) == vec_scale(v, val)


def test_rational_eigensystem_respects_subspace():
    m = Mat.from_entries(3, 3, [(0, 0, 1), (1, 1, 5), (2, 2, 5)])
    sub = Subspace(3, [{1: Fraction(1)}, {2: Fraction(1)}])
    eigs, residual = rational_eigensystem(m.to_int(), sub)
    assert residual == [1]
    assert [(val, es.dim) for val, es in eigs] == [(Fraction(5), 2)]
    _, es = eigs[0]
    for v in es.basis:
        assert sub.coords(v) is not None


def test_rational_eigensystem_random_against_sympy():
    rng = random.Random(21)
    for _ in range(6):
        m = random_mat(rng, 4, 4, density=0.6, lim=3)
        eigs, _ = rational_eigensystem(m.to_int())
        sym = to_sympy(m).eigenvects()
        expected = {}
        for val, _mult, vects in sym:
            if val.is_rational:
                q = sympy.Rational(val)
                expected[Fraction(int(q.p), int(q.q))] = len(vects)
        assert {val: es.dim for val, es in eigs} == expected
        for val, es in eigs:
            for v in es.basis:
                assert m.matvec(v) == vec_scale(v, val)


def test_full_space_helper():
    assert full_space(3).dim == 3
    assert full_space(0).dim == 0


@given(st.lists(sparse_rows, max_size=12))
def test_rref_ints_rows_are_rref_over_their_pivots(rows):
    out, pivots = rref(rows)
    piv = rref_ints(rows)
    assert sorted(piv) == sorted(pivots)
    for col, row in piv.items():
        assert row[col] > 0 and math.gcd(*row.values()) == 1
        assert all(c not in row for c in piv if c != col)
        assert {k: Fraction(a, row[col]) for k, a in row.items()} == out[pivots[col]]


def test_restriction_to_the_whole_space_is_the_matrix():
    m = IntMat(np.array([[1, 2, 0], [0, -3, 5], [4, 0, 1]], dtype=np.int64), 6)
    assert full_space(3).restrict_ints(m) is m
    sub = Subspace(3, [{0: Fraction(1)}, {1: Fraction(1)}])
    with pytest.raises(ValueError, match="not invariant"):
        sub.restrict_ints(m)

"""Exact linear algebra tests, checked against sympy on random inputs."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

import bianchi.symbols
from bianchi.linalg import (
    SparseMat,
    Subspace,
    charpoly,
    full_space,
    kernel,
    poly_eval,
    rational_eigensystem,
    rational_roots,
    rref,
    vec_add,
    vec_axpy,
    vec_clean,
    vec_dot,
    vec_scale,
)
from bianchi.quadints import Field, parse_element


def random_mat(rng, nrows, ncols, density=0.5, lim=6):
    m = SparseMat(nrows, ncols)
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
        got = SparseMat(len(rows), m.ncols, [dict(r) for r in rows]).to_dense()
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


def test_rref_leaves_the_input_alone():
    rows = [{2: 1, 0: 2}, {0: Fraction(1, 2), 5: Fraction(3)}, {2: 0, 1: -1}]
    mat = SparseMat(3, 6, rows)
    before = snapshot(mat.rows)
    kernel(mat)
    Subspace(6, mat.rows)
    assert snapshot(mat.rows) == before and mat.rows is rows


@pytest.mark.parametrize("d, level, weight", [(7, "3+3w", 2), (11, "3-w", 4)])
def test_rref_on_relation_rows(monkeypatch, d, level, weight):
    # the weight-2 build keeps one row per class up to sign, so its whole
    # relation system is read off what it hands _distinct_rows, merged here
    # column by column; both systems must reduce to the same form
    captured = []
    system = []
    distinct_rows = bianchi.symbols._distinct_rows

    def capture(rows):
        captured.append(rows)
        return rref(rows)

    def capture_system(cols, vals, blank):
        for cs, vs in zip(cols.tolist(), vals.tolist()):
            row = {}
            for c, a in zip(cs, vs):
                if a:
                    row[c] = row.get(c, 0) + a
            system.append(row)
        return distinct_rows(cols, vals, blank)

    monkeypatch.setattr(bianchi.symbols, "rref", capture)
    monkeypatch.setattr(bianchi.symbols, "_distinct_rows", capture_system)
    fld = Field.get(d)
    bianchi.symbols.SymbolSpace(fld, parse_element(fld, level), weight)
    (rows,) = captured
    assert bool(system) == (weight == 2)
    if system:
        assert len(rows) < len(system) and rref(rows) == rref(system)
        rows = system
    assert len(rows) > 1000 and all(type(c) is int for r in rows for c in r.values())
    assert_rref_matches_reference(rows)


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
        basis = kernel(m)
        for v in basis:
            assert not m.matvec(v)
        null = to_sympy(m).nullspace()
        assert len(basis) == len(null)
        space = Subspace(m.ncols, basis)
        assert space.dim == len(basis)
        for nv in null:
            v = {i: Fraction(int(nv[i].p), int(nv[i].q)) for i in range(m.ncols) if nv[i] != 0}
            assert space.coords(v) is not None


def test_charpoly_matches_sympy():
    rng = random.Random(14)
    for n in (1, 2, 4, 6):
        for _ in range(6):
            m = random_mat(rng, n, n, density=0.6)
            mine = charpoly(m)
            lam = sympy.symbols("lam")
            ref = to_sympy(m).charpoly(lam).all_coeffs()  # highest degree first
            ref = [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
                   for c in reversed(ref)]
            assert mine == ref
    assert charpoly(SparseMat(0, 0)) == [Fraction(1)]


def test_subspace_coords_and_restrict():
    vecs = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}]
    s = Subspace(3, vecs)
    assert s.dim == 2
    v = vec_add(vec_scale(s.basis[0], Fraction(5)), vec_scale(s.basis[1], Fraction(-7)))
    co = s.coords(v)
    assert co == {0: Fraction(5), 1: Fraction(-7)}
    assert s.coords({2: Fraction(1)}) is None
    diag = SparseMat.from_entries(3, 3, [(0, 0, 1), (1, 1, 2), (2, 2, 3)])
    r = s.restrict(diag)
    assert r.to_dense() == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]
    bad = SparseMat.from_entries(3, 3, [(2, 0, 1)])
    with pytest.raises(ValueError):
        s.restrict(bad)


def test_rational_roots_pin():
    # (x - 2) * (x + 1/3)^2 * (x^2 + 1), scaled by 9
    poly = [Fraction(c) for c in (0, 0, 0)]
    x = sympy.symbols("x")
    expr = sympy.expand(9 * (x - 2) * (x + sympy.Rational(1, 3)) ** 2 * (x**2 + 1))
    coeffs = [Fraction(int(c)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
    roots, residual = rational_roots(coeffs)
    assert roots == [(Fraction(-1, 3), 2), (Fraction(2), 1)]
    assert residual == [1, 0, 1]
    roots, residual = rational_roots([Fraction(0), Fraction(0), Fraction(1)])  # x^2
    assert roots == [(Fraction(0), 2)]
    assert residual == [1]
    with pytest.raises(ValueError):
        rational_roots([Fraction(0)])


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
        coeffs = charpoly(m)
        roots, residual = rational_roots(coeffs)
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


def test_sparsemat_json_roundtrip():
    rng = random.Random(16)
    m = random_mat(rng, 4, 6)
    blob = json.dumps(m.to_json(), sort_keys=True)
    assert SparseMat.from_json(json.loads(blob)) == m


def test_rational_eigensystem_rotation_has_no_rational_part():
    rot = SparseMat.from_entries(2, 2, [(0, 1, Fraction(-1)), (1, 0, Fraction(1))])
    eigs, residual = rational_eigensystem(rot)
    assert eigs == []
    assert residual == [1, 0, 1]


def test_rational_eigensystem_defective_block():
    # [[2, 1], [0, 2]]: eigenvalue 2 with a one-dimensional eigenspace
    m = SparseMat.from_entries(2, 2, [(0, 0, 2), (0, 1, 1), (1, 1, 2)])
    eigs, residual = rational_eigensystem(m)
    assert residual == [1]
    assert len(eigs) == 1
    val, es = eigs[0]
    assert val == 2 and es.dim == 1
    for v in es.basis:
        assert m.matvec(v) == vec_scale(v, val)


def test_rational_eigensystem_respects_subspace():
    m = SparseMat.from_entries(3, 3, [(0, 0, 1), (1, 1, 5), (2, 2, 5)])
    sub = Subspace(3, [{1: Fraction(1)}, {2: Fraction(1)}])
    eigs, residual = rational_eigensystem(m, sub)
    assert residual == [1]
    assert [(val, es.dim) for val, es in eigs] == [(Fraction(5), 2)]
    _, es = eigs[0]
    for v in es.basis:
        assert sub.coords(v) is not None


def test_rational_eigensystem_random_against_sympy():
    rng = random.Random(21)
    for _ in range(6):
        m = random_mat(rng, 4, 4, density=0.6, lim=3)
        eigs, _ = rational_eigensystem(m)
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

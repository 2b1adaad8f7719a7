"""Exact linear algebra tests, checked against sympy on random inputs."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
import sympy

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
    vec_dot,
    vec_scale,
)


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
        phi = {i: Fraction(rng.randint(-4, 4)) for i in range(4)}
        pa = a.vecmat(phi)
        for j in range(5):
            assert pa.get(j, 0) == sum(phi.get(i, 0) * ad[i][j] for i in range(4))


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
            assert space.contains(v)


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
        assert sub.contains(v)


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

from fractions import Fraction

from bianchi.boundary import (
    boundary_matrix,
    boundary_of_gen,
    cusp_label,
    cuspidal_subspace,
    orbit_of_cusp,
    true_boundary_matrix,
)
from bianchi.linalg import Subspace, kernel, vec_axpy
from bianchi.quadints import EUCLIDEAN_D, Field, parse_element
from bianchi.symbols import (
    Mat2,
    cusp_count,
    lift_to_sl2,
    point_cusp_orbits,
    symbol_space,
)
from test_symbols import spaces


def test_boundary_matches_lifted_cusps():
    # the pair formula must equal the labelled boundary of the lifted path
    for space in spaces():
        fld, nu = space.field, space.level
        for idx, (u, v) in enumerate(space.points):
            g = lift_to_sl2(fld, nu, u, v)
            expected = {}
            lab_inf = cusp_label(space, g.a, g.c)
            lab_zero = cusp_label(space, g.b, g.d)
            assert lab_inf is not None and lab_zero is not None
            vec_axpy(expected, Fraction(1), {(lab_inf, 0): Fraction(1)})
            vec_axpy(expected, Fraction(-1), {(lab_zero, 0): Fraction(1)})
            assert boundary_of_gen(space, idx) == expected


def test_boundary_kills_relations_weight2():
    for space in spaces():
        npts = len(space.points)
        for i in range(npts):
            bi = boundary_of_gen(space, i)
            bj = boundary_of_gen(space, space.act_point(i, space.J))
            assert bi == bj
            for word in space.sum_words:
                total = {}
                for w in word:
                    vec_axpy(total, Fraction(1), boundary_of_gen(space, space.act_point(i, w)))
                assert total == {}


def test_boundary_kills_relations_weight4():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(2), 4)
    npts = len(space.points)
    ncomp = 2 * (space.weight - 1)
    rels = [[(w, 1) for w in word] for word in space.sum_words]
    rels.append([(Mat2.identity(fld), 1), (space.J, -1)])
    for rel in rels:
        mats = [space.slash_rows(w.inv_unit()) for w, _ in rel]
        for p in range(npts):
            for ci in range(ncomp):
                total = {}
                for (w, sgn), cm in zip(rel, mats):
                    tp = space.act_point(p, w)
                    for cj, coeff in cm[ci].items():
                        vec_axpy(
                            total,
                            Fraction(sgn * coeff),
                            boundary_of_gen(space, cj * npts + tp),
                        )
                assert total == {}


def test_boundary_kernel_equals_cusp_orbit_kernel():
    for space in spaces():
        _, lab_mat = boundary_matrix(space)
        true_mat = true_boundary_matrix(space)
        klab = Subspace(space.dim, kernel(lab_mat))
        ktrue = Subspace(space.dim, kernel(true_mat))
        assert klab.dim == ktrue.dim
        assert all(klab.contains(v) for v in ktrue.basis)
        assert all(ktrue.contains(v) for v in klab.basis)


def test_label_count_matches_orbit_count():
    # the class keys classify cusps exactly: their number equals the
    # independently computed orbit count
    for space in spaces():
        fld, nu = space.field, space.level
        labels = set()
        for u, v in space.points:
            g = lift_to_sl2(fld, nu, u, v)
            labels.add(cusp_label(space, g.a, g.c))
            labels.add(cusp_label(space, g.b, g.d))
        assert len(labels) == cusp_count(space)


def test_dimension_cusp_identity():
    for space in spaces():
        cusp_dim = cuspidal_subspace(space).dim
        assert space.dim == cusp_dim + cusp_count(space) - 1


def test_level_one_pins():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        space = symbol_space(fld, fld.one)
        assert cuspidal_subspace(space).dim == 0
        assert cusp_count(space) == 1


def test_gaussian_prime_level_pin():
    fld = Field.get(1)
    space = symbol_space(fld, parse_element(fld, "1+1w"))
    assert space.dim == 1
    assert cuspidal_subspace(space).dim == 0
    assert cusp_count(space) == 2


def test_orbit_of_cusp_well_defined():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(3))
    ids = point_cusp_orbits(space)
    w = fld.omega
    # scalings of the same projective cusp land in the same orbit
    a = orbit_of_cusp(space, tuple(ids), fld.from_int(2), fld.one + w)
    b = orbit_of_cusp(space, tuple(ids), fld.from_int(2) * w, (fld.one + w) * w)
    assert a == b


def test_weight4_cuspidal_builds():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(2), 4)
    sub = cuspidal_subspace(space)
    assert 0 <= sub.dim <= space.dim

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from bianchi import verify
from bianchi.boundary import (
    boundary_matrix,
    boundary_of_gen,
    cusp_label,
    cuspidal_subspace,
    orbit_boundary_matrix,
)
from bianchi.linalg import Subspace, kernel, vec_axpy
from bianchi.quadints import EUCLIDEAN_D, Field, canonical_elements_of_norm, parse_element
from bianchi.symbols import (
    Mat2,
    SymbolSpace,
    cusp_count,
    lift_to_sl2,
    symbol_space,
)
from test_symbols import moved, point_cusp_orbits_reference, slash_rows_reference, spaces


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
        everyone = list(range(len(space.points)))
        j_img = moved(space, everyone, [space.J])
        w_imgs = [moved(space, everyone, word) for word in space.sum_words]
        for i in everyone:
            bi = boundary_of_gen(space, i)
            bj = boundary_of_gen(space, j_img[i][0])
            assert bi == bj
            for imgs in w_imgs:
                total = {}
                for pt in imgs[i]:
                    vec_axpy(total, Fraction(1), boundary_of_gen(space, pt))
                assert total == {}


def test_boundary_kills_relations_weight4():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(2), 4)
    npts = len(space.points)
    ncomp = 2 * (space.weight - 1)
    rels = [[(w, 1) for w in word] for word in space.sum_words]
    rels.append([(Mat2.identity(fld), 1), (space.J, -1)])
    for rel in rels:
        mats = [slash_rows_reference(space, w.inv_unit()) for w, _ in rel]
        imgs = moved(space, list(range(npts)), [w for w, _ in rel])
        for p in range(npts):
            for ci in range(ncomp):
                total = {}
                for (w, sgn), cm, tp in zip(rel, mats, imgs[p]):
                    for cj, coeff in cm[ci].items():
                        vec_axpy(
                            total,
                            Fraction(sgn * coeff),
                            boundary_of_gen(space, cj * npts + tp),
                        )
                assert total == {}


def test_boundary_kernel_equals_cusp_orbit_kernel():
    for space in spaces():
        _, lab_rows = boundary_matrix(space)
        klab = Subspace(space.dim, kernel(lab_rows, space.dim))
        korbit = Subspace(space.dim, kernel(orbit_boundary_matrix(space), space.dim))
        assert klab.dim == korbit.dim
        assert all(klab.coords(v) is not None for v in korbit.basis)
        assert all(korbit.coords(v) is not None for v in klab.basis)


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


def test_weight4_cuspidal_builds():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(2), 4)
    sub = cuspidal_subspace(space)
    assert 0 <= sub.dim <= space.dim


def test_boundary_matrix_memo_changes_nothing():
    # boundary_matrix shares one cusp_class memo across its columns; each
    # column must equal the column computed without it, at weights 2 and 4
    fld = Field.get(1)
    for space in list(spaces()) + [symbol_space(fld, fld.from_int(2), 4)]:
        keys, rows = boundary_matrix(space)
        kidx = {k: i for i, k in enumerate(keys)}
        for j, g in enumerate(space.free_gens):
            col = {kidx[k]: c for k, c in boundary_of_gen(space, g).items()}
            assert {i: row[j] for i, row in enumerate(rows) if j in row} == col


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_weight2_cuspidal_subspace_matches_labelled_kernel(d):
    # the cusp-orbit boundary gives the subspace of the labelled one (basis,
    # key order, entry types, pivots) at level one and every level of norm
    # 2..40, and cusp_count the orbit count of the scalar search
    fld = Field.get(d)
    levels = [fld.one] + [nu for n in range(2, 41) for nu in canonical_elements_of_norm(fld, n)]
    for nu in levels:
        space = symbol_space(fld, nu)
        got = cuspidal_subspace(space)
        want = Subspace(space.dim, kernel(boundary_matrix(space)[1], space.dim))
        where = (d, str(nu))
        assert repr(got.basis) == repr(want.basis), where
        assert got.pivots == want.pivots, where
        assert cusp_count(space) == max(point_cusp_orbits_reference(space)) + 1, where


def test_boundary_bridge_catches_a_wrong_cuspidal_kernel(monkeypatch):
    # the whole quotient in place of the cuspidal subspace: the labelled
    # boundary's kernel is smaller at the first level with a cusp form or
    # two cusps
    def whole(space):
        return Subspace(space.dim, [{i: Fraction(1)} for i in range(space.dim)])

    monkeypatch.setattr(verify, "cuspidal_subspace", whole)
    result = verify.check_boundary_bridge(norm_bound=4)
    assert not result.ok
    assert result.data["fail"]["kernel"] == "differs"


@pytest.mark.parametrize("fault", ["merged", "moved"])
def test_boundary_bridge_catches_a_wrong_cusp_pass(monkeypatch, fault):
    # at the first level with two cusps, the two orbits merged into one, or
    # one S image moved into the other orbit: the orbits no longer match the
    # labels one to one
    fld = Field.get(1)
    # the space the check reads: symbol_space keys its cache on the canonical
    # level and the weight, so this is the same object
    space = symbol_space(fld, parse_element(fld, "1+1w"))
    orbit, s_image = space.cusp_pass
    assert orbit.max() == 1
    if fault == "merged":
        orbit = np.zeros_like(orbit)
    else:
        s_image = s_image.copy()
        s_image[0] = np.flatnonzero(orbit != orbit[s_image[0]])[0]
    monkeypatch.setattr(space, "cusp_pass", (orbit, s_image))
    result = verify.check_boundary_bridge(norm_bound=4)
    assert not result.ok
    assert result.data["fail"]["partition"] == "differs"
    assert result.data["fail"]["level"] == str(space.level)


@pytest.mark.parametrize("weight", [2, 4])
def test_cuspidal_subspace_is_freed_with_its_space(weight):
    # the subspace is kept on the space, not in a cache keyed on it
    fld = Field.get(1)
    space = SymbolSpace(fld, fld.from_int(2), weight)
    sub = cuspidal_subspace(space)
    assert cuspidal_subspace(space) is sub
    ref = weakref.ref(space)
    del space
    gc.collect()
    assert ref() is None

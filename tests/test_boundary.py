import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from bianchi import verify
from bianchi.boundary import (
    boundary_matrix,
    boundary_of_gen,
    cusp_class,
    cuspidal_subspace,
    orbit_boundary,
)
from bianchi.fourier import SeedElement
from bianchi.linalg import Subspace, kernel, vec_axpy
from bianchi.quadints import (
    EUCLIDEAN_D,
    Field,
    canonical_elements_of_norm,
    divides,
    parse_element,
)
from bianchi.symbols import (
    Mat2,
    SymbolSpace,
    cusp_count,
    lift_to_sl2,
    normalize_cusp,
    symbol_space,
)
from test_symbols import moved, point_cusp_orbits_reference, slash_rows_reference, spaces


def label(space, p, q):
    # the class key of the cusp (p : q), None when the class is dead
    return cusp_class(space, *normalize_cusp(p, q))[0]


def test_boundary_matches_lifted_cusps():
    # the pair formula must equal the labelled boundary of the lifted path
    for space in spaces():
        fld, nu = space.field, space.level
        for idx, (u, v) in enumerate(space.points):
            g = lift_to_sl2(fld, nu, u, v)
            expected = {}
            lab_inf = label(space, g.a, g.c)
            lab_zero = label(space, g.b, g.d)
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
        korbit = Subspace(space.dim, kernel(orbit_boundary(space, space.free_gens), space.dim))
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
            labels.add(label(space, g.a, g.c))
            labels.add(label(space, g.b, g.d))
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


def assert_orbit_kernel_is_labelled_kernel(space):
    # the cusp-orbit boundary gives the subspace of the labelled one: basis
    # (key order, entry types) and pivots
    got = cuspidal_subspace(space)
    want = Subspace(space.dim, kernel(boundary_matrix(space)[1], space.dim))
    where = (space.field.d, str(space.level), space.weight)
    assert repr(got.basis) == repr(want.basis), where
    assert got.pivots == want.pivots, where


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_weight2_cuspidal_subspace_matches_labelled_kernel(d):
    # at level one and every level of norm 2..40, with cusp_count the orbit
    # count of the scalar search
    fld = Field.get(d)
    levels = [fld.one] + [nu for n in range(2, 41) for nu in canonical_elements_of_norm(fld, n)]
    for nu in levels:
        space = symbol_space(fld, nu)
        assert_orbit_kernel_is_labelled_kernel(space)
        assert cusp_count(space) == max(point_cusp_orbits_reference(space)) + 1, (d, str(nu))


@pytest.mark.parametrize("weight, bound", [(3, 12), (4, 10), (6, 6)])
@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_weightk_cuspidal_subspace_matches_labelled_kernel(d, weight, bound):
    # the unit twists of the cusp pass: every level of norm up to bound where
    # the weight does not vanish
    fld = Field.get(d)
    two = fld.from_int(2)
    for n in range(1, bound + 1):
        for nu in canonical_elements_of_norm(fld, n):
            if weight % 2 == 0 or not divides(nu, two):
                assert_orbit_kernel_is_labelled_kernel(symbol_space(fld, nu, weight))


@pytest.mark.parametrize("d, level, weight", [(3, "5", 4), (7, "3+w", 6)])
def test_weightk_cuspidal_subspace_matches_labelled_kernel_at_a_larger_level(d, level, weight):
    fld = Field.get(d)
    assert_orbit_kernel_is_labelled_kernel(symbol_space(fld, parse_element(fld, level), weight))


def test_twisted_cusp_pass_keeps_the_orbits():
    # the twists change no orbit and no orbit number; at weight 2 every
    # twist is 0, and above it some orbit is dead
    dead = 0
    for fld, nu in ((Field.get(1), "3"), (Field.get(3), "2"), (Field.get(7), "2+w")):
        nu = parse_element(fld, nu)
        orbit, _, twist = symbol_space(fld, nu).cusp_pass
        assert not twist.any()
        for weight in (4, 6):
            korbit, _, ktwist = symbol_space(fld, nu, weight).cusp_pass
            assert korbit.tolist() == orbit.tolist()
            dead += int((ktwist < 0).any())
    assert dead


@pytest.mark.parametrize("d, level", [(1, "2"), (3, "2"), (7, "w")])
def test_seed_check_reads_the_labelled_boundary(d, level):
    # at weight 4, a single generator is refused as a seed exactly when its
    # labelled boundary is nonzero: the dead orbits take nothing, the live
    # ones something
    fld = Field.get(d)
    space = symbol_space(fld, parse_element(fld, level), 4)
    seen = set()
    for g in range(space.qmap.ngens):
        zero = boundary_of_gen(space, g) == {}
        seen.add(zero)
        if zero:
            SeedElement(space, {g: Fraction(1)})
        else:
            with pytest.raises(ValueError):
                SeedElement(space, {g: Fraction(1)})
    assert seen == {True, False}


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
    orbit, s_image, twist = space.cusp_pass
    assert orbit.max() == 1
    if fault == "merged":
        orbit = np.zeros_like(orbit)
    else:
        s_image = s_image.copy()
        s_image[0] = np.flatnonzero(orbit != orbit[s_image[0]])[0]
    monkeypatch.setattr(space, "cusp_pass", (orbit, s_image, twist))
    result = verify.check_boundary_bridge(norm_bound=4)
    assert not result.ok
    assert result.data["fail"]["partition"] == "differs"
    assert result.data["fail"]["level"] == str(space.level)


def changed_live_twists(space, change):
    # the cusp pass of d = 3, level 2, weight 4 with each live twist exponent
    # e replaced by change(e) mod 3, the order of zeta^2
    orbit, s_image, twist = space.cusp_pass
    assert set(twist.tolist()) == {-1, 0, 1, 2}
    return orbit, s_image, np.where(twist >= 0, change(twist) % 3, -1)


def test_boundary_bridge_catches_negated_twists(monkeypatch):
    # the twist exponents of the opposite sign, -(k-2) for +(k-2): the twist
    # of some orbit is no longer one unit
    fld = Field.get(3)
    space = symbol_space(fld, fld.from_int(2), 4)
    monkeypatch.setattr(space, "cusp_pass", changed_live_twists(space, np.negative))
    result = verify.check_boundary_bridge(norm_bound=1, weight_k=((4, 4),))
    assert not result.ok
    fail = result.data["fail"]
    assert (fail["d"], fail["level"], fail["weight"], fail["twist"]) == (3, "2", 4, "differs")


def test_zeroed_twists_change_the_cuspidal_dimension():
    # every live twist exponent 0, the dead set kept: a boundary that ignores
    # the scalings' twist has a smaller image here
    fld = Field.get(3)
    assert cuspidal_subspace(symbol_space(fld, fld.from_int(2), 4)).dim == 0
    space = SymbolSpace(fld, fld.from_int(2), 4)
    space.cusp_pass = changed_live_twists(space, np.zeros_like)
    assert cuspidal_subspace(space).dim == 1


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

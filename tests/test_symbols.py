import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from bianchi.cli import main
from bianchi.fourier import _unit_twist
from bianchi.heilbronn import heilbronn_family
from bianchi.linalg import rref, rref_ints, vec_axpy
from bianchi.quadints import (
    EUCLIDEAN_D,
    Field,
    canonical_elements_of_norm,
    factorize,
    gcd,
    hnf_module,
    parse_element,
    reduce_mod,
    residues_mod,
)
from bianchi.symbols import (
    Mat2,
    SymbolSpace,
    continued_fraction_path,
    cusp_count,
    enumerate_points,
    lift_to_sl2,
    modular_symbol_vec,
    normalize_cusp,
    POINT_LIMIT,
    point_count_formula,
    relation_words,
    slash_poly,
    slash_tensor,
    symbol_space,
    _distinct_rows,
    _orbit_roots,
)
from test_linalg import vec_add, vec_sub

FIELDS = [Field.get(d) for d in EUCLIDEAN_D]

# one small prime-ish and one composite-ish level per field
LEVELS = {
    1: ["1+1w", "3"],
    2: ["w", "1+1w"],
    3: ["2", "1+1w"],
    7: ["w", "1+1w"],
    11: ["w", "2"],
}


def moved(space, gens, mats):
    """act_points of gens against the Mat2s mats, as lists; every image must
    be unimodular (the relation words and J are invertible)."""
    imgs = space.act_points(gens, [m.row() for m in mats]).tolist()
    assert all(pt >= 0 for line in imgs for pt in line)
    return imgs


def act_point(space, idx, row):
    """The scalar integer point move that act_points batches: the index of
    (u, v) * M for the point idx and the 8-int row of M, None when the
    product is not unimodular.  The products use omega^2 = t*omega - m and
    each coordinate is reduced into the Hermite box the way reduce_mod does;
    the scalar references below move points through it one at a time."""
    u, v = space.points[idx]
    fld = space.field
    e11, e12, e22 = hnf_module(space.level)
    ua, ub, va, vb = u.a, u.b, v.a, v.b
    aa, ab, ba, bb, ca, cb, da, db = row
    m = fld.m
    ut, vt = ua + fld.t * ub, va + fld.t * vb
    xa = ua * aa + va * ca - m * (ub * ab + vb * cb)
    xb = ut * ab + ub * aa + vt * cb + vb * ca
    ya = ua * ba + va * da - m * (ub * bb + vb * db)
    yb = ut * bb + ub * ba + vt * db + vb * da
    kx, ky = xa // e11, ya // e11
    code = (((xa - kx * e11) * e22 + (xb - kx * e12) % e22) * e11 * e22
            + (ya - ky * e11) * e22 + (yb - ky * e12) % e22)
    pt = int(space._codes[code])
    return None if pt < 0 else pt


def gen_map(space):
    """Every generator's quotient image as a {coordinate: Fraction} dict,
    keys ascending, read off the space's int quotient map."""
    return [space.qmap.vector(g) for g in range(space.qmap.ngens)]


def spaces(weight=2):
    for d, texts in LEVELS.items():
        fld = Field.get(d)
        for s in texts:
            yield symbol_space(fld, parse_element(fld, s), weight)


def cusp_key(fld, p, q):
    return normalize_cusp(p, q)


def test_relation_words_close_up():
    # each word list must trace a closed cycle of unimodular edges
    for fld in FIELDS:
        words, J = relation_words(fld)
        assert J.det().is_unit()
        # J fixes the cusps 0 and oo
        assert cusp_key(fld, *J.act_cusp(fld.zero, fld.one)) == cusp_key(fld, fld.zero, fld.one)
        assert cusp_key(fld, *J.act_cusp(fld.one, fld.zero)) == cusp_key(fld, fld.one, fld.zero)
        for word in words:
            counts = {}
            for w in word:
                assert w.det().is_unit()
                start = cusp_key(fld, *w.act_cusp(fld.zero, fld.one))
                end = cusp_key(fld, *w.act_cusp(fld.one, fld.zero))
                counts[start] = counts.get(start, 0) - 1
                counts[end] = counts.get(end, 0) + 1
            assert all(v == 0 for v in counts.values()), (fld.d, counts)


def test_point_enumeration_matches_formula():
    for fld in FIELDS:
        for s in LEVELS[fld.d] + ["1"]:
            nu = parse_element(fld, s)
            pts = enumerate_points(fld, nu)
            assert len(set(pts)) == len(pts)
            assert len(pts) == point_count_formula(fld, nu)


def test_point_enumeration_matrix_oracle():
    # (u, v) is unimodular iff some (s, t) solves u*s + v*t = unit mod nu
    from bianchi.quadints import residues_mod

    for fld in FIELDS:
        nu = parse_element(fld, LEVELS[fld.d][0])
        reps = residues_mod(nu)
        expected = set()
        for u in reps:
            for v in reps:
                if any(
                    gcd(reduce_mod(u * s + v * t, nu), nu).is_unit()
                    for s in reps
                    for t in reps
                ):
                    expected.add((u, v))
        assert set(enumerate_points(fld, nu)) == expected


def test_gaussian_prime_level_pin():
    fld = Field.get(1)
    assert point_count_formula(fld, fld.from_int(2)) == 12
    pts = enumerate_points(fld, parse_element(fld, "1+1w"))
    assert len(pts) == 3


def test_lift_to_sl2():
    for space in spaces():
        fld, nu = space.field, space.level
        for u, v in space.points:
            g = lift_to_sl2(fld, nu, u, v)
            assert g.det() == fld.one
            assert reduce_mod(g.c, nu) == reduce_mod(u, nu)
            assert reduce_mod(g.d, nu) == reduce_mod(v, nu)


def test_lift_pins():
    fld = Field.get(1)
    nu = fld.from_int(3)
    eye = lift_to_sl2(fld, nu, fld.zero, fld.one)
    assert eye == Mat2.identity(fld)
    s = lift_to_sl2(fld, nu, fld.one, fld.zero)
    assert s == Mat2(fld.zero, -fld.one, fld.one, fld.zero)


def test_level_one_spaces_vanish():
    # no weight-2 forms at level (1) for any Euclidean field
    for fld in FIELDS:
        sp = symbol_space(fld, fld.one)
        assert sp.dim == 0


def test_relation_rows_vanish_in_quotient():
    for space in list(spaces()) + [symbol_space(Field.get(1), Field.get(1).from_int(2), 4)]:
        npts = len(space.points)
        everyone = list(range(npts))
        if space.weight == 2:
            words, J = space.sum_words, space.J
            j_img = moved(space, everyone, [J])
            w_imgs = [moved(space, everyone, word) for word in words]
            images = gen_map(space)
            for i in range(npts):
                assert vec_sub(images[j_img[i][0]], images[i]) == {}
                for imgs in w_imgs:
                    total = {}
                    for pt in imgs[i]:
                        vec_axpy(total, Fraction(1), images[pt])
                    assert total == {}, (space.field.d, str(space.level), i)
        else:
            fld = space.field
            rels = [[(w, 1) for w in word] for word in space.sum_words]
            rels.append([(Mat2.identity(fld), 1), (space.J, -1)])
            for rel in rels:
                imgs = moved(space, everyone, [w for w, _ in rel])
                for i in range(npts):
                    for mono in range(space.weight - 1):
                        for coeff in (fld.one, fld.omega):
                            total = {}
                            for (w, sgn), pt in zip(rel, imgs[i]):
                                poly = slash_poly({mono: coeff}, w.inv_unit(), space.weight)
                                vec_axpy(total, Fraction(sgn), space.symbol_vector(poly, pt))
                            assert total == {}


def test_roundtrip_generators():
    # [1, g] must agree with the modular symbol from g*0 to g*oo
    for space in spaces():
        fld, nu = space.field, space.level
        for idx, (u, v) in enumerate(space.points):
            g = lift_to_sl2(fld, nu, u, v)
            got = modular_symbol_vec(space, (g.b, g.d), (g.a, g.c))
            assert got == space.qmap.vector(idx), (fld.d, str(nu), idx)


def test_weight4_roundtrip():
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(2), 4)
    assert space.weight == 4
    npts = len(space.points)
    for idx, (u, v) in enumerate(space.points):
        g = lift_to_sl2(fld, space.level, u, v)
        for mono in range(3):
            for part, coeff in enumerate((fld.one, fld.omega)):
                poly = slash_poly({mono: coeff}, g, 4)
                got = modular_symbol_vec(space, (g.b, g.d), (g.a, g.c), poly)
                gen = (2 * mono + part) * npts + idx
                assert got == space.qmap.vector(gen)


# one small level per field that does not divide 2, so odd weight lives
LAYOUT_LEVELS = {1: "2+1w", 2: "1+1w", 3: "1+1w", 7: "1+1w", 11: "w"}


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_generator_layout_round_trip(d):
    # symbol_vector inverts generator on every generator of weights 2, 3, 4
    # and 6, and g // len(points) is the component bianchi space prints
    fld = Field.get(d)
    text = LAYOUT_LEVELS[d]
    for weight in (2, 3, 4, 6):
        space = symbol_space(fld, parse_element(fld, text), weight)
        npts = len(space.points)
        ncomp = 1 if weight == 2 else 2 * (weight - 1)
        images = gen_map(space)
        assert len(images) == ncomp * npts
        for g in range(len(images)):
            poly, pt = space.generator(g)
            ((mono, coeff),) = poly.items()
            assert coeff in (fld.one, fld.omega) and 0 <= mono <= weight - 2
            assert g // npts == 2 * mono + (coeff == fld.omega)
            assert pt == g % npts
            assert space.symbol_vector(poly, pt) == images[g], (weight, g)
        result = CliRunner().invoke(main, ["space", "--d", str(d), "--level", text,
                                           "--weight", str(weight)])
        assert result.exit_code == 0, result.output
        printed = json.loads(result.stdout)["free_generators"]
        assert [(e["index"], e["component"]) for e in printed] == \
            [(g, g // npts) for g in space.free_gens]
        assert [e["point"] for e in printed] == \
            [[str(x) for x in space.points[space.generator(g)[1]]] for g in space.free_gens]


def test_three_term_cocycle():
    rng = random.Random(7)
    for space in spaces():
        fld = space.field
        for _ in range(10):
            cusps = []
            while len(cusps) < 3:
                p = fld.elt(rng.randint(-9, 9), rng.randint(-9, 9))
                q = fld.elt(rng.randint(-9, 9), rng.randint(-9, 9))
                if not (p.is_zero() and q.is_zero()):
                    cusps.append((p, q))
            a, b, c = cusps
            total = vec_add(
                vec_add(modular_symbol_vec(space, a, b), modular_symbol_vec(space, b, c)),
                modular_symbol_vec(space, c, a),
            )
            assert total == {}


def test_path_pin_zero_to_infinity():
    # {0, oo} is the class of [1, (0, 1)], and the S-fold sends it to -[1, (1, 0)]
    fld = Field.get(1)
    space = symbol_space(fld, fld.from_int(3))
    vec = modular_symbol_vec(space, (fld.zero, fld.one), (fld.one, fld.zero))
    assert vec == space.qmap.vector(space.point_of(fld.zero, fld.one))
    neg = {k: -v for k, v in space.qmap.vector(space.point_of(fld.one, fld.zero)).items()}
    assert vec == neg


def test_slash_composition():
    rng = random.Random(3)
    for fld in (Field.get(1), Field.get(3)):
        for weight in (4, 6):
            for _ in range(8):
                poly = {
                    i: fld.elt(rng.randint(-3, 3), rng.randint(-3, 3))
                    for i in range(weight - 1)
                }
                mats = []
                for _ in range(2):
                    # random unit determinant matrix from generators
                    m = Mat2.identity(fld)
                    for _ in range(4):
                        mu = fld.elt(rng.randint(-2, 2), rng.randint(-2, 2))
                        m = m * Mat2(fld.one, mu, fld.zero, fld.one)
                        if rng.random() < 0.5:
                            m = m * Mat2(fld.zero, -fld.one, fld.one, fld.zero)
                    mats.append(m)
                g, h = mats
                lhs = slash_poly(slash_poly(poly, g, weight), h, weight)
                rhs = slash_poly(poly, h * g, weight)
                assert lhs == rhs


def slash_rows_reference(space, g):
    # the integer matrix of P -> P|_g on the flattened components, one
    # {component: coefficient} row per component, by the per-monomial
    # slash_poly route on QuadInts that slash_tensor is held to
    fld = space.field
    out = []
    for i in range(space.weight - 1):
        for part in (0, 1):
            coeff = fld.one if part == 0 else fld.omega
            row = {}
            for j, c in slash_poly({i: coeff}, g, space.weight).items():
                if c.a:
                    row[2 * j] = c.a
                if c.b:
                    row[2 * j + 1] = c.b
            out.append(row)
    return out


def unit_level_space(d, weight):
    # the slash coefficients depend on the field and the weight only
    fld = Field.get(d)
    return SymbolSpace(fld, fld.one, weight)


def tensor_rows(block):
    # one matrix's slash_tensor block as slash_rows_reference's list of
    # {component: coefficient}
    return [{cj: c for cj, c in enumerate(line) if c} for line in block.tolist()]


@given(st.sampled_from(EUCLIDEAN_D), st.sampled_from([4, 6, 8]),
       st.lists(st.integers(-50, 50), min_size=8, max_size=8))
@example(1, 4, [0] * 8)
@example(11, 8, [1, 0, 0, 1, 0, 1, 1, 1])
def test_slash_rows_on_drawn_matrices(d, weight, coords):
    # slash_tensor, on g in a batch with its adjugate and itself again,
    # against the slash_poly route
    space = unit_level_space(d, weight)
    fld = space.field
    g = Mat2(*(fld.elt(a, b) for a, b in zip(coords[::2], coords[1::2])))
    batch = [g, g.adj(), g]
    tensor = slash_tensor(fld, weight, [m.row() for m in batch])
    assert tensor.shape == (3, 2 * weight - 2, 2 * weight - 2) and tensor.dtype == np.int64
    assert [tensor_rows(block) for block in tensor] == \
        [slash_rows_reference(space, m) for m in batch]


def test_slash_rows_on_family_adjugates_and_word_inverses():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        words, J = relation_words(fld)
        inverses = [w.inv_unit() for word in words for w in word] + [J.inv_unit()]
        adjugates = [Mat2.from_row(fld, m).adj() for n in range(2, 8)
                     for eta in canonical_elements_of_norm(fld, n)
                     for m in heilbronn_family(eta)]
        for weight in (2, 4, 6, 8):
            space = unit_level_space(d, weight)
            tensor = slash_tensor(fld, weight, [g.row() for g in inverses + adjugates])
            for g, block in zip(inverses + adjugates, tensor):
                assert tensor_rows(block) == slash_rows_reference(space, g), (d, weight, g)


@pytest.mark.parametrize("d, weight", [(1, 4), (11, 40), (7, 56), (3, 60)])
def test_slash_tensor_is_exact_past_int64(d, weight):
    # coefficients past int64 (a row entry of 2^40, or the word matrices'
    # powers of omega at high weight) come out as Python ints in an object
    # array; S^-1 and J^-1 only move monomials and scale them by units, so
    # theirs come out int64 at every weight, though the pass runs on
    # Python ints once the bound on its values passes int64
    space = unit_level_space(d, weight)
    fld = space.field
    words, J = relation_words(fld)
    two_term = [words[0][1].inv_unit(), J.inv_unit()]
    inverses = [w.inv_unit() for word in words[1:] for w in word]
    big = [Mat2(fld.from_int(2**40), fld.zero, fld.zero, fld.one)]
    for mats, dtype in ((two_term, np.int64), (inverses + big, object)):
        tensor = slash_tensor(fld, weight, [g.row() for g in mats])
        assert tensor.dtype == dtype, (d, weight, dtype)
        for g, block in zip(mats, tensor):
            assert tensor_rows(block) == slash_rows_reference(space, g), (d, weight, g)


def test_odd_weight_rejection():
    fld = Field.get(1)
    with pytest.raises(ValueError):
        SymbolSpace(fld, parse_element(fld, "1+1w"), 3)
    # fine when the level does not divide 2
    sp = SymbolSpace(fld, parse_element(fld, "2+1w"), 3)
    assert sp.weight == 3


def test_cusp_counts():
    for fld in FIELDS:
        assert cusp_count(symbol_space(fld, fld.one)) == 1
    fld = Field.get(1)
    assert cusp_count(symbol_space(fld, parse_element(fld, "1+1w"))) == 2


def test_symbol_space_cache_keys_on_canonical_level_and_weight():
    # an associate level and an explicit weight 2 reach the same entry
    fld = Field.get(1)
    nu = fld.from_int(2)
    misses = symbol_space.cache_info().misses
    space = symbol_space(fld, nu)
    assert space is symbol_space(fld, -nu, 2)
    assert space is symbol_space(fld, fld.omega * nu, weight=2)
    assert symbol_space.cache_info().misses <= misses + 1
    assert symbol_space(fld, -nu, 4) is symbol_space(fld, nu, 4) is not space


def test_continued_fraction_terminates_and_chains():
    rng = random.Random(11)
    for fld in FIELDS:
        for _ in range(25):
            p = fld.elt(rng.randint(-30, 30), rng.randint(-30, 30))
            q = fld.elt(rng.randint(-30, 30), rng.randint(-30, 30))
            if p.is_zero() and q.is_zero():
                continue
            mats = continued_fraction_path(fld, p, q)
            for m in mats:
                assert m.det().norm() == 1
            # consecutive cusp pairs chain from oo to p/q
            end = cusp_key(fld, p, q)
            prev = cusp_key(fld, fld.one, fld.zero)
            for m in mats:
                assert cusp_key(fld, *m.act_cusp(fld.zero, fld.one)) == prev
                prev = cusp_key(fld, *m.act_cusp(fld.one, fld.zero))
            assert prev == end


def test_normalize_cusp():
    fld = Field.get(1)
    w = fld.omega
    with pytest.raises(ValueError):
        normalize_cusp(fld.zero, fld.zero)
    p, q = normalize_cusp(fld.from_int(2) * w, fld.from_int(2))
    assert (p, q) == (w, fld.one)
    p, q = normalize_cusp(fld.from_int(5), fld.zero)
    assert (p, q) == (fld.one, fld.zero)


# levels for the point action: Hermite forms with e11 > 1 and e12 != 0
# (2+2w at d = 1 is (2, 2, 4), 2+w at d = 2 is (2, 1, 3)), prime powers and
# composite levels in every field
ACTION_LEVELS = {
    1: ["2+2w", "3+3w", "3-w"],
    2: ["2+w", "2w", "1-2w"],
    3: ["4-2w", "4"],
    7: ["2+w", "4-w", "3+w"],
    11: ["3-w", "3+w", "1-2w"],
}


def action_spaces(d):
    fld = Field.get(d)
    return [symbol_space(fld, parse_element(fld, s)) for s in ACTION_LEVELS[d]]


def act_point_reference(space, idx, m):
    # the QuadInt formula the integer point action replaced
    u, v = space.points[idx]
    return space.point_of(u * m.a + v * m.c, u * m.b + v * m.d)


def test_act_point_matches_quadint_formula():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        words, J = relation_words(fld)
        mats = [w for word in words for w in word] + [J]
        for n in range(2, 6):
            for eta in canonical_elements_of_norm(fld, n):
                mats.extend(Mat2.from_row(fld, row) for row in heilbronn_family(eta))
        rows = np.array([m.row() for m in mats], dtype=np.int64)
        images = []
        for space in action_spaces(d):
            everyone = list(range(len(space.points)))
            got = [act_point(space, i, m.row()) for i in everyone for m in mats]
            want = [act_point_reference(space, i, m) for i in everyone for m in mats]
            assert got == want
            batched = space.act_points(everyone, rows).ravel().tolist()
            assert batched == [-1 if pt is None else pt for pt in want]
            images.extend(got)
        # families whose determinant shares a prime with the level lose points
        assert None in images and any(pt is not None for pt in images)


@given(st.sampled_from(EUCLIDEAN_D), st.lists(st.integers(-50, 50), min_size=8, max_size=8))
@example(1, [0] * 8)
@example(2, [2, 1, 0, 0, 0, 0, 1, 0])
def test_act_point_on_drawn_matrices(d, coords):
    fld = Field.get(d)
    m = Mat2(*(fld.elt(a, b) for a, b in zip(coords[::2], coords[1::2])))
    for space in action_spaces(d):
        want = [act_point_reference(space, i, m) for i in range(len(space.points))]
        assert [act_point(space, i, tuple(coords)) for i in range(len(space.points))] == want
        batched = space.act_points(list(range(len(space.points))), np.array([coords]))
        assert batched[:, 0].tolist() == [-1 if pt is None else pt for pt in want]


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_act_points_matches_act_point_on_families(d):
    # every point against every row of every family up to norm 30, for each
    # unit multiple u*eta: the rows twisted from eta's array (as the table
    # does) equal u*eta's own chain rows, and the batched action on them
    # equals act_point row by row; the level's Hermite form has e12 != 0
    fld = Field.get(d)
    space = action_spaces(d)[0]
    assert hnf_module(space.level)[1] != 0
    gens = list(range(len(space.points)))
    images = set()
    for n in range(1, 31):
        for base in canonical_elements_of_norm(fld, n):
            rows = np.array(heilbronn_family(base), dtype=np.int64)
            for u in fld.units:
                fam = heilbronn_family(u * base)
                twisted = _unit_twist(rows, u)
                assert twisted.tolist() == [list(r) for r in fam]
                got = space.act_points(gens, twisted)
                want = [[act_point(space, g, r) for r in fam] for g in gens]
                assert got.tolist() == [[-1 if pt is None else pt for pt in line]
                                        for line in want]
                images.update(got.ravel().tolist())
    assert -1 in images and len(images) == len(space.points) + 1


def test_act_points_on_empty_gens_and_rows():
    space = action_spaces(11)[0]
    rows = np.array(heilbronn_family(Field.get(11).from_int(2)), dtype=np.int64)
    assert space.act_points([], rows).shape == (0, len(rows))
    assert space.act_points(np.arange(0), rows).shape == (0, len(rows))
    assert space.act_points([0, 1], []).shape == (2, 0)
    assert space.act_points([0, 1], np.zeros((0, 8), dtype=np.int64)).shape == (2, 0)


def test_lift_invariants_fire_under_python_O(run_optimized):
    # a non-unimodular pair, and a corrupted xgcd whose lift has determinant 0
    out = run_optimized(
        "from bianchi import symbols\n"
        "from bianchi.quadints import Field, InvariantError\n"
        "fld = Field.get(1)\n"
        "two = fld.from_int(2)\n"
        "try:\n"
        "    symbols.lift_to_sl2(fld, two, fld.zero, two)\n"
        "except InvariantError as exc:\n"
        "    print('unit:', exc)\n"
        "symbols.xgcd = lambda a, b: (fld.one, fld.zero, fld.zero)\n"
        "try:\n"
        "    symbols.lift_to_sl2(fld, two, fld.one, fld.one)\n"
        "except InvariantError as exc:\n"
        "    print('det:', exc)\n"
    )
    assert [line.split(":")[0] for line in out] == ["unit", "det"], out


# levels for the prime sieve: the action levels plus prime powers and levels
# with two or three distinct prime factors
SIEVE_LEVELS = {
    1: ACTION_LEVELS[1] + ["2", "4-2w", "5+5w"],
    2: ACTION_LEVELS[2] + ["2", "2-2w", "3w", "6"],
    3: ACTION_LEVELS[3] + ["3", "4-2w", "10-8w"],
    7: ACTION_LEVELS[7] + ["1+w", "2w", "2-4w"],
    11: ACTION_LEVELS[11] + ["2+w", "3w", "6"],
}


def sieve_levels():
    for d, texts in SIEVE_LEVELS.items():
        fld = Field.get(d)
        for s in texts:
            yield fld, parse_element(fld, s)


def enumerate_points_reference(fld, nu):
    # the gcd scan the prime sieve replaced
    reps = residues_mod(nu)
    return [(u, v) for u in reps for v in reps if gcd(gcd(u, v), nu).is_unit()]


def test_point_sieve_matches_gcd_scan():
    distinct = set()
    for fld, nu in sieve_levels():
        assert enumerate_points(fld, nu) == enumerate_points_reference(fld, nu), (fld.d, str(nu))
        distinct.add(len(factorize(nu)[1]))
    assert distinct == {1, 2, 3}


def point_cusp_orbits_quadint(space):
    # the QuadInt version the matrix moves replaced
    fld = space.field
    nu = space.level
    moves = []
    for lam in fld.units:
        moves.append(lambda u, v, lam=lam: (lam * u, lam.conj() * v))
        moves.append(lambda u, v, lam=lam: (lam * u, v))
    for mu in (fld.one, -fld.one, fld.omega, -fld.omega):
        moves.append(lambda u, v, mu=mu: (u, v + mu * u))
    ids = [-1] * len(space.points)
    nxt = 0
    for i in range(len(space.points)):
        if ids[i] >= 0:
            continue
        ids[i] = nxt
        stack = [i]
        while stack:
            u, v = space.points[stack.pop()]
            for mv in moves:
                uu, vv = mv(u, v)
                t = space.point_index[(reduce_mod(uu, nu), reduce_mod(vv, nu))]
                if ids[t] < 0:
                    ids[t] = nxt
                    stack.append(t)
        nxt += 1
    return ids


def test_cusp_orbits_match_quadint_moves():
    counts = set()
    for fld, nu in sieve_levels():
        space = symbol_space(fld, nu)
        ids = space.cusp_pass[0].tolist()
        assert ids == point_cusp_orbits_quadint(space), (fld.d, str(nu))
        counts.add(max(ids) + 1)
    assert len(counts) > 3


def point_cusp_orbits_reference(space):
    # the scalar search the batched moves replaced: act_point per point and move
    fld = space.field
    one, zero = fld.one, fld.zero
    moves = []
    for lam in fld.units:
        moves.append(Mat2(lam, zero, zero, lam.conj()))
        moves.append(Mat2(lam, zero, zero, one))
    for mu in (one, -one, fld.omega, -fld.omega):
        moves.append(Mat2(one, mu, zero, one))
    moves = [mv.row() for mv in moves]
    ids = [-1] * len(space.points)
    nxt = 0
    for i in range(len(space.points)):
        if ids[i] >= 0:
            continue
        ids[i] = nxt
        stack = [i]
        while stack:
            j = stack.pop()
            for mv in moves:
                t = act_point(space, j, mv)
                if ids[t] < 0:
                    ids[t] = nxt
                    stack.append(t)
        nxt += 1
    return ids


class _SignedUF:
    """Union-find tracking e_i = sign * e_root, with dead (forced-zero) roots."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def find(self, i: int) -> tuple[int, int]:
        chain = []
        while self.parent[i] != i:
            chain.append(i)
            i = self.parent[i]
        s = 1
        for j in reversed(chain):
            s *= self.sign[j]
            self.parent[j] = i
            self.sign[j] = s
        return (i, self.sign[chain[0]]) if chain else (i, 1)

    def union(self, i: int, j: int, s: int) -> None:
        """Impose e_i = s * e_j."""
        ri, si = self.find(i)
        rj, sj = self.find(j)
        t = si * s * sj
        if ri == rj:
            if t != 1:
                self.dead[ri] = True
            return
        if ri < rj:
            ri, rj = rj, ri
        self.parent[ri] = rj
        self.sign[ri] = t
        self.dead[rj] = self.dead[rj] or self.dead[ri]


def orbit_roots_reference(images, signs):
    # (root, sign, dead) per point from the union-find, one union per point and move
    npts = len(images)
    uf = _SignedUF(npts)
    for i, line in enumerate(images):
        for t, s in zip(line, signs):
            uf.union(i, t, s)
    found = [uf.find(i) for i in range(npts)]
    return [(r, s, uf.dead[r]) for r, s in found]


def draw_moves(draw):
    # the (points, moves) images of up to 4 moves on n <= 30 points, each a
    # permutation built from cycles of length 1-6
    n = draw(st.integers(1, 30))
    moves = []
    for _ in range(draw(st.integers(0, 4))):
        order = draw(st.permutations(range(n)))
        perm = list(range(n))
        start = 0
        while start < n:
            stop = min(n, start + draw(st.integers(1, 6)))
            cycle = order[start:stop]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
            start = stop
        moves.append(perm)
    return [list(line) for line in zip(*moves)] if moves else [[] for _ in range(n)]


@st.composite
def signed_permutations(draw):
    images = draw_moves(draw)
    nmoves = len(images[0])
    return images, draw(st.lists(st.sampled_from([-1, 1]), min_size=nmoves, max_size=nmoves))


@given(signed_permutations())
@example(([[0]], [-1]))  # a move fixing the one point with sign -1: a dead orbit
@example(([[]], []))  # one point, no moves
@example(([[], [], []], []))  # no moves: every point is its own orbit
@example(([[1], [0], [2]], [-1]))  # the fixed point 2 is dead, 0 and 1 are not
def test_orbit_roots_match_signed_union_find(case):
    # signs are labels in the group of order 2, -1 = zeta
    images, signs = case
    labels = [int(s < 0) for s in signs]
    root, unit = _orbit_roots(np.array(images, dtype=np.int64), labels, 2)
    got = [(r, 0 if u < 0 else 1 - 2 * u, u < 0) for r, u in zip(root.tolist(), unit.tolist())]
    want = [(r, 0 if dead else s, dead) for r, s, dead in orbit_roots_reference(images, signs)]
    assert got == want


def orbit_units_reference(images, labels, n):
    # (root, unit) per node from a union-find over Z/n: x_i = zeta^shift[i] *
    # x_parent[i], one union x_i = zeta^l * x_j per entry; a union closing a
    # loop with a shift other than 0 kills the class
    parent, shift = list(range(len(images))), [0] * len(images)
    dead = set()

    def find(i):
        s = 0
        while parent[i] != i:
            s += shift[i]
            i = parent[i]
        return i, s % n

    for i, (line, marks) in enumerate(zip(images, labels)):
        for j, l in zip(line, marks):
            (ri, si), (rj, sj) = find(i), find(j)
            t = (l + sj - si) % n  # x_ri = zeta^t * x_rj
            if ri == rj:
                if t:
                    dead.add(ri)
                continue
            if ri < rj:
                ri, rj, t = rj, ri, -t % n
            parent[ri], shift[ri] = rj, t
            if ri in dead:
                dead.add(rj)
    found = [find(i) for i in range(len(images))]
    return [(r, -1 if r in dead else s) for r, s in found]


@st.composite
def unit_labelled_permutations(draw):
    n = draw(st.sampled_from([1, 2, 4, 6]))
    images = draw_moves(draw)
    labels = [draw(st.lists(st.integers(0, n - 1), min_size=len(line), max_size=len(line)))
              for line in images]
    return images, labels, n


@given(unit_labelled_permutations())
@example(([[0]], [[2]], 4))  # -1 fixes the one point: dead
@example(([[1], [0]], [[1], [3]], 4))  # a 2-cycle whose labels cancel: live
@example(([[1], [0]], [[1], [1]], 6))  # a 2-cycle closing on zeta^2: dead
@example(([[0, 1], [1, 0]], [[0, 5], [0, 1]], 6))
def test_orbit_roots_match_unit_union_find(case):
    # labels per entry, in the unit groups of orders 1, 2, 4 and 6
    images, labels, n = case
    root, unit = _orbit_roots(np.array(images, dtype=np.int64).reshape(len(images), -1),
                              np.array(labels, dtype=np.int64).reshape(len(images), -1), n)
    assert list(zip(root.tolist(), unit.tolist())) == orbit_units_reference(images, labels, n)


def build_weight2_reference(space):
    # the scalar build the batched one replaced: act_point and a union-find
    # lookup per point and move, every relation row (repeats too) to rref;
    # returns (dim, free_gens, every generator's image as a Fraction dict)
    npts = len(space.points)
    uf = _SignedUF(npts)
    S, J = space.sum_words[0][1].row(), space.J.row()
    for i in range(npts):
        uf.union(i, act_point(space, i, S), -1)
        uf.union(i, act_point(space, i, J), 1)
    rows = []
    for word in space.sum_words[1:]:
        acts = [[act_point(space, i, r) for i in range(npts)] for r in map(Mat2.row, word)]
        for i in range(npts):
            row = {}
            for act in acts:
                r, s = uf.find(act[i])
                if not uf.dead[r]:
                    row[r] = row.get(r, 0) + s
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    rrows, pivots = rref(rows)
    roots = [i for i in range(npts) if uf.parent[i] == i and not uf.dead[i]]
    free = [r for r in roots if r not in pivots]
    qidx = {r: t for t, r in enumerate(free)}
    gm = []
    for i in range(npts):
        r, s = uf.find(i)
        if uf.dead[r]:
            gm.append({})
        elif r in pivots:
            row = rrows[pivots[r]]
            gm.append({qidx[c]: -s * a for c, a in row.items() if c != r})
        else:
            gm.append({qidx[r]: Fraction(s)})
    return len(free), free, gm


# a level of about 1,000 points per field, beyond norm 25
THOUSAND_POINT_LEVELS = {1: "6", 2: "5+2w", 3: "6-w", 7: "3+3w", 11: "1+3w"}


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_weight2_build_matches_scalar_reference(d):
    # dim, free_gens, the images (values, their types and key order) and the cusp
    # orbits agree with the scalar build and search on every level of norm
    # <= 25 and on one larger level
    fld = Field.get(d)
    spaces = [symbol_space(fld, nu) for n in range(1, 26)
              for nu in canonical_elements_of_norm(fld, n)]
    big = SymbolSpace(fld, parse_element(fld, THOUSAND_POINT_LEVELS[d]))
    assert 900 < len(big.points) < 1100
    for space in spaces + [big]:
        dim, free, images = build_weight2_reference(space)
        where = (d, str(space.level))
        assert (space.dim, space.free_gens) == (dim, free), where
        assert repr([list(g.items()) for g in gen_map(space)]) == \
            repr([list(g.items()) for g in images]), where
        assert space.cusp_pass[0].tolist() == point_cusp_orbits_reference(space), where
    assert big.dim > 0


def test_distinct_rows_merges_signs_and_drops_repeats():
    cols = np.array([[1, 1, 2], [2, 0, 0], [3, 1, 1], [1, 1, 9], [0, 2, 0]])
    vals = np.array([[1, -1, 0], [-1, 1, 1], [-1, 1, -1], [2, 0, 0], [-1, 1, -1]])
    # a zero row, {0: 2, 2: -1}, {3: -1} made positive, {1: 2} (9 is the
    # blank column), and the negative of the second row; highest columns first
    assert _distinct_rows(cols, vals, 9) == [{3: 1}, {1: 2}, {0: 2, 2: -1}]
    empty = np.zeros((0, 3), dtype=np.int64)
    assert _distinct_rows(empty, empty, 9) == []


def _distinct_rows_by_unique(cols, vals, blank):
    # _distinct_rows as written on np.unique(axis=0)[::-1], which imports
    # numpy.ma: the order its rows must keep
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    for k in range(1, cols.shape[1]):
        same = cols[:, k] == cols[:, k - 1]
        vals[same, k] += vals[same, k - 1]
        vals[same, k - 1] = 0
    cols = np.where(vals != 0, cols, blank)
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    vals *= np.where(vals[:, :1] < 0, -1, 1)
    keys = np.unique(np.hstack([cols, vals])[vals[:, 0] != 0], axis=0)[::-1]
    width = cols.shape[1]
    return [{c: a for c, a in zip(key[:width], key[width:]) if a} for key in keys.tolist()]


def test_distinct_rows_keeps_the_np_unique_order():
    # random padded rows with repeats, negated repeats (negative leads),
    # zero rows and rows whose entries cancel
    rng = np.random.default_rng(19)
    blank = 9
    for trial in range(300):
        n, width = int(rng.integers(0, 25)), int(rng.integers(1, 6))
        cols = rng.integers(0, 6, size=(n, width))
        vals = rng.integers(-3, 4, size=(n, width))
        pad = rng.random((n, width)) < 0.3
        cols[pad], vals[pad] = blank, 0
        again = rng.integers(0, n, size=n // 2) if n else np.zeros(0, dtype=np.int64)
        sign = rng.choice([-1, 1], size=(len(again), 1))
        cols = np.vstack([cols, cols[again]])
        vals = np.vstack([vals, sign * vals[again]])
        vals[trial % 4::5] = 0
        want = _distinct_rows_by_unique(cols.copy(), vals.copy(), blank)
        got = _distinct_rows(cols, vals, blank)
        assert [list(r.items()) for r in got] == [list(r.items()) for r in want], trial


def test_symbol_invariants_fire_under_python_O(run_optimized):
    # a non-unit determinant, a wrong factorization, a cusp left with a
    # common factor, and a space whose point lookups all miss
    out = run_optimized(
        "from bianchi import symbols\n"
        "from bianchi.quadints import Field, InvariantError\n"
        "fld = Field.get(1)\n"
        "two, three = fld.from_int(2), fld.from_int(3)\n"
        "space = symbols.symbol_space(fld, three)\n"
        "def attempt(name, fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except InvariantError as exc:\n"
        "        print(name + ':', exc)\n"
        "attempt('inv_unit', symbols.Mat2(two, fld.zero, fld.zero, fld.one).inv_unit)\n"
        "factorize = symbols.factorize\n"
        "symbols.factorize = lambda nu: (fld.one, [(two, 1)])\n"
        "attempt('count', symbols.point_count_formula, fld, three)\n"
        "symbols.factorize = factorize\n"
        "normalize_cusp = symbols.normalize_cusp\n"
        "symbols.normalize_cusp = lambda p, q: (p, q)\n"
        "attempt('path', symbols.continued_fraction_path, fld, two, two)\n"
        "symbols.normalize_cusp = normalize_cusp\n"
        "space.point_index.clear()\n"
        "attempt('point', symbols.path_vector, space, (fld.one, two))\n"
    )
    assert [line.split(":")[0] for line in out] == ["inv_unit", "count", "path", "point"], out


def test_weight_k_invariants_fire_under_python_O(run_optimized):
    # a Hecke family's slash coefficient past int64, which the operators
    # refuse, and a J whose slash is no unit times one monomial, which
    # stage 1 refuses naming the field and the level
    out = run_optimized(
        "from bianchi import hecke, symbols\n"
        "from bianchi.quadints import Field, InvariantError, parse_element\n"
        "def attempt(name, fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except InvariantError as exc:\n"
        "        print(name + ':', exc)\n"
        "fld = Field.get(11)\n"
        "space = symbols.SymbolSpace(fld, fld.one, 40)\n"
        "attempt('hecke', hecke.heilbronn_actions, space, [fld.from_int(3)])\n"
        "fld = Field.get(1)\n"
        "words = symbols.relation_words\n"
        "def bent(f):\n"
        "    ws, J = words(f)\n"
        "    return ws, symbols.Mat2(J.a, f.one, f.zero, J.d)\n"
        "symbols.relation_words = bent\n"
        "attempt('stage one', symbols.SymbolSpace, fld, parse_element(fld, '3'), 4)\n"
    )
    assert [line.split(":")[0] for line in out] == ["hecke", "stage one"], out
    assert "slash coefficients of the families leave int64 (d=11)" in out[0]
    assert "not a unit times one monomial at level 3 (d=1)" in out[1]


# sha256 of repr([sorted(g.items()) for g in gen_map(space)]) as the Fraction
# elimination kept in test_linalg.rref_reference gives it, at levels with
# larger relation systems and other fill patterns than norm <= 25 reaches
GEN_MAP_PINS = [
    (11, "5+2w", 2, "c7b8040da6ff8ae266aa85d22d302acb77c80d4bcf894f93980ba3f53bc14ee5"),
    (7, "5+2w", 2, "89cb91072f8c42a365f1e98aa292a147d48523dbd59f4dc7ed0ace80b34fbf0a"),
    (3, "5+2w", 2, "7fc09eed75c53b2ff28f0e9ee6a3cc921e7858351bdd3d863a88b1072e9b37e6"),
    (1, "9+4w", 2, "ec039ba7d9d03500a0477ab7ec04dd313139cdacb34cce31d8eb477acb329a5c"),
    (1, "3+2w", 4, "b7e758509f10fab2c0ab5cdfd54f2dc58d1165ab15c809133878e8f52a0f442a"),
    (11, "3+w", 4, "ec29ce7202649c3a76ac9ee480320d0fa0dfd9a11077f67690d28786ee56b836"),
    (7, "3+w", 6, "951f91e6fe79ccde4414fd7592ec1a913aec3fae823cabc85f53013a4769d027"),
    # taken before the weight-k build put the S and J relations first
    (3, "5", 4, "8e9474b3e2b3ab3be28f8d7c2a254af6d9098fa5726ceddcdbfd62ea1b48d270"),
]


@pytest.mark.parametrize("d, level, weight, digest", GEN_MAP_PINS,
                         ids=[f"d{d}-{lv}-k{k}" for d, lv, k, _ in GEN_MAP_PINS])
def test_gen_map_pins_beyond_survey(d, level, weight, digest):
    fld = Field.get(d)
    space = SymbolSpace(fld, parse_element(fld, level), weight)
    blob = repr([sorted(g.items()) for g in gen_map(space)]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# per field a prime power and a composite level, with the Hermite boxes
# (2, 2, 4) at d = 1 2+2w and (2, 1, 3) at d = 2 2+w
POINT_PASS_LEVELS = {1: ["2+2w", "4", "3+3w"], 2: ["2+w", "4", "6"], 3: ["4", "6-w"],
                     7: ["9", "4"], 11: ["4", "9"]}


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_point_pass_composes_the_direct_moves(d):
    # the images a build composes from its step moves are act_points' own
    # images under every word matrix, J and the cusp moves
    fld = Field.get(d)
    if d in (1, 2):
        assert hnf_module(parse_element(fld, POINT_PASS_LEVELS[d][0])) == \
            {1: (2, 2, 4), 2: (2, 1, 3)}[d]
    for text in POINT_PASS_LEVELS[d]:
        space = SymbolSpace(fld, parse_element(fld, text))
        everyone = list(range(space.npts))
        words, steps, j_image, cusp = space._point_pass()
        assert len(words) == len(steps) == len(space.sum_words)
        for word, img in zip(space.sum_words, words):
            assert img.tolist() == moved(space, everyone, word), (d, text)
        assert j_image.tolist() == [line[0] for line in moved(space, everyone, [space.J])]
        assert cusp.tolist() == moved(space, everyone, space._cusp_moves())


@pytest.mark.parametrize("d, level", [(1, "2+2w"), (2, "2+w"), (11, "9"), (7, "3"), (3, "7")])
def test_step_orbit_rows_keep_the_quotient(monkeypatch, d, level):
    # a word of powers of one step hands _distinct_rows a row only at the
    # least point of each orbit of the step; the quotient is the scalar
    # build's, which forms every row at every point
    import bianchi.symbols

    handed = []
    distinct_rows = bianchi.symbols._distinct_rows

    def capture(cols, vals, blank):
        handed.append(len(cols))
        return distinct_rows(cols, vals, blank)

    monkeypatch.setattr(bianchi.symbols, "_distinct_rows", capture)
    fld = Field.get(d)
    space = SymbolSpace(fld, parse_element(fld, level))
    dim, free, images = build_weight2_reference(space)
    assert (space.dim, space.free_gens) == (dim, free)
    assert repr([list(g.items()) for g in gen_map(space)]) == \
        repr([list(g.items()) for g in images])
    assert handed[0] < space.npts * (len(space.sum_words) - 1)


def test_points_built_on_read_match_enumerate_points():
    for d, texts in POINT_PASS_LEVELS.items():
        fld = Field.get(d)
        for text in texts:
            nu = parse_element(fld, text)
            space = SymbolSpace(fld, nu)
            assert "points" not in vars(space)
            pts = enumerate_points(fld, space.level)
            assert [space.point(i) for i in range(space.npts)] == pts
            assert space.points == pts and space.npts == point_count_formula(fld, nu)


def test_level_past_the_point_limit_refused():
    # d = 1 level 100: about 69 million points, a code table of 10^8 entries
    fld = Field.get(1)
    nu = parse_element(fld, "100")
    count = point_count_formula(fld, nu)
    assert count > POINT_LIMIT
    with pytest.raises(ValueError, match=f"{count} points, above the {POINT_LIMIT}"):
        SymbolSpace(fld, nu)


def general_relation_rows(space, two_term=False):
    # the relation system of the one-shot weight-k build the staged one
    # replaced: every S, J and word relation row at every point and
    # component, from the slash_poly route in a dict loop; with two_term,
    # the S and J rows only
    fld = space.field
    npts = space.npts
    ncomp = 2 * (space.weight - 1)
    words, _, j_image, _ = space._point_pass()
    rels = [[(w, 1) for w in word] for word in space.sum_words]
    rels.insert(1, [(Mat2.identity(fld), 1), (space.J, -1)])
    images = [words[0], np.column_stack([np.arange(npts), j_image]), *words[1:]]
    if two_term:
        rels, images = rels[:2], images[:2]
    rows = []
    for rel, img in zip(rels, images):
        slashes = [slash_rows_reference(space, w.inv_unit()) for w, _ in rel]
        acts = img.T.tolist()
        for p in range(npts):
            for ci in range(ncomp):
                row = {}
                for (w, sgn), cm, act in zip(rel, slashes, acts):
                    for cj, coeff in cm[ci].items():
                        key = cj * npts + act[p]
                        val = row.get(key, 0) + sgn * coeff
                        if val:
                            row[key] = val
                        else:
                            row.pop(key, None)
                if row:
                    rows.append(row)
    return rows


def build_general_reference(space):
    # the one-shot build: one rref_ints of general_relation_rows over every
    # generator; returns (free_gens, den, matrix) as its quotient gave them
    ngens = 2 * (space.weight - 1) * space.npts
    piv = rref_ints(general_relation_rows(space))
    free = [g for g in range(ngens) if g not in piv]
    qidx = {g: t for t, g in enumerate(free)}
    den = lcm(1, *(prow[c] for c, prow in piv.items()))
    matrix = np.zeros((ngens + 1, len(free)), dtype=np.int64)
    for g in range(ngens):
        prow = piv.get(g)
        if prow is None:
            matrix[g, qidx[g]] = den
            continue
        for c, a in prow.items():
            if c != g:
                matrix[g, qidx[c]] = -a * (den // prow[g])
    return free, den, matrix


def assert_matches_general_reference(space):
    # every generator's image, stage 1's terms pushed through stage 2, is the
    # one-shot build's row byte for byte, and so is the trailing zero row
    free, den, matrix = build_general_reference(space)
    q = space.qmap
    where = (space.field.d, str(space.level), space.weight)
    assert (space.free_gens, space.dim, q.den) == (free, len(free), den), where
    ngens = len(matrix) - 1
    assert q.ngens == ngens and q.row.shape == q.coef.shape == (ngens + 1, 2), where
    images = q.gather(np.arange(ngens + 1))
    assert images.dtype == np.int64 and images.shape == matrix.shape, where
    assert images.tobytes() == matrix.tobytes(), where
    assert q.gather(-1).tolist() == [0] * len(free), where


# beyond survey's weight-4 levels: the levels the staged build was timed at,
# one at weight 40, where the word rows' coefficients pass int64 and stage 2
# runs on Python ints, and one weight-3 level per field, where S^2 = -I
# kills classes
STAGED_LEVELS = [(3, "5", 4), (7, "3+w", 6), (1, "3", 6), (2, "3", 4), (11, "w", 40),
                 *((d, text, 3) for d, text in LAYOUT_LEVELS.items())]


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_staged_weight_k_build_matches_one_shot_reference(d):
    # free_gens, den and the int map of every survey weight-4 level (norm
    # 2..7) and of the larger levels above are the one-shot build's
    fld = Field.get(d)
    spaces = [SymbolSpace(fld, nu, 4) for n in range(2, 8)
              for nu in canonical_elements_of_norm(fld, n)]
    spaces += [SymbolSpace(fld, parse_element(fld, text), k)
               for dd, text, k in STAGED_LEVELS if dd == d]
    for space in spaces:
        assert_matches_general_reference(space)
    assert any(space.dim for space in spaces)


@pytest.mark.parametrize("d, level, weight", [(3, "5", 4), (7, "3+w", 6), (2, "3", 4),
                                             (11, "w", 3), (1, "2+1w", 3)])
def test_weight_k_map_keeps_one_row_per_free_stage_one_column(d, level, weight):
    # the map's matrix is stage 2's: one row per column that rref of the S
    # and J rows alone leaves free, in column order, then the zero row; such
    # a column's stage-1 image is itself, one term of coefficient 1 on its row
    fld = Field.get(d)
    space = SymbolSpace(fld, parse_element(fld, level), weight)
    piv = rref_ints(general_relation_rows(space, two_term=True))
    free1 = [g for g in range(space.qmap.ngens) if g not in piv]
    q = space.qmap
    assert q.matrix.shape == (len(free1) + 1, space.dim) and not q.matrix[-1].any()
    # far fewer rows than the generators, one each, a composed map would have
    assert len(free1) < q.ngens // 2
    for t, g in enumerate(free1):
        assert [(r, c) for r, c in zip(q.row[g].tolist(), q.coef[g].tolist()) if c] == [(t, 1)]


# the word rows of survey's weight-4 levels are redundant one by one, but
# for d = 2, level w: its two rows are both needed
@pytest.mark.parametrize("corrupt, d, level", [("unit label", 11, "3+w"), ("word row", 2, "w")])
def test_staged_parity_catches_a_corrupted_stage(monkeypatch, corrupt, d, level):
    # negative controls: one wrong unit label in stage 1, or one word row
    # dropped before stage 2, and the comparison with the one-shot build fails
    import bianchi.symbols

    orbit_roots, distinct_rows = bianchi.symbols._orbit_roots, bianchi.symbols._distinct_rows

    def wrong_label(images, labels, n):
        labels = np.array(np.broadcast_to(labels, images.shape))
        labels[0, 1] = (labels[0, 1] + 1) % n
        return orbit_roots(images, labels, n)

    def drop_row(cols, vals, blank):
        return distinct_rows(cols, vals, blank)[:-1]

    fld = Field.get(d)
    nu = parse_element(fld, level)
    assert_matches_general_reference(SymbolSpace(fld, nu, 4))
    if corrupt == "unit label":
        monkeypatch.setattr(bianchi.symbols, "_orbit_roots", wrong_label)
    else:
        monkeypatch.setattr(bianchi.symbols, "_distinct_rows", drop_row)
    with pytest.raises(AssertionError):
        assert_matches_general_reference(SymbolSpace(fld, nu, 4))

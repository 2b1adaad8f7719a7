import random
from fractions import Fraction

import numpy as np
import pytest

from bianchi.heilbronn import (
    DEFAULT_TIE,
    NORM_LIMIT,
    START_LIMIT,
    _chains,
    _divide_arrays,
    _residue_boxes,
    class_path_sums,
    heilbronn_classes,
    heilbronn_families,
    heilbronn_family,
    telescoping_ok,
)
from bianchi.quadints import (
    EUCLIDEAN_D,
    Field,
    InvariantError,
    canonical_elements_of_norm,
    divide_ints,
    divides,
    divisors_up_to_units,
    exact_div,
    is_prime_element,
    parse_element,
)
from bianchi.symbols import Mat2, normalize_cusp

from test_quadints import euclidean_division_reference, residues_below_reference


def small_etas(fld, bound):
    for n in range(2, bound + 1):
        yield from canonical_elements_of_norm(fld, n)


def mats(eta, tie=DEFAULT_TIE):
    return [Mat2.from_row(eta.field, row) for row in heilbronn_family(eta, tie)]


def _chain_reference(delta, beta, cof, tie):
    # the QuadInt chain the int rows replaced
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
        q, _ = euclidean_division_reference(x0, x1, tie)
        assert not q.is_unit()
        x2 = x1 * q - x0
        y2 = y1 * q - y0
        assert x2.is_zero() or x2.norm() < x1.norm()
        x0, x1, y0, y1 = x1, x2, y1, y2


def heilbronn_family_reference(eta, tie=DEFAULT_TIE):
    # the QuadInt heilbronn_family the int rows replaced, as Mat2s
    out = []
    for delta in divisors_up_to_units(eta):
        cof = exact_div(eta, delta)
        for beta in residues_below_reference(delta, tie):
            for m in _chain_reference(delta, beta, cof, tie):
                assert m.det() == eta
                out.append(m)
    return tuple(out)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_family_rows_match_quadint_reference(d):
    fld = Field.get(d)
    for n in range(1, 41):
        for eta in canonical_elements_of_norm(fld, n):
            for tie in ("low", "high"):
                want = tuple(m.row() for m in heilbronn_family_reference(eta, tie))
                assert heilbronn_family(eta, tie) == want, (d, str(eta), tie)


def test_family_rows_match_reference_on_expansion_table():
    # every alpha of the norm-100 table at the reference level: all unit
    # multiples of the canonical elements, with the default tie rule
    fld = Field.get(11)
    alphas = [u * e for n in range(1, 101) for e in canonical_elements_of_norm(fld, n)
              for u in fld.units]
    assert len(alphas) == 194
    for alpha in alphas:
        want = tuple(m.row() for m in heilbronn_family_reference(alpha, DEFAULT_TIE))
        assert heilbronn_family(alpha, DEFAULT_TIE) == want, str(alpha)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_residue_boxes_match_scalar_reference(d):
    # every delta of norm <= 60 in one batch, both tie rules: the same
    # residues in the same (norm, a, b) order as the scalar oracle
    fld = Field.get(d)
    deltas = [e for n in range(1, 61) for e in canonical_elements_of_norm(fld, n)]
    for tie in ("low", "high"):
        offsets, ra, rb = _residue_boxes(fld, deltas, tie)
        assert offsets.tolist() == [0] + np.cumsum([e.norm() for e in deltas]).tolist()
        for j, delta in enumerate(deltas):
            got = list(zip(ra[offsets[j]:offsets[j + 1]].tolist(),
                           rb[offsets[j]:offsets[j + 1]].tolist()))
            want = [(r.a, r.b) for r in residues_below_reference(delta, tie)]
            assert got == want, (d, str(delta), tie)


def test_chain_invariants_raise():
    fld = Field.get(1)
    # beta = delta makes the first quotient the unit 1
    with pytest.raises(InvariantError, match="unit chain quotient"):
        _chains(fld, [(3, 0, 3, 0, 1, 0)], "low")
    # beta = 2 is not minimal mod 3 (-1 is): the quotient 1 is a unit
    with pytest.raises(InvariantError):
        _chains(fld, [(3, 0, 2, 0, 1, 0)], "low")
    # a minimal residue runs to the end
    rows, lengths = _chains(fld, [(3, 0, 1, 1, 1, 0)], "low")
    assert tuple(rows[-1, 2:4]) == (0, 0) and lengths.tolist() == [len(rows)]


def test_chain_failure_names_the_first_failing_chain():
    # in lockstep, the failing chain of lowest index is named, whatever the
    # others do
    fld = Field.get(1)
    starts = [(3, 0, 1, 1, 1, 0), (5, 0, 5, 0, 1, 0), (3, 0, 3, 0, 1, 0)]
    with pytest.raises(InvariantError, match=r"\(delta, beta\) = \(5, 5\), d=1"):
        _chains(fld, starts, "low")


def test_family_determinant_is_an_invariant_error(monkeypatch):
    import bianchi.heilbronn as hb

    fld = Field.get(2)
    eta = parse_element(fld, "3+2w")
    real = hb._chains

    def corrupted(*args):
        rows, lengths = real(*args)
        rows = rows.copy()
        # the last row of a chain has b = 0, so its determinant is a*d
        rows[-1, 6] += 1
        return rows, lengths

    monkeypatch.setattr(hb, "_chains", corrupted)
    heilbronn_family.cache_clear()
    try:
        with pytest.raises(InvariantError, match="determinant"):
            heilbronn_family(eta)
    finally:
        heilbronn_family.cache_clear()


def test_invariants_fire_under_python_O(run_optimized):
    # explicit raises, not asserts: python -O must not strip them
    out = run_optimized(
        "from bianchi.heilbronn import _chains\n"
        "from bianchi.quadints import Field, InvariantError\n"
        "fld = Field.get(1)\n"
        "try:\n"
        "    _chains(fld, [(3, 0, 3, 0, 1, 0)], 'low')\n"
        "except InvariantError as exc:\n"
        "    print('chain:', exc)\n"
        "loose = Field(2)\n"
        "loose.euclid_bound = (0, 1)\n"
        "try:\n"
        "    _chains(loose, [(5, 0, 2, 1, 1, 0)], 'low')\n"
        "except InvariantError as exc:\n"
        "    print('bound:', exc)\n"
    )
    assert [line.split(":")[0] for line in out] == ["chain", "bound"], out


def _division_pairs(fld, rng):
    # seeded random pairs, plus pairs whose exact quotient has an integral
    # coordinate (a zero remainder in divmod) and pairs with equal-norm ties
    pairs = []
    for _ in range(400):
        b = (rng.randint(-30, 30), rng.randint(-30, 30))
        if b == (0, 0):
            continue
        pairs.append(((rng.randint(-900, 900), rng.randint(-900, 900)), b))
        # a = q*b + e with e small: the quotient's coordinates are integral
        # or sit next to a cell edge
        q = (rng.randint(-20, 20), rng.randint(-20, 20))
        e = (rng.randint(-1, 1), rng.randint(-1, 1))
        qb = q[1] * b[1]
        pairs.append(((q[0] * b[0] - fld.m * qb + e[0],
                       q[0] * b[1] + q[1] * b[0] + fld.t * qb + e[1]), b))
    for k in range(1, 6):
        # half-integral quotients: several corners tie on N(r)
        pairs += [((k, 0), (2, 0)), ((k, k), (2, 0)), ((0, k), (2, 0)), ((k, 1), (2, 0)),
                  ((k, 0), (0, 2)), ((k, k), (2, 2)), ((k, 2 * k), (1, 1))]
    return pairs


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_array_division_matches_divide_ints(d):
    fld = Field.get(d)
    pairs = _division_pairs(fld, random.Random(1000 + d))
    aa, ab, ba, bb = np.array([a + b for a, b in pairs], dtype=np.int64).T
    for tie in ("low", "high"):
        got = _divide_arrays(fld, aa, ab, ba, bb, tie)
        for k, (a, b) in enumerate(pairs):
            qa, qb, ra, rb = divide_ints(fld, *a, *b, tie)
            want = (qa, qb, ra, rb, ra * ra + fld.t * ra * rb + fld.m * rb * rb)
            assert tuple(int(v[k]) for v in got) == want, (d, a, b, tie)
    one_integral = ties = 0
    for a, b in pairs:
        ties += divide_ints(fld, *a, *b, "low") != divide_ints(fld, *a, *b, "high")
        num = fld.elt(*a) * fld.elt(*b).conj()
        den = fld.elt(*b).norm()
        one_integral += (num.a % den == 0) != (num.b % den == 0)
    # the pairs include ties, where the two rules pick different quotients,
    # and quotients with exactly one integral coordinate
    assert ties > 0 and one_integral > 0


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_batch_matches_one_at_a_time(d):
    fld = Field.get(d)
    bound = 100 if d == 11 else 60
    etas = [e for n in range(1, bound + 1) for e in canonical_elements_of_norm(fld, n)]
    for tie in ("low", "high"):
        fams = heilbronn_families(etas, tie)
        assert len(fams) == len(etas)
        for eta, fam in zip(etas, fams):
            assert fam.dtype == np.int64 and fam.shape[1:] == (8,)
            assert tuple(map(tuple, fam.tolist())) == heilbronn_family(eta, tie), \
                (d, str(eta), tie)
    assert heilbronn_families([]) == []


def test_norm_beyond_the_kernel_range_is_refused():
    fld = Field.get(11)
    big = parse_element(fld, "123456789+987654321w")
    assert big.norm() > NORM_LIMIT
    # START_LIMIT refuses it: every admitted eta has N(eta) < START_LIMIT
    assert START_LIMIT < NORM_LIMIT
    for call in (lambda: heilbronn_family(big), lambda: heilbronn_families([fld.one, big])):
        with pytest.raises(ValueError, match="123456789\\+987654321w"):
            call()
    # NORM_LIMIT rests on |entry| <= 11 |eta| and |coordinate| <= 2 |entry|
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        etas = [e for n in range(1, 101) for e in canonical_elements_of_norm(fld, n)]
        for eta, fam in zip(etas, heilbronn_families(etas)):
            top = int(np.abs(fam).max())
            assert top * top <= 4 * 121 * eta.norm(), (d, str(eta))


def test_families_past_the_start_limit_are_refused(monkeypatch):
    import bianchi.heilbronn as hb

    fld = Field.get(1)
    five = fld.from_int(5)
    # 5 = (2+w)(2-w) has divisors of norm 1, 5, 5 and 25: 36 chain starts
    assert START_LIMIT >= 36
    want = heilbronn_family(five)
    monkeypatch.setattr(hb, "START_LIMIT", 36)
    assert tuple(map(tuple, heilbronn_families([five])[0].tolist())) == want
    monkeypatch.setattr(hb, "START_LIMIT", 35)
    with pytest.raises(ValueError, match=r"family of 5 starts 36 division chains, above the 35"):
        heilbronn_family.__wrapped__(five)
    with pytest.raises(ValueError, match=r"family of 5 starts 36"):
        heilbronn_families([fld.one, five])
    # N(5) + 1 = 26 starts at least, known before 5 is factored
    monkeypatch.setattr(hb, "START_LIMIT", 25)
    monkeypatch.setattr(hb, "divisors_up_to_units", None)
    with pytest.raises(ValueError, match=r"family of 5 starts at least 26 division chains"):
        heilbronn_families([five])


def test_unit_multiple_family_is_twisted_base():
    # heilbronn_family(u*eta) is heilbronn_family(eta) with c and d times u,
    # row for row, which lets the coefficient table build only canonical
    # families; the twist here is QuadInt multiplication
    pairs = 0
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for n in range(1, 61):
            for base in canonical_elements_of_norm(fld, n):
                for tie in ("low", "high"):
                    fam = [Mat2.from_row(fld, row) for row in heilbronn_family(base, tie)]
                    for u in fld.units:
                        twisted = tuple(Mat2(m.a, m.b, u * m.c, u * m.d).row() for m in fam)
                        assert heilbronn_family.__wrapped__(u * base, tie) == twisted, \
                            (d, str(base), str(u), tie)
                        pairs += tie == "low"
    assert pairs == 790


def test_pinned_family_norm_two():
    # hand-computed run for d = -1, eta = 1 + i
    F = Field.get(1)
    i = F.elt(0, 1)
    eta = F.elt(1, 1)
    fam = heilbronn_family(eta)
    expected = (
        Mat2(F.one, F.zero, F.zero, eta),
        Mat2(eta, F.zero, F.zero, F.one),
        Mat2(eta, i, F.zero, F.one),
        Mat2(i, F.zero, F.one, F.elt(1, -1)),
    )
    assert fam == tuple(m.row() for m in expected)
    assert fam == ((1, 0, 0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0, 1, 0),
                   (1, 1, 0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0, 1, -1))


def test_determinants_and_leading_matrix():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 10):
            fam = mats(eta)
            assert all(m.det() == eta for m in fam)
            # the divisor delta = 1 contributes exactly diag(1, eta) first
            assert fam[0] == Mat2(fld.one, fld.zero, fld.zero, eta)


def _same_class_reference(m1, m2, eta):
    a = m1.adj() * m2
    for e in a.entries():
        if not divides(eta, e):
            return False
    q = Mat2(*(exact_div(e, eta) for e in a.entries()))
    return q.det() == eta.field.one


def heilbronn_classes_reference(eta, tie=DEFAULT_TIE):
    # the pairwise search heilbronn_classes replaced: each unassigned row
    # collects every later row M' with adj(M) M' / eta in SL2(O)
    fam = mats(eta, tie)
    assigned = [-1] * len(fam)
    classes = []
    for i in range(len(fam)):
        if assigned[i] >= 0:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, len(fam)):
            if assigned[j] < 0 and _same_class_reference(fam[i], fam[j], eta):
                cls.append(j)
                assigned[j] = len(classes)
        classes.append(tuple(cls))
    return tuple(classes)


@pytest.mark.parametrize("d", EUCLIDEAN_D)
def test_classes_match_pairwise_reference(d):
    # the one-key-per-row grouping against the pairwise search: the same
    # classes, in the same order, for every canonical eta of norm <= 40
    # and both tie rules
    fld = Field.get(d)
    for eta in small_etas(fld, 40):
        for tie in ("low", "high"):
            assert heilbronn_classes(eta, tie) == heilbronn_classes_reference(eta, tie), \
                (d, str(eta), tie)


def test_prime_class_counts():
    cases = [
        (1, "1+1w", 3),
        (1, "3", 10),
        (2, "w", 3),
        (2, "1+1w", 4),
        (3, "1+1w", 4),
        (3, "2", 5),
        (7, "w", 3),
        (11, "w", 4),
        (11, "2", 5),
    ]
    for d, text, expect in cases:
        fld = Field.get(d)
        eta = parse_element(fld, text)
        assert is_prime_element(eta)
        assert len(heilbronn_classes(eta)) == expect
        assert eta.norm() + 1 == expect


def test_composite_class_counts():
    # classes biject with index-eta submodules of O^2, counted by
    # sum of N(delta) over divisors
    cases = [(1, "2"), (2, "2"), (3, "3"), (7, "2")]
    for d, text in cases:
        fld = Field.get(d)
        eta = parse_element(fld, text)
        expect = sum(dlt.norm() for dlt in divisors_up_to_units(eta))
        assert len(heilbronn_classes(eta)) == expect


def test_classes_partition_family():
    for d, text in [(1, "2"), (3, "1+1w"), (11, "w")]:
        fld = Field.get(d)
        eta = parse_element(fld, text)
        fam = heilbronn_family(eta)
        seen = sorted(i for cls in heilbronn_classes(eta) for i in cls)
        assert seen == list(range(len(fam)))


def test_telescoping_small_norms():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 12):
            assert telescoping_ok(eta), f"d={d}, eta={eta}"


def test_telescoping_non_canonical_associates():
    for d, text in [(1, "-1-1w"), (3, "2w"), (2, "-1-1w")]:
        fld = Field.get(d)
        eta = parse_element(fld, text)
        assert telescoping_ok(eta)


def test_path_sums_shape():
    F = Field.get(1)
    eta = F.elt(1, 1)
    inf = normalize_cusp(F.one, F.zero)
    zero = normalize_cusp(F.zero, F.one)
    for s in class_path_sums(eta):
        assert s == {inf: 1, zero: -1}


def test_path_sums_of_a_perturbed_family():
    for d, text in [(2, "1+1w"), (7, "1w"), (11, "3")]:
        fld = Field.get(d)
        eta = parse_element(fld, text)
        good = {normalize_cusp(fld.one, fld.zero): 1, normalize_cusp(fld.zero, fld.one): -1}
        fam = list(heilbronn_family(eta))
        assert all(s == good for s in class_path_sums(eta, family=fam))
        m = Mat2.from_row(fld, fam[-1])
        fam[-1] = Mat2(m.a, m.b, m.c + fld.one, m.d).row()
        assert any(s != good for s in class_path_sums(eta, family=fam))


def test_high_tie_break_also_certifies():
    some_difference = False
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 8):
            low = heilbronn_family(eta, "low")
            high = heilbronn_family(eta, "high")
            assert all(m.det() == eta for m in mats(eta, "high"))
            assert telescoping_ok(eta, "high")
            if low != high:
                some_difference = True
    assert some_difference


def test_norm_inequalities_per_entry():
    # each matrix has a strictly dominant diagonal, column by column
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 10):
            for m in mats(eta):
                assert m.a.norm() > m.b.norm() >= 0
                assert m.d.norm() > m.c.norm() >= 0


def test_remainder_contraction_is_sharp():
    # the top-right entry shrinks by the covering-radius factor of the field,
    # an exact rational for each of the five discriminants
    shrink = {1: Fraction(1, 2), 2: Fraction(3, 4), 3: Fraction(1, 3),
              7: Fraction(4, 7), 11: Fraction(9, 11)}
    for d, eps in shrink.items():
        fld = Field.get(d)
        for eta in small_etas(fld, 10):
            for m in mats(eta):
                if not m.b.is_zero():
                    assert Fraction(m.b.norm()) <= eps * m.a.norm()


def test_families_have_no_duplicates():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 12):
            fam = heilbronn_family(eta)
            assert len(set(fam)) == len(fam)

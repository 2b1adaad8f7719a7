from fractions import Fraction

from bianchi.heilbronn import (
    class_path_sums,
    heilbronn_classes,
    heilbronn_family,
    telescoping_ok,
)
from bianchi.quadints import (
    EUCLIDEAN_D,
    Field,
    canonical_elements_of_norm,
    divisors_up_to_units,
    is_prime_element,
    parse_element,
)
from bianchi.symbols import Mat2, normalize_cusp


def small_etas(fld, bound):
    for n in range(2, bound + 1):
        yield from canonical_elements_of_norm(fld, n)


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
    assert fam == expected


def test_determinants_and_leading_matrix():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 10):
            fam = heilbronn_family(eta)
            assert all(m.det() == eta for m in fam)
            # the divisor delta = 1 contributes exactly diag(1, eta) first
            assert fam[0] == Mat2(fld.one, fld.zero, fld.zero, eta)


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
        m = fam[-1]
        fam[-1] = Mat2(m.a, m.b, m.c + fld.one, m.d)
        assert any(s != good for s in class_path_sums(eta, family=fam))


def test_high_tie_break_also_certifies():
    some_difference = False
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 8):
            low = heilbronn_family(eta, "low")
            high = heilbronn_family(eta, "high")
            assert all(m.det() == eta for m in high)
            assert telescoping_ok(eta, "high")
            if low != high:
                some_difference = True
    assert some_difference


def test_norm_inequalities_per_entry():
    # each matrix has a strictly dominant diagonal, column by column
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 10):
            for m in heilbronn_family(eta):
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
            for m in heilbronn_family(eta):
                if not m.b.is_zero():
                    assert Fraction(m.b.norm()) <= eps * m.a.norm()


def test_families_have_no_duplicates():
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        for eta in small_etas(fld, 12):
            fam = heilbronn_family(eta)
            assert len(set(fam)) == len(fam)

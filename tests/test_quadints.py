"""Ring-level tests: division, gcds, associates, residues, factorization."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bianchi.quadints import (
    EUCLIDEAN_D,
    Field,
    InvariantError,
    _omega_roots_mod,
    canonical_associate,
    coprime,
    divide_ints,
    divides,
    divisors_up_to_units,
    elements_of_norm,
    euclidean_division,
    exact_div,
    factorize,
    gcd,
    hnf_module,
    is_prime_element,
    parse_element,
    reduce_mod,
    residues_mod,
    xgcd,
)

FIELDS = [Field.get(d) for d in EUCLIDEAN_D]


def random_elt(rng, fld, lim=40):
    return fld.elt(rng.randint(-lim, lim), rng.randint(-lim, lim))


def elements(maxc=99):
    return st.builds(
        lambda d, a, b: Field.get(d).elt(a, b),
        st.sampled_from(EUCLIDEAN_D),
        st.integers(-maxc, maxc),
        st.integers(-maxc, maxc),
    )


@st.composite
def elt_pairs(draw):
    fld = Field.get(draw(st.sampled_from(EUCLIDEAN_D)))
    c = st.integers(-99, 99)
    return (
        fld.elt(draw(c), draw(c)),
        fld.elt(draw(c), draw(c)),
    )


def test_field_constants():
    expected = {
        1: (0, 1, -4, Fraction(1, 2), 4),
        2: (0, 2, -8, Fraction(3, 4), 2),
        3: (1, 1, -3, Fraction(1, 3), 6),
        7: (1, 2, -7, Fraction(4, 7), 2),
        11: (1, 3, -11, Fraction(9, 11), 2),
    }
    for d, (t, m, disc, ratio, nunits) in expected.items():
        fld = Field.get(d)
        assert (fld.t, fld.m, fld.disc, fld.euclid_ratio) == (t, m, disc, ratio)
        assert len(fld.units) == nunits
        assert all(u.is_unit() for u in fld.units)
        assert fld.omega * fld.omega == fld.omega * fld.t - fld.from_int(fld.m)
    with pytest.raises(ValueError):
        Field(5)


def test_arithmetic_matches_complex_embedding():
    rng = random.Random(1)
    for fld in FIELDS:
        for _ in range(200):
            x, y = random_elt(rng, fld), random_elt(rng, fld)
            zx, zy = x.to_complex(), y.to_complex()
            assert abs((x * y).to_complex() - zx * zy) < 1e-6
            assert abs((x + y).to_complex() - (zx + zy)) < 1e-9
            assert abs((x - y).to_complex() - (zx - zy)) < 1e-9
            assert abs(x.conj().to_complex() - zx.conjugate()) < 1e-9
            assert abs(x.norm() - abs(zx) ** 2) < 1e-5
            assert abs(x.trace() - 2 * zx.real) < 1e-9


def test_norm_and_conj_identities():
    rng = random.Random(2)
    for fld in FIELDS:
        for _ in range(200):
            x, y = random_elt(rng, fld), random_elt(rng, fld)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x * y).conj() == x.conj() * y.conj()
            assert x * x.conj() == fld.from_int(x.norm())
            assert x + x.conj() == fld.from_int(x.trace())


def test_pow():
    for fld in FIELDS:
        x = fld.elt(2, -1)
        assert x**0 == fld.one
        assert x**3 == x * x * x
        with pytest.raises(ValueError):
            x ** (-1)


@given(elt_pairs())
def test_division_contract(pair):
    a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            euclidean_division(a, b)
        return
    ratio = a.field.euclid_ratio
    for tie in ("low", "high"):
        q, r = euclidean_division(a, b, tie)
        assert q * b + r == a
        assert Fraction(r.norm()) <= ratio * b.norm()


def test_division_finds_nearest_lattice_point():
    rng = random.Random(3)
    for fld in FIELDS:
        for _ in range(120):
            a, b = random_elt(rng, fld, 30), random_elt(rng, fld, 12)
            if b.is_zero():
                continue
            q, r = euclidean_division(a, b)
            best = min(
                (a - b * fld.elt(q.a + i, q.b + j)).norm()
                for i in range(-3, 4)
                for j in range(-3, 4)
            )
            assert r.norm() == best


def test_division_pins_gaussian():
    g = Field.get(1)
    assert euclidean_division(g.elt(7, 2), g.from_int(3)) == (g.elt(2, 1), g.elt(1, -1))
    # all four corners tie at norm 1 here; the two tie rules split them
    assert euclidean_division(g.one, g.elt(1, 1)) == (g.elt(0, -1), g.elt(0, 1))
    assert euclidean_division(g.one, g.elt(1, 1), tie="high") == (g.elt(1, 0), g.elt(0, -1))
    with pytest.raises(ValueError):
        euclidean_division(g.one, g.one, tie="nearest")


def euclidean_division_reference(a, b, tie="low"):
    # the QuadInt division divide_ints replaced: the four floor/ceil corners
    # of a/b, least (N(r), qa, qb) for "low", least (N(r), -qa, -qb) for "high"
    fld = a.field
    num = a * b.conj()
    den = b.norm()
    fa, ra = divmod(num.a, den)
    fb, rb = divmod(num.b, den)
    best_key = best = None
    for qa in (fa,) if ra == 0 else (fa, fa + 1):
        for qb in (fb,) if rb == 0 else (fb, fb + 1):
            q = fld.elt(qa, qb)
            r = a - q * b
            key = (r.norm(), qa, qb) if tie == "low" else (r.norm(), -qa, -qb)
            if best_key is None or key < best_key:
                best_key, best = key, (q, r)
    return best


def residues_below_reference(delta, tie="low"):
    # one minimal-norm representative per class mod delta, sorted by (norm,
    # a, b): the remainder of each Hermite-box residue by delta, which
    # attains the minimal norm over its class (the scalar oracle of
    # heilbronn._residue_boxes)
    out = [euclidean_division_reference(r, delta, tie)[1] for r in residues_mod(delta)]
    assert len(set(out)) == delta.norm(), (str(delta), tie)
    return tuple(sorted(out, key=lambda r: r.sort_key()))


@given(elt_pairs(), st.sampled_from(["low", "high"]))
def test_divide_ints_matches_wrapper_and_reference(pair, tie):
    a, b = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divide_ints(a.field, a.a, a.b, 0, 0, tie)
        return
    qa, qb, ra, rb = divide_ints(a.field, a.a, a.b, b.a, b.b, tie)
    q, r = euclidean_division(a, b, tie)
    assert (qa, qb, ra, rb) == (q.a, q.b, r.a, r.b)
    assert (q, r) == euclidean_division_reference(a, b, tie)


def test_divide_ints_ties_match_reference():
    # small quotients tie on several corners; both rules must match the
    # reference on every pair of a box in every field
    for fld in FIELDS:
        box = [fld.elt(x, y) for x in range(-4, 5) for y in range(-4, 5)]
        for a in box:
            for b in box[:40]:
                if b.is_zero():
                    continue
                for tie in ("low", "high"):
                    q, r = euclidean_division_reference(a, b, tie)
                    assert divide_ints(fld, a.a, a.b, b.a, b.b, tie) == (q.a, q.b, r.a, r.b)
    with pytest.raises(ValueError):
        divide_ints(FIELDS[0], 1, 0, 1, 0, "nearest")


def test_division_bound_is_an_invariant_error():
    # a field whose stated Euclidean bound is too tight must fail loudly
    fld = Field(1)
    fld.euclid_bound = (1, 4)
    with pytest.raises(InvariantError):
        divide_ints(fld, 1, 0, 1, 1)
    assert issubclass(InvariantError, RuntimeError) and not issubclass(InvariantError, AssertionError)


def test_exact_div():
    g = Field.get(1)
    assert exact_div(g.from_int(6), g.elt(1, 1)) == g.elt(3, -3)
    assert divides(g.elt(1, 1), g.from_int(6))
    assert not divides(g.from_int(2), g.from_int(5))
    with pytest.raises(ValueError):
        exact_div(g.from_int(5), g.from_int(2))


@given(elt_pairs())
def test_xgcd_bezout(pair):
    a, b = pair
    g, x, y = xgcd(a, b)
    assert a * x + b * y == g
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
    else:
        assert divides(g, a) and divides(g, b)
        assert canonical_associate(g)[0] == g


def test_gcd_contains_common_factor():
    rng = random.Random(4)
    for fld in FIELDS:
        for _ in range(100):
            c, s, t = (random_elt(rng, fld, 9) for _ in range(3))
            if c.is_zero() or (s.is_zero() and t.is_zero()):
                continue
            assert divides(c, gcd(c * s, c * t))


def test_canonical_associate_pins():
    g = Field.get(1)
    assert canonical_associate(g.elt(0, 1)) == (g.one, g.elt(0, 1))
    assert canonical_associate(g.elt(-1, 1)) == (g.elt(1, 1), g.elt(0, 1))
    e = Field.get(3)
    assert canonical_associate(e.omega) == (e.one, e.omega)
    assert canonical_associate(e.zero) == (e.zero, e.one)


@given(elements())
def test_canonical_associate_properties(x):
    x0, u = canonical_associate(x)
    assert u.is_unit()
    assert u * x0 == x
    assert canonical_associate(x0) == (x0, x.field.one)
    for v in x.field.units:
        assert canonical_associate(v * x)[0] == x0


def test_elements_of_norm_box_oracle():
    lim = 14
    for fld in FIELDS:
        seen = {}
        for a in range(-lim, lim + 1):
            for b in range(-lim, lim + 1):
                seen.setdefault(fld.elt(a, b).norm(), set()).add((a, b))
        for n in range(30):
            got = elements_of_norm(fld, n)
            assert len(got) == len(set(got))
            assert {(x.a, x.b) for x in got} == seen.get(n, set())


def test_prime_pins():
    g = Field.get(1)
    assert is_prime_element(g.elt(1, 1))
    assert is_prime_element(g.from_int(3))
    assert is_prime_element(g.elt(2, 1))
    assert not is_prime_element(g.from_int(2))
    assert not is_prime_element(g.from_int(5))
    assert not is_prime_element(g.one)
    assert not is_prime_element(g.zero)
    assert is_prime_element(Field.get(11).from_int(2))
    assert not is_prime_element(Field.get(7).from_int(2))
    assert is_prime_element(Field.get(7).omega)


def test_prime_detection_small_norms():
    for fld in FIELDS:
        for a in range(-7, 8):
            for b in range(-7, 8):
                x = fld.elt(a, b)
                n = x.norm()
                if n <= 1 or n > 50:
                    continue
                slow = not any(
                    divides(c, x) for k in range(2, n) for c in elements_of_norm(fld, k)
                )
                assert is_prime_element(x) == slow


@given(elements(25))
def test_factorize_roundtrip(x):
    if x.is_zero():
        with pytest.raises(ValueError):
            factorize(x)
        return
    u, pairs = factorize(x)
    assert u.is_unit()
    y = u
    for p, e in pairs:
        assert is_prime_element(p)
        assert canonical_associate(p)[0] == p
        y = y * p**e
    assert y == x


def omega_roots_scan(d, p):
    # the scan over all p residues that Tonelli-Shanks replaced
    fld = Field.get(d)
    return tuple(s for s in range(p) if (s * s - fld.t * s + fld.m) % p == 0)


def test_omega_roots_match_the_scan_below_5000():
    primes = [p for p in range(2, 5000) if all(p % k for k in range(2, math.isqrt(p) + 1))]
    counts = set()
    for d in EUCLIDEAN_D:
        for p in primes:
            got = _omega_roots_mod(d, p)
            assert got == omega_roots_scan(d, p), (d, p)
            counts.add(len(got))
    # split, ramified and inert primes all occur
    assert counts == {0, 1, 2}


def test_factoring_past_a_large_split_prime_is_fast():
    # 3000 + w at d = 11 has norm 9,003,003 = 3 * 3,001,001 with both primes
    # split; the residue scan took 0.29 s here
    fld = Field.get(11)
    _omega_roots_mod.cache_clear()
    t0 = time.perf_counter()
    divs = divisors_up_to_units(parse_element(fld, "3000+w"))
    assert time.perf_counter() - t0 < 0.05
    assert sorted(d.norm() for d in divs) == [1, 3, 3001001, 9003003]


def test_divisors_pin_gaussian_six():
    g = Field.get(1)
    divs = divisors_up_to_units(g.from_int(6))
    assert divs == [g.one, g.elt(1, 1), g.from_int(2), g.from_int(3), g.elt(3, 3), g.from_int(6)]


@given(elements(20))
def test_divisors_divide(x):
    if x.is_zero():
        return
    divs = divisors_up_to_units(x)
    assert all(divides(d0, x) for d0 in divs)
    assert len(set(divs)) == len(divs)
    assert len(divs) == math.prod(e + 1 for _, e in factorize(x)[1])
    assert [z.sort_key() for z in divs] == sorted(z.sort_key() for z in divs)


def test_hnf_pins():
    g = Field.get(1)
    assert hnf_module(g.from_int(2)) == (2, 0, 2)
    assert hnf_module(g.elt(1, 1)) == (1, 1, 2)
    for fld in FIELDS:
        x = fld.elt(2, 3)
        e11, e12, e22 = hnf_module(x)
        assert e11 * e22 == x.norm()
        assert 0 <= e12 < e22


def test_hnf_reduction_properties():
    rng = random.Random(7)
    for fld in FIELDS:
        for _ in range(40):
            delta = random_elt(rng, fld, 8)
            if delta.is_zero():
                continue
            assert reduce_mod(delta, delta) == fld.zero
            assert reduce_mod(delta * fld.omega, delta) == fld.zero
            x, t = random_elt(rng, fld, 10), random_elt(rng, fld, 10)
            assert reduce_mod(x + delta * t, delta) == reduce_mod(x, delta)
            assert divides(delta, x - reduce_mod(x, delta))


def test_residue_transversal_properties():
    rng = random.Random(5)
    for fld in FIELDS:
        for _ in range(25):
            delta = random_elt(rng, fld, 6)
            if delta.is_zero():
                continue
            reps = residues_mod(delta)
            assert len(reps) == delta.norm()
            box = set(reps)
            for _ in range(20):
                assert reduce_mod(random_elt(rng, fld, 50), delta) in box
            if delta.norm() <= 12:
                for i, r1 in enumerate(reps):
                    for r2 in reps[:i]:
                        assert not divides(delta, r1 - r2)


def test_minimal_residues_are_class_minimal():
    rng = random.Random(6)
    for fld in FIELDS:
        for _ in range(12):
            delta = random_elt(rng, fld, 5)
            if delta.norm() <= 1:
                continue
            reps = residues_below_reference(delta)
            assert len(reps) == delta.norm()
            bound = fld.euclid_ratio * delta.norm()
            cap = int(bound)
            for r0 in reps:
                assert Fraction(r0.norm()) <= bound
                class_min = min(
                    n
                    for n in range(cap + 1)
                    for x in elements_of_norm(fld, n)
                    if divides(delta, x - r0)
                )
                assert class_min == r0.norm()


def test_minimal_residue_pin():
    g = Field.get(1)
    assert residues_below_reference(g.elt(1, 1)) == (g.zero, g.elt(0, 1))


def test_parse_pins():
    g = Field.get(1)
    assert parse_element(g, "w") == g.omega
    assert parse_element(g, "-w") == -g.omega
    assert parse_element(g, "3-2w") == g.elt(3, -2)
    assert parse_element(g, "3 - 2*w") == g.elt(3, -2)
    assert parse_element(g, "0") == g.zero
    assert parse_element(g, "+5") == g.from_int(5)
    for bad in ("", "3x", "1.5", "ww", "w2", "+-3"):
        with pytest.raises(ValueError):
            parse_element(g, bad)


@given(elements())
def test_format_parse_roundtrip(x):
    assert parse_element(x.field, str(x)) == x


def test_ring_invariants_fire_under_python_O(run_optimized):
    # a prime above p from a corrupted gcd, a factorization whose primes are
    # hidden, a modulus that lies about its norm, remainders that collide in
    # a family's residue box, and box remainders past a Euclidean bound that
    # a field states too tightly
    out = run_optimized(
        "from bianchi import heilbronn, quadints\n"
        "from bianchi.quadints import Field, InvariantError, QuadInt\n"
        "fld = Field.get(1)\n"
        "def attempt(name, fn, *args):\n"
        "    try:\n"
        "        fn(*args)\n"
        "    except InvariantError as exc:\n"
        "        print(name + ':', exc)\n"
        "gcd = quadints.gcd\n"
        "quadints.gcd = lambda a, b: a\n"
        "attempt('prime', quadints.primes_above, fld, 5)\n"
        "quadints.gcd = gcd\n"
        "primes_above = quadints.primes_above\n"
        "quadints.primes_above = lambda fld, p: ()\n"
        "attempt('unit', quadints.factorize, fld.from_int(6))\n"
        "quadints.primes_above = primes_above\n"
        "class Off(QuadInt):\n"
        "    def norm(self):\n"
        "        return super().norm() + 1\n"
        "attempt('hnf', quadints.hnf_module, Off(fld, 3, 0))\n"
        "divide_arrays = heilbronn._divide_arrays\n"
        "heilbronn._divide_arrays = lambda fld, aa, ab, ba, bb, tie: (0 * aa,) * 5\n"
        "attempt('residues', heilbronn.heilbronn_families, [fld.from_int(3)])\n"
        "heilbronn._divide_arrays = divide_arrays\n"
        "loose = Field(2)\n"
        "loose.euclid_bound = (0, 1)\n"
        "attempt('bound', heilbronn._residue_boxes, loose, [loose.from_int(3)], 'low')\n"
    )
    assert [line.split(":")[0] for line in out] == \
        ["prime", "unit", "hnf", "residues", "bound"], out
    assert out[3] == "residues: 1 distinct remainders mod 3, not 9 (d=1)", out
    assert "exceeds the Euclidean bound" in out[4] and out[4].endswith("at delta = 3, d=2"), out


def test_coprime_agrees_with_gcd():
    # coprime norms settle it at once; shared norm factors go to the gcd
    rng = random.Random(23)
    for d in EUCLIDEAN_D:
        fld = Field.get(d)
        seen = set()
        for _ in range(300):
            a = fld.elt(rng.randint(-12, 12), rng.randint(-12, 12))
            b = fld.elt(rng.randint(-12, 12), rng.randint(-12, 12))
            if a.is_zero() and b.is_zero():
                continue
            want = gcd(a, b).is_unit()
            assert coprime(a, b) == want, (d, str(a), str(b))
            seen.add((want, math.gcd(a.norm(), b.norm()) == 1))
        # both outcomes, and coprime elements whose norms share a factor
        assert (True, False) in seen and (False, False) in seen and (True, True) in seen

import cmath
import functools
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from scipy.special import k0, k1

from bianchi import fourier
from bianchi.fourier import (
    DualFunctional,
    FourierTable,
    H3Point,
    SeedElement,
    act_h3,
    automorphy_residual,
    bessel_K,
    eval_series,
    fourier_coefficients,
    functional_slash,
    seed_from_vector,
    tail_estimate,
)
from bianchi.boundary import cuspidal_subspace
from bianchi.hecke import eigensystems, hecke_matrix, heilbronn_action
from bianchi.heilbronn import DEFAULT_TIE, heilbronn_family
from bianchi.linalg import vec_dot
from bianchi.quadints import (
    Field,
    InvariantError,
    canonical_elements_of_norm,
    gcd,
    parse_element,
)
from bianchi.symbols import Mat2, symbol_space
from test_symbols import act_point, gen_map


def bessel_quadrature(j, t):
    # integral representation, evaluated independently of the implementation;
    # the cutoff leaves a tail below exp(-60)
    mpmath.mp.dps = 30
    cut = mpmath.acosh(60 / t) + 1
    val = mpmath.quad(lambda u: mpmath.exp(-t * mpmath.cosh(u)) * mpmath.cosh(j * u),
                      [0, cut])
    return float(val)


def test_bessel_frozen_values():
    assert abs(bessel_K(0, 1.0) - 0.421024438241) < 1e-10
    assert abs(bessel_K(1, 1.0) - 0.601907230197) < 1e-10


def test_bessel_matches_integral_oracle():
    for t in (0.3, 0.7, 1.0, 2.5, 7.0):
        for j in (0, 1):
            ref = bessel_quadrature(j, t)
            assert abs(bessel_K(j, t) - ref) < 1e-11 * abs(ref)


def test_bessel_derivative_identity():
    h = 1e-6
    for t in (0.5, 1.0, 2.0):
        deriv = (bessel_K(0, t + h) - bessel_K(0, t - h)) / (2 * h)
        assert abs(deriv + bessel_K(1, t)) < 1e-6


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_K(0, 0.0)
    with pytest.raises(ValueError):
        bessel_K(0, -1.0)
    with pytest.raises(ValueError):
        bessel_K(2, 1.0)
    # NaN fails every comparison, so it must not slip past a t <= 0 test
    for t in (float("nan"), -0.0):
        for j in (0, 1):
            with pytest.raises(ValueError):
                bessel_K(j, t)


def test_bessel_decay_monotone_in_norm():
    fld = Field.get(11)
    s = fld.sqrt_abs_disc
    for t in (0.5, 1.0):
        for j in (0, 1):
            vals = [t**2 * bessel_K(j, 4 * math.pi * math.sqrt(n) * t / s)
                    for n in range(1, 40)]
            assert all(x > y for x, y in zip(vals, vals[1:]))


@functools.cache
def level_form():
    fld = Field.get(11)
    nu = parse_element(fld, "1-2w")
    space = symbol_space(fld, nu)
    etas, n = [], 2
    while len(etas) < 8:
        etas.extend(e for e in canonical_elements_of_norm(fld, n)
                    if gcd(e, nu).is_unit())
        n += 1
    system = eigensystems(space, etas[:8]).systems[0]
    phi = DualFunctional(space, system.functional)
    x = seed_from_vector(space, system.vector)
    return space, system, phi, x


@functools.cache
def form_table(bound):
    space, system, phi, x = level_form()
    return fourier_coefficients(phi, x, bound)


def test_functional_slash_identity_and_zero():
    space, system, phi, x = level_form()
    ident = [Mat2.identity(space.field).row()]
    assert functional_slash(phi, ident, x) == phi(x.quotient_vector()) == 1
    empty = SeedElement(space, {})
    assert functional_slash(phi, ident, empty) == 0
    assert functional_slash(phi, [], x) == 0


def test_family_slash_is_the_sum_of_its_rows():
    # one call over a whole family equals the single-row calls summed, for
    # every determinant up to norm 15 at the reference level
    space, system, phi, x = level_form()
    fld = space.field
    nonzero = 0
    for n in range(1, 16):
        for base in canonical_elements_of_norm(fld, n):
            for u in fld.units:
                fam = heilbronn_family(u * base)
                whole = functional_slash(phi, fam, x)
                assert type(whole) is Fraction
                assert whole == sum((functional_slash(phi, [m], x) for m in fam), Fraction(0))
                nonzero += whole != 0
    assert nonzero > 10


def test_family_slash_sum_matches_matrix_product():
    # termwise slash summed over a family equals the functional applied to
    # the assembled operator, for coprime and non-coprime determinants alike,
    # on the eigenform and on functionals that see every generator; at d = 11
    # level 5 the last point has a nonzero quotient image, so a -1 image read
    # as a point index would show
    levels = [(d, level) for d, level, _ in OFF_EIGEN_LEVELS] + [(11, "5")]
    forms = [level_form()[2:]] + [off_eigen_form(d, level) for d, level in levels]
    for phi, x in forms:
        space = phi.space
        fld = space.field
        v = x.quotient_vector()
        for alpha in (fld.from_int(2), fld.omega, space.level, fld.from_int(2) * space.level):
            total = functional_slash(phi, heilbronn_family(alpha), x)
            assert total == vec_dot(phi.coefficients, heilbronn_action(space, alpha).matvec(v))


def fourier_coefficients_reference(phi, x, norm_bound):
    # the scalar loop fourier_coefficients replaced: a family built by the
    # chain for every unit multiple, each seed generator moved through it by
    # the scalar act_point one row at a time, the hits counted per point
    space = phi.space
    weights = [phi(image) for image in gen_map(space)]
    entries = {}
    for n in range(1, norm_bound + 1):
        for base in canonical_elements_of_norm(space.field, n):
            for u in space.field.units:
                alpha = u * base
                fam = heilbronn_family(alpha, DEFAULT_TIE)
                total = Fraction(0)
                for g, c in x.coefficients.items():
                    hits = Counter(act_point(space, g, m) for m in fam)
                    hits.pop(None, None)
                    total += c * sum(weights[pt] * k for pt, k in hits.items() if weights[pt])
                entries[alpha] = total
    return FourierTable(space, norm_bound, entries, phi(x.quotient_vector()))


@functools.cache
def off_eigen_form(d, level):
    # a functional that is no eigenfunctional and a seed spread over the
    # whole cuspidal basis
    fld = Field.get(d)
    space = symbol_space(fld, parse_element(fld, level))
    cusp = cuspidal_subspace(space)
    assert cusp.dim > 0
    phi = DualFunctional(space, {j: Fraction(j * j + 1) for j in range(space.dim)})
    x = seed_from_vector(space, cusp.lift({i: Fraction(i + 1) for i in range(cusp.dim)}))
    assert len(x.coefficients) > 3
    return phi, x


# d = 3 has six units, so its table takes five twists of each base family;
# heilbronn_action(u*eta) below builds the untwisted family of u*eta itself
OFF_EIGEN_LEVELS = [(2, "5", 15), (7, "5", 15), (11, "4", 15), (1, "7", 15), (3, "11-w", 15)]


@pytest.mark.parametrize("d, level, bound", OFF_EIGEN_LEVELS)
def test_table_matches_operator_off_eigenforms(d, level, bound):
    # the seed-support table against phi * M * v, entry by entry
    phi, x = off_eigen_form(d, level)
    fld = phi.space.field
    v = x.quotient_vector()
    table = fourier_coefficients(phi, x, bound)
    assert len(table.entries) == sum(len(canonical_elements_of_norm(fld, n))
                                     for n in range(1, bound + 1)) * len(fld.units)
    for alpha, a in table.entries.items():
        assert a == vec_dot(phi.coefficients, heilbronn_action(phi.space, alpha).matvec(v))
    assert any(table.entries.values())


@pytest.mark.parametrize("d, level, bound", [*OFF_EIGEN_LEVELS, (11, "1-2w", 60),
                                             (11, "1-2w", 0), (11, "1-2w", 1)])
def test_table_matches_scalar_reference(d, level, bound):
    # entry for entry and in the same (norm, base, unit) order, with the
    # exact Fractions; the last cases are the eigenform of level_form, the
    # norm-0 table with no family batch and the norm-1 table with one
    if (d, level) == (11, "1-2w"):
        _, _, phi, x = level_form()
    else:
        phi, x = off_eigen_form(d, level)
    table = fourier_coefficients(phi, x, bound)
    ref = fourier_coefficients_reference(phi, x, bound)
    assert list(table.entries.items()) == list(ref.entries.items())
    assert all(type(a) is Fraction for a in table.entries.values())
    assert (table.norm_bound, table.a1) == (ref.norm_bound, ref.a1)


def test_table_takes_its_families_in_batches(monkeypatch):
    # the norm-100 table builds its 97 canonical families in lockstep
    # batches and leaves heilbronn_family's cache alone
    import bianchi.heilbronn as hb

    _, _, phi, x = level_form()
    bases = sum(len(canonical_elements_of_norm(phi.space.field, n)) for n in range(1, 101))
    assert bases == 97
    real, passes = hb._chains, []

    def counted(*args):
        passes.append(None)
        return real(*args)

    monkeypatch.setattr(hb, "_chains", counted)
    before = heilbronn_family.cache_info()
    fourier_coefficients(phi, x, 100)
    after = heilbronn_family.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert 1 <= len(passes) <= -(-bases // fourier.FAMILY_BATCH)


def test_table_range_checks_fire_under_python_O(run_optimized):
    # int64 overflow is refused, not wrapped: rows too large for the point
    # action, and weights too large to sum over a family
    out = run_optimized(
        "from fractions import Fraction\n"
        "import numpy as np\n"
        "from bianchi.fourier import DualFunctional, SeedElement, fourier_coefficients\n"
        "from bianchi.quadints import Field, InvariantError, parse_element\n"
        "from bianchi.symbols import symbol_space\n"
        "fld = Field.get(11)\n"
        "space = symbol_space(fld, parse_element(fld, '3-w'))\n"
        "row = np.array([[2**60, 0, 0, 0, 0, 0, 2**60, 0]], dtype=np.int64)\n"
        "try:\n"
        "    space.act_points([0, 1], row)\n"
        "except InvariantError as exc:\n"
        "    print('rows:', exc)\n"
        "phi = DualFunctional(space, {j: Fraction(2**62) for j in range(space.dim)})\n"
        "try:\n"
        "    fourier_coefficients(phi, SeedElement(space, {}), 4)\n"
        "except InvariantError as exc:\n"
        "    print('weights:', exc)\n"
    )
    assert [line.split(":")[0] for line in out] == ["rows", "weights"], out


def test_table_matches_eigenvalues():
    space, system, phi, x = level_form()
    table = form_table(20)
    assert table.a1 == 1
    for eta, lam in system.eigenvalues.items():
        assert table.entries[eta] == lam * table.a1


def test_table_multiplicative_at_level_prime():
    space, system, phi, x = level_form()
    fld = space.field
    table = form_table(135)
    pi = space.level
    a_pi = table.entries[pi]
    assert a_pi == 1
    assert table.entries[pi * pi] == a_pi * a_pi
    for m in (fld.from_int(2), fld.omega, fld.elt(1, 1)):
        assert table.entries[pi * m] == a_pi * table.entries[m]


def test_table_linearity():
    space, system, phi, x = level_form()
    doubled = SeedElement(space, {g: 2 * c for g, c in x.coefficients.items()})
    t1 = fourier_coefficients(phi, x, 5)
    t2 = fourier_coefficients(phi, doubled, 5)
    assert all(t2.entries[a] == 2 * t1.entries[a] for a in t1.entries)


def test_table_json_shape():
    table = form_table(5)
    obj = table.to_json()
    assert obj["d"] == 11 and obj["level"] == "1-2w" and obj["norm_bound"] == 5
    norms = [parse_element(Field.get(11), e["alpha"]).norm() for e in obj["a"]]
    assert norms == sorted(norms)


def test_table_json_entries_survive_the_float_round_trip():
    # eval --table reads each written float back through Fraction
    table = form_table(5)
    back = [Fraction(e["re"]) for e in table.to_json()["a"]]
    assert back == [table.entries[a] for a in sorted(table.entries, key=lambda a: a.sort_key())]


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(-(2**53) - 1)])
def test_table_json_refuses_an_entry_the_float_would_change(monkeypatch, bad):
    table = form_table(5)
    alpha = max(table.entries, key=lambda a: a.sort_key())
    monkeypatch.setitem(table.entries, alpha, Fraction(2**53))
    assert Fraction(table.to_json()["a"][-1]["re"]) == 2**53
    monkeypatch.setitem(table.entries, alpha, bad)
    with pytest.raises(InvariantError, match=f"a_{alpha} = {bad} does not survive"):
        table.to_json()


def tail_estimate_reference(table, w):
    # the per-step loop tail_estimate replaced: growth stays a Fraction and
    # meets a float on every step
    s = table.space.field.sqrt_abs_disc
    growth = table.growth
    density = 2 * math.pi / s
    total = 0.0
    n = table.norm_bound + 1
    while n < table.norm_bound + 200000:
        x = 4 * math.pi * math.sqrt(n) * w.t / s
        term = density * growth * n * w.t**2 * (
            2.0 * math.sqrt(math.pi / (2 * x)) * math.exp(-x))
        total += term
        if term < 1e-6 * total or term < 1e-300:
            break
        n += 1
    return float(total)


def eval_series_reference(table, w):
    # the scalar Bessel loop eval_series replaced: two scipy calls per term
    s = table.space.field.sqrt_abs_disc
    f0 = f1 = f2 = 0.0 + 0.0j
    for ac, mod, phase, a in table.series_terms:
        arg = 4 * math.pi * mod * w.t / s
        psi = cmath.exp(4j * math.pi * (ac * w.z).imag / s)
        common = a * w.t**2 * psi
        k1v = k1(arg)
        f0 += common * (-0.5 * phase * k1v)
        f1 += common * k0(arg)
        f2 += common * (0.5 * phase.conjugate() * k1v)
    return (f0, f1, f2), tail_estimate_reference(table, w)


def _k_bound_reference(x):
    return 2.0 * math.sqrt(math.pi / (2 * x)) * math.exp(-x)


def tail_loop_reference(table, w):
    # the loop with a separate bound function that tail_estimate inlined:
    # growth a float once per call, and a stop where the bound underflows
    # (tail_estimate_reference above would go on to inf * 0.0 = nan there)
    s = table.space.field.sqrt_abs_disc
    t = w.t
    t2 = t**2
    scale = 2 * math.pi / s * float(table.growth)
    four_pi = 4 * math.pi
    total = 0.0
    n = table.norm_bound + 1
    while n < table.norm_bound + 200000:
        k = _k_bound_reference(four_pi * math.sqrt(n) * t / s)
        if not k:
            break
        term = scale * n * t2 * k
        total += term
        if term < 1e-6 * total or term < 1e-300:
            break
        n += 1
    return float(total)


def assert_eval_reprs_match(table, points):
    # repr, not ==: NaN, inf and -0.0 must come out as the scalar loops'
    for z, t in points:
        w = H3Point(z, t)
        values, tail = eval_series(table, w)
        assert repr(values) == repr(eval_series_reference(table, w)[0]), (z, t)
        assert repr(tail) == repr(tail_loop_reference(table, w)), (z, t)


def drawn_table(space, bound, values, seed):
    # every nonzero alpha up to the bound, coefficients drawn from values
    fld = space.field
    rng = random.Random(seed)
    alphas = [u * e for n in range(1, bound + 1)
              for e in canonical_elements_of_norm(fld, n) for u in fld.units]
    entries = {a: Fraction(rng.choice(values)) for a in alphas}
    return FourierTable(space, bound, entries, Fraction(1))


EXTREME_POINTS = [
    (0.1 + 0.2j, 0.5), (-0.3 + 0.45j, 2.0), (0j, 1.0), (complex(-0.0, -0.0), 0.7),
    (3e5 - 7e5j, 1.3), (1e300 + 1e300j, 1.0), (complex(float("inf"), 0.0), 1.0),
    (complex(0.0, float("nan")), 1.0), (0.2j, 1e-300), (0.2j, 5e-324), (0.2j, float("inf")),
]


def test_eval_series_bit_identical_to_scalar_reference():
    # equality, not a tolerance: the numpy pass and the hoisted tail
    # constants must round exactly as the scalar loops did
    table = form_table(100)
    assert isinstance(table.growth, Fraction)
    rng = random.Random(8)
    points = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), rng.uniform(0.5, 2.0))
              for _ in range(498)]
    points += [(0.1 + 0.2j, 0.5), (-0.3 + 0.45j, 2.0)]
    for z, t in points:
        w = H3Point(z, t)
        got = eval_series(table, w)
        assert got == eval_series_reference(table, w), (z, t)
        assert got[1] == tail_estimate(table, w)
    assert_eval_reprs_match(table, EXTREME_POINTS)
    # the empty table's growth is the float default: its tail is also
    # compared with the original per-step loop
    space = table.space
    empty = FourierTable(space, 7, {}, Fraction(0))
    for t in (0.5, 2.0):
        w = H3Point(0.2j, t)
        assert eval_series(empty, w) == eval_series_reference(empty, w)
    assert_eval_reprs_match(empty, EXTREME_POINTS)
    # one term at the float limits: the norm bound past 2**53 and a
    # coefficient near the float maximum
    limit = FourierTable(space, 10**300, {space.field.one: Fraction(1.7e308)}, Fraction(1))
    assert_eval_reprs_match(limit, EXTREME_POINTS)


@pytest.mark.parametrize("d, level", [(2, "5"), (3, "11-w")])
def test_eval_series_bit_identical_in_other_fields(d, level):
    phi, x = off_eigen_form(d, level)
    rng = random.Random(d)
    points = [(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0.3, 2.5))
              for _ in range(60)]
    assert_eval_reprs_match(fourier_coefficients(phi, x, 15), points + EXTREME_POINTS)


@pytest.mark.parametrize("values", [
    [1e300, -1e300, 9.7e299, -1.3e300],
    [5e-324, -5e-324, 1e-310],
    [0, 0, 1, -1],
    [1, -2, 3.5, -0.25, 7e-3],
])
def test_eval_series_bit_identical_on_drawn_tables(values):
    space = level_form()[0]
    table = drawn_table(space, 30, values, seed=len(values))
    rng = random.Random(17)
    points = [(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), rng.uniform(0.2, 2.0))
              for _ in range(40)]
    assert_eval_reprs_match(table, points + EXTREME_POINTS)


def test_eval_series_bit_identical_where_terms_overflow():
    # a t^2 overflows to inf; the tail's scale * n is inf too, so each tail
    # walks to its 200,000-step cap and only a few points are taken
    space = level_form()[0]
    table = drawn_table(space, 30, [1.7e308, -1.7e308, 1.0], seed=3)
    points = [(0.1 + 0.2j, 0.5), (0j, 1.0), (1e300 + 1e300j, 1.0), (0.2j, 1e-300),
              (0.2j, float("inf"))]
    assert_eval_reprs_match(table, points)


def test_tail_stops_once_its_total_is_inf(monkeypatch):
    # a1 = 1e308 overflows the growth scale, so every term is inf; the walk
    # used to go on until the Bessel bound underflowed, some 150,000 steps on
    space = level_form()[0]
    table = FourierTable(space, 1, {space.field.one: Fraction(10**308)}, Fraction(1))
    w = H3Point(0.1 + 0.2j, 0.5)
    steps = Counter()
    real_exp = math.exp

    def counted(x):
        steps["exp"] += 1
        return real_exp(x)

    monkeypatch.setattr(math, "exp", counted)
    assert tail_estimate(table, w) == math.inf
    assert steps["exp"] == 1
    monkeypatch.undo()
    assert tail_estimate(table, w) == tail_loop_reference(table, w) == math.inf


def test_automorphy_residual_matches_scalar_reference(monkeypatch):
    # the residual through the numpy pass and through the scalar loop, at
    # the translation heights perfbench checks
    table = form_table(100)
    fld = table.space.field
    heights = (0.8, 1.1, 1.4, 1.7, 2.0)
    cases = [(Mat2(fld.one, mu, fld.zero, fld.one), H3Point(0.1 + 0.2j, h))
             for h in heights for mu in (fld.one, fld.omega)]
    got = [automorphy_residual(table, g, w) for g, w in cases]
    monkeypatch.setattr(fourier, "eval_series", eval_series_reference)
    assert got == [automorphy_residual(table, g, w) for g, w in cases]


def test_eval_zero_table():
    space, system, phi, x = level_form()
    table = FourierTable(space, 3, {space.field.one: Fraction(0)}, Fraction(0))
    (f0, f1, f2), _ = eval_series(table, H3Point(0.1 + 0.2j, 1.0))
    assert f0 == f1 == f2 == 0


def test_single_term_component_structure():
    space, system, phi, x = level_form()
    fld = space.field
    w = H3Point(0.07 + 0.21j, 0.9)
    table = FourierTable(space, 1, {fld.one: Fraction(1)}, Fraction(1))
    (f0, f1, f2), _ = eval_series(table, w)
    assert abs(f2 / f0 + 1) < 1e-12
    # for a non-real term the outer ratio picks up the phase of alpha
    table_w = FourierTable(space, 3, {fld.omega: Fraction(1)}, Fraction(0))
    (g0, g1, g2), _ = eval_series(table_w, w)
    ac = fld.omega.to_complex()
    assert abs(g2 / g0 + (ac.conjugate() / ac)) < 1e-12


def test_series_is_lattice_periodic():
    table = form_table(20)
    fld = table.space.field
    w = H3Point(0.11 - 0.07j, 1.1)
    base, _ = eval_series(table, w)
    for mu in (fld.one, fld.omega, fld.elt(-2, 1)):
        shifted, _ = eval_series(table, H3Point(w.z + mu.to_complex(), w.t))
        assert all(abs(p - q) < 1e-13 for p, q in zip(base, shifted))


def test_tail_bound_covers_refinement():
    w = H3Point(0.1 + 0.2j, 1.0)
    coarse = form_table(60)
    fine = form_table(135)
    v1, tail = eval_series(coarse, w)
    v2, _ = eval_series(fine, w)
    diff = math.sqrt(sum(abs(p - q) ** 2 for p, q in zip(v1, v2)))
    assert diff <= tail


def test_translation_automorphy():
    table = form_table(20)
    fld = table.space.field
    for k, t in enumerate((0.8, 1.1, 1.4, 1.7, 2.0)):
        w = H3Point(complex(0.05 * k - 0.1, 0.1 + 0.03 * k), t)
        for mu in (fld.one, fld.omega):
            g = Mat2(fld.one, mu, fld.zero, fld.one)
            assert automorphy_residual(table, g, w) < 1e-12


def test_generic_automorphy():
    table = form_table(250)
    fld = table.space.field
    nu = table.space.level
    lower = Mat2(fld.one, fld.zero, nu, fld.one)
    # pick z near -d/c so the height survives the isometry
    w = H3Point(-0.3j, 0.3)
    assert automorphy_residual(table, lower, w) < 1e-6
    conj = Mat2(fld.one, fld.omega, fld.zero, fld.one) * lower * Mat2(fld.one, fld.one, fld.zero, fld.one)
    zc = -(conj.d.to_complex() / conj.c.to_complex())
    w2 = H3Point(zc + 0.004 + 0.006j, 0.3)
    assert automorphy_residual(table, conj, w2) < 1e-6


def test_seed_requires_zero_boundary():
    space, system, phi, x = level_form()
    # a single generator has a nonzero boundary at this level
    with pytest.raises(ValueError):
        SeedElement(space, {space.free_gens[0]: Fraction(1)})


def test_automorphy_rejects_outsiders():
    table = form_table(5)
    fld = table.space.field
    w = H3Point(0.1 + 0.1j, 1.0)
    s_mat = Mat2(fld.zero, -fld.one, fld.one, fld.zero)
    with pytest.raises(ValueError):
        automorphy_residual(table, s_mat, w)
    with pytest.raises(ValueError):
        automorphy_residual(table, Mat2(fld.one, fld.zero, fld.zero, fld.from_int(2)), w)


def test_weight_restriction():
    fld = Field.get(1)
    sp4 = symbol_space(fld, fld.from_int(2), 4)
    phi = DualFunctional(sp4, {0: Fraction(1)})
    x = SeedElement(sp4, {})
    with pytest.raises(ValueError):
        fourier_coefficients(phi, x, 3)
    with pytest.raises(ValueError):
        functional_slash(phi, [Mat2.identity(fld).row()], x)


def test_seed_space_mismatch():
    space, system, phi, x = level_form()
    fld = Field.get(1)
    other = symbol_space(fld, fld.from_int(3))
    phi_other = DualFunctional(other, {0: Fraction(1)})
    with pytest.raises(ValueError):
        fourier_coefficients(phi_other, x, 3)


def test_h3point_validates():
    with pytest.raises(ValueError):
        H3Point(0.1 + 0.1j, 0.0)
    with pytest.raises(ValueError):
        H3Point(0.1 + 0.1j, -1.0)


def test_act_h3_translation_and_height():
    fld = Field.get(11)
    g = Mat2(fld.one, fld.omega, fld.zero, fld.one)
    w = H3Point(0.2 + 0.1j, 1.3)
    moved = act_h3(g, w)
    assert abs(moved.z - (w.z + fld.omega.to_complex())) < 1e-15
    assert abs(moved.t - w.t) < 1e-15

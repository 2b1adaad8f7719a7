import functools
import math
from fractions import Fraction

import mpmath
import pytest

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
from bianchi.hecke import eigensystems, hecke_matrix
from bianchi.heilbronn import heilbronn_family
from bianchi.linalg import vec_dot
from bianchi.quadints import Field, canonical_elements_of_norm, gcd, parse_element
from bianchi.symbols import Mat2, symbol_space


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
    ident = Mat2.identity(space.field)
    assert functional_slash(phi, ident, x) == phi(x.quotient_vector()) == 1
    empty = SeedElement(space, {})
    assert functional_slash(phi, ident, empty) == 0


def test_family_slash_sum_matches_matrix_product():
    # termwise slash summed over a family equals the functional applied to
    # the assembled operator, for coprime and non-coprime determinants alike
    space, system, phi, x = level_form()
    fld = space.field
    v = x.quotient_vector()
    from bianchi.hecke import heilbronn_action
    for alpha in (fld.from_int(2), fld.omega, space.level, fld.from_int(2) * space.level):
        total = sum(functional_slash(phi, m, x) for m in heilbronn_family(alpha))
        assert total == vec_dot(phi.coefficients, heilbronn_action(space, alpha).matvec(v))


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
        functional_slash(phi, Mat2.identity(fld), x)


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

"""Numeric layer for weight-2 forms on hyperbolic 3-space.

The exact machinery stops at rational coefficient tables a_alpha indexed by
nonzero integers of bounded norm; floats enter only here, in the Bessel
factors, the lattice character and the truncated series

    F(z, t) = sum_alpha a_alpha t^2 K(4 pi |alpha| t / s) psi(alpha z / s)

with s = sqrt(|disc|) and psi(w) = exp(2 pi i (w + wbar)).  In the coframe
(dz/t, dt/t, dzbar/t) the vector K carries the phase u = alpha/|alpha|:

    K(x; alpha) = (-(u/2) K_1(x), K_0(x), (ubar/2) K_1(x))

which is the unique decaying solution of the closedness and coclosedness
equations for the character of alpha; constant outer components solve
neither.  The automorphy check transports F through
an isometry and undoes the twist with the symmetric square of the inverse
automorphy factor; the 3x3 matrix used for that is the coframe pullback

    A(g, w) = D^-1 Sym2(adj j(g, w)) D / det j(g, w),   D = diag(-2, 1, 2)

derived by differentiating the action on (z, t) directly.

scipy.special is imported on the first Bessel value, by _bessel_k01, which
bessel_K and eval_series call once per call: the exact layers and the
coefficient tables never load scipy, so the commands that stop there start
without it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .boundary import orbit_boundary
from .heilbronn import DEFAULT_TIE, heilbronn_families
from .linalg import INT64_MAX, absmax, vec_axpy, vec_dot
from .quadints import InvariantError, QuadInt, canonical_elements_of_norm, divides
from .symbols import Mat2, SymbolSpace


def _bessel_k01():
    """scipy.special's k0 and k1, imported on first use (see the module docstring)."""
    from scipy.special import k0, k1

    return k0, k1


def bessel_K(j: int, t: float) -> float:
    """Modified Bessel function of the second kind, order 0 or 1."""
    if j not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if not t > 0:
        raise ValueError("argument must be positive")
    return float(_bessel_k01()[j](t))


@dataclass(frozen=True)
class DualFunctional:
    """Linear functional on the quotient, given by quotient coordinates."""

    space: SymbolSpace
    coefficients: dict

    def __call__(self, quotient_vec: dict) -> Fraction:
        return vec_dot(self.coefficients, quotient_vec)


@dataclass(frozen=True)
class SeedElement:
    """Rational combination of generators with vanishing boundary."""

    space: SymbolSpace
    coefficients: dict

    def __post_init__(self):
        coeffs = list(self.coefficients.values())
        if any(sum(a * coeffs[j] for j, a in row.items())
               for row in orbit_boundary(self.space, list(self.coefficients))):
            raise ValueError("seed has nonzero boundary")

    def quotient_vector(self) -> dict:
        out: dict = {}
        for g, c in self.coefficients.items():
            vec_axpy(out, c, self.space.qmap.vector(g))
        return out


def seed_from_vector(space: SymbolSpace, quotient_vec: dict) -> SeedElement:
    # the basis generators map to unit vectors, so this lift is a section
    coeffs = {space.free_gens[j]: c for j, c in quotient_vec.items() if c}
    return SeedElement(space, coeffs)


def functional_slash(phi: DualFunctional, rows: Sequence[tuple[int, ...]],
                     x: SeedElement) -> Fraction:
    """phi twisted by a sum of matrices, evaluated termwise on the seed.

    rows is a sequence of 8-int rows: a whole Heilbronn family, or
    [Mat2.row()] for one matrix.  One SymbolSpace.act_points call moves the
    seed's support through every row, and phi of each image point's
    quotient vector is summed as Fractions over the unimodular images, a
    loop kept apart from the table's int64 sums and from heilbronn_action
    so the coefficient identity compares separate computations.
    """
    space = phi.space
    if space.weight != 2:
        raise ValueError("expansion is defined for weight 2 only")
    images = space.act_points(list(x.coefficients), rows)
    total = Fraction(0)
    for c, line in zip(x.coefficients.values(), images.tolist()):
        for pt in line:
            if pt >= 0:
                total += c * phi(space.qmap.vector(pt))
    return total


class SeriesArrays(NamedTuple):
    """A table's series terms as float arrays (FourierTable.series_arrays)."""

    alpha: np.ndarray         # (2, n): Re alpha, Im alpha
    coef: np.ndarray          # a_alpha
    bessel_scale: np.ndarray  # the distinct values of 4 pi |alpha|, ascending
    bessel_index: np.ndarray  # each term's position in bessel_scale
    outer: np.ndarray         # (2, 2, n): Re and Im of -phase/2 and of conj(phase)/2


@dataclass(frozen=True)
class FourierTable:
    space: SymbolSpace
    norm_bound: int
    entries: dict            # QuadInt -> Fraction, every nonzero alpha
    a1: Fraction

    @cached_property
    def series_terms(self) -> list[tuple[complex, float, complex, float]]:
        """(alpha, |alpha|, alpha/|alpha|, float(a_alpha)) per nonzero entry, in sort order."""
        out = []
        for alpha in sorted(self.entries, key=lambda a: a.sort_key()):
            a = self.entries[alpha]
            if a:
                ac = alpha.to_complex()
                mod = abs(ac)
                out.append((ac, mod, ac / mod, float(a)))
        return out

    @cached_property
    def series_arrays(self) -> SeriesArrays:
        """The float arrays eval_series runs on, in series_terms order.

        Each entry is formed by Python's own float and complex arithmetic,
        so it is the factor the scalar loop over series_terms formed.
        """
        rows = []
        for ac, mod, phase, a in self.series_terms:
            neg, half = -0.5 * phase, 0.5 * phase.conjugate()
            rows.append((ac.real, ac.imag, a, 4 * math.pi * mod,
                         neg.real, half.real, neg.imag, half.imag))
        cols = np.array(rows, dtype=float).reshape(-1, 8).T.copy()
        scale, index = np.unique(cols[3], return_inverse=True)
        return SeriesArrays(cols[0:2], cols[2], scale, index, cols[4:].reshape(2, 2, -1))

    @cached_property
    def growth(self) -> Fraction | float:
        """Largest |a_alpha| / N(alpha) over the table, the tail's calibration."""
        return max((abs(a) / al.norm() for al, a in self.entries.items() if a),
                   default=1.0)

    def to_json(self) -> dict:
        """The table as eval --table reads it back.

        Each a_alpha is written as the float float(a) and read back through
        Fraction, which returns a_alpha exactly when it is an integer of
        absolute value at most 2^53, below which every integer is a float.
        The tables of a_1 = 1 eigenforms have integer entries far below
        that; InvariantError names an entry that breaks it.
        """
        fld = self.space.field
        alphas = sorted(self.entries, key=lambda a: a.sort_key())
        for alpha in alphas:
            a = self.entries[alpha]
            if a.denominator != 1 or abs(a) > 2**53:
                raise InvariantError(f"a_{alpha} = {a} does not survive the float round trip "
                                     f"of the table at level {self.space.level} (d={fld.d})")
        return {
            "d": fld.d,
            "level": str(self.space.level),
            "norm_bound": self.norm_bound,
            "a": [{"alpha": str(a), "re": float(self.entries[a]), "im": 0.0}
                  for a in alphas],
        }


# fourier_coefficients asks heilbronn_families for this many canonical
# families at a time: one lockstep chain pass per batch, with the memory of
# sixteen families at most
FAMILY_BATCH = 16


def _unit_twist(rows: np.ndarray, u: QuadInt) -> np.ndarray:
    # rows with the bottom-row entries c and d multiplied by the unit u: the
    # family of u*eta when rows is the family of eta (see heilbronn_family)
    a, b = u.a, u.b
    if (a, b) == (1, 0):
        return rows
    fld = u.field
    out = rows.copy()
    p, q = rows[:, 4::2], rows[:, 5::2]
    out[:, 4::2] = p * a - fld.m * q * b
    out[:, 5::2] = p * b + q * (a + fld.t * b)
    return out


def _point_weights(phi: DualFunctional) -> tuple[list[int], int]:
    """phi on every point's quotient vector, as ints over their least
    common denominator: phi(e_pt) = nums[pt] / den."""
    qmap = phi.space.qmap
    p_den = math.lcm(1, *(c.denominator for c in phi.coefficients.values()))
    p_num = np.zeros(qmap.matrix.shape[1], dtype=object)
    for i, c in phi.coefficients.items():
        p_num[i] = c.numerator * (p_den // c.denominator)
    # Python ints: phi on each row of the map's matrix, then on each point's
    # terms
    by_row = qmap.matrix.astype(object).dot(p_num)
    nums = (qmap.coef[:-1].astype(object) * by_row[qmap.row[:-1]]).sum(axis=1).tolist()
    den = qmap.den * p_den
    g = math.gcd(den, *nums)
    return [n // g for n in nums], den // g


def fourier_coefficients(phi: DualFunctional, x: SeedElement, norm_bound: int) -> FourierTable:
    """Coefficient table a_alpha = sum over the family of determinant alpha.

    Associates are listed separately; nothing requires alpha coprime to the
    level, the non-unimodular images just drop out.  Only the seed's support
    is moved: a_alpha = sum_g c_g sum_M phi(image of g*M).

    The canonical alphas' families come from heilbronn_families,
    FAMILY_BATCH determinants per lockstep chain pass, as (n, 8) int64
    arrays that the table uses once and does not keep; the family of each
    unit multiple u*alpha is that array with c and d multiplied by u.  One
    SymbolSpace.act_points pass per unit multiple moves the whole support,
    and phi's values on the points, read off the quotient map as int
    numerators over their least common denominator, are gathered and summed
    in int64 before the exact Fraction is formed.  The int64 ranges are
    checked and raise InvariantError.

    The table takes no tie rule: a_alpha = phi(T_alpha x) is the same for
    every family satisfying Merel's condition, which the telescoping
    certificate checks, so the family of heilbronn.DEFAULT_TIE is used.
    """
    space = phi.space
    if space.weight != 2:
        raise ValueError("expansion is defined for weight 2 only")
    if x.space is not space:
        raise ValueError("functional and seed live on different spaces")
    fld = space.field
    w_nums, w_den = _point_weights(phi)
    w_reach = max(map(abs, w_nums), default=0)
    # index -1, a non-unimodular image, reads the trailing 0; a weight past
    # int64 is never read, the first family's range check refuses it
    w_table = np.array([n if abs(n) <= INT64_MAX else 0 for n in w_nums] + [0], dtype=np.int64)
    gens = list(x.coefficients)
    coeffs = x.coefficients.values()
    c_den = math.lcm(*(c.denominator for c in coeffs))
    c_nums = [c.numerator * (c_den // c.denominator) for c in coeffs]
    den = w_den * c_den
    entries = {}
    bases = [b for n in range(1, norm_bound + 1) for b in canonical_elements_of_norm(fld, n)]
    for start in range(0, len(bases), FAMILY_BATCH):
        batch = bases[start:start + FAMILY_BATCH]
        for base, rows in zip(batch, heilbronn_families(batch, DEFAULT_TIE)):
            if w_reach * len(rows) > INT64_MAX:
                raise InvariantError(f"weights up to {w_reach} over {len(rows)} family rows "
                                     f"overflow int64 (d={fld.d}, eta={base})")
            if absmax(rows) * (1 + fld.m + fld.t) > INT64_MAX:
                raise InvariantError(f"family rows of {base} overflow int64 under a unit "
                                     f"twist (d={fld.d})")
            for u in fld.units:
                sums = w_table[space.act_points(gens, _unit_twist(rows, u))].sum(axis=1)
                total = sum(map(operator.mul, c_nums, sums.tolist()))
                entries[u * base] = Fraction(total, den)
    return FourierTable(space, norm_bound, entries, phi(x.quotient_vector()))


@dataclass(frozen=True)
class H3Point:
    z: complex
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("height must be positive")


def tail_estimate(table: FourierTable, w: H3Point) -> float:
    """Heuristic bound on the dropped terms beyond the table's norm bound.

    Uses linear growth of coefficients calibrated on the table itself, the
    average lattice-point density per norm, and exponential Bessel decay,
    through k = 2 sqrt(pi / 2x) exp(-x), a convenient overestimate of
    max(K_0, K_1) from x ~ 0.5 on.

    The norms are walked one by one with math.sqrt and math.exp (np.exp
    rounds differently on some arguments).  Only what does not change a
    rounding is hoisted: the module lookups and growth as a float once per
    call (float * Fraction is already float(a) * float(b)); every product
    keeps its left-to-right order.  n stays an int: as a float it would
    stop counting past 2**53.
    """
    s = table.space.field.sqrt_abs_disc
    t = w.t
    t2 = t**2
    scale = 2 * math.pi / s * float(table.growth)
    four_pi, pi, sqrt, exp, inf = 4 * math.pi, math.pi, math.sqrt, math.exp, math.inf
    total = 0.0
    n = table.norm_bound + 1
    stop = table.norm_bound + 200000
    while n < stop:
        x = four_pi * sqrt(n) * t / s
        k = 2.0 * sqrt(pi / (2.0 * x)) * exp(-x)
        if not k:
            # the Bessel bound underflowed: the rest adds nothing, and
            # scale * n * t2 may already be inf, which times 0.0 is nan
            break
        term = scale * n * t2 * k
        total += term
        # an inf total can no longer change; inf terms would not stop it
        if term < 1e-6 * total or term < 1e-300 or total == inf:
            break
        n += 1
    return total


def eval_series(table: FourierTable, w: H3Point) -> tuple[tuple[complex, complex, complex], float]:
    """Truncated series value at (z, t), with a tail estimate.

    One numpy pass over table.series_arrays that rounds exactly as the
    scalar loop over series_terms did, f_j += (a t^2 psi) * factor_j per
    term in complex arithmetic:

    - k0 and k1 are taken once per distinct |alpha| and gathered per term.
    - psi = exp(i y) is (cos y, sin y) with y = 4 pi Im(alpha z) / s, as
      cmath.exp returned it for the argument 4j pi Im(alpha z) / s.  That
      np.cos and np.sin round as math.cos and math.sin do is measured, not
      promised by numpy, whose float64 loops depend on the build and the
      CPU: they agreed on 1M arguments in [-2000, 2000] and on every test
      point under numpy 2.4.6 on an x86-64 CPU with AVX-512.
    - Every complex product is spelled out in the order CPython 3.11
      evaluates it, re = ar*br - ai*bi and im = ar*bi + ai*br.  A float
      operand enters as a complex with imaginary part 0.0.  Of its 0.0 * x
      products only ci * 0.0 in (a t^2 psi) * k0 is kept: where ci is inf
      it makes the term NaN, as it did.  The others multiply 0.0 by a
      finite phase or psi part, or by a NaN psi whose term is NaN anyway,
      so they can only pick the sign of a zero.
    - The six real component rows are summed left to right from 0.0 by
      np.add.accumulate; np.sum's pairwise order would round differently.
      A sum that starts from 0.0 never ends at -0.0, so a zero's sign,
      like sin(-0.0) where cmath saw +0.0, never reaches the result.
    """
    s = table.space.field.sqrt_abs_disc
    t = w.t
    z = complex(w.z)
    arr = table.series_arrays
    n = len(arr.coef)
    k0, k1 = _bessel_k01()
    # the factor per component as (re, im) rows: the outer components carry
    # the phase of alpha, since the unique decaying harmonic combination per
    # character is (-(u/2)K1, K0, (ubar/2)K1) with u = alpha/|alpha|, in
    # the coframe (dz/t, dt/t, dzbar/t)
    factors = np.empty((2, 3, n))
    factors[1, 1] = 0.0
    psi = np.empty((2, n))
    terms = np.zeros((2, 3, n + 1))
    with np.errstate(all="ignore"):
        args = arr.bessel_scale * t / s
        np.take(k0(args), arr.bessel_index, out=factors[0, 1])
        np.multiply(arr.outer, k1(args)[arr.bessel_index], out=factors[:, ::2])
        y = 4 * math.pi * (arr.alpha[0] * z.imag + arr.alpha[1] * z.real) / s
        np.cos(y, out=psi[0])
        np.sin(y, out=psi[1])
        c_re, c_im = (arr.coef * t**2) * psi
        by_re, by_im = c_re * factors, c_im * factors
        np.subtract(by_re[0], by_im[1], out=terms[0, :, 1:])
        np.add(by_re[1], by_im[0], out=terms[1, :, 1:])
        re, im = np.add.accumulate(terms, axis=2)[:, :, -1].tolist()
    return tuple(map(complex, re, im)), tail_estimate(table, w)


def act_h3(g: Mat2, w: H3Point) -> H3Point:
    """Isometric action on upper half space."""
    a, b, c, d = (e.to_complex() for e in g.entries())
    u = c * w.z + d
    r = abs(u) ** 2 + abs(c) ** 2 * w.t**2
    z2 = ((a * w.z + b) * u.conjugate() + a * c.conjugate() * w.t**2) / r
    return H3Point(z2, w.t / r)


def _sym2_untwist(g: Mat2, w: H3Point) -> list[list[complex]]:
    # A(g, w) with A F(g w) = F(w) for automorphic F
    c, d = g.c.to_complex(), g.d.to_complex()
    u = c * w.z + d
    v = c * w.t
    r = abs(u) ** 2 + abs(v) ** 2
    p, q, rr, s = u.conjugate(), v, -v.conjugate(), u
    sym2 = [
        [p * p, 2 * p * q, q * q],
        [p * rr, p * s + q * rr, q * s],
        [rr * rr, 2 * rr * s, s * s],
    ]
    dg = (-2.0, 1.0, 2.0)
    return [[sym2[i][j] * dg[j] / (dg[i] * r) for j in range(3)] for i in range(3)]


def automorphy_residual(table: FourierTable, gamma: Mat2, w: H3Point) -> float:
    """Relative defect of the weight-2 transformation law at one point."""
    space = table.space
    fld = space.field
    nu = space.level
    if gamma.det() != fld.one:
        raise ValueError("matrix must have determinant one")
    if not (divides(nu, gamma.c) and divides(nu, gamma.a - fld.one)):
        raise ValueError("matrix fails the level congruences")
    fw, _ = eval_series(table, w)
    fgw, _ = eval_series(table, act_h3(gamma, w))
    mat = _sym2_untwist(gamma, w)
    moved = [sum(mat[i][j] * fgw[j] for j in range(3)) for i in range(3)]
    num = math.sqrt(sum(abs(moved[i] - fw[i]) ** 2 for i in range(3)))
    den = math.sqrt(sum(abs(c) ** 2 for c in fw))
    return num / den

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.special import k0 as _k0, k1 as _k1

from .boundary import boundary_of_gen
from .hecke import heilbronn_action
from .linalg import vec_axpy, vec_dot
from .quadints import QuadInt, canonical_elements_of_norm, divides
from .symbols import Mat2, SymbolSpace


def bessel_K(j: int, t: float) -> float:
    """Modified Bessel function of the second kind, order 0 or 1."""
    if j not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if t <= 0:
        raise ValueError("argument must be positive")
    return float(_k0(t) if j == 0 else _k1(t))


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
        total: dict = {}
        for g, c in self.coefficients.items():
            vec_axpy(total, c, boundary_of_gen(self.space, g))
        if any(total.values()):
            raise ValueError("seed has nonzero boundary")

    def quotient_vector(self) -> dict:
        out: dict = {}
        for g, c in self.coefficients.items():
            vec_axpy(out, c, self.space.gen_map[g])
        return out


def seed_from_vector(space: SymbolSpace, quotient_vec: dict) -> SeedElement:
    # the basis generators map to unit vectors, so this lift is a section
    coeffs = {space.free_gens[j]: c for j, c in quotient_vec.items() if c}
    return SeedElement(space, coeffs)


def _gen_image(space: SymbolSpace, gen: int, m: Mat2) -> dict:
    # quotient image of one weight-2 generator under one integral matrix,
    # dropped when the moved point is not unimodular at the level; kept apart
    # from heilbronn_action so the slash-sum checks compare two loops
    out: dict = {}
    pt = space.act_point(gen, m)
    if pt is not None:
        vec_axpy(out, Fraction(1), space.gen_map[pt])
    return out


def functional_slash(phi: DualFunctional, m: Mat2, x: SeedElement) -> Fraction:
    """phi twisted by one matrix, evaluated termwise on the seed."""
    if phi.space.weight != 2:
        raise ValueError("expansion is defined for weight 2 only")
    total = Fraction(0)
    for g, c in x.coefficients.items():
        total += c * phi(_gen_image(phi.space, g, m))
    return total


@dataclass(frozen=True)
class FourierTable:
    space: SymbolSpace
    norm_bound: int
    entries: dict            # QuadInt -> Fraction, every nonzero alpha
    a1: Fraction

    def to_json(self) -> dict:
        fld = self.space.field
        alphas = sorted(self.entries, key=lambda a: a.sort_key())
        return {
            "d": fld.d,
            "level": str(self.space.level),
            "norm_bound": self.norm_bound,
            "a": [{"alpha": str(a), "re": float(self.entries[a]), "im": 0.0}
                  for a in alphas],
        }


def fourier_coefficients(phi: DualFunctional, x: SeedElement,
                         norm_bound: int, tie: str = "low") -> FourierTable:
    """Coefficient table a_alpha = sum over the family of determinant alpha.

    Associates are listed separately; nothing requires alpha coprime to the
    level, the non-unimodular images just drop out.
    """
    space = phi.space
    if space.weight != 2:
        raise ValueError("expansion is defined for weight 2 only")
    if x.space is not space:
        raise ValueError("functional and seed live on different spaces")
    fld = space.field
    v = x.quotient_vector()
    entries = {}
    for n in range(1, norm_bound + 1):
        for base in canonical_elements_of_norm(fld, n):
            for u in fld.units:
                alpha = u * base
                entries[alpha] = vec_dot(
                    phi.coefficients, heilbronn_action(space, alpha, tie).matvec(v))
    return FourierTable(space, norm_bound, entries, vec_dot(phi.coefficients, v))


@dataclass(frozen=True)
class H3Point:
    z: complex
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("height must be positive")


def _k_bound(x: float) -> float:
    # convenient overestimate of max(K_0, K_1), adequate from x ~ 0.5 on
    return 2.0 * math.sqrt(math.pi / (2 * x)) * math.exp(-x)


def tail_estimate(table: FourierTable, w: H3Point) -> float:
    """Heuristic bound on the dropped terms beyond the table's norm bound.

    Uses linear growth of coefficients calibrated on the table itself, the
    average lattice-point density per norm, and exponential Bessel decay.
    """
    fld = table.space.field
    s = fld.sqrt_abs_disc
    growth = max((abs(a) / al.norm() for al, a in table.entries.items() if a),
                 default=1.0)
    density = 2 * math.pi / s
    total = 0.0
    n = table.norm_bound + 1
    while n < table.norm_bound + 200000:
        term = density * growth * n * w.t**2 * _k_bound(4 * math.pi * math.sqrt(n) * w.t / s)
        total += term
        if term < 1e-6 * total or term < 1e-300:
            break
        n += 1
    return float(total)


def eval_series(table: FourierTable, w: H3Point) -> tuple[tuple[complex, complex, complex], float]:
    """Truncated series value at (z, t), with a tail estimate."""
    fld = table.space.field
    s = fld.sqrt_abs_disc
    f0 = f1 = f2 = 0.0 + 0.0j
    for alpha in sorted(table.entries, key=lambda a: a.sort_key()):
        a = table.entries[alpha]
        if not a:
            continue
        ac = alpha.to_complex()
        mod = abs(ac)
        arg = 4 * math.pi * mod * w.t / s
        psi = cmath.exp(4j * math.pi * (ac * w.z).imag / s)
        common = float(a) * w.t**2 * psi
        # the outer components carry the phase of alpha: the unique decaying
        # harmonic combination per character is (-(u/2)K1, K0, (ubar/2)K1)
        # with u = alpha/|alpha|, in the coframe (dz/t, dt/t, dzbar/t)
        phase = ac / mod
        k1v = _k1(arg)
        f0 += common * (-0.5 * phase * k1v)
        f1 += common * _k0(arg)
        f2 += common * (0.5 * phase.conjugate() * k1v)
    return (f0, f1, f2), tail_estimate(table, w)


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

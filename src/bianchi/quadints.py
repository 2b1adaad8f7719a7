"""Arithmetic in the integers of the five Euclidean imaginary quadratic fields.

Elements are written a + b*omega where omega = sqrt(-d) for d = 1, 2 and
omega = (1 + sqrt(-d))/2 for d = 3, 7, 11, so omega always satisfies
omega^2 = t*omega - m with t in {0, 1} and m a small positive integer.
Everything downstream (symbol spaces, Heilbronn families, Hecke operators)
reduces to exact arithmetic in these rings, so coordinates stay plain ints.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "EUCLIDEAN_D",
    "Field",
    "InvariantError",
    "QuadInt",
    "canonical_associate",
    "canonical_elements_of_norm",
    "coprime",
    "divide_ints",
    "divides",
    "divisors_up_to_units",
    "elements_of_norm",
    "euclidean_division",
    "exact_div",
    "factorize",
    "gcd",
    "hnf_module",
    "is_prime_element",
    "is_rational_prime",
    "parse_element",
    "primes_above",
    "rational_prime_factors",
    "reduce_mod",
    "residues_mod",
    "xgcd",
]

EUCLIDEAN_D = (1, 2, 3, 7, 11)


class Field:
    """The ring of integers of Q(sqrt(-d)) for d in {1, 2, 3, 7, 11}."""

    _instances: dict[int, "Field"] = {}

    def __init__(self, d: int) -> None:
        if d not in EUCLIDEAN_D:
            raise ValueError(f"no Euclidean imaginary quadratic field for d={d}")
        self.d = d
        self.t = 1 if d % 4 == 3 else 0  # omega^2 = t*omega - m
        self.m = (1 + d) // 4 if self.t else d
        self.disc = self.t * self.t - 4 * self.m
        if self.t:
            self.euclid_ratio = Fraction((1 + d) ** 2, 16 * d)
        else:
            self.euclid_ratio = Fraction(1 + d, 4)
        # the same ratio as plain ints (numerator, denominator) for divide_ints
        self.euclid_bound = (self.euclid_ratio.numerator, self.euclid_ratio.denominator)
        self.zero = QuadInt(self, 0, 0)
        self.one = QuadInt(self, 1, 0)
        self.omega = QuadInt(self, 0, 1)
        units = [(1, 0), (-1, 0)]
        if d == 1:
            units += [(0, 1), (0, -1)]
        elif d == 3:
            units += [(0, 1), (-1, 1), (0, -1), (1, -1)]
        self.units = tuple(QuadInt(self, a, b) for a, b in units)
        self.omega_complex = complex(self.t / 2, math.sqrt(4 * self.m - self.t * self.t) / 2)
        self.sqrt_abs_disc = math.sqrt(4 * self.m - self.t * self.t)

    @classmethod
    def get(cls, d: int) -> Field:
        fld = cls._instances.get(d)
        if fld is None:
            fld = cls._instances[d] = cls(d)
        return fld

    def elt(self, a: int, b: int = 0) -> QuadInt:
        return QuadInt(self, a, b)

    def from_int(self, n: int) -> QuadInt:
        return QuadInt(self, n, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("Field", self.d))

    def __repr__(self) -> str:
        return f"Field(d={self.d})"


class QuadInt:
    """Element a + b*omega of one of the five rings."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: int, b: int) -> None:
        self.field = field
        self.a = a
        self.b = b

    # callers never mix fields, so the hot arithmetic path skips field checks

    def __add__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.field, self.a + other, self.b)
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.field, self.a - other, self.b)
        return QuadInt(self.field, self.a - other.a, self.b - other.b)

    def __rsub__(self, other: int) -> QuadInt:
        return QuadInt(self.field, other - self.a, -self.b)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt(self.field, self.a * other, self.b * other)
        fld = self.field
        be = self.b * other.b
        return QuadInt(
            fld,
            self.a * other.a - fld.m * be,
            self.a * other.b + self.b * other.a + fld.t * be,
        )

    __rmul__ = __mul__

    def __neg__(self) -> QuadInt:
        return QuadInt(self.field, -self.a, -self.b)

    def __pow__(self, n: int) -> QuadInt:
        if n < 0:
            raise ValueError("negative powers are not integral")
        out, base = self.field.one, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadInt):
            return NotImplemented
        return self.field.d == other.field.d and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.field.d, self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def conj(self) -> QuadInt:
        return QuadInt(self.field, self.a + self.field.t * self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.field.t * self.a * self.b + self.field.m * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + self.field.t * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def sort_key(self) -> tuple[int, int, int]:
        return (self.norm(), self.a, self.b)

    def to_complex(self) -> complex:
        return self.a + self.b * self.field.omega_complex

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        w = "w" if b == 1 else "-w" if b == -1 else f"{b}w"
        if a == 0:
            return w
        return f"{a}+{w}" if b > 0 else f"{a}{w}"

    __repr__ = __str__


class InvariantError(RuntimeError):
    """A load-bearing invariant of the exact arithmetic failed.

    Raised explicitly rather than asserted, so the check survives python -O;
    the command line maps it to exit code 3.
    """


def divide_ints(fld: Field, aa: int, ab: int, ba: int, bb: int,
                tie: str = "low") -> tuple[int, int, int, int]:
    """Division with remainder on coordinates: (qa, qb, ra, rb) with
    aa + ab*omega = (qa + qb*omega)(ba + bb*omega) + ra + rb*omega.

    q is a lattice point nearest to the exact quotient a/b.  A nearest point
    always sits on a corner of the unit coordinate cell containing a/b, so
    only the four floor/ceil corners are tried.  Ties on N(r) resolve to the
    lexicographically least (qa, qb) for tie="low", greatest for "high".
    Raises InvariantError when N(r) exceeds euclid_ratio * N(b).
    """
    t, m = fld.t, fld.m
    den = ba * ba + t * ba * bb + m * bb * bb
    if not den:
        raise ZeroDivisionError("division by zero element")
    if tie not in ("low", "high"):
        raise ValueError(f"unknown tie rule {tie!r}")
    high = tie == "high"
    # a * conj(b), with conj(b) = (ba + t*bb) - bb*omega
    ct = ba + t * bb
    fa, xa = divmod(aa * ct + m * ab * bb, den)
    fb, xb = divmod(ab * ct - aa * bb - t * ab * bb, den)
    best = None
    # the corners come in ascending (qa, qb) order, so on equal norms the
    # first one is the least and the last one the greatest
    for qa in (fa,) if xa == 0 else (fa, fa + 1):
        for qb in (fb,) if xb == 0 else (fb, fb + 1):
            qbb = qb * bb
            ra = aa - qa * ba + m * qbb
            rb = ab - qa * bb - qb * ba - t * qbb
            rn = ra * ra + t * ra * rb + m * rb * rb
            if best is None or rn < best[0] or (high and rn == best[0]):
                best = (rn, qa, qb, ra, rb)
    rn, qa, qb, ra, rb = best
    num, dnm = fld.euclid_bound
    if rn * dnm > num * den:
        raise InvariantError(f"remainder norm {rn} exceeds the Euclidean bound "
                             f"for the divisor norm {den} (d={fld.d})")
    return qa, qb, ra, rb


def euclidean_division(a: QuadInt, b: QuadInt, tie: str = "low") -> tuple[QuadInt, QuadInt]:
    """Divide with remainder: a = q*b + r and N(r) <= euclid_ratio * N(b).

    The QuadInt form of divide_ints, which holds the candidates, the tie
    rule and the bound check.
    """
    fld = a.field
    qa, qb, ra, rb = divide_ints(fld, a.a, a.b, b.a, b.b, tie)
    return QuadInt(fld, qa, qb), QuadInt(fld, ra, rb)


def divides(d0: QuadInt, x: QuadInt) -> bool:
    if d0.is_zero():
        return x.is_zero()
    return euclidean_division(x, d0)[1].is_zero()


def exact_div(a: QuadInt, b: QuadInt) -> QuadInt:
    q, r = euclidean_division(a, b)
    if not r.is_zero():
        raise ValueError(f"{b} does not divide {a}")
    return q


def xgcd(a: QuadInt, b: QuadInt) -> tuple[QuadInt, QuadInt, QuadInt]:
    """Return (g, x, y) with a*x + b*y = g and g the canonical gcd."""
    fld = a.field
    r0, r1 = a, b
    x0, x1 = fld.one, fld.zero
    y0, y1 = fld.zero, fld.one
    while not r1.is_zero():
        q, r = euclidean_division(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    g, u = canonical_associate(r0)
    ui = u.conj()  # the inverse of a unit is its conjugate
    return g, x0 * ui, y0 * ui


def gcd(a: QuadInt, b: QuadInt) -> QuadInt:
    return xgcd(a, b)[0]


def coprime(a: QuadInt, b: QuadInt) -> bool:
    """gcd(a, b) is a unit.  A prime dividing both has a norm dividing both
    norms, so coprime norms decide it without the Euclidean gcd."""
    return math.gcd(a.norm(), b.norm()) == 1 or gcd(a, b).is_unit()


def inverse_mod(x: QuadInt, delta: QuadInt) -> QuadInt:
    """Inverse of x modulo delta, reduced to the residue box."""
    g, s, _ = xgcd(x, delta)
    if not g.is_unit():
        raise ValueError("element is not invertible modulo delta")
    return reduce_mod(s * g.conj(), delta)


def canonical_associate(x: QuadInt) -> tuple[QuadInt, QuadInt]:
    """Return (x0, u) with x = u * x0 and x0 the chosen orbit representative.

    The representative is the associate with lexicographically greatest
    coordinate pair (a, b); for x = 0 it is (0, 1).
    """
    if x.is_zero():
        return x, x.field.one
    best = best_u = None
    for u in x.field.units:
        y = u.conj() * x  # y = x / u
        if best is None or (y.a, y.b) > (best.a, best.b):
            best, best_u = y, u
    return best, best_u


def is_rational_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def rational_prime_factors(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division."""
    if n <= 0:
        raise ValueError("need a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_mod(a: int, p: int) -> int:
    # a square root of the nonzero square a modulo the odd prime p, by
    # Tonelli-Shanks (Cohen, GTM 138, Algorithm 1.5.1)
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while not q % 2:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


@lru_cache(maxsize=None)
def _omega_roots_mod(d: int, p: int) -> tuple[int, ...]:
    """The roots of x^2 - t*x + m modulo the rational prime p, ascending.

    For odd p they are (t +- sqrt(t^2 - 4m)) / 2, with the square root by
    Tonelli-Shanks after Euler's criterion, so the cost is O(log p) modular
    products; p = 2 is scanned.
    """
    fld = Field.get(d)
    t, m = fld.t, fld.m
    if p == 2:
        return tuple(s for s in range(2) if (s * s - t * s + m) % 2 == 0)
    disc = (t * t - 4 * m) % p
    half = (p + 1) // 2  # the inverse of 2
    if not disc:
        return (t * half % p,)
    if pow(disc, (p - 1) // 2, p) != 1:
        return ()
    r = _sqrt_mod(disc, p)
    return tuple(sorted(((t + r) * half % p, (t - r) * half % p)))


@lru_cache(maxsize=None)
def primes_above(fld: Field, p: int) -> tuple[QuadInt, ...]:
    """Canonical primes of the ring dividing the rational prime p."""
    roots = _omega_roots_mod(fld.d, p)
    if not roots:
        return (fld.from_int(p),)
    out = []
    for s in roots:
        pi = gcd(fld.from_int(p), fld.omega - s)
        if pi.norm() != p:
            raise InvariantError(f"prime {pi} above {p} has norm {pi.norm()} (d={fld.d})")
        out.append(pi)
    out.sort(key=QuadInt.sort_key)
    return tuple(out)


def is_prime_element(x: QuadInt) -> bool:
    """True when x generates a prime of the ring."""
    n = x.norm()
    if n <= 1:
        return False
    if is_rational_prime(n):
        return True
    p = math.isqrt(n)
    if p * p != n or not is_rational_prime(p):
        return False
    # a prime of norm p^2 is a unit times an inert rational prime
    return not _omega_roots_mod(x.field.d, p) and canonical_associate(x)[0] == x.field.from_int(p)


def factorize(x: QuadInt) -> tuple[QuadInt, list[tuple[QuadInt, int]]]:
    """Write x = u * prod(pi**ei) with u a unit and pi canonical primes.

    The prime/exponent pairs come back sorted by (norm, a, b).
    """
    if x.is_zero():
        raise ValueError("zero has no factorization")
    fld = x.field
    pairs = []
    y = x
    for p in sorted(rational_prime_factors(x.norm())):
        for pi in primes_above(fld, p):
            e = 0
            q, r = euclidean_division(y, pi)
            while r.is_zero():
                y = q
                e += 1
                q, r = euclidean_division(y, pi)
            if e:
                pairs.append((pi, e))
    if not y.is_unit():
        raise InvariantError(f"factorization of {x} leaves the non-unit {y} (d={fld.d})")
    pairs.sort(key=lambda pe: pe[0].sort_key())
    return y, pairs


def divisors_up_to_units(x: QuadInt) -> list[QuadInt]:
    """One canonical divisor per unit orbit, sorted by (norm, a, b)."""
    _, pairs = factorize(x)
    divs = [x.field.one]
    for pi, e in pairs:
        divs = [d0 * pi**k for d0 in divs for k in range(e + 1)]
    return sorted({canonical_associate(z)[0] for z in divs}, key=QuadInt.sort_key)


def elements_of_norm(fld: Field, n: int) -> list[QuadInt]:
    """All ring elements of norm n, sorted by (a, b)."""
    if n < 0:
        return []
    if n == 0:
        return [fld.zero]
    out = []
    t, m = fld.t, fld.m
    disc = 4 * m - t * t
    # a^2 + t*a*b + m*b^2 = n  <=>  (2a + t*b)^2 + disc*b^2 = 4n
    for b in range(-math.isqrt(4 * n // disc), math.isqrt(4 * n // disc) + 1):
        s2 = 4 * n - disc * b * b
        if s2 < 0:
            continue
        s = math.isqrt(s2)
        if s * s != s2:
            continue
        for sgn in (s, -s) if s else (s,):
            num = sgn - t * b
            if num % 2 == 0:
                out.append(fld.elt(num // 2, b))
    out.sort(key=lambda z: (z.a, z.b))
    return out


def canonical_elements_of_norm(fld: Field, n: int) -> list[QuadInt]:
    """Canonical associates of the norm-n elements, sorted by (a, b)."""
    orbit_reps = {canonical_associate(x)[0] for x in elements_of_norm(fld, n)}
    return sorted(orbit_reps, key=QuadInt.sort_key)


@lru_cache(maxsize=None)
def hnf_module(delta: QuadInt) -> tuple[int, int, int]:
    """Row Hermite form ((e11, e12), (0, e22)) of the sublattice delta*O."""
    if delta.is_zero():
        raise ValueError("zero modulus")
    fld = delta.field
    r1 = (delta.a, delta.b)
    r2 = (-fld.m * delta.b, delta.a + fld.t * delta.b)  # coordinates of delta*omega
    while r2[0]:
        q = r1[0] // r2[0]
        r1, r2 = r2, (r1[0] - q * r2[0], r1[1] - q * r2[1])
    e11, e12 = (-r1[0], -r1[1]) if r1[0] < 0 else r1
    e22 = abs(r2[1])
    e12 %= e22
    if e11 * e22 != delta.norm():
        raise InvariantError(f"Hermite form ({e11}, {e12}, {e22}) of {delta} does not have "
                             f"index {delta.norm()} (d={fld.d})")
    return e11, e12, e22


def reduce_mod(x: QuadInt, delta: QuadInt) -> QuadInt:
    """The Hermite-box representative of x modulo delta."""
    e11, e12, e22 = hnf_module(delta)
    k = x.a // e11
    return QuadInt(x.field, x.a - k * e11, (x.b - k * e12) % e22)


@lru_cache(maxsize=None)
def residues_mod(delta: QuadInt) -> tuple[QuadInt, ...]:
    """A transversal of the residue classes mod delta (the Hermite box)."""
    e11, _, e22 = hnf_module(delta)
    fld = delta.field
    return tuple(QuadInt(fld, i, j) for i in range(e11) for j in range(e22))


def parse_element(fld: Field, text: str) -> QuadInt:
    """Parse "a+bw" style element strings ("w", "-w", "3w", "2-3*w", "5", ...)."""
    s = text.strip().replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty element string")
    tokens = re.findall(r"[+-]?[0-9w]+", s)
    if sum(len(tk) for tk in tokens) != len(s):
        raise ValueError(f"cannot parse element {text!r}")
    a = b = 0
    for tk in tokens:
        sign = -1 if tk[0] == "-" else 1
        body = tk.lstrip("+-")
        if body.endswith("w"):
            digits = body[:-1]
            if "w" in digits:
                raise ValueError(f"cannot parse element {text!r}")
            b += sign * (int(digits) if digits else 1)
        elif body.isdigit():
            a += sign * int(body)
        else:
            raise ValueError(f"cannot parse element {text!r}")
    return fld.elt(a, b)

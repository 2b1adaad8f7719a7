"""Cross-checks that rebuild each pipeline stage from an independent angle.

Each check returns a CheckResult so the command line tool and the test
battery share one implementation: division contracts against exhaustive
quotient search, point counts against brute-force pair enumeration,
telescoping certificates, coset-definition Hecke operators, commutation,
dimension bookkeeping, the boundary bridge, the coefficient identity behind
the Fourier tables, Bessel values against frozen quadrature constants, and
automorphy residuals of the assembled series.

A check is a function whose body returns (ok, detail, data) under
@_check(name), which times it, wraps the triple in a CheckResult and files
it in CHECKS in definition order, the order the suite runs.  Its reduced
keyword arguments for `verify --quick` go under the same name in QUICK.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

from .boundary import (
    boundary_matrix,
    boundary_of_gen,
    cusp_class,
    cuspidal_subspace,
)
from .fourier import (
    DualFunctional,
    H3Point,
    _sym2_untwist,
    act_h3,
    automorphy_residual,
    bessel_K,
    eval_series,
    fourier_coefficients,
    functional_slash,
    seed_from_vector,
)
from .hecke import (
    commute_check,
    eigensystems,
    hecke_on_manin,
    hecke_operators,
    hecke_oracle,
    heilbronn_actions,
)
from .heilbronn import (
    DEFAULT_TIE,
    class_path_sums,
    heilbronn_classes,
    heilbronn_family,
    telescoping_ok,
)
from .linalg import Subspace, kernel, vec_axpy, vec_dot
from .quadints import (
    Field,
    QuadInt,
    canonical_elements_of_norm,
    coprime,
    divides,
    euclidean_division,
    gcd,
    is_prime_element,
    parse_element,
    residues_mod,
)
from .symbols import (
    Mat2,
    cusp_count,
    enumerate_points,
    lift_to_sl2,
    normalize_cusp,
    point_count_formula,
    symbol_space,
)

FIELDS = tuple(Field.get(d) for d in (1, 2, 3, 7, 11))

# K_j(1) from 30-digit quadrature of exp(-t cosh u) cosh(ju) over [0, acosh(60/t)+1]
BESSEL_K0_AT_1 = 0.42102443824070833334
BESSEL_K1_AT_1 = 0.60190723019723457474

DEFAULT_ORACLE_CASES = (
    (1, "3", "1+1w"),
    (1, "2+1w", "1+1w"),
    (1, "3", "2"),
    (2, "1+1w", "w"),
    (3, "2", "1+1w"),
    (7, "w", "1+1w"),
    (11, "2", "w"),
)

DEFAULT_COMMUTE_LEVELS = ((1, "3"), (2, "1+1w"), (3, "2"), (7, "w"), (11, "1-2w"))

# smallest level found with a one-dimensional rational eigensystem
REFERENCE_FORM = (11, "1-2w", 8)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    data: dict
    seconds: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "data": self.data,
            "seconds": round(self.seconds, 3),
        }


# name -> check, filled by @_check in definition order
CHECKS: dict = {}


def _check(name: str):
    """Register a check body returning (ok, detail, data) under name; the
    registered function times the body and returns its CheckResult."""
    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            ok, detail, data = body(*args, **kwargs)
            return CheckResult(name, ok, detail, data, time.perf_counter() - t0)

        CHECKS[name] = run
        return run

    return register


def _canonical_levels(fld: Field, bound: int) -> list[QuadInt]:
    out: list[QuadInt] = []
    for n in range(1, bound + 1):
        out.extend(canonical_elements_of_norm(fld, n))
    return out


def _levels(bound: int):
    """(field, level) over every canonical level up to norm bound, field by field."""
    return ((fld, nu) for fld in FIELDS for nu in _canonical_levels(fld, bound))


def _coprime_etas(fld: Field, nu: QuadInt, count: int, bound: int = 60) -> list[QuadInt]:
    out: list[QuadInt] = []
    for n in range(2, bound + 1):
        for e in canonical_elements_of_norm(fld, n):
            if coprime(e, nu):
                out.append(e)
                if len(out) == count:
                    return out
    raise ValueError("not enough coprime etas below the bound")


@_check("division")
def check_division(samples: int = 10000, exhaustive: int = 500, seed: int = 0):
    """Remainder contraction on random pairs, plus exhaustive quotient search."""
    rng = random.Random(seed)
    fail = None
    done = 0
    for fld in FIELDS:
        ratio = fld.euclid_ratio
        count = 0
        while count < samples and fail is None:
            a = fld.elt(rng.randint(-99, 99), rng.randint(-99, 99))
            b = fld.elt(rng.randint(-40, 40), rng.randint(-40, 40))
            if b.is_zero():
                continue
            q, r = euclidean_division(a, b)
            if q * b + r != a or Fraction(r.norm()) > ratio * b.norm():
                fail = {"d": fld.d, "a": str(a), "b": str(b), "r": str(r)}
            count += 1
            done += 1
    searched = 0
    for fld in FIELDS:
        count = 0
        while count < exhaustive // len(FIELDS) and fail is None:
            a = fld.elt(rng.randint(-12, 12), rng.randint(-12, 12))
            b = fld.elt(rng.randint(-6, 6), rng.randint(-6, 6))
            if b.is_zero():
                continue
            count += 1
            q, r = euclidean_division(a, b)
            best = min(
                (a - b * fld.elt(q.a + i, q.b + j)).norm()
                for i in range(-3, 4)
                for j in range(-3, 4)
            )
            if r.norm() != best:
                fail = {"d": fld.d, "a": str(a), "b": str(b), "best": best}
            searched += 1
    return (fail is None,
            f"{done} random pairs within the contraction bound, "
            f"{searched} exhaustive minima matched",
            {"fail": fail} if fail else {"random": done, "exhaustive": searched})


@_check("point-counts")
def check_point_counts(norm_bound: int = 50):
    """Unimodular pairs: the prime sieve vs a gcd scan vs the norm formula.

    The sieve's list must equal the scan's pair for pair, in order, and its
    length must equal the formula.  The scan keeps (u, v) when gcd(g, v) is
    a unit for g = gcd(u, nu), which shares nothing with the sieve's prime
    masks.
    """
    fail = None
    tested = 0
    for fld, nu in _levels(norm_bound):
        pts = enumerate_points(fld, nu)
        formula = point_count_formula(fld, nu)
        reps = residues_mod(nu)
        # gcd(gcd(u, v), nu) is a unit exactly when gcd(gcd(u, nu), v) is,
        # so gcd(u, nu) is taken once per u
        brute = []
        for u in reps:
            g = gcd(u, nu)
            brute += [(u, v) for v in reps if g.is_unit() or gcd(g, v).is_unit()]
        tested += 1
        if pts != brute or len(pts) != formula:
            i = next((i for i, (p, b) in enumerate(zip(pts, brute)) if p != b),
                     min(len(pts), len(brute)))
            fail = {
                "d": fld.d,
                "n": str(nu),
                "enumerated": len(pts),
                "formula": formula,
                "brute": len(brute),
                "first_difference": {
                    "index": i,
                    "enumerated": _pair_json(pts, i),
                    "brute": _pair_json(brute, i),
                },
            }
            break
    return (fail is None,
            f"{tested} levels up to norm {norm_bound} in all five fields",
            {"fail": fail} if fail else {"levels": tested})


def _pair_json(pairs: list, i: int) -> list[str] | None:
    return [str(x) for x in pairs[i]] if i < len(pairs) else None


@_check("telescoping")
def check_telescoping(norm_bound: int = 20, tie: str = "low", inject: bool = False):
    """Every class path sum equals [oo] - [0]; inject=True is the negative
    control that corrupts one matrix and expects the certificate to fail."""
    if inject:
        return _telescoping_negative_control(tie)
    fail = None
    families = classes = 0
    for fld, eta in _levels(norm_bound):
        if not telescoping_ok(eta, tie):
            fail = {"d": fld.d, "eta": str(eta)}
            break
        families += 1
        classes += len(heilbronn_classes(eta, tie))
    return (fail is None,
            f"{families} families, {classes} classes telescoped",
            {"fail": fail} if fail else {"families": families, "classes": classes})


def _telescoping_negative_control(tie: str):
    # perturb one matrix entry; the corrupted class must stop telescoping
    fld = Field.get(1)
    eta = fld.from_int(3)
    fam = list(heilbronn_family(eta, tie))
    m = Mat2.from_row(fld, fam[0])
    fam[0] = Mat2(m.a, m.b + fld.one, m.c, m.d).row()
    inf = normalize_cusp(fld.one, fld.zero)
    zero = normalize_cusp(fld.zero, fld.one)
    broken = [k for k, s in enumerate(class_path_sums(eta, tie, fam))
              if s != {inf: 1, zero: -1}]
    ok = bool(broken)
    return (ok,
            "corrupted matrix detected" if ok else "corruption went unnoticed",
            {"d": 1, "eta": "3", "broken_classes": broken})


@_check("heilbronn-invariants")
def check_heilbronn_invariants(norm_bound: int = 20, tie: str = "low"):
    """Determinants, norm inequalities, and prime class counts N(pi) + 1."""
    fail = None
    matrices = primes = 0
    for fld, eta in _levels(norm_bound):
        for row in heilbronn_family(eta, tie):
            m = Mat2.from_row(fld, row)
            good = (
                m.det() == eta
                and m.a.norm() > m.b.norm() >= 0
                and m.d.norm() > m.c.norm() >= 0
            )
            if not good:
                fail = {"d": fld.d, "eta": str(eta), "matrix": [str(e) for e in m.entries()]}
                break
            matrices += 1
        if fail is None and is_prime_element(eta):
            primes += 1
            if len(heilbronn_classes(eta, tie)) != eta.norm() + 1:
                fail = {"d": fld.d, "eta": str(eta), "classes": len(heilbronn_classes(eta, tie))}
        if fail:
            break
    return (fail is None,
            f"{matrices} matrices checked, {primes} prime class counts",
            {"fail": fail} if fail else {"matrices": matrices, "primes": primes})


@_check("hecke-oracle")
def check_hecke_oracle(cases=DEFAULT_ORACLE_CASES):
    """Heilbronn route equals the coset-definition operator, matrix for matrix."""
    fail = None
    for d, level, eta_s in cases:
        fld = Field.get(d)
        space = symbol_space(fld, parse_element(fld, level), 2)
        eta = parse_element(fld, eta_s)
        prod = hecke_on_manin(space, eta)
        orac = hecke_oracle(space, eta)
        if prod.matrix != orac.matrix or prod.cuspidal_matrix != orac.cuspidal_matrix:
            fail = {"d": d, "level": level, "eta": eta_s}
            break
    fields = len({c[0] for c in cases})
    return (fail is None,
            f"{len(cases)} (level, eta) pairs across {fields} fields",
            {"fail": fail} if fail else {"pairs": len(cases), "fields": fields})


@_check("commutativity")
def check_commutativity(levels=DEFAULT_COMMUTE_LEVELS, pairs: int = 10):
    """Exact commutation of coprime operator pairs on each tested level."""
    need = 2
    while need * (need - 1) // 2 < pairs:
        need += 1
    fail = None
    total = 0
    for d, level in levels:
        fld = Field.get(d)
        nu = parse_element(fld, level)
        space = symbol_space(fld, nu, 2)
        ops = hecke_operators(space, _coprime_etas(fld, nu, need))
        for a, b in islice(combinations(ops, 2), pairs):
            if not commute_check(a, b):
                fail = {"d": d, "level": level, "etas": [str(a.eta), str(b.eta)]}
                break
            total += 1
        if fail:
            break
    return (fail is None,
            f"{total} coprime pairs over {len(levels)} levels",
            {"fail": fail} if fail else {"pairs": total, "levels": len(levels)})


@_check("dimension-identity")
def check_dimension_identity(norm_bound: int = 13):
    """dim M_2 = dim S_2 + (#cusps - 1), both sides computed independently."""
    fail = None
    tested = 0
    for fld, nu in _levels(norm_bound):
        space = symbol_space(fld, nu, 2)
        cusps = cusp_count(space)
        if space.dim != cuspidal_subspace(space).dim + (cusps - 1):
            fail = {"d": fld.d, "level": str(nu), "dim": space.dim,
                    "cuspidal": cuspidal_subspace(space).dim, "cusps": cusps}
            break
        tested += 1
    return (fail is None,
            f"{tested} levels up to norm {norm_bound}",
            {"fail": fail} if fail else {"levels": tested})


@_check("boundary-bridge")
def check_boundary_bridge(norm_bound: int = 13, weight_k=((3, 8), (4, 8))):
    """The cusp-orbit pass against cusp_class on ring elements, the pair
    formula against lifted cusps, and the cuspidal subspace against the
    kernel of the labelled boundary_matrix, at weight 2 to norm_bound and
    at each (weight, norm bound) of weight_k.

    Each point is lifted to g, and cusp_class gives g*oo and g*0 their
    (key, twist).  The point stands for g*oo and its S image for g*0, each
    with the pass's (orbit, exponent e), and over all of them: a cusp is
    dead (key None) exactly where e is -1; the live (orbit, key) pairs are
    a bijection between the live orbits and the keys; and twist / tau^e,
    tau = zeta^(k-2) (SymbolSpace._set_cusp_pass), is one unit on each
    orbit.  None of this reads the pass's moves, so the orbits, the dead set
    and the twists orbit_boundary reads are each checked.  boundary_of_gen
    must give the lifted boundary on the generators 1 * X^(k-2) and
    1 * Y^(k-2) at the point, one generator at weight 2.
    """
    fail = None
    points = 0
    for weight, bound in ((2, norm_bound), *weight_k):
        for fld, nu in _levels(bound):
            if weight % 2 and divides(nu, fld.from_int(2)):
                # odd weights vanish at such levels
                continue
            space = symbol_space(fld, nu, weight)
            fault = _bridge_fault(space)
            if fault is None:
                cusp = cuspidal_subspace(space)
                labelled = Subspace(space.dim, kernel(boundary_matrix(space)[1], space.dim))
                if (cusp.basis, cusp.pivots) != (labelled.basis, labelled.pivots):
                    fault = {"kernel": "differs"}
            if fault is not None:
                fail = {"d": fld.d, "level": str(nu), "weight": weight, **fault}
                break
            points += space.npts
        if fail:
            break
    bounds = ", ".join(f"weight {w} to norm {b}" for w, b in ((2, norm_bound), *weight_k))
    return (fail is None,
            f"{points} points bridged: {bounds}",
            {"fail": fail} if fail else {"points": points})


def _bridge_fault(space) -> dict | None:
    # check_boundary_bridge's per-point comparisons at one space: None, or
    # what differs and at which point
    fld, nu, npts = space.field, space.level, space.npts
    orbit, s_image, twist = (a.tolist() for a in space.cusp_pass)
    deg = space.weight - 2
    tau = space.J.a ** deg
    classes: dict = {}
    key_of: dict = {}
    orbit_of: dict = {}
    unit_of: dict = {}
    for idx, (u, v) in enumerate(space.points):
        g = lift_to_sl2(fld, nu, u, v)
        inf, zero = cusp_class(space, g.a, g.c), cusp_class(space, g.b, g.d)
        # generator (1 * X^(k-2), point) carries g*oo, (1 * Y^(k-2), point)
        # -g*0; they are one generator at weight 2
        top = 2 * deg * npts + idx
        want: dict = {top: {}, idx: {}}
        for gen, sign, (key, tw) in ((top, 1, inf), (idx, -1, zero)):
            if key is not None:
                vec_axpy(want[gen], sign, {(key, 0): tw.a, (key, 1): tw.b})
        if any(boundary_of_gen(space, gen, classes) != b for gen, b in want.items()):
            return {"point": idx, "boundary": "differs"}
        for pt, (key, tw) in ((idx, inf), (s_image[idx], zero)):
            o, e = orbit[pt], twist[pt]
            if (key is None) != (e < 0):
                return {"point": idx, "dead": "differs"}
            if key is None:
                continue
            if key_of.setdefault(o, key) != key or orbit_of.setdefault(key, o) != o:
                return {"point": idx, "partition": "differs"}
            # tau^e is a unit, so its inverse is its conjugate
            unit = tw * (tau ** e).conj()
            if unit_of.setdefault(o, unit) != unit:
                return {"point": idx, "twist": "differs"}
    live = len({o for o, e in zip(orbit, twist) if e >= 0})
    if len(orbit_of) != live:
        return {"partition": "differs", "labels": len(orbit_of), "cusps": live}
    return None


def reference_form(d: int = REFERENCE_FORM[0], level: str = REFERENCE_FORM[1],
                   eta_count: int = REFERENCE_FORM[2]):
    """Space and rational eigensystems at the reference level."""
    fld = Field.get(d)
    nu = parse_element(fld, level)
    space = symbol_space(fld, nu, 2)
    table = eigensystems(space, _coprime_etas(fld, nu, eta_count))
    systems = [s for s in table.systems if s.vector is not None]
    if not systems:
        raise ValueError("reference level has no rational eigensystem")
    return space, systems


@_check("coefficient-identity")
def check_coefficient_identity(d: int = REFERENCE_FORM[0], level: str = REFERENCE_FORM[1],
                               norm_bound: int = 30):
    """Slash sums over whole families equal the assembled operator applied to
    the seed, for every rational eigenfunctional and every determinant; the
    coefficient table agrees with the operator at every unit multiple."""
    space, systems = reference_form(d, level)
    fld = space.field
    fail = None
    checked = 0
    for system in systems:
        phi = DualFunctional(space, system.functional)
        x = seed_from_vector(space, system.vector)
        v = x.quotient_vector()
        table = fourier_coefficients(phi, x, norm_bound)
        for eta in _canonical_levels(fld, norm_bound):
            lhs = functional_slash(phi, heilbronn_family(eta, DEFAULT_TIE), x)
            # phi(T_alpha v) at every unit multiple, eta's own one included
            alphas = [u * eta for u in fld.units]
            ops = {alpha: vec_dot(phi.coefficients, mat.matvec(v))
                   for alpha, mat in zip(alphas, heilbronn_actions(space, alphas))}
            rhs = ops[eta]
            if lhs != rhs:
                fail = {"d": d, "level": level, "eta": str(eta),
                        "slash_sum": str(lhs), "operator": str(rhs)}
                break
            alpha = next((a for a, op in ops.items() if table.entries[a] != op), None)
            if alpha is not None:
                fail = {"d": d, "level": level, "eta": str(alpha),
                        "table": str(table.entries[alpha]), "operator": str(ops[alpha])}
                break
            checked += 1
        if fail:
            break
    return (fail is None,
            f"{checked} determinants up to norm {norm_bound}, "
            f"{len(systems)} rational functionals at d={d} level {level}",
            {"fail": fail} if fail else {"determinants": checked, "functionals": len(systems)})


@_check("bessel")
def check_bessel():
    """Frozen quadrature values at 1, and K0' = -K1 by central differences."""
    e0 = abs(bessel_K(0, 1.0) - BESSEL_K0_AT_1)
    e1 = abs(bessel_K(1, 1.0) - BESSEL_K1_AT_1)
    h = 1e-6
    defect = 0.0
    for t in (0.5, 1.0, 2.0):
        deriv = (bessel_K(0, t + h) - bessel_K(0, t - h)) / (2 * h)
        defect = max(defect, abs(deriv + bessel_K(1, t)))
    ok = e0 < 1e-10 and e1 < 1e-10 and defect < 1e-6
    return (ok, "values at 1 within 1e-10, derivative identity within 1e-6",
            {"err_k0": e0, "err_k1": e1, "derivative_defect": defect})


@_check("automorphy")
def check_automorphy(d: int = REFERENCE_FORM[0], level: str = REFERENCE_FORM[1],
                     norm_bound: int = 250, generic: bool = True):
    """Transformation law of the assembled series: translations at five
    heights, then one matrix with a nonzero lower-left entry."""
    space, systems = reference_form(d, level)
    fld = space.field
    system = systems[0]
    phi = DualFunctional(space, system.functional)
    x = seed_from_vector(space, system.vector)
    table = fourier_coefficients(phi, x, norm_bound)
    worst = 0.0
    for t in (0.8, 1.1, 1.4, 1.7, 2.0):
        w = H3Point(0.1 + 0.2j, t)
        for mu in (fld.one, fld.omega):
            gam = Mat2(fld.one, mu, fld.zero, fld.one)
            worst = max(worst, automorphy_residual(table, gam, w))
    ok = worst < 1e-6
    data: dict = {"translation_worst": worst, "points": 5, "norm_bound": norm_bound}
    if generic:
        gam = Mat2(fld.one, fld.zero, space.level, fld.one)
        cc, dc = gam.c.to_complex(), gam.d.to_complex()
        # keep both heights in the convergent regime: near -d/c the exact
        # t' = t / (|cz+d|^2 + |c|^2 t^2) stays comparable to t
        w = H3Point(-dc / cc + 0.004 + 0.006j, 0.3)
        residual = automorphy_residual(table, gam, w)
        fw, tail_w = eval_series(table, w)
        _, tail_moved = eval_series(table, act_h3(gam, w))
        rows = _sym2_untwist(gam, w)
        anorm = max(sum(abs(e) for e in row) for row in rows)
        den = math.sqrt(sum(abs(c) ** 2 for c in fw))
        budget = math.sqrt(3) * (tail_w + math.sqrt(3) * anorm * tail_moved) / den + 1e-9
        ok = ok and residual < budget
        data.update({"generic_residual": residual, "generic_budget": budget})
    return ok, f"translations at 5 heights{' and one generic matrix' if generic else ''}", data

# reduced budgets for a fast smoke pass; automorphy keeps only the exact
# translation identities, whose residuals are truncation independent
QUICK = {
    "division": {"samples": 1000, "exhaustive": 100},
    "point-counts": {"norm_bound": 20},
    "telescoping": {"norm_bound": 10},
    "heilbronn-invariants": {"norm_bound": 10},
    "hecke-oracle": {"cases": DEFAULT_ORACLE_CASES[:3]},
    "commutativity": {"pairs": 3},
    "dimension-identity": {"norm_bound": 9},
    "boundary-bridge": {"norm_bound": 9, "weight_k": ((3, 5), (4, 5))},
    "coefficient-identity": {"norm_bound": 12},
    "automorphy": {"norm_bound": 40, "generic": False},
}


def suite_names(names=None) -> list[str]:
    """names, or every check when None; KeyError on the first unknown one."""
    picked = list(CHECKS) if names is None else list(names)
    for name in picked:
        if name not in CHECKS:
            raise KeyError(f"unknown check: {name}")
    return picked


def run_suite(names=None, quick: bool = False, progress=None) -> list[CheckResult]:
    results = []
    for name in suite_names(names):
        if progress is not None:
            progress(name)
        kwargs = QUICK.get(name, {}) if quick else {}
        results.append(CHECKS[name](**kwargs))
    return results

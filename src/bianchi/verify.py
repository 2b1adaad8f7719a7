"""Cross-checks that rebuild each pipeline stage from an independent angle.

Each check returns a CheckResult so the command line tool and the test
battery share one implementation: division contracts against exhaustive
quotient search, point counts against brute-force pair enumeration,
telescoping certificates, coset-definition Hecke operators, commutation,
dimension bookkeeping, the boundary bridge, the coefficient identity behind
the Fourier tables, Bessel values against frozen quadrature constants, and
automorphy residuals of the assembled series.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .boundary import (
    boundary_of_gen,
    cusp_label,
    cuspidal_subspace,
    true_boundary_matrix,
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
    hecke_oracle,
    heilbronn_action,
)
from .heilbronn import class_path_sums, heilbronn_classes, heilbronn_family, telescoping_ok
from .linalg import vec_axpy, vec_dot
from .quadints import (
    Field,
    QuadInt,
    canonical_elements_of_norm,
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


def _canonical_levels(fld: Field, bound: int) -> list[QuadInt]:
    out: list[QuadInt] = []
    for n in range(1, bound + 1):
        out.extend(canonical_elements_of_norm(fld, n))
    return out


def _coprime_etas(fld: Field, nu: QuadInt, count: int, bound: int = 60) -> list[QuadInt]:
    out: list[QuadInt] = []
    for n in range(2, bound + 1):
        for e in canonical_elements_of_norm(fld, n):
            if gcd(e, nu).is_unit():
                out.append(e)
                if len(out) == count:
                    return out
    raise ValueError("not enough coprime etas below the bound")


def check_division(samples: int = 10000, exhaustive: int = 500, seed: int = 0) -> CheckResult:
    """Remainder contraction on random pairs, plus exhaustive quotient search."""
    t0 = time.perf_counter()
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
    return CheckResult(
        "division",
        fail is None,
        f"{done} random pairs within the contraction bound, "
        f"{searched} exhaustive minima matched",
        {"fail": fail} if fail else {"random": done, "exhaustive": searched},
        time.perf_counter() - t0,
    )


def check_point_counts(norm_bound: int = 50) -> CheckResult:
    """Unimodular pair counts: enumeration vs brute force vs the norm formula."""
    t0 = time.perf_counter()
    fail = None
    tested = 0
    for fld in FIELDS:
        for nu in _canonical_levels(fld, norm_bound):
            pts = enumerate_points(fld, nu)
            formula = point_count_formula(fld, nu)
            reps = residues_mod(nu)
            brute = sum(
                1 for u in reps for v in reps if gcd(gcd(u, v), nu).is_unit()
            )
            tested += 1
            if not (len(pts) == formula == brute):
                fail = {
                    "d": fld.d,
                    "n": str(nu),
                    "enumerated": len(pts),
                    "formula": formula,
                    "brute": brute,
                }
                break
        if fail:
            break
    return CheckResult(
        "point-counts",
        fail is None,
        f"{tested} levels up to norm {norm_bound} in all five fields",
        {"fail": fail} if fail else {"levels": tested},
        time.perf_counter() - t0,
    )


def check_telescoping(norm_bound: int = 20, tie: str = "low", inject: bool = False) -> CheckResult:
    """Every class path sum equals [oo] - [0]; inject=True is the negative
    control that corrupts one matrix and expects the certificate to fail."""
    t0 = time.perf_counter()
    if inject:
        return _telescoping_negative_control(t0, tie)
    fail = None
    families = classes = 0
    for fld in FIELDS:
        for eta in _canonical_levels(fld, norm_bound):
            if not telescoping_ok(eta, tie):
                fail = {"d": fld.d, "eta": str(eta)}
                break
            families += 1
            classes += len(heilbronn_classes(eta, tie))
        if fail:
            break
    return CheckResult(
        "telescoping",
        fail is None,
        f"{families} families, {classes} classes telescoped",
        {"fail": fail} if fail else {"families": families, "classes": classes},
        time.perf_counter() - t0,
    )


def _telescoping_negative_control(t0: float, tie: str) -> CheckResult:
    # perturb one matrix entry; the corrupted class must stop telescoping
    fld = Field.get(1)
    eta = fld.from_int(3)
    fam = list(heilbronn_family(eta, tie))
    fam[0] = Mat2(fam[0].a, fam[0].b + fld.one, fam[0].c, fam[0].d)
    inf = normalize_cusp(fld.one, fld.zero)
    zero = normalize_cusp(fld.zero, fld.one)
    broken = [k for k, s in enumerate(class_path_sums(eta, tie, fam))
              if s != {inf: 1, zero: -1}]
    ok = bool(broken)
    return CheckResult(
        "telescoping",
        ok,
        "corrupted matrix detected" if ok else "corruption went unnoticed",
        {"d": 1, "eta": "3", "broken_classes": broken},
        time.perf_counter() - t0,
    )


def check_heilbronn_invariants(norm_bound: int = 20, tie: str = "low") -> CheckResult:
    """Determinants, norm inequalities, and prime class counts N(pi) + 1."""
    t0 = time.perf_counter()
    fail = None
    matrices = primes = 0
    for fld in FIELDS:
        for eta in _canonical_levels(fld, norm_bound):
            for m in heilbronn_family(eta, tie):
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
        if fail:
            break
    return CheckResult(
        "heilbronn-invariants",
        fail is None,
        f"{matrices} matrices checked, {primes} prime class counts",
        {"fail": fail} if fail else {"matrices": matrices, "primes": primes},
        time.perf_counter() - t0,
    )


def check_hecke_oracle(cases=DEFAULT_ORACLE_CASES) -> CheckResult:
    """Heilbronn route equals the coset-definition operator, matrix for matrix."""
    t0 = time.perf_counter()
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
    return CheckResult(
        "hecke-oracle",
        fail is None,
        f"{len(cases)} (level, eta) pairs across {fields} fields",
        {"fail": fail} if fail else {"pairs": len(cases), "fields": fields},
        time.perf_counter() - t0,
    )


def check_commutativity(levels=DEFAULT_COMMUTE_LEVELS, pairs: int = 10) -> CheckResult:
    """Exact commutation of coprime operator pairs on each tested level."""
    t0 = time.perf_counter()
    need = 2
    while need * (need - 1) // 2 < pairs:
        need += 1
    fail = None
    total = 0
    for d, level in levels:
        fld = Field.get(d)
        nu = parse_element(fld, level)
        space = symbol_space(fld, nu, 2)
        ops = [hecke_on_manin(space, e) for e in _coprime_etas(fld, nu, need)]
        done = 0
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if done >= pairs:
                    break
                if not commute_check(ops[i], ops[j]):
                    fail = {"d": d, "level": level,
                            "etas": [str(ops[i].eta), str(ops[j].eta)]}
                    break
                done += 1
                total += 1
            if fail or done >= pairs:
                break
        if fail:
            break
    return CheckResult(
        "commutativity",
        fail is None,
        f"{total} coprime pairs over {len(levels)} levels",
        {"fail": fail} if fail else {"pairs": total, "levels": len(levels)},
        time.perf_counter() - t0,
    )


def check_dimension_identity(norm_bound: int = 13) -> CheckResult:
    """dim M_2 = dim S_2 + (#cusps - 1), both sides computed independently."""
    t0 = time.perf_counter()
    fail = None
    tested = 0
    for fld in FIELDS:
        for nu in _canonical_levels(fld, norm_bound):
            space = symbol_space(fld, nu, 2)
            cusps = cusp_count(space)
            if space.dim != cuspidal_subspace(space).dim + (cusps - 1):
                fail = {"d": fld.d, "level": str(nu), "dim": space.dim,
                        "cuspidal": cuspidal_subspace(space).dim, "cusps": cusps}
                break
            tested += 1
        if fail:
            break
    return CheckResult(
        "dimension-identity",
        fail is None,
        f"{tested} levels up to norm {norm_bound}",
        {"fail": fail} if fail else {"levels": tested},
        time.perf_counter() - t0,
    )


def check_boundary_bridge(norm_bound: int = 13) -> CheckResult:
    """Pair formula equals the lifted-cusp boundary on every generator, and
    the cuspidal kernel dies under the orbit-level boundary."""
    t0 = time.perf_counter()
    fail = None
    gens = 0
    for fld in FIELDS:
        for nu in _canonical_levels(fld, norm_bound):
            space = symbol_space(fld, nu, 2)
            for idx in range(len(space.points)):
                u, v = space.points[idx]
                g = lift_to_sl2(fld, nu, u, v)
                lab_inf = cusp_label(space, g.a, g.c)
                lab_zero = cusp_label(space, g.b, g.d)
                expected: dict = {}
                if lab_inf is None or lab_zero is None:
                    fail = {"d": fld.d, "level": str(nu), "point": idx}
                    break
                vec_axpy(expected, Fraction(1), {(lab_inf, 0): Fraction(1)})
                vec_axpy(expected, Fraction(-1), {(lab_zero, 0): Fraction(1)})
                if boundary_of_gen(space, idx) != expected:
                    fail = {"d": fld.d, "level": str(nu), "point": idx}
                    break
                gens += 1
            if fail is None:
                tmat = true_boundary_matrix(space)
                for bvec in cuspidal_subspace(space).basis:
                    if tmat.matvec(bvec):
                        fail = {"d": fld.d, "level": str(nu), "kernel": "escapes"}
                        break
            if fail:
                break
        if fail:
            break
    return CheckResult(
        "boundary-bridge",
        fail is None,
        f"{gens} generators bridged up to norm {norm_bound}",
        {"fail": fail} if fail else {"generators": gens},
        time.perf_counter() - t0,
    )


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


def check_coefficient_identity(d: int = REFERENCE_FORM[0], level: str = REFERENCE_FORM[1],
                               norm_bound: int = 30, tie: str = "low") -> CheckResult:
    """Slash sums over whole families equal the assembled operator applied to
    the seed, for every rational eigenfunctional and every determinant."""
    t0 = time.perf_counter()
    space, systems = reference_form(d, level)
    fld = space.field
    fail = None
    checked = 0
    for system in systems:
        phi = DualFunctional(space, system.functional)
        x = seed_from_vector(space, system.vector)
        v = x.quotient_vector()
        for n in range(1, norm_bound + 1):
            for eta in canonical_elements_of_norm(fld, n):
                lhs = sum(
                    (functional_slash(phi, m, x) for m in heilbronn_family(eta, tie)),
                    Fraction(0),
                )
                rhs = vec_dot(phi.coefficients, heilbronn_action(space, eta, tie).matvec(v))
                if lhs != rhs:
                    fail = {"d": d, "level": level, "eta": str(eta),
                            "slash_sum": str(lhs), "operator": str(rhs)}
                    break
                checked += 1
            if fail:
                break
        if fail:
            break
    return CheckResult(
        "coefficient-identity",
        fail is None,
        f"{checked} determinants up to norm {norm_bound}, "
        f"{len(systems)} rational functionals at d={d} level {level}",
        {"fail": fail} if fail else {"determinants": checked, "functionals": len(systems)},
        time.perf_counter() - t0,
    )


def check_bessel() -> CheckResult:
    """Frozen quadrature values at 1, and K0' = -K1 by central differences."""
    t0 = time.perf_counter()
    e0 = abs(bessel_K(0, 1.0) - BESSEL_K0_AT_1)
    e1 = abs(bessel_K(1, 1.0) - BESSEL_K1_AT_1)
    h = 1e-6
    defect = 0.0
    for t in (0.5, 1.0, 2.0):
        deriv = (bessel_K(0, t + h) - bessel_K(0, t - h)) / (2 * h)
        defect = max(defect, abs(deriv + bessel_K(1, t)))
    ok = e0 < 1e-10 and e1 < 1e-10 and defect < 1e-6
    return CheckResult(
        "bessel",
        ok,
        "values at 1 within 1e-10, derivative identity within 1e-6",
        {"err_k0": e0, "err_k1": e1, "derivative_defect": defect},
        time.perf_counter() - t0,
    )


def check_automorphy(d: int = REFERENCE_FORM[0], level: str = REFERENCE_FORM[1],
                     norm_bound: int = 250, generic: bool = True,
                     tie: str = "low") -> CheckResult:
    """Transformation law of the assembled series: translations at five
    heights, then one matrix with a nonzero lower-left entry."""
    t0 = time.perf_counter()
    space, systems = reference_form(d, level)
    fld = space.field
    system = systems[0]
    phi = DualFunctional(space, system.functional)
    x = seed_from_vector(space, system.vector)
    table = fourier_coefficients(phi, x, norm_bound, tie)
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
    return CheckResult(
        "automorphy",
        ok,
        f"translations at 5 heights{' and one generic matrix' if generic else ''}",
        data,
        time.perf_counter() - t0,
    )


CHECKS = {
    "division": check_division,
    "point-counts": check_point_counts,
    "telescoping": check_telescoping,
    "heilbronn-invariants": check_heilbronn_invariants,
    "hecke-oracle": check_hecke_oracle,
    "commutativity": check_commutativity,
    "dimension-identity": check_dimension_identity,
    "boundary-bridge": check_boundary_bridge,
    "coefficient-identity": check_coefficient_identity,
    "bessel": check_bessel,
    "automorphy": check_automorphy,
}

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
    "boundary-bridge": {"norm_bound": 9},
    "coefficient-identity": {"norm_bound": 12},
    "automorphy": {"norm_bound": 40, "generic": False},
}


def run_suite(names=None, quick: bool = False, progress=None) -> list[CheckResult]:
    picked = list(CHECKS) if names is None else list(names)
    results = []
    for name in picked:
        if name not in CHECKS:
            raise KeyError(f"unknown check: {name}")
        if progress is not None:
            progress(name)
        kwargs = QUICK.get(name, {}) if quick else {}
        results.append(CHECKS[name](**kwargs))
    return results

"""The benchmark workloads: one single-threaded closed-loop caller each.

A workload builds its inputs from the seed and the pinned reference before
the clock starts, then calls into bianchi one operation at a time (the next
call only after the last one returned) and checks every result against
reference.json as it arrives.  The clock stops after the last result is
checked.

Each workload returns a dict with:
    wall_s      seconds from the first call to the last result checked
    op_s        per-operation latencies in seconds (the latency sample)
    attempted   checked results
    failed      results that raised or disagreed with the reference
    failures    the first few failures, for the report
    digest      sha256 over every result, independent of timing
    counters    workload-side counts (bytes of CLI output)
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import re
from fractions import Fraction
from time import perf_counter

SIZES = ("full", "tiny")

# (table norm bound, series evaluations)
EXPANSION_SIZE = {"full": (100, 1000), "tiny": (12, 40)}

# survey ops whose norm is at most this run in the tiny size
SURVEY_TINY_NORM = 4

TRANSLATION_HEIGHTS = (0.8, 1.1, 1.4, 1.7, 2.0)
EVAL_REL_TOL = 1e-9
AUTOMORPHY_TOL = 1e-6


class Checker:
    """Compares results with the pinned reference and digests them.

    With record=True it stores every result instead; pin.py uses that to
    write reference.json from the code as it stands.  With alter_first=True
    the first pinned value compared is altered: the negative control.
    """

    def __init__(self, expected: dict | None, record: bool = False,
                 alter_first: bool = False) -> None:
        self.expected = expected if expected is not None else {}
        self.record = record
        self.alter_first = alter_first
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def _fail(self, key: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{key}: {why}")

    def expect(self, key: str, got) -> bool:
        """Count one result; true when it equals the pinned value."""
        self.attempted += 1
        self._digest.update(f"{key}={json.dumps(got, sort_keys=True)}\n".encode())
        if self.record:
            self.expected[key] = got
            return True
        want = self.expected.get(key, _MISSING)
        if want is _MISSING:
            self._fail(key, "no pinned value")
            return False
        if self.alter_first:
            self.alter_first = False
            want = {"altered": want}
        if got != want:
            self._fail(key, f"got {got!r}, pinned {want!r}")
            return False
        return True

    def check(self, key: str, ok: bool, got) -> bool:
        """Count one result judged by a predicate rather than a pin."""
        self.attempted += 1
        self._digest.update(f"{key}={json.dumps(got, sort_keys=True)}\n".encode())
        if not ok:
            self._fail(key, f"got {got!r}")
        return ok

    def error(self, key: str, exc: BaseException) -> None:
        """Count one operation that raised."""
        self.attempted += 1
        self._digest.update(f"{key}=raised {type(exc).__name__}\n".encode())
        self._fail(key, f"raised {type(exc).__name__}: {exc}")

    def digest(self) -> str:
        return self._digest.hexdigest()


_MISSING = object()


def _result(t0: float, op_s: list, chk: Checker, counters: dict | None = None) -> dict:
    return {
        "wall_s": perf_counter() - t0,
        "op_s": op_s,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "digest": chk.digest(),
        "counters": counters or {},
    }


# ------------------------------------------------------------- expansion

_ELEMENT = re.compile(r"^(?:(-?\d+)(?=[+-]|$))?(?:([+-]?)(\d*)w)?$")


def parse_ab(text: str) -> tuple[int, int]:
    """Coordinates (a, b) of an element printed as "a+bw", "bw" or "a"."""
    m = _ELEMENT.match(text)
    if not m or not text:
        raise ValueError(f"cannot parse {text!r}")
    a = int(m.group(1)) if m.group(1) else 0
    b = 0
    if m.group(3) is not None:
        b = int(m.group(3) or "1") * (-1 if m.group(2) == "-" else 1)
    return a, b


def _field_tm(d: int) -> tuple[int, int]:
    # omega^2 = t*omega - m, so N(a + b*omega) = a^2 + t*a*b + m*b^2
    t = 1 if d % 4 == 3 else 0
    return t, ((1 + d) // 4 if t else d)


def element_norm(d: int, text: str) -> int:
    a, b = parse_ab(text)
    t, m = _field_tm(d)
    return a * a + t * a * b + m * b * b


class ReferenceSeries:
    """Truncated Fourier-Bessel series rebuilt from pinned coefficients.

    An independent transcription of the series and its tail heuristic,
    used to check every evaluation the program makes.  Terms are summed in
    the program's order (norm, a, b), so results agree to rounding.
    """

    def __init__(self, d: int, norm_bound: int, coeffs: dict[str, str]) -> None:
        t, m = _field_tm(d)
        self.s = math.sqrt(4 * m - t * t)
        omega = complex(t / 2, self.s / 2)
        terms = []
        growth = 0.0
        for alpha, text in coeffs.items():
            a, b = parse_ab(alpha)
            norm = element_norm(d, alpha)
            if norm > norm_bound:
                continue
            value = Fraction(text)
            if value:
                growth = max(growth, abs(value) / norm)
                terms.append(((norm, a, b), complex(a + b * omega), float(value)))
        terms.sort()
        self.terms = [(ac, v) for _, ac, v in terms]
        self.growth = float(growth) if terms else 1.0
        self.norm_bound = norm_bound

    def tail(self, t: float) -> float:
        density = 2 * math.pi / self.s
        total = 0.0
        n = self.norm_bound + 1
        while n < self.norm_bound + 200000:
            x = 4 * math.pi * math.sqrt(n) * t / self.s
            term = density * self.growth * n * t**2 * (
                2.0 * math.sqrt(math.pi / (2 * x)) * math.exp(-x))
            total += term
            if term < 1e-6 * total or term < 1e-300:
                break
            n += 1
        return total

    def value(self, z: complex, t: float) -> tuple[complex, complex, complex]:
        from scipy.special import k0, k1

        f0 = f1 = f2 = 0j
        for ac, a in self.terms:
            mod = abs(ac)
            arg = 4 * math.pi * mod * t / self.s
            common = a * t**2 * cmath.exp(4j * math.pi * (ac * z).imag / self.s)
            phase = ac / mod
            k1v = k1(arg)
            f0 += common * (-0.5 * phase * k1v)
            f1 += common * k0(arg)
            f2 += common * (0.5 * phase.conjugate() * k1v)
        return f0, f1, f2


def eval_points(seed: int, count: int) -> list[tuple[complex, float]]:
    """Points z in [-1/2, 1/2]^2, t in [0.5, 2], drawn from the seed."""
    rng = random.Random(seed)
    return [(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), rng.uniform(0.5, 2.0))
            for _ in range(count)]


def _close(got, want, scale: float) -> bool:
    return all(abs(g - w) <= EVAL_REL_TOL * scale for g, w in zip(got, want))


def run_expansion(seed: int, size: str, chk: Checker) -> dict:
    """Reference form, its coefficient table, seeded series evaluations and
    translation automorphy residuals."""
    from bianchi import verify
    from bianchi.fourier import (
        DualFunctional,
        H3Point,
        automorphy_residual,
        eval_series,
        fourier_coefficients,
        seed_from_vector,
    )
    from bianchi.symbols import Mat2

    norm_bound, n_evals = EXPANSION_SIZE[size]
    d = verify.REFERENCE_FORM[0]
    points = eval_points(seed, n_evals)
    want = None
    if not chk.record:
        prefix = "table/"
        ref = ReferenceSeries(d, norm_bound, {k[len(prefix):]: v for k, v in chk.expected.items()
                                              if k.startswith(prefix)})
        want = [(ref.value(z, t), ref.tail(t)) for z, t in points]
    op_s = []
    t0 = perf_counter()
    try:
        space, systems = verify.reference_form()
        system = systems[0]
        phi = DualFunctional(space, system.functional)
        x = seed_from_vector(space, system.vector)
    except Exception as exc:
        chk.error("reference_form", exc)
        return _result(t0, op_s, chk)
    chk.expect("reference_form", {
        "points": len(space.points),
        "dim": space.dim,
        "eigenvalues": {str(e): str(v) for e, v in system.eigenvalues.items()},
    })
    try:
        table = fourier_coefficients(phi, x, norm_bound)
    except Exception as exc:
        chk.error("table", exc)
        return _result(t0, op_s, chk)
    pinned = sum(1 for k in chk.expected if k.startswith("table/")
                 and element_norm(d, k[len("table/"):]) <= norm_bound)
    chk.check("table.size", chk.record or len(table.entries) == pinned, len(table.entries))
    for alpha in sorted(table.entries, key=lambda a: a.sort_key()):
        chk.expect(f"table/{alpha}", str(table.entries[alpha]))
    for i, (z, t) in enumerate(points):
        key = f"eval/{i}"
        ts = perf_counter()
        try:
            comps, tail = eval_series(table, H3Point(z, t))
        except Exception as exc:
            chk.error(key, exc)
        else:
            got = [[c.real, c.imag] for c in comps] + [tail]
            if want is None:
                chk.check(key, True, got)
            else:
                ref_comps, ref_tail = want[i]
                scale = math.sqrt(sum(abs(c) ** 2 for c in ref_comps))
                ok = _close(comps, ref_comps, scale) and abs(tail - ref_tail) <= EVAL_REL_TOL * ref_tail
                chk.check(key, ok, got)
        op_s.append(perf_counter() - ts)
    fld = space.field
    for h in TRANSLATION_HEIGHTS:
        for mu in (fld.one, fld.omega):
            key = f"automorphy/{h}/{mu}"
            try:
                res = automorphy_residual(table, Mat2(fld.one, mu, fld.zero, fld.one),
                                          H3Point(0.1 + 0.2j, h))
            except Exception as exc:
                chk.error(key, exc)
            else:
                chk.check(key, res < AUTOMORPHY_TOL, res)
    return _result(t0, op_s, chk)


# ---------------------------------------------------------------- survey

def _cli(args: list[str]) -> str:
    from bianchi import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rv = cli.main(args, standalone_mode=False)
    if rv not in (None, 0):
        raise RuntimeError(f"exit code {rv}")
    return buf.getvalue()


# fields of each command's JSON that are pinned in the clear, beside the
# digest of the whole output
_FIELDS = {
    "space": ("points", "dim", "cuspidal_dim", "cusps"),
    "hecke": ("dim", "cuspidal_dim", "cuspidal_eigenvalues", "commutes", "oracle_agrees"),
    "eigen": ("cuspidal_dim", "etas"),
    "heilbronn": ("count", "classes", "telescoping"),
}


# survey ops run kind by kind in this order, so that every level op finds
# the Heilbronn families of its etas already built by the certificates and
# no oracle op has built a level op's space: a level op's latency does not
# depend on where the seed puts it
SURVEY_PHASES = ("heilbronn", "level", "weight4", "oracle")


def survey_ops(ops: list[dict], size: str, seed: int) -> list[dict]:
    """The ops of one repetition, phase by phase, shuffled by the seed
    within each phase."""
    rng = random.Random(seed)
    ordered = []
    for kind in SURVEY_PHASES:
        phase = [op for op in ops if op["kind"] == kind
                 and (size == "full" or op["norm"] <= SURVEY_TINY_NORM)]
        rng.shuffle(phase)
        ordered += phase
    return ordered


def run_survey(seed: int, size: str, chk: Checker, ops: list[dict]) -> dict:
    """CLI commands through bianchi.cli.main with the JSON output parsed and
    checked.  Level ops (space, hecke with commutation, eigen) form the
    latency sample; Heilbronn certificates, weight-4 operators and oracle
    comparisons ride along.  The seed fixes the order of the ops within
    each phase."""
    ops = survey_ops(ops, size, seed)
    op_s = []
    bytes_out = 0
    t0 = perf_counter()
    for op in ops:
        t = perf_counter()
        for i, args in enumerate(op["commands"]):
            key = f"{op['id']}/{i}"
            try:
                text = _cli(args)
                doc = json.loads(text)
            except Exception as exc:
                chk.error(key, exc)
                continue
            bytes_out += len(text)
            fields = {f: doc[f] for f in _FIELDS[args[0]] if f in doc}
            if "systems" in doc:
                fields["eigenvalues"] = [s["eigenvalues"] for s in doc["systems"]]
            chk.expect(key, {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                             "fields": fields})
        if op["kind"] == "level":
            op_s.append(perf_counter() - t)
    return _result(t0, op_s, chk, {"cli.bytes_out": bytes_out})


WORKLOADS = ("expansion", "survey")


def run(name: str, seed: int, size: str, chk: Checker, reference: dict) -> dict:
    if name == "expansion":
        return run_expansion(seed, size, chk)
    if name == "survey":
        return run_survey(seed, size, chk, reference["survey_ops"])
    raise ValueError(f"unknown workload {name!r}")

"""Spans and counters recorded from outside bianchi.

The tracer replaces chosen functions of the bianchi modules with wrappers:
the module attribute, every other bianchi module that imported the same
object, and class attributes such as SymbolSpace.act_point.  Stage-level
functions get a span (name, start, end, parent); functions too hot to span
(ring arithmetic, the point action) only get a call count.  Spans stay in
memory and are written out when the run ends.  A layer's self time is its
spans' duration minus the part their child spans cover.

Functions that a later version of bianchi no longer has are listed under
"missing" and their metrics read 0, so the benchmark keeps running across
refactors.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name; "Class.method" patches the class
SPANS = {
    ("symbols", "enumerate_points"): "symbols.enumerate_points",
    ("symbols", "SymbolSpace.__init__"): "symbols.build",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "kernel"): "linalg.kernel",
    ("linalg", "charpoly"): "linalg.charpoly",
    ("linalg", "rational_eigensystem"): "linalg.rational_eigensystem",
    ("boundary", "cuspidal_subspace"): "boundary.cuspidal_subspace",
    ("heilbronn", "heilbronn_family"): "heilbronn.family",
    ("heilbronn", "telescoping_ok"): "heilbronn.telescoping",
    ("hecke", "heilbronn_action"): "hecke.heilbronn_action",
    ("hecke", "hecke_oracle"): "hecke.oracle",
    ("hecke", "eigensystems"): "hecke.eigensystems",
    ("fourier", "fourier_coefficients"): "fourier.table",
    ("fourier", "eval_series"): "fourier.eval_series",
    ("fourier", "tail_estimate"): "fourier.tail_estimate",
    ("cli", "_emit"): "cli.emit",
    ("verify", "reference_form"): "verify.reference_form",
}

# counted only: millions of calls per run (SymbolSpace.act_point too,
# with its unimodular results)
COUNTS = {
    ("quadints", "reduce_mod"): "quadints.reduce_mod.calls",
    ("quadints", "gcd"): "quadints.gcd.calls",
    ("quadints", "euclidean_division"): "quadints.euclidean_division.calls",
}

CACHES = (
    ("symbols", "symbol_space"),
    ("boundary", "boundary_matrix"),
    ("boundary", "cuspidal_subspace"),
    ("boundary", "true_boundary_matrix"),
    ("heilbronn", "heilbronn_family"),
    ("heilbronn", "heilbronn_classes"),
    ("hecke", "heilbronn_action"),
    ("quadints", "residues_mod"),
    ("quadints", "residues_below"),
    ("quadints", "hnf_module"),
    ("quadints", "primes_above"),
)

EIGEN_SPANS = ("linalg.rational_eigensystem", "linalg.charpoly", "linalg.kernel")


def _modules() -> dict:
    import bianchi

    return {info.name: importlib.import_module(f"bianchi.{info.name}")
            for info in pkgutil.iter_modules(bianchi.__path__)}


class Tracer:
    """Installs the wrappers, records spans and counts, derives the metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._family_len = 0
        self._caches: dict[str, object] = {}

    # ---------------------------------------------------------- wrappers

    def _spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            misses = info().misses if info else 0
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, info is not None and info().misses > misses, rec)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _act_point(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["symbols.act_point.calls"] += 1
            result = fn(*args, **kwargs)
            if result is not None:
                counts["symbols.act_point.unimodular"] += 1
            return result

        return wrapper

    # ------------------------------------------------------------- hooks

    def _after_points(self, args, result, missed, rec):
        self.counts["symbols.points"] += len(result)
        self.counts["symbols.candidates"] += args[1].norm() ** 2

    def _after_rref(self, args, result, missed, rec):
        rows = len(args[0])
        self.counts["linalg.rref.rows_in"] += rows
        self.counts["linalg.rref.pivots"] += len(result[1])
        parent = rec[3]
        if parent >= 0 and self.spans[parent][0] == "symbols.build":
            self.counts["symbols.relation_rows"] += rows

    def _after_family(self, args, result, missed, rec):
        self._family_len = len(result)
        if missed:
            self.counts["heilbronn.family.matrices"] += len(result)

    def _after_action(self, args, result, missed, rec):
        if missed:
            self.counts["hecke.applications"] += args[0].dim * self._family_len

    def _after_table(self, args, result, missed, rec):
        self.counts["fourier.table.entries"] += len(result.entries)
        self.counts["fourier.table.nonzero"] += sum(1 for a in result.entries.values() if a)

    # ------------------------------------------------------ installation

    def install(self) -> None:
        mods = _modules()
        after = {
            "symbols.enumerate_points": self._after_points,
            "linalg.rref": self._after_rref,
            "heilbronn.family": self._after_family,
            "hecke.heilbronn_action": self._after_action,
            "fourier.table": self._after_table,
        }
        for mod, func in CACHES:
            fn = getattr(mods.get(mod), func, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[f"cache.{mod}.{func}"] = fn
        for (mod, attr), name in SPANS.items():
            self._patch(mods, mod, attr,
                        lambda fn, name=name: self._spanned(name, fn, after.get(name)))
        for (mod, attr), name in COUNTS.items():
            self._patch(mods, mod, attr, lambda fn, name=name: self._counted(name, fn))
        self._patch(mods, "symbols", "SymbolSpace.act_point", self._act_point)
        main = getattr(mods.get("cli"), "main", None)
        for cmd in getattr(main, "commands", {}).values():
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self._spanned("cli.command", cmd.callback)

    def _patch(self, mods: dict, mod: str, attr: str, make) -> None:
        owner = mods.get(mod)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod}.{cls_name}.{attr}")
                return
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original))
            return
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{mod}.{attr}")
            return
        wrapper = make(original)
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, key, original))
                    setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------- metrics

    def span_times(self) -> list[tuple[str, float, float, int, bool]]:
        """(name, duration, self time, parent, outermost of its name) per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            outer = True
            p = parent
            while p >= 0:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][3]
            out.append((name, end - start, end - start - child[i], parent, outer))
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, dur, self_s, _, outer in self.span_times():
            if outer:
                total[name] += dur
            own[name] += self_s
            calls[name] += 1
        c = self.counts

        def ratio(num: str, den: str) -> float:
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "quadints.reduce_mod.calls": c["quadints.reduce_mod.calls"],
            "quadints.gcd.calls": c["quadints.gcd.calls"],
            "quadints.euclidean_division.calls": c["quadints.euclidean_division.calls"],
            "symbols.enumerate_points.s": total["symbols.enumerate_points"],
            "symbols.points": c["symbols.points"],
            "symbols.enumerate_points.keep_ratio": ratio("symbols.points", "symbols.candidates"),
            "symbols.build.self_s": own["symbols.build"],
            "symbols.relation_rows": c["symbols.relation_rows"],
            "symbols.act_point.calls": c["symbols.act_point.calls"],
            "symbols.act_point.unimodular_ratio": ratio("symbols.act_point.unimodular",
                                                        "symbols.act_point.calls"),
            "linalg.rref.self_s": own["linalg.rref"],
            "linalg.rref.calls": calls["linalg.rref"],
            "linalg.rref.rows_in": c["linalg.rref.rows_in"],
            "linalg.rref.pivots": c["linalg.rref.pivots"],
            "linalg.rref.rank_ratio": ratio("linalg.rref.pivots", "linalg.rref.rows_in"),
            "linalg.eigen.self_s": sum(own[n] for n in EIGEN_SPANS),
            "boundary.cuspidal_subspace.s": total["boundary.cuspidal_subspace"],
            "heilbronn.family.s": total["heilbronn.family"],
            "heilbronn.family.matrices": c["heilbronn.family.matrices"],
            "heilbronn.telescoping.s": total["heilbronn.telescoping"],
            "hecke.heilbronn_action.self_s": own["hecke.heilbronn_action"],
            "hecke.heilbronn_action.calls": calls["hecke.heilbronn_action"],
            "hecke.applications": c["hecke.applications"],
            "hecke.oracle.s": total["hecke.oracle"],
            "hecke.eigensystems.s": total["hecke.eigensystems"],
            "fourier.table.self_s": own["fourier.table"],
            "fourier.table.entries": c["fourier.table.entries"],
            "fourier.table.nonzero_ratio": ratio("fourier.table.nonzero", "fourier.table.entries"),
            "fourier.eval_series.s": total["fourier.eval_series"],
            "fourier.tail_estimate.s": total["fourier.tail_estimate"],
            "cli.command.s": total["cli.command"],
            "cli.emit.s": total["cli.emit"],
            "verify.reference_form.s": total["verify.reference_form"],
        }
        for mod, func in CACHES:
            key = f"cache.{mod}.{func}"
            fn = self._caches.get(key)
            info = fn.cache_info() if fn is not None else None
            out[f"{key}.hits"] = info.hits if info else 0
            out[f"{key}.misses"] = info.misses if info else 0
            out[f"{key}.size"] = info.currsize if info else 0
        return out

    def shares(self, wall_s: float) -> dict[str, float]:
        """Self time of each span name as a share of the run's wall time."""
        own: dict[str, float] = defaultdict(float)
        for name, _, self_s, _, _ in self.span_times():
            own[name] += self_s
        return {n: s / wall_s for n, s in sorted(own.items(), key=lambda kv: -kv[1])}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "missing": self.missing}, fh)

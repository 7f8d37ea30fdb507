"""Span tracer for the traced run.

``install`` wraps the public functions through which qkrall's layers call
each other, at every module attribute that holds them, so each call records
a span (name, start, end, parent span, job id).  Spans are kept in memory
in flat arrays and written out when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.

Nothing is wrapped unless ``install`` is called, so an untraced run
measures the bare program.
"""
from __future__ import annotations

import csv
import inspect
import time
from array import array
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

_clock = time.perf_counter

# Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("families.poly.calls", "count", "lower"),
    ("families.poly.built", "count", "lower"),
    ("families.poly.self_s", "s", "lower"),
    ("families.poly.max_degree", "degree", "lower"),
    ("families.derive_recurrence.calls", "count", "lower"),
    ("families.derive_recurrence.self_s", "s", "lower"),
    ("families.derive_recurrence.rows", "count", "lower"),
    ("moments.measure_catalog.calls", "count", "lower"),
    ("moments.measure_catalog.self_s", "s", "lower"),
    ("moments.measure_catalog.used_ratio", "ratio", "higher"),
    ("moments.laguerre_moments.calls", "count", "lower"),
    ("moments.laguerre_moments.self_s", "s", "lower"),
    ("moments.laguerre_moments.depth", "count", "lower"),
    ("moments.hankel_orthogonal.calls", "count", "lower"),
    ("moments.hankel_orthogonal.self_s", "s", "lower"),
    ("moments.hankel_orthogonal.n_top", "degree", "lower"),
    ("moments.hankel_orthogonal.max_bits", "bit", "lower"),
    ("moments.gram_matrix.calls", "count", "lower"),
    ("moments.gram_matrix.self_s", "s", "lower"),
    ("moments.gram_matrix.entries", "count", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.nullspace.rows", "count", "lower"),
    ("linalg.nullspace.cols", "count", "lower"),
    ("linalg.nullspace.rank", "count", "lower"),
    ("linalg.nullspace.max_bits", "bit", "lower"),
    ("linalg.solve_exact.calls", "count", "lower"),
    ("linalg.solve_exact.self_s", "s", "lower"),
    ("linalg.solve_exact.max_n", "count", "lower"),
    ("linalg.leading_principal_minors.calls", "count", "lower"),
    ("linalg.leading_principal_minors.self_s", "s", "lower"),
    ("operators.compose.calls", "count", "lower"),
    ("operators.compose.self_s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.poly_of_operator.self_s", "s", "lower"),
    ("operators.max_order", "count", "lower"),
    ("exact.poly_gcd.calls", "count", "lower"),
    ("exact.poly_gcd.self_s", "s", "lower"),
    ("dops.dop_catalog.calls", "count", "lower"),
    ("dops.dop_catalog.self_s", "s", "lower"),
    ("dops.verify_dop.calls", "count", "lower"),
    ("dops.verify_dop.self_s", "s", "lower"),
    ("krall.theorem_catalog.calls", "count", "lower"),
    ("krall.theorem_catalog.self_s", "s", "lower"),
    ("krall.build.calls", "count", "lower"),
    ("krall.build.self_s", "s", "lower"),
    ("krall.verify_eigen.calls", "count", "lower"),
    ("krall.verify_eigen.self_s", "s", "lower"),
    ("search.find_operator.calls", "count", "lower"),
    ("search.find_operator.self_s", "s", "lower"),
    ("search.attempts", "count", "lower"),
    ("search.hit_ratio", "ratio", "higher"),
    ("search.check_conjecture.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.report_bytes", "byte", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Span names whose calls and self time are reported; the check_conjecture
# spans are summed into one metric.
SPANS = [
    "families.poly", "families.derive_recurrence", "moments.measure_catalog",
    "moments.laguerre_moments", "moments.hankel_orthogonal",
    "moments.gram_matrix", "linalg.nullspace", "linalg.solve_exact",
    "linalg.leading_principal_minors", "operators.compose",
    "operators.apply", "operators.poly_of_operator", "exact.poly_gcd",
    "dops.dop_catalog", "dops.verify_dop", "krall.theorem_catalog",
    "krall.build", "krall.verify_eigen", "search.find_operator",
    "search.check_conjecture_a", "search.check_conjecture_b1",
    "search.check_conjecture_b2", "cli.main",
]
HOOK = "trace.hook"


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self._stack: list[int] = []
        self.job_id = -1
        self.totals: Counter = Counter()
        self.maxima: Counter = Counter()
        self.catalog_measures: dict[int, object] = {}
        self.used_measures: set[int] = set()

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def self_times(self) -> dict[str, tuple[int, float]]:
        return self_times(self.names, self.name_id, self.start, self.end,
                          self.parent)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "job"])
            names = self.names
            for i in range(len(self.start)):
                out.writerow([i, names[self.name_id[i]],
                              f"{self.start[i]:.9f}", f"{self.end[i]:.9f}",
                              self.parent[i], self.job[i]])


def self_times(names: Sequence[str], name_id: Sequence[int],
               start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds).

    Self time is the span's duration minus the union of its children's
    intervals clipped to it; children are taken in start order so that
    overlapping children are not counted twice.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n
    order = sorted(range(n), key=start.__getitem__)
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for i in range(n):
        nid = name_id[i]
        calls[nid] += 1
        own[nid] += end[i] - start[i] - covered[i]
    return {name: (calls[k], own[k]) for k, name in enumerate(names)}


def _bits(values: Iterable[Fraction]) -> int:
    """Largest numerator or denominator among values, in bits."""
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _wrap(fn: Callable, name: str, tracer: Tracer,
          before: Callable | None = None, after: Callable | None = None,
          heavy: bool = False) -> Callable:
    """Time fn as span `name`.

    before(args, kwargs) and after(args, kwargs, result) record counters;
    a heavy `after` runs inside its own trace.hook span so its cost is not
    charged to the caller's self time.
    """
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        idx = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave(idx)
        if after is not None:
            if heavy:
                hook = enter(HOOK)
                try:
                    after(args, kwargs, result)
                finally:
                    leave(hook)
            else:
                after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _binder(fn: Callable) -> Callable[[tuple, dict], dict]:
    sig = inspect.signature(fn)

    def bind(args: tuple, kwargs: dict) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def install(prog, tracer: Tracer) -> Callable[[], None]:
    """Install the timing wrappers on the program; return the undo function."""
    undo: list[tuple[object, str, object]] = []

    def function(module, attr: str, name: str, before=None, after=None,
                 heavy: bool = False) -> None:
        original = getattr(module, attr)
        wrapper = _wrap(original, name, tracer, before, after, heavy)
        for mod in prog.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def method(cls, attr: str, name: str, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(original, name, tracer, before, after))
        undo.append((cls, attr, original))

    fam, mom, lin = prog.families, prog.moments, prog.linalg
    ops, srch = prog.operators, prog.search

    # families
    def poly_before(args, kwargs):
        family, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        if n not in family._cache:
            tracer.totals["families.poly.built"] += 1
        tracer.peak("families.poly.max_degree", n)

    method(fam.PolynomialFamily, "poly", "families.poly", before=poly_before)
    bind_rec = _binder(fam.derive_recurrence)
    function(fam, "derive_recurrence", "families.derive_recurrence",
             after=lambda a, k, r: tracer.totals.update(
                 {"families.derive_recurrence.rows":
                  bind_rec(a, k)["n_top"] + 1}))

    # moments
    def catalog_after(args, kwargs, result):
        tracer.catalog_measures[id(result)] = result

    def mark_used(mu) -> None:
        if id(mu) in tracer.catalog_measures:
            tracer.used_measures.add(id(mu))

    bind_lag = _binder(mom.laguerre_moments)
    bind_hankel = _binder(mom.hankel_orthogonal)

    def hankel_after(args, kwargs, result):
        bound = bind_hankel(args, kwargs)
        mu, n_top = bound["mu"], bound["n_top"]
        tracer.peak("moments.hankel_orthogonal.n_top", n_top)
        tracer.peak("moments.hankel_orthogonal.max_bits",
                    _bits(mu.moment(i) for i in range(2 * n_top + 1)))

    def gram_after(args, kwargs, result):
        tracer.totals["moments.gram_matrix.entries"] += sum(map(len, result))

    original_pair = mom.MomentFunctional.__dict__["pair"]

    def pair(self, p):
        mark_used(self)
        return original_pair(self, p)

    function(mom, "measure_catalog", "moments.measure_catalog",
             after=catalog_after)
    function(mom, "laguerre_moments", "moments.laguerre_moments",
             after=lambda a, k, r: tracer.peak(
                 "moments.laguerre_moments.depth", bind_lag(a, k)["n_depth"]))
    function(mom, "hankel_orthogonal", "moments.hankel_orthogonal",
             before=lambda a, k: mark_used(bind_hankel(a, k)["mu"]),
             after=hankel_after, heavy=True)
    function(mom, "gram_matrix", "moments.gram_matrix",
             before=lambda a, k: mark_used(a[0] if a else k["mu"]),
             after=gram_after)
    mom.MomentFunctional.pair = pair
    undo.append((mom.MomentFunctional, "pair", original_pair))

    # linalg
    def nullspace_after(args, kwargs, result):
        rows = args[0] if args else kwargs["a"]
        if not rows:
            return
        cols = len(rows[0])
        tracer.peak("linalg.nullspace.rows", len(rows))
        tracer.peak("linalg.nullspace.cols", cols)
        tracer.peak("linalg.nullspace.rank", cols - len(result))
        tracer.peak("linalg.nullspace.max_bits",
                    _bits(v for row in rows for v in row))

    function(lin, "nullspace", "linalg.nullspace", after=nullspace_after,
             heavy=True)
    function(lin, "solve_exact", "linalg.solve_exact",
             before=lambda a, k: tracer.peak(
                 "linalg.solve_exact.max_n",
                 len((a[0] if a else k["a"])[0])))
    function(lin, "leading_principal_minors",
             "linalg.leading_principal_minors")

    # operators
    def compose_after(args, kwargs, result):
        tracer.peak("operators.max_order", result.order() or 0)

    method(ops.QDiffOperator, "compose", "operators.compose",
           after=compose_after)
    method(ops.QDiffOperator, "apply", "operators.apply",
           before=lambda a, k: tracer.peak("operators.max_order",
                                           a[0].order() or 0))
    function(ops, "poly_of_operator", "operators.poly_of_operator")

    # exact, dops, krall
    function(prog.exact, "poly_gcd", "exact.poly_gcd")
    function(prog.dops, "dop_catalog", "dops.dop_catalog")
    function(prog.dops, "verify_dop", "dops.verify_dop")
    for attr in ("theorem_catalog", "build", "verify_eigen"):
        function(prog.krall, attr, f"krall.{attr}")

    # search
    def found_after(args, kwargs, result):
        tracer.totals["search.attempts"] += 1
        tracer.totals["search.found"] += bool(result.found)

    function(srch, "find_operator", "search.find_operator", after=found_after)
    for attr in ("check_conjecture_a", "check_conjecture_b1",
                 "check_conjecture_b2"):
        function(srch, attr, f"search.{attr}")

    # cli
    function(prog.cli, "main", "cli.main")

    def remove() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return remove


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric, computed from the spans and counters."""
    own = tracer.self_times()
    out: dict[str, float] = {}
    for name in SPANS:
        calls, self_s = own.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out["search.check_conjecture.self_s"] = sum(
        out.pop(f"search.check_conjecture_{w}.self_s") for w in ("a", "b1", "b2"))
    for key in ("families.poly.built", "families.derive_recurrence.rows",
                "moments.gram_matrix.entries", "search.attempts",
                "cli.report_bytes"):
        out[key] = tracer.totals[key]
    for key in ("families.poly.max_degree", "moments.laguerre_moments.depth",
                "moments.hankel_orthogonal.n_top",
                "moments.hankel_orthogonal.max_bits", "linalg.nullspace.rows",
                "linalg.nullspace.cols", "linalg.nullspace.rank",
                "linalg.nullspace.max_bits", "linalg.solve_exact.max_n",
                "operators.max_order"):
        out[key] = tracer.maxima[key]
    built = len(tracer.catalog_measures)
    out["moments.measure_catalog.used_ratio"] = (
        len(tracer.used_measures) / built if built else 0.0)
    attempts = tracer.totals["search.attempts"]
    out["search.hit_ratio"] = (tracer.totals["search.found"] / attempts
                               if attempts else 0.0)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _ in PER_LAYER}


def layer_self_times(own: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Self seconds per layer (the span name's first part), largest first."""
    layers: Counter = Counter()
    for name, (_, self_s) in own.items():
        if name != HOOK:
            layers[name.split(".")[0]] += self_s
    return dict(layers.most_common())


def leads(workload: str, own: dict[str, tuple[int, float]]) -> list[str]:
    """Check the predicted per-layer leads against a traced pass."""
    layers = layer_self_times(own)
    lines = ["layer self time: " + ", ".join(
        f"{layer} {seconds:.3f} s" for layer, seconds in layers.items())]

    def verdict(ok: bool) -> str:
        return "confirmed" if ok else "NOT confirmed"

    if workload == "catalog-sweep":
        ranks = {layer: i + 1 for i, layer in enumerate(layers)}
        lines.append(
            "lead families + moments on catalog-sweep: "
            + verdict({ranks.get("families"), ranks.get("moments")} == {1, 2})
            + f" (families rank {ranks.get('families')}, moments rank "
              f"{ranks.get('moments')} of {len(ranks)} layers by self time)")
    if workload == "search-scan":
        spans = {n: s for n, (_, s) in own.items() if n != HOOK}
        top = max(spans, key=spans.get)
        lines.append("lead linalg.nullspace on search-scan: "
                     + verdict(top == "linalg.nullspace")
                     + f" (largest self time: {top})")
    cli_self = own.get("cli.main", (0, 0.0))[1]
    lines.append(f"cli.main self time {cli_self:.4f} s, predicted nonzero "
                 f"only on cli-mix: "
                 + verdict((cli_self > 0) == (workload == "cli-mix")))
    return lines

"""Spans around the public functions of each cobfilt module, for the traced pass.

Modules bind each other's functions by name (`from .series import mul`), so
a wrapper must replace the name in every module that holds it, and in the
module-level tables that hold it too (the CLI's check runners).  install()
does that and uninstall() puts every original back.

Each span records its operation id, its own id, its parent span, its name
and its start and end.  A layer's self time is its span's duration minus
the time its child spans cover.  Counts marked computed come from argument
sizes, so the wrapped kernels run unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "degrees", "manifolds", "series", "spaces", "checks")
CHECKS = (
    "checks.verify_bijection",
    "checks.verify_main_theorem",
    "checks.verify_quotient_steps",
    "checks.verify_simple_systems",
)

# (metric, unit, better) for every per-layer metric a traced run reports.
LAYER_METRICS = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("degrees.decompose.calls", "count", "lower"),
    ("degrees.decompose.self_s", "s", "lower"),
    ("degrees.stages_up_to_degree.calls", "count", "lower"),
    ("degrees.stages_up_to_degree.self_s", "s", "lower"),
    ("degrees.stages_up_to_degree.repeat_ratio", "ratio", "lower"),
    ("manifolds.plan.calls", "count", "lower"),
    ("manifolds.plan.self_s", "s", "lower"),
    ("manifolds.plan.repeat_ratio", "ratio", "lower"),
    ("manifolds.expand.calls", "count", "lower"),
    ("manifolds.expand.self_s", "s", "lower"),
    ("manifolds.indecomposable.calls", "count", "lower"),
    ("manifolds.indecomposable.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.self_s", "s", "lower"),
    ("series.mul.cells", "count", "lower"),
    ("series.exact_div.calls", "count", "lower"),
    ("series.exact_div.self_s", "s", "lower"),
    ("series.exact_div.cells", "count", "lower"),
    ("series.series_of.calls", "count", "lower"),
    ("series.series_of.self_s", "s", "lower"),
    ("series.series_of.factors", "count", "lower"),
    ("series.series_of.repeat_ratio", "ratio", "lower"),
    ("series.simple_system_series.calls", "count", "lower"),
    ("series.simple_system_series.self_s", "s", "lower"),
    ("spaces.steenrod_series.calls", "count", "lower"),
    ("spaces.steenrod_series.hit_ratio", "ratio", "higher"),
    ("spaces.thom_homology_series.calls", "count", "lower"),
    ("spaces.thom_homology_series.self_s", "s", "lower"),
    ("spaces.adams_homotopy_series.calls", "count", "lower"),
    ("spaces.adams_homotopy_series.self_s", "s", "lower"),
    ("spaces.stage_generator_degrees.calls", "count", "lower"),
    ("spaces.stage_generator_degrees.self_s", "s", "lower"),
    *((f"{name}.self_s", "s", "lower") for name in CHECKS),
    ("checks.partition_dp.self_s", "s", "lower"),
    ("checks.pass_ratio", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)
# Metrics that depend only on the operations run, never on timing.
EXACT_SUFFIXES = (".calls", ".cells", ".factors", ".repeat_ratio", ".hit_ratio", "pass_ratio", "stdout_bytes")
# Every function a per-layer metric reads from its spans; install() must wrap each one.
TRACED = sorted({
    metric.rpartition(".")[0]
    for metric, _, _ in LAYER_METRICS
    if metric.rpartition(".")[2] in ("calls", "self_s", "cells", "factors", "repeat_ratio", "hit_ratio")
} | {"checks.partition_dp", *CHECKS})
OUTERMOST = "cli.main"


class TraceError(RuntimeError):
    """A function a per-layer metric needs could not be wrapped."""


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _cells(cap: int) -> int:
    # Coefficient pairs (u, v) with u + v <= cap: the work of one truncated product.
    return (cap + 1) * (cap + 2) // 2


class Tracer:
    """Spans and counts for one pass; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.op = -1
        self.next_span = 0
        self.stack: list[int] = []
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self._restore: list[tuple[dict, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cobfilt.{layer}")
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        wrapped = set()
        for name, module in list(sys.modules.items()):
            if name != "cobfilt" and not name.startswith("cobfilt."):
                continue
            namespace = vars(module)
            tables = [namespace] + [v for k, v in namespace.items() if isinstance(v, dict) and not k.startswith("__")]
            for table in tables:
                for key, value in list(table.items()):
                    if id(value) in wrappers:
                        self._restore.append((table, key, value))
                        table[key] = wrappers[id(value)]
                        wrapped.add(table[key].span_name)
        missing = [name for name in TRACED if name not in wrapped]
        if missing:
            self.uninstall()
            raise TraceError(f"no public function to wrap for {missing}")

    def uninstall(self) -> None:
        while self._restore:
            table, key, value = self._restore.pop()
            table[key] = value

    def begin_op(self) -> None:
        self.op += 1
        self._seen.clear()

    def end_op(self) -> None:
        """Fold the operation's spans into calls and self time, then drop them."""
        covered: Counter[int] = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for _, span, _, name, start, end in self.spans:
            self.calls[name] += 1
            self.self_ns[name] += end - start - covered[span]
        self.spans.clear()

    def _repeat(self, name: str, key) -> None:
        seen = self._seen[name]
        if key in seen:
            self.counts[f"{name}.repeats"] += 1
        seen.add(key)

    def _before(self, name: str, fn, args: tuple, kwargs: dict):
        if name in ("series.mul", "series.exact_div"):
            self.counts[f"{name}.cells"] += _cells(_arg(args, kwargs, 0, "a").cap)
        elif name == "series.series_of":
            spec, cap = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "cap")
            self.counts["series.series_of.factors"] += len(spec.generators_below(cap))
            self._repeat(name, (spec, cap))
        elif name == "degrees.stages_up_to_degree":
            self._repeat(name, _arg(args, kwargs, 0, "bound"))
        elif name == "manifolds.plan":
            self._repeat(name, _arg(args, kwargs, 0, "d"))
        elif name == "spaces.steenrod_series":
            return fn.cache_info().hits
        return None

    def _after(self, name: str, fn, result, token) -> None:
        if name == "spaces.steenrod_series":
            self.counts[f"{name}.hits"] += fn.cache_info().hits - token
        elif name in CHECKS:
            self.counts["checks.reports"] += 1
            self.counts["checks.passed"] += bool(result.passed)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer._before(name, fn, args, kwargs)
            span = tracer.next_span
            tracer.next_span += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((tracer.op, span, parent, name, start, end))
            tracer._after(name, fn, result, token)
            return result

        traced.span_name = name
        return traced

    def metrics(self, stdout_bytes: int, wall_ns: int) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, which needs an untraced pass."""
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls[layer]
            elif stat == "self_s":
                out[metric] = self.self_ns[layer] / 1e9
            elif stat in ("cells", "factors"):
                out[metric] = self.counts[metric]
            elif stat == "repeat_ratio":
                out[metric] = _ratio(self.counts[f"{layer}.repeats"], self.calls[layer])
            elif stat == "hit_ratio":
                out[metric] = _ratio(self.counts[f"{layer}.hits"], self.calls[layer])
        out["cli.stdout_bytes"] = stdout_bytes
        out["checks.pass_ratio"] = _ratio(self.counts["checks.passed"], self.counts["checks.reports"])
        # Self time inside the layers, cli.main's own excluded: it is the outermost
        # span, so a function that lost its span would still count in cli.main.
        out["trace.coverage"] = sum(t for name, t in self.self_ns.items() if name != OUTERMOST) / wall_ns
        return out

    def bases(self) -> dict[str, int]:
        """The base of every ratio, for the run record."""
        return {
            "checks.reports": self.counts["checks.reports"],
            **{f"{name}.calls": self.calls[name] for name in (
                "degrees.stages_up_to_degree", "manifolds.plan", "series.series_of", "spaces.steenrod_series",
            )},
        }


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0

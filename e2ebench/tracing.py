"""The traced run: per-layer self time, exact counts and spans.

Everything here is driven from outside the program.  ``cProfile``
charges each function's self time to the ``repro.<layer>`` package
that defines it (so a private server loop counts for ``pvfs``, not
``sim``); code outside ``repro`` counts as ``ext``.  ``Spans`` wraps
the public entry points of each layer for the duration of the traced
phase, records a span around every call (name, start, end, parent,
experiment id) and collects the objects the counts are read from.
"""

from __future__ import annotations

import cProfile
import functools
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.topology import ClusterTopology
from repro.core import planrun, schemes
from repro.core import scheduler as core_scheduler
from repro.core.estimator import DOSASEstimator
from repro.obs.metrics import Counter, Gauge, Histogram, TimeWeightedGauge, WindowedHistogram
from repro.pvfs.metadata import MetadataServer
from repro.pvfs.server import IOServer
from repro.qos.admission import AdmissionController
from repro.scenario import invariants, runner
from repro.sim.engine import Environment

BENCH_DIR = Path(__file__).resolve().parent
REPRO_DIR = Path(schemes.__file__).resolve().parent.parent

#: Layers reported as metrics; any other ``repro`` package (and the
#: benchmark's own wrappers) is summed into ``other``.
LAYERS = (
    "sim", "pvfs", "core", "cluster", "qos", "straggler", "faults",
    "scenario", "obs", "workload", "kernels", "ext",
)

Label = Tuple[str, int, str]


def label(fn: Callable[..., Any]) -> Label:
    """The key cProfile files ``fn``'s statistics under."""
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


#: Every concrete ``Scheduler`` (the Eq. 4 solvers).
_SOLVERS = [
    cls for cls in vars(core_scheduler).values()
    if isinstance(cls, type) and issubclass(cls, core_scheduler.Scheduler)
    and not getattr(cls.solve, "__isabstractmethod__", False)
]

#: Exact counts read as call counts of the functions that do the work.
CALL_COUNTS: Dict[str, List[Label]] = {
    "pvfs.server_requests": [label(IOServer.submit)],
    "pvfs.files_created": [label(MetadataServer.create)],
    "core.ce_evaluations": [label(DOSASEstimator.evaluate)],
    "qos.screened": [label(AdmissionController.screen)],
    "obs.metric_updates": [label(f) for f in (
        Counter.inc, Gauge.set, Gauge.add, TimeWeightedGauge.set,
        Histogram.observe, WindowedHistogram.observe,
    )],
    "scenario.invariant_checks": [
        label(invariants.check_run), label(invariants.check_slo_floor)
    ],
}

#: Host time inside a function and everything it calls, in ms.
INCLUSIVE_MS: Dict[str, List[Label]] = {
    "core.solver_ms": [label(cls.solve) for cls in _SOLVERS],
    "cluster.build_ms": [label(ClusterTopology.__init__)],
}

_layer_cache: Dict[str, str] = {}


def layer_of(filename: str) -> str:
    """``repro.<layer>`` defining code in ``filename``; else bench/ext."""
    layer = _layer_cache.get(filename)
    if layer is None:
        path = Path(filename)
        if path.is_relative_to(REPRO_DIR):
            top = path.relative_to(REPRO_DIR).parts[0]
            layer = top[:-3] if top.endswith(".py") else top
            if layer == "__init__":
                layer = "repro"
        elif path.is_relative_to(BENCH_DIR):
            layer = "bench"
        else:
            layer = "ext"  # stdlib, numpy, networkx and C builtins ("~")
        _layer_cache[filename] = layer
    return layer


def _where(key: Label) -> str:
    filename, line, name = key
    path = Path(filename)
    if path.is_relative_to(REPRO_DIR.parent):
        filename = str(path.relative_to(REPRO_DIR.parent))
    elif filename != "~":
        filename = path.name
    return f"{filename}:{line}({name})"


class Spans:
    """Wraps the layers' public entry points; records spans and results.

    Use as a context manager around the traced iterations.  Set ``t0``
    when an iteration starts and call ``reset`` once its counts are
    read, so nothing it captured survives into the next iteration.
    """

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []
        self.t0 = time.perf_counter()
        self.reset()

    def reset(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.experiment = -1
        self.results: List[Any] = []
        self.reports: List[Any] = []
        self.servers: List[IOServer] = []
        self.sched_stats: List[Dict[str, Any]] = []
        self.bytes_requested = 0

    # -- wrapping ------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(
        self, name: str, fn: Callable[..., Any],
        after: Optional[Callable[..., None]] = None, experiment: bool = False,
        collect: str = "",
    ) -> Callable[..., Any]:
        """``fn`` recording a span per call; ``after`` sees its arguments,
        and its return value is appended to the list named ``collect``."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if experiment:
                self.experiment += 1
            sid = len(self.spans)
            span = [name, time.perf_counter() - self.t0, 0.0,
                    self.stack[-1] if self.stack else None, self.experiment]
            self.spans.append(span)
            self.stack.append(sid)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter() - self.t0
                if after is not None:
                    after(args, kwargs)
            if collect:
                getattr(self, collect).append(value)
            return value

        return wrapper

    def _scheme_inputs(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        spec = args[1] if len(args) > 1 else kwargs["spec"]
        self.bytes_requested += spec.total_bytes

    def _plan_inputs(self, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> None:
        plan = args[1] if len(args) > 1 else kwargs["plan"]
        self.bytes_requested += plan.total_bytes

    def __enter__(self) -> "Spans":
        run_scheme = self._spanned(
            "run_scheme", schemes.run_scheme, self._scheme_inputs,
            experiment=True, collect="results",
        )
        self._patch(schemes, "run_scheme", run_scheme)
        self._patch(runner, "run_scheme", run_scheme)
        self._patch(planrun, "run_plan", self._spanned(
            "run_plan", planrun.run_plan, self._plan_inputs,
            experiment=True, collect="results",
        ))
        self._patch(runner, "run_scenario", self._spanned(
            "run_scenario", runner.run_scenario, collect="reports"
        ))
        self._patch(Environment, "run", self._spanned(
            "sim.Environment.run", Environment.run,
            lambda a, k: self.sched_stats.append(a[0].scheduler_stats()),
        ))
        init = IOServer.__init__

        @functools.wraps(init)
        def server_init(server: IOServer, *args: Any, **kwargs: Any) -> None:
            init(server, *args, **kwargs)
            self.servers.append(server)

        self._patch(IOServer, "__init__", server_init)
        for owner, attr, name in (
            (ClusterTopology, "__init__", "cluster.ClusterTopology"),
            (IOServer, "submit", "pvfs.IOServer.submit"),
            (MetadataServer, "create", "pvfs.MetadataServer.create"),
            (DOSASEstimator, "evaluate", "core.DOSASEstimator.evaluate"),
            (AdmissionController, "screen", "qos.AdmissionController.screen"),
            (runner, "check_run", "scenario.check_run"),
            (runner, "check_slo_floor", "scenario.check_slo_floor"),
        ):
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        for cls in _SOLVERS:
            self._patch(cls, "solve", self._spanned(f"core.{cls.__name__}.solve", cls.solve))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counts read from the captured objects ---------------------------
    def result_counts(self) -> Dict[str, float]:
        """Exact per-iteration counts from the public result objects."""
        out: Dict[str, float] = {}
        for key in ("served_active", "demoted", "interrupted", "retries", "retry_timeouts"):
            out[f"core.{key}"] = sum(getattr(r, key) for r in self.results)
        decided = out["core.served_active"] + out["core.demoted"]
        out["core.offload_ratio"] = out["core.served_active"] / decided if decided else 0.0
        scheme_results = [r for r in self.results if hasattr(r, "qos_stats")]

        def qos(*keys: str) -> int:
            return sum(int(r.qos_stats.get(k, 0)) for r in scheme_results for k in keys)

        out["qos.shed"] = qos("requests_shed", "requests_shed_queued")
        out["qos.overloaded"] = qos("requests_overloaded")
        out["qos.deadline_expired"] = qos("deadline_expired")
        issued = sum(r.hedges_issued for r in scheme_results)
        won = sum(r.hedges_won for r in scheme_results)
        out["straggler.hedges_issued"] = issued
        out["straggler.hedge_win_ratio"] = won / issued if issued else 0.0
        out["faults.injected"] = sum(len(r.fault_log) for r in self.results)
        out["scenario.violations"] = sum(len(r.violations()) for r in self.reports)
        out["sim.max_pending"] = max((s["max_depth"] for s in self.sched_stats), default=0)
        out["sim.compactions"] = sum(s["compactions"] for s in self.sched_stats)
        streamed = sum(s.metrics.get_counter("bytes_streamed") for s in self.servers)
        out["pvfs.read_amplification"] = (
            streamed / self.bytes_requested if self.bytes_requested else 0.0
        )
        return out

    def rows(self) -> Dict[str, Any]:
        """The iteration's spans, one row each; a span's id is its index."""
        return {
            "fields": ["name", "start_ms", "end_ms", "parent", "experiment"],
            "rows": [
                [name, round(start * 1e3, 4), round(end * 1e3, 4), parent, exp]
                for name, start, end, parent, exp in self.spans
            ],
        }

    def span_summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total ms, and self ms (minus child spans)."""
        child_ms = [0.0] * len(self.spans)
        for _name, start, end, parent, _exp in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        out: Dict[str, Dict[str, float]] = {}
        for (name, start, end, _parent, _exp), children in zip(self.spans, child_ms):
            total = (end - start) * 1e3
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += total
            entry["self_ms"] += total - children
        return out


class Profile:
    """Per-layer self time and exact counts of one profiled call."""

    def __init__(self, fn: Callable[[], Any]) -> None:
        prof = cProfile.Profile()
        start = time.perf_counter()
        prof.enable()
        try:
            self.value = fn()
        finally:
            prof.disable()
        self.seconds = time.perf_counter() - start
        prof.create_stats()
        self.stats: Dict[Label, Any] = prof.stats  # type: ignore[attr-defined]
        self.self_ms: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for key, (_cc, nc, tt, _ct, _callers) in self.stats.items():
            layer = layer_of(key[0])
            self.self_ms[layer] = self.self_ms.get(layer, 0.0) + tt * 1e3
            self.calls[layer] = self.calls.get(layer, 0) + nc

    def counts(self) -> Dict[str, float]:
        """Exact call counts of the layers and of the counted functions."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        for metric, labels in CALL_COUNTS.items():
            out[metric] = sum(self.stats[k][1] for k in labels if k in self.stats)
        return out

    def timings(self) -> Dict[str, float]:
        """Host-time metrics of this call, in ms."""
        out = {f"{layer}.self_ms": self.self_ms.get(layer, 0.0) for layer in LAYERS}
        out["other.self_ms"] = sum(
            ms for layer, ms in self.self_ms.items() if layer not in LAYERS
        )
        for metric, labels in INCLUSIVE_MS.items():
            out[metric] = sum(self.stats[k][3] * 1e3 for k in labels if k in self.stats)
        return out


def _charge_callers(
    stats: Dict[Label, Any], key: Label, ms: float, out: Dict[Label, float], depth: int
) -> None:
    """Charge ``ms`` spent under ``key`` to its nearest callers in ``repro``,
    split by each caller's share of ``key``'s inclusive time."""
    callers = stats[key][4]
    total = sum(edge[3] for edge in callers.values())
    for caller, edge in callers.items():
        share = ms * edge[3] / total if total else ms / len(callers)
        if layer_of(caller[0]) != "ext":
            out[caller] = out.get(caller, 0.0) + share
        elif depth < 4 and caller in stats:
            _charge_callers(stats, caller, share, out, depth + 1)


def top_functions(profiles: List[Profile], per_layer: int = 5) -> Dict[str, Any]:
    """The costliest functions of each layer, and who in ``repro`` the
    ``ext`` self time is spent for (followed up through ext callers)."""
    n = len(profiles)
    funcs: Dict[Label, List[float]] = {}
    ext_callers: Dict[Label, float] = {}
    for p in profiles:
        for key, (_cc, nc, tt, _ct, callers) in p.stats.items():
            acc = funcs.setdefault(key, [0.0, 0.0])
            acc[0] += tt * 1e3 / n
            acc[1] += nc / n
            if layer_of(key[0]) != "ext":
                continue
            for caller, edge in callers.items():
                ms = edge[2] * 1e3 / n
                if layer_of(caller[0]) != "ext":
                    ext_callers[caller] = ext_callers.get(caller, 0.0) + ms
                elif caller in p.stats:
                    _charge_callers(p.stats, caller, ms, ext_callers, 1)
    by_layer: Dict[str, List[Tuple[float, float, Label]]] = {}
    for key, (ms, calls) in funcs.items():
        by_layer.setdefault(layer_of(key[0]), []).append((ms, calls, key))
    out: Dict[str, Any] = {
        layer: [
            {"function": _where(k), "self_ms": round(ms, 3), "calls": calls}
            for ms, calls, k in sorted(rows, reverse=True)[:per_layer]
        ]
        for layer, rows in sorted(by_layer.items())
    }
    out["ext_top_callers"] = [
        {"caller": _where(k), "layer": layer_of(k[0]), "ext_self_ms": round(ms, 3)}
        for k, ms in sorted(ext_callers.items(), key=lambda kv: -kv[1])[:10]
    ]
    return out


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per key, the median over ``rows``."""
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}

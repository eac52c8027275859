"""The four end-to-end workloads: inputs, one iteration, output checks.

A workload's constructor builds its inputs from the run seed;
``run`` executes one iteration -- its full set of experiments --
through the program's public entry points, and ``check`` verifies
every simulated output.  Only ``run`` is timed.  Entry points are looked up on
their modules at call time so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.config import MB, discfarm_config
from repro.core import planrun, schemes
from repro.core.model import CostModel
from repro.core.schemes import Scheme, WorkloadSpec, cost_models_from_registry
from repro.kernels.registry import default_registry
from repro.pvfs.client import reset_parent_ids
from repro.pvfs.requests import reset_request_ids
from repro.scenario import runner
from repro.scenario.library import get_scenario, list_scenarios
from repro.workload.apps import BatchApplication, StreamingApplication
from repro.workload.generator import ArrivalPattern, WorkloadGenerator

PAPER_N = (1, 2, 4, 8, 16, 32, 64)

#: EXPERIMENTS.md, Figs. 4/7: gaussian2d at 128 MB, n -> (TS, AS, DOSAS) seconds.
FIG4_7 = {
    1: (2.68, 1.60, 1.60),
    2: (3.77, 3.20, 3.20),
    4: (5.94, 6.40, 5.94),
    8: (10.28, 12.80, 10.28),
    16: (18.96, 25.60, 18.96),
    32: (36.31, 51.20, 36.31),
    64: (71.02, 102.40, 71.02),
}

#: EXPERIMENTS.md, Fig. 6: sum at 128 MB, n -> (TS, AS) seconds.
FIG6 = {1: (1.23, 0.15), 8: (8.83, 1.19), 64: (69.57, 9.53)}


@dataclass
class Outcome:
    """What one iteration's output check found."""

    attempted: int
    failed: int
    digest: str
    errors: List[str] = field(default_factory=list)


def _reset_ids() -> None:
    # Process-global id sequences restart per experiment, as the
    # scenario runner does, so digests and counts repeat per seed.
    reset_request_ids()
    reset_parent_ids()


def _digest(rows: Any) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _same(value: float, expected: float) -> bool:
    return abs(round(value, 2) - expected) < 1e-9


class PaperGrid:
    """TS/AS/DOSAS x {gaussian2d, sum} x n in 1..64 on 4 servers at 128 MB."""

    name = "paper-grid"

    def __init__(self, seed: int) -> None:
        self.points: List[Tuple[Scheme, WorkloadSpec]] = [
            (scheme, WorkloadSpec(
                kernel=kernel, n_requests=n, request_bytes=128 * MB,
                n_storage=4, seed=seed,
            ))
            for scheme in Scheme
            for kernel in ("gaussian2d", "sum")
            for n in PAPER_N
        ]

    def run(self) -> List[Any]:
        out = []
        for scheme, spec in self.points:
            _reset_ids()
            out.append(schemes.run_scheme(scheme, spec))
        return out

    def check(self, results: List[Any]) -> Outcome:
        attempted = sum(spec.total_requests for _, spec in self.points)
        errors: List[str] = []
        failed = 0
        span: Dict[Tuple[str, int], Dict[Scheme, float]] = {}
        for (scheme, spec), r in zip(self.points, results):
            failed += spec.total_requests - len(r.per_request_times)
            span.setdefault((spec.kernel, spec.n_requests), {})[scheme] = r.makespan
        for (kernel, n), by in sorted(span.items()):
            ts, as_, dosas = by[Scheme.TS], by[Scheme.AS], by[Scheme.DOSAS]
            if kernel == "gaussian2d":
                expected: Tuple[float, ...] = FIG4_7[n]
                got: Tuple[float, ...] = (ts, as_, dosas)
            elif n in FIG6:
                expected, got = FIG6[n], (ts, as_)
            else:
                expected = got = ()
            if not all(_same(g, e) for g, e in zip(got, expected)):
                errors.append(f"{kernel} n={n}: makespans {got} != {expected}")
            if dosas > 1.05 * min(ts, as_):
                errors.append(f"{kernel} n={n}: DOSAS {dosas} > 1.05 x min(TS, AS)")
        rows = [
            (s.value, spec.kernel, spec.n_requests, r.makespan, r.served_active,
             r.demoted, r.interrupted, r.per_request_times)
            for (s, spec), r in zip(self.points, results)
        ]
        return Outcome(attempted, failed, _digest(rows), errors)


class ScaleTS:
    """TS with 512 requests/server x 16 servers x 16 MB: 8192 clients."""

    name = "scale-ts"

    def __init__(self, seed: int) -> None:
        self.spec = WorkloadSpec(
            kernel="gaussian2d", n_requests=512, request_bytes=16 * MB,
            n_storage=16, seed=seed,
        )
        # Sec. III-D: with every request normal, one server's queue
        # drains in g(sum of sizes) + f_compute(largest request).
        config = discfarm_config(n_storage=self.spec.n_storage)
        rate = default_registry.get(self.spec.kernel).rate
        model = CostModel(
            kernel=cost_models_from_registry(default_registry)[self.spec.kernel],
            storage_capability=rate * config.storage_spec.core_speed,
            compute_capability=rate * config.compute_spec.core_speed,
            bandwidth=config.network_bandwidth,
        )
        self.expected = model.t_all_normal(
            [float(self.spec.request_bytes)] * self.spec.n_requests
        )

    def run(self) -> Any:
        _reset_ids()
        return schemes.run_scheme(Scheme.TS, self.spec)

    def check(self, r: Any) -> Outcome:
        attempted = self.spec.total_requests
        errors = []
        if not math.isclose(r.makespan, self.expected, rel_tol=1e-9):
            errors.append(f"makespan {r.makespan} != analytic T_N {self.expected}")
        return Outcome(
            attempted, attempted - len(r.per_request_times),
            _digest((r.makespan, r.per_request_latencies)), errors,
        )


class MultiApp:
    """run_plan on the Figure-1 mix over 16 servers, Poisson arrivals."""

    name = "multi-app"

    def __init__(self, seed: int) -> None:
        apps = [
            BatchApplication("imaging", 128, 256 * MB, operation="gaussian2d"),
            StreamingApplication(
                "climate", 64, 512 * MB, rounds=3, think_time=5.0, operation="sum"
            ),
            BatchApplication("backup", 64, 1024 * MB),
        ]
        self.plan = WorkloadGenerator(seed).plan(apps, ArrivalPattern.POISSON, rate=8.0)
        self.spec = WorkloadSpec(n_storage=16, seed=seed)
        self.keys = Counter((r.app, r.process_index, r.sequence) for r in self.plan)

    def run(self) -> List[Any]:
        out = []
        for scheme in Scheme:
            _reset_ids()
            out.append(planrun.run_plan(scheme, self.plan, self.spec))
        return out

    def check(self, results: List[Any]) -> Outcome:
        errors: List[str] = []
        failed = 0
        rows = []
        for scheme, r in zip(Scheme, results):
            done = Counter(
                (o.request.app, o.request.process_index, o.request.sequence)
                for o in r.outcomes
            )
            failed += sum(max(0, n - done[k]) for k, n in self.keys.items())
            if done != self.keys:
                errors.append(f"{scheme.value}: requests not completed exactly once")
            nbytes = sum(o.request.size for o in r.outcomes)
            if nbytes != self.plan.total_bytes:
                errors.append(
                    f"{scheme.value}: completed {nbytes} B of {self.plan.total_bytes} B"
                )
            rows.append((
                scheme.value, r.served_active, r.demoted, r.interrupted,
                sorted(
                    (o.request.app, o.request.process_index, o.request.sequence,
                     o.finished_at, o.disposition)
                    for o in r.outcomes
                ),
            ))
        return Outcome(len(self.plan) * len(results), failed, _digest(rows), errors)


class ScenarioLibrary:
    """run_scenario over every built-in scenario at the run seed."""

    name = "scenario-library"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scenarios = [get_scenario(name) for name in list_scenarios()]

    def run(self) -> Tuple[List[Any], List[Tuple[int, int]]]:
        # Each run's (requests attempted, requests completed), in call
        # order; a run that raised completed none.  ``run_scenario``
        # keeps no per-request outcome, so its ``run_scheme`` is wrapped.
        tallies: List[Tuple[int, int]] = []
        run_scheme = runner.run_scheme

        def tallied(scheme: Scheme, spec: WorkloadSpec, **kwargs: Any) -> Any:
            tallies.append((spec.total_requests, 0))
            result = run_scheme(scheme, spec, **kwargs)
            tallies[-1] = (spec.total_requests, len(result.per_request_times))
            return result

        runner.run_scheme = tallied
        try:
            reports = [
                runner.run_scenario(sc, seeds=(self.seed,)) for sc in self.scenarios
            ]
        finally:
            runner.run_scheme = run_scheme
        return reports, tallies

    def check(self, out: Tuple[List[Any], List[Tuple[int, int]]]) -> Outcome:
        reports, tallies = out
        errors: List[str] = []
        runs = [
            run for report in reports
            for seed_result in report.seeds for run in seed_result.runs
        ]
        if len(runs) != len(tallies):
            errors.append(f"{len(tallies)} run_scheme calls for {len(runs)} runs")
        attempted = failed = 0
        # Baselines are excluded: only protected runs count requests.
        for run, (n, completed) in zip(runs, tallies):
            if run.mode == "protected":
                attempted += n
                failed += n - completed
        for sc, report in zip(self.scenarios, reports):
            errors.extend(f"{sc.name}: {v}" for v in report.violations())
        return Outcome(
            attempted, failed, _digest([r.to_json() for r in reports]), errors
        )


WORKLOADS: Dict[str, Callable[[int], Any]] = {
    w.name: w for w in (PaperGrid, ScaleTS, MultiApp, ScenarioLibrary)
}

#!/usr/bin/env python3
"""End-to-end host-time benchmark of the DOSAS reproduction.

Run from the repository root, one workload per process::

    python3 e2ebench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no profiler and
none of the traced run's wrappers: ``iter_s`` (median host seconds per iteration, one iteration
being the workload's full set of experiments), ``setup_s`` (median over
fresh child processes of the time from spawn until the first iteration
could start), both scaled to a fixed host speed by the reference loop
in ``reference.py``; ``peak_rss_mb`` and ``completed_ratio`` (simulated
requests completed / attempted).  ``--trace 1`` is the separate traced
run: it times untraced iterations for half of ``--seconds``, then
profiles the rest and reports per-layer self time, exact counts and
``trace_overhead``.  Every iteration's outputs are checked; a failed
check prints ``"correct": false`` and exits 1.  Results are written to
``e2ebench/out/``; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import reference

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("paper-grid", "scale-ts", "multi-app", "scenario-library")

#: At least this many timed iterations, however long they take.
MIN_ITERATIONS = 3
#: Fresh processes whose set-up time is measured per run.
SETUP_PROBES = 5


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by every process on the host, so a
    # child's timestamp can be compared with its parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe(workload: str, seed: int) -> None:
    """Set-up probe: import, build the inputs, print the ready time."""
    _import_program()
    import workloads

    workloads.WORKLOADS[workload](seed)
    print(repr(_clock()), flush=True)


def measure_setup(workload: str, seed: int) -> Tuple[List[float], List[float]]:
    """Seconds from spawning a fresh interpreter until its inputs are
    built, per probe: as measured, and at the reference speed."""
    samples = []
    references = [reference.reference_seconds()]
    for _ in range(SETUP_PROBES):
        start = _clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
        references.append(reference.reference_seconds())
    return samples, reference.scaled(samples, references)


def timed_iterations(step: Callable[[], float], seconds: float, iterations: int) -> List[float]:
    """Call ``step`` (which returns its timed seconds) ``iterations``
    times, or until ``seconds`` have passed if ``iterations`` is 0."""
    times: List[float] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        times.append(step())
        if iterations:
            if len(times) >= iterations:
                return times
        elif len(times) >= MIN_ITERATIONS and time.perf_counter() - start >= seconds:
            return times


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Checker:
    """Checks each iteration's outputs and totals simulated requests."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        self.digests: set = set()

    def __call__(self, results: Any, counted: bool = True) -> None:
        outcome = self.workload.check(results)
        self.digests.add(outcome.digest)
        self.errors.extend(outcome.errors)
        if counted:
            self.attempted += outcome.attempted
            # An iteration that fails its check counts every request failed.
            self.failed += outcome.attempted if outcome.errors else outcome.failed

    def summary(self) -> Dict[str, Any]:
        errors = list(dict.fromkeys(self.errors))  # one line per distinct failure
        if len(self.digests) > 1:
            errors.append(f"digest differs between iterations: {sorted(self.digests)}")
        return {
            "correct": not errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "digest": sorted(self.digests),
            "errors": errors[:20],
        }


class Untraced:
    """Timed iterations without the profiler or the traced run's
    wrappers, each one bracketed by passes of the reference loop."""

    def __init__(
        self, workload: Any, check: Checker, seconds: float, iterations: int
    ) -> None:
        references = [reference.reference_seconds()]

        def step() -> float:
            start = time.perf_counter()
            results = workload.run()
            elapsed = time.perf_counter() - start
            check(results)
            # The reference pass must not see this iteration's objects.
            del results
            references.append(reference.reference_seconds())
            return elapsed

        #: Host seconds per iteration, as measured.
        self.host = timed_iterations(step, seconds, iterations)
        #: The same at the reference speed.
        self.scaled = reference.scaled(self.host, references)
        self.references = references


def run_end_to_end(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    check = Checker(workload)
    check(workload.run(), counted=False)  # warm-up
    # Read before the reference loop first runs: its memory stays
    # mapped, and the warm-up iteration did the same work as the rest.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_host, setup = measure_setup(args.workload, args.seed)
    timed = Untraced(workload, check, args.seconds, args.iterations)
    summary = check.summary()
    completed = 1.0 - summary["failed"] / summary["attempted"]
    metrics = {
        "iter_s": {"value": statistics.median(timed.scaled), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "completed_ratio": {"value": completed, "unit": "ratio"},
    }
    detail = {
        "iter_s": quartiles(timed.scaled),
        "iter_s_host": quartiles(timed.host),
        "iter_s_samples": timed.scaled,
        "iter_s_host_samples": timed.host,
        "reference_s_samples": timed.references,
        "setup_s_samples": setup,
        "setup_s_host_samples": setup_host,
        "failed_ratio": 1.0 - completed,
        **summary,
    }
    return metrics, detail


def run_traced(args: argparse.Namespace) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    import tracing
    import workloads

    build = tracing.Profile(lambda: workloads.WORKLOADS[args.workload](args.seed))
    workload = build.value
    check = Checker(workload)
    check(workload.run(), counted=False)  # warm-up
    plain = Untraced(workload, check, args.seconds / 2, args.iterations).host

    profiles: List[Any] = []
    counts: List[Dict[str, float]] = []
    timings: List[Dict[str, float]] = []
    first: Dict[str, Any] = {}
    with tracing.Spans() as spans:

        def step() -> float:
            spans.t0 = time.perf_counter()
            profile = tracing.Profile(workload.run)
            check(profile.value)
            profile.value = None  # keep only the statistics
            profiles.append(profile)
            counts.append({**profile.counts(), **spans.result_counts()})
            timings.append(profile.timings())
            if not first:
                first.update(span_summary=spans.span_summary(), spans=spans.rows())
            spans.reset()
            return profile.seconds

        traced = timed_iterations(step, args.seconds / 2, args.iterations)
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        check.errors.append("per-layer counts differ between traced iterations")
    traced_s = statistics.median(traced)
    values: Dict[str, float] = {
        **tracing.median_of(timings),
        **counts[0],
        "workload.setup_ms": build.self_ms.get("workload", 0.0),
        "traced_iter_s": traced_s,
        "trace_overhead": traced_s / statistics.median(plain),
    }
    metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in sorted(values)}
    detail = {
        "untraced_iter_s": quartiles(plain),
        "traced_iter_s": quartiles(traced),
        "counts_repeat": repeat,
        "setup_self_ms": build.self_ms,
        "top_functions": tracing.top_functions(profiles),
        **first,
        **check.summary(),
    }
    return metrics, detail


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_amplification", "_overhead")):
        return "ratio"
    return "count"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time (a traced run splits it in two)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=0,
                        help="time exactly this many iterations instead of --seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    if args.setup_probe:
        _probe(args.workload, args.seed)
        return 0
    metrics, detail = (run_traced if args.trace else run_end_to_end)(args)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    spans = detail.pop("spans", None)
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")
    out = stem.with_suffix(".json")
    record = {"workload": args.workload, "seed": args.seed, "metrics": metrics, **detail}
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:>16s}  {name:<28s} {m['value']:>14.6g} {m['unit']}")
    if "iter_s" in detail:
        q = detail["iter_s"]
        h = detail["iter_s_host"]
        print(f"{args.workload:>16s}  iter_s quartiles {q['q1']:.4f} / {q['median']:.4f} / "
              f"{q['q3']:.4f} s over {q['n']} iterations (host s as measured: "
              f"{h['q1']:.4f} / {h['median']:.4f} / {h['q3']:.4f}); "
              f"failed_ratio {detail['failed_ratio']:.6g}")
    for error in detail["errors"]:
        print(f"CHECK FAILED: {error}")
    print(f"{args.workload:>16s}  details in {out.relative_to(BENCH_DIR.parent)}")
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

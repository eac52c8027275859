"""A fixed reference loop that calibrates host speed.

On a shared host the speed this benchmark gets drifts by tens of
percent, in phases that last from seconds to minutes.  Timing this
loop right before and after each measured interval, and scaling the
interval by ``REFERENCE_SECONDS`` / (mean loop time), turns host
seconds into host seconds at one fixed speed: the drift cancels,
while a change to the program still moves the result in full, because
the loop never calls into the program.  The loop mimics the
simulator's host work -- thousands of generator processes driven
through a heap of small event objects, with a table of a few MB that
keeps the caches busy -- so that host interference slows both alike;
a loop with a small memory footprint did not track it.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Dict, Generator, List, Tuple

#: About the loop's time on the 2.1 GHz Intel Xeon virtual machine the
#: committed baseline was measured on, when it ran at full speed; scaled
#: times are host seconds at that speed.
REFERENCE_SECONDS = 0.065

_PROCESSES = 3750
_STEPS = 8


class _Event:
    __slots__ = ("time", "process", "data")

    def __init__(self, when: float, process: Generator[float, float, None], data: Any) -> None:
        self.time = when
        self.process = process
        self.data = data


def _process(i: int, table: Dict[Tuple[int, int], List[Any]]) -> Generator[float, float, None]:
    now = 0.0
    for k in range(_STEPS):
        table[(i, k)] = [now, k, str(i)]
        now = yield ((i * 37 + k * 11) % 97) * 0.01 + 0.001


def _loop() -> int:
    queue: List[Tuple[float, int, _Event]] = []
    table: Dict[Tuple[int, int], List[Any]] = {}
    seq = 0
    for i in range(_PROCESSES):
        proc = _process(i, table)
        heapq.heappush(queue, (next(proc), seq, _Event(0.0, proc, {})))
        seq += 1
    while queue:
        now, _, event = heapq.heappop(queue)
        try:
            delay = event.process.send(now)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq, _Event(now, event.process, {"seq": seq})))
    return len(table)


def reference_seconds() -> float:
    """Host seconds one pass of the reference loop takes right now.

    Everything alive before the pass is frozen out of the collector, so
    the collections the loop triggers scan only the loop's own objects,
    however many the program keeps alive.
    """
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        count = _loop()
        elapsed = time.perf_counter() - start
    finally:
        gc.unfreeze()
    if count != _PROCESSES * _STEPS:
        raise RuntimeError("reference loop miscounted")
    return elapsed


def scaled(intervals: List[float], references: List[float]) -> List[float]:
    """Each interval at the reference speed; ``references[i]`` and
    ``references[i + 1]`` were timed right before and after interval i."""
    if len(references) != len(intervals) + 1:
        raise ValueError("need one reference timing before and after each interval")
    return [
        t * REFERENCE_SECONDS * 2 / (before + after)
        for t, before, after in zip(intervals, references, references[1:])
    ]

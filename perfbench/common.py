"""Pieces shared by the four workloads: the result record and the round loop."""

from __future__ import annotations

import ctypes
import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


@dataclass
class PassResult:
    """What one measured pass of a workload produced.

    ``ops`` counts the workload's unit of work (executions, allocations,
    programs or jobs) completed in ``seconds`` of wall time; workloads
    that run in rounds also keep each round's rate in ``rates``, and
    then ``ops_per_s`` is their median, so one round slowed by another
    tenant of the machine does not move it;
    ``latencies_ms`` holds one entry per request (campaign, execution,
    oracle round or job).  ``attempted``/``failed`` count operations as
    the benchmark reports them; ``errors`` lists every output check
    that failed.  ``info`` carries the workload's own figures for the
    human-readable table, ``layer`` the per-layer figures only the
    workload can measure (traced passes only), ``notes`` extra lines
    for the table.
    """

    ops: float = 0.0
    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        if self.rates:
            return median(self.rates)
        return self.ops / self.seconds if self.seconds > 0 else 0.0


def run_rounds(seconds: float, one_round: Callable[[int], None]) -> float:
    """Run whole rounds while the next one is expected to fit; >= 1 round.

    Returns the wall time of the rounds run.  Stopping on the predicted
    end (mean round time so far) keeps every run inside its budget and
    makes every round the same operations, whatever the machine speed.
    """
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        began = time.perf_counter()
        one_round(len(durations))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + sum(durations) / len(durations) > seconds:
            return elapsed


PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits.

    The service process starts a resource tracker of its own, which
    ends only after the service has; as this process's subreaper it
    comes back here to be reaped by :func:`stop_children` instead of
    outliving the run.  Linux only; elsewhere a no-op.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    pids = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return []
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            pass
    return sorted(pids)


def stop_children(timeout: float = 10.0) -> None:
    """Wait for every process this run started, directly or not, to end.

    The fleet's pools terminate their workers without joining them, and
    shared memory starts multiprocessing's resource tracker, which
    outlives this process unless it is stopped: join the workers, stop
    the tracker, then reap whatever else is left, adopted orphans
    included.  A process still alive after ``timeout`` is killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    # The tracker ends once every holder of its pipe has closed it; the
    # workers that held it were joined above.
    resource_tracker._resource_tracker._stop()
    while True:
        pids = _child_pids()
        if not pids:
            return
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        time.sleep(0.01)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def frame_module(location: str) -> str:
    """``MODULE/file.c:line`` -> ``MODULE`` (module names may hold '/')."""
    return location.rsplit("/", 1)[0]

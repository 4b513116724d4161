"""In-memory span recorder and the probes that attach it to the layers.

A :class:`Tracer` records one span per call at a layer boundary: its
id, its parent's id (0 for a root), its name (``<layer>.<boundary>``),
start and end in ``perf_counter_ns`` units, and the execution or job id
that the benchmark's workload code set for the calling thread.  Spans stay in a
Python list until the run ends; :meth:`Tracer.write` then dumps them as
JSON lines.

:func:`instrument` wraps the program's public entry points from the
outside -- class methods, module attributes and the one registry dict
the oracle dispatches inline detector arms through -- and restores every
one of them on exit, so nothing under ``src/`` changes and an untraced
pass in the same process runs the original code.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

# (span_id, parent_id, name, start_ns, end_ns, job_id)
Span = Tuple[int, int, str, int, int, Optional[str]]

# Layers, in the package's own module names.  heap and machine expose
# counts only: the allocator runs inlined inside core.malloc/core.free
# and the CostLedger is simulated time, not wall time.
SPAN_LAYERS = ("workloads", "core", "fleet", "detectors", "oracle", "triage", "service")


class Tracer:
    """Collects spans and per-execution counters in memory."""

    def __init__(self, ids: Optional[Iterator[int]] = None) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        # Service executions run on several threads at once.
        self.counters_lock = threading.Lock()
        # Pass another tracer's ``ids`` to keep span ids unique across both.
        self.ids = ids if ids is not None else itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Context
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """Tag every span the calling thread records with ``job_id``."""
        previous = getattr(self._local, "job", None)
        self._local.job = job_id
        try:
            yield
        finally:
            self._local.job = previous

    def record(self, name: str, start_ns: int, end_ns: int, job_id: Optional[str]) -> None:
        """A span measured elsewhere (e.g. between two observed events)."""
        self.spans.append((next(self.ids), 0, name, start_ns, end_ns, job_id))

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span per call."""
        ids, spans, local, clock = self.ids, self.spans, self._local, time.perf_counter_ns
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, getattr(local, "job", None)))

        traced.__wrapped__ = fn
        # free(NULL) handling is decided by this marker (LibraryInterposer).
        if getattr(fn, "_handles_null", False):
            traced._handles_null = True
        return traced

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def durations_ms(self, name: str) -> List[float]:
        return [(end - start) / 1e6 for _, _, n, start, end, _ in self.spans if n == name]

    def mean_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return sum(values) / len(values) if values else 0.0

    def self_times_ms(self) -> Dict[str, float]:
        """Per-span-name self time: duration minus child spans' durations."""
        child_ns: Dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            totals[name] += (end - start - child_ns.get(span_id, 0)) / 1e6
        return totals

    def layer_summary(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self time in ms, number of spans)."""
        self_ms = self.self_times_ms()
        summary = {layer: [0.0, 0] for layer in SPAN_LAYERS}
        for _, _, name, _, _, _ in self.spans:
            summary.setdefault(name.split(".", 1)[0], [0.0, 0])[1] += 1
        for name, value in self_ms.items():
            summary[name.split(".", 1)[0]][0] += value
        return {layer: (v[0], v[1]) for layer, v in summary.items()}

    def write(self, path: str, earlier: Iterable[Span] = ()) -> None:
        """Gzipped JSON lines, one ``[id, parent, name, start_ns, end_ns,
        job]`` array per span after a header line; ``earlier`` (another
        tracer's spans) go first."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(json.dumps(["id", "parent", "name", "start_ns", "end_ns", "job"]) + "\n")
            for span in itertools.chain(earlier, self.spans):
                handle.write(json.dumps(span) + "\n")


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        had_own = attr in vars(owner) if isinstance(owner, type) else True
        self._undo.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key: str, value: object) -> None:
        self._undo.append((mapping, key, None, mapping[key]))
        mapping[key] = value

    def undo(self) -> None:
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own is None:
                owner[attr] = original
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _record_runtime(tracer: Tracer, runtime, interposer) -> None:
    """Per-execution counts, read once at shutdown."""
    stats = runtime.stats()
    ledger = runtime.machine.ledger
    allocator = interposer.raw.allocator
    counts = {
        "executions": 1,
        "allocations": stats.allocations,
        "contexts": stats.contexts,
        "watched_times": stats.watched_times,
        "traps": stats.traps_handled,
        "sim_ns": ledger.total_nanos(),
        "perf_syscalls": sum(
            n for event, n in ledger.counts().items() if event.startswith("syscall.")
        ),
        "peak_live_blocks": allocator.stats.peak_live_blocks,
    }
    if hasattr(allocator, "free_extents"):
        counts["free_extents"] = len(allocator.free_extents())
    with tracer.counters_lock:
        for key, value in counts.items():
            tracer.counters[key] += value


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer boundary the benchmark measures; undo on exit."""
    from repro.core import runtime as core_runtime
    from repro.core.sampling import SamplingManagementUnit
    from repro.fleet import runner as fleet_runner
    from repro.fleet.aggregate import FleetAggregator
    from repro.fleet.evidence_store import EvidenceStore
    from repro.fleet.pool import FleetPool
    from repro.heap.interpose import LibraryInterposer
    from repro.oracle import harness as oracle_harness
    from repro.oracle import runner as oracle_runner
    from repro.triage import clustering as triage_clustering
    from repro.triage.bugdb import BugDatabase
    from repro.workloads.base import SyntheticBuggyApp

    patches = _Patches()
    wrap = tracer.wrap
    CSODRuntime = core_runtime.CSODRuntime

    # workloads: app build (schedule + sites) and the driver loop.
    patches.set(SyntheticBuggyApp, "__init__", wrap(SyntheticBuggyApp.__init__, "workloads.build"))
    patches.set(SyntheticBuggyApp, "run", wrap(SyntheticBuggyApp.run, "workloads.run"))

    # core: construction, the interposed hot path, bucket walk, shutdown.
    original_init = CSODRuntime.__init__
    original_shutdown = CSODRuntime.shutdown
    interposers: Dict[int, object] = {}

    def runtime_init(self, machine, interposer, *args, **kwargs):
        original_init(self, machine, interposer, *args, **kwargs)
        interposers[id(self)] = interposer

    def runtime_shutdown(self):
        try:
            return traced_shutdown(self)
        finally:
            interposer = interposers.pop(id(self), None)
            if interposer is not None:
                _record_runtime(tracer, self, interposer)

    traced_shutdown = wrap(original_shutdown, "core.shutdown")
    patches.set(CSODRuntime, "__init__", wrap(runtime_init, "core.runtime_init"))
    patches.set(CSODRuntime, "shutdown", runtime_shutdown)

    original_preload = LibraryInterposer.preload

    def preload(self, library):
        original_preload(self, library)
        # Only CSOD's own monitor counts as core; the inline detector
        # arms' hot paths stay inside their detectors.* spans.
        if type(library).__module__.startswith("repro.core."):
            self.malloc = wrap(self.malloc, "core.malloc")
            self.free = wrap(self.free, "core.free")

    patches.set(LibraryInterposer, "preload", preload)

    original_records = SamplingManagementUnit.records

    def records(self):
        # A generator: materialise inside the span so the walk is timed.
        return iter(list(original_records(self)))

    patches.set(SamplingManagementUnit, "records", wrap(records, "core.records"))

    # fleet: coordinator steps.  Waves and finish run on service
    # executor threads too, so they tag their spans with the campaign.
    def campaign_step(method: Callable, name: str) -> Callable:
        traced = wrap(method, name)

        def step(self, *args, **kwargs):
            with tracer.job(self.campaign_id or self.app):
                return traced(self, *args, **kwargs)

        return step

    FleetCampaign = fleet_runner.FleetCampaign
    patches.set(FleetCampaign, "__init__", wrap(FleetCampaign.__init__, "fleet.campaign_init"))
    patches.set(FleetCampaign, "run_next_wave", campaign_step(FleetCampaign.run_next_wave, "fleet.wave"))
    patches.set(FleetCampaign, "finish", campaign_step(FleetCampaign.finish, "fleet.finish"))
    patches.set(FleetAggregator, "merge_partial", wrap(FleetAggregator.merge_partial, "fleet.fold"))
    patches.set(EvidenceStore, "absorb", wrap(EvidenceStore.absorb, "fleet.evidence"))

    # detectors: the inline arms the oracle dispatches by name.
    for arm, observe in list(oracle_harness.INLINE_OBSERVERS.items()):
        patches.set_item(oracle_harness.INLINE_OBSERVERS, arm, wrap(observe, f"detectors.{arm}"))

    # oracle: the runner's steps, looked up in its module namespace.
    class TracedPool(FleetPool):
        run_wave = wrap(FleetPool.run_wave, "oracle.csod_wave")

    patches.set(oracle_runner, "FleetPool", TracedPool)
    for attr, name in (
        ("probe_invariants", "oracle.probe"),
        ("attribute_fn", "oracle.attribute"),
        ("evidence_converges", "oracle.converge"),
        ("build_scorecard", "oracle.scorecard"),
    ):
        patches.set(oracle_runner, attr, wrap(getattr(oracle_runner, attr), name))

    # triage: imported at call time by the fleet runner and the oracle.
    patches.set(
        triage_clustering,
        "cluster_reports",
        wrap(triage_clustering.cluster_reports, "triage.cluster"),
    )
    patches.set(BugDatabase, "update", wrap(BugDatabase.update, "triage.bugdb_update"))
    try:
        yield tracer
    finally:
        patches.undo()

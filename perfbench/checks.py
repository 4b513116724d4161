"""Output checks, one group per workload.

Every check is a pure function over the program's outputs that returns
a list of failure messages (empty = passed).  Each compares against a
computation made here, apart from the program, or against a property
the method must have -- never against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, List, Optional, Sequence

from common import frame_module


# ----------------------------------------------------------------------
# table2-fleet
# ----------------------------------------------------------------------
def names_injected_bug(kind: str, frames: Iterable[str], bug_kind: str, vuln_module: str) -> bool:
    """A report of the app's own bug: its kind, allocated in its module."""
    return kind == bug_kind and any(frame_module(f) == vuln_module for f in frames)


def check_fleet_campaign(
    app: str, bug_kind: str, vuln_module: str, results: Sequence, wave_size: int
) -> List[str]:
    """One shared-evidence campaign of one Table II app.

    * every execution's outcome is ``ok``;
    * every report has the spec's bug kind, and the statement that
      faulted (the innermost access frame, when the report has one)
      lies in the spec's vulnerable module;
    * evidence converges (paper §V-A2): once a wave detects, every
      execution of every later wave is detected by a watchpoint.
    """
    errors: List[str] = []
    for r in results:
        if r.outcome != "ok":
            errors.append(f"{app}#{r.index}: outcome {r.outcome!r} ({r.error})")
        for report in r.reports:
            if report.kind != bug_kind:
                errors.append(f"{app}#{r.index}: report kind {report.kind!r} != {bug_kind!r}")
            if report.access_context and frame_module(report.access_context[0]) != vuln_module:
                errors.append(
                    f"{app}#{r.index}: access frame {report.access_context[0]!r} "
                    f"outside {vuln_module!r}"
                )
    ordered = sorted(results, key=lambda r: r.index)
    waves = [ordered[i : i + wave_size] for i in range(0, len(ordered), wave_size)]
    detected_before = False
    for number, wave in enumerate(waves):
        if detected_before:
            missed = [r.index for r in wave if not r.detected_by_watchpoint]
            if missed:
                errors.append(
                    f"{app}: evidence did not converge, wave {number} "
                    f"executions {missed} not caught by a watchpoint"
                )
        detected_before = detected_before or any(r.detected for r in wave)
    return errors


# ----------------------------------------------------------------------
# mysql-paper
# ----------------------------------------------------------------------
def check_mysql_execution(
    total_allocations: int,
    bug_kind: str,
    vuln_module: str,
    allocations: int,
    allocator,
    reports: Sequence,
) -> List[str]:
    """One full-scale execution: count, heap structure, the report."""
    errors: List[str] = []
    if allocations != total_allocations:
        errors.append(f"mysql: {allocations} allocations, spec says {total_allocations}")
    try:
        allocator.check_invariants()
    except AssertionError as exc:
        errors.append(f"mysql: allocator invariants broken at exit: {exc}")
    if not any(
        names_injected_bug(
            r.kind, [str(f) for f in r.allocation_context.frames], bug_kind, vuln_module
        )
        for r in reports
    ):
        errors.append(
            f"mysql: no report names kind {bug_kind!r} in module {vuln_module!r} "
            f"(got {[r.kind for r in reports]})"
        )
    return errors


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def oracle_program_failed(benign: bool, observations, mismatch) -> bool:
    """An unexplained cross-detector mismatch, or any report on a benign program."""
    if mismatch is not None and not mismatch.explained:
        return True
    return benign and any(
        obs.fp_reports or obs.detected for obs in observations.arms.values()
    )


def check_oracle_program(name: str, truth, observations) -> List[str]:
    """Every arm the manifest calls deterministic must have detected."""
    errors: List[str] = []
    for arm, obs in sorted(observations.arms.items()):
        if truth.expected[arm].capability == "deterministic" and not obs.detected:
            errors.append(f"{name}: deterministic arm {arm} missed")
    return errors


def scorecard_digest(scorecard: dict) -> str:
    return hashlib.sha256(json.dumps(scorecard, sort_keys=True).encode()).hexdigest()


def check_same_digests(digests: Sequence[str]) -> List[str]:
    if len(set(digests)) > 1:
        return [f"oracle: scorecard SHA-256 differs across rounds: {sorted(set(digests))}"]
    return []


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def expected_job_id(seq: int, submission: dict) -> str:
    """``job-`` + the first 12 hex digits of sha256("<seq>|<canonical JSON>")."""
    canonical = json.dumps(submission, sort_keys=True)
    return "job-" + hashlib.sha256(f"{seq}|{canonical}".encode()).hexdigest()[:12]


def check_service_job(
    job_id: str, seq: int, submission: dict, state: Optional[str], executions_done: Optional[int]
) -> List[str]:
    errors: List[str] = []
    want = expected_job_id(seq, submission)
    if job_id != want:
        errors.append(f"service: job id {job_id} != recomputed {want}")
    if state != "completed":
        errors.append(f"service: {job_id} ended {state!r}, not completed")
    if executions_done != submission["executions"]:
        errors.append(
            f"service: {job_id} ran {executions_done} executions, "
            f"{submission['executions']} submitted"
        )
    return errors


def check_gapless(seqs: Sequence[int]) -> List[str]:
    """Firehose sequence numbers cover 1..N, each exactly once.

    Delivery order is not checked here: the stream may hand an event
    published from a worker thread over after a later one published on
    the event loop (see :func:`out_of_order`).
    """
    ordered = sorted(seqs)
    for position, seq in enumerate(ordered, start=1):
        if seq != position:
            return [f"service: event seqs {position}..{seq} missing or repeated"]
    return []


def out_of_order(seqs: Sequence[int]) -> int:
    """How many events arrived after an event with a higher seq."""
    count, highest = 0, 0
    for seq in seqs:
        if seq < highest:
            count += 1
        highest = max(highest, seq)
    return count


def check_same_aggregate(job_id: str, served: dict, standalone: dict) -> List[str]:
    if json.dumps(served, sort_keys=True) != json.dumps(standalone, sort_keys=True):
        return [f"service: {job_id} aggregate differs from a standalone run_fleet"]
    return []

"""table2-fleet: the paper's repeated-execution protocol (Table II, §V-A2).

Each round runs one shared-evidence ``run_fleet`` campaign for each of
the nine buggy apps at effectiveness scale: ``EXECUTIONS`` executions in
waves of ``WAVE_SIZE``, on ``WORKERS`` worker processes.  Operation =
one execution; request = one app campaign.
"""

from __future__ import annotations

import time
from typing import Dict, List

from common import PassResult, median, run_rounds
from checks import check_fleet_campaign, names_injected_bug
from repro.fleet.runner import run_fleet
from repro.workloads.base import SyntheticBuggyApp
from repro.workloads.buggy.registry import (
    BUGGY_APPS,
    EFFECTIVENESS_SCALE,
    app_for,
    spec_for,
)

APPS = tuple(sorted(BUGGY_APPS))
EXECUTIONS = 16
WAVE_SIZE = 4
WORKERS = 2


class Workload:

    def __init__(self, seed: int, inline: bool):
        self.seed = seed
        # Traced passes run executions in this process so their spans
        # reach the tracer; waves (and so results) are unchanged.
        self.workers = 1 if inline else WORKERS
        self.children = 0 if inline else WORKERS

    def seed_base(self, app_index: int) -> int:
        return self.seed * 100_000 + app_index * 1_000

    def prepare(self, final: bool) -> None:
        """App builds and one warm-up campaign (pool start included)."""
        for name in APPS:
            if final:
                app_for(name)  # fills the cache the workers inherit
            else:
                SyntheticBuggyApp(spec_for(name).scaled(EFFECTIVENESS_SCALE.get(name, 1.0)))
        run_fleet(
            "gzip", executions=2, workers=self.workers, share_evidence=True, wave_size=2
        )

    def run(self, seconds: float, tracer=None) -> PassResult:
        out = PassResult()
        wall_in_executions = 0.0
        worker_seconds = 0.0
        detected = 0
        campaign_s: Dict[str, List[float]] = {name: [] for name in APPS}

        def one_round(round_index: int) -> None:
            nonlocal wall_in_executions, worker_seconds, detected
            for app_index, name in enumerate(APPS):
                spec = app_for(name).spec
                started = time.perf_counter()
                result = run_fleet(
                    name,
                    executions=EXECUTIONS,
                    workers=self.workers,
                    share_evidence=True,
                    wave_size=WAVE_SIZE,
                    seed_base=self.seed_base(app_index),
                    campaign_id=f"{name}:r{round_index}",
                )
                elapsed = time.perf_counter() - started
                campaign_s[name].append(elapsed)
                out.latencies_ms.append(elapsed * 1e3)
                out.ops += len(result.results)
                out.attempted += len(result.results)
                out.errors += check_fleet_campaign(
                    name, spec.bug_kind, spec.vuln_module, result.results, WAVE_SIZE
                )
                detected += sum(
                    any(
                        names_injected_bug(
                            rep.kind, rep.allocation_context, spec.bug_kind, spec.vuln_module
                        )
                        for rep in r.reports
                    )
                    for r in result.results
                )
                wall_in_executions += sum(r.wall_seconds for r in result.results)
                worker_seconds += self.workers * elapsed

        out.seconds = run_rounds(seconds, one_round)
        # One round's typical wall time: each app's median campaign time,
        # summed.  A campaign stalled by another tenant of the machine
        # moves its app's median only when it happens in most rounds.
        typical_round_s = sum(median(times) for times in campaign_s.values())
        out.rates.append(EXECUTIONS * len(APPS) / typical_round_s)
        rounds = out.attempted // (EXECUTIONS * len(APPS))
        out.info = {
            "execs_per_s": out.ops_per_s,
            "detected_execs_per_round": detected / rounds,
            "rounds": rounds,
        }
        if tracer is not None:
            out.layer["fleet.worker_utilization"] = wall_in_executions / worker_seconds
        return out

    def close(self) -> None:
        pass

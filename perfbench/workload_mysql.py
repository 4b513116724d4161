"""mysql-paper: full-scale mysql in one process, as the Fig. 7 drivers run it.

``app_for("mysql", 1.0)``: 57,464 allocations over 488 contexts, run
serially through ``SimProcess``, ``CSODRuntime``, ``app.run`` and
``shutdown``.  The first-fit allocator and the sampler hot path do the
work.  Operation = one allocation; request = one whole execution.
"""

from __future__ import annotations

import gc
import time

from common import PassResult, run_rounds
from checks import check_mysql_execution
from repro.core import CSODConfig, CSODRuntime
from repro.workloads.base import SimProcess, SyntheticBuggyApp
from repro.workloads.buggy.registry import app_for, spec_for

APP = "mysql"
SCALE = 1.0


def execute(app, seed: int):
    """One execution; returns (process, runtime, run result, run seconds)."""
    process = SimProcess(seed=seed)
    runtime = CSODRuntime(process.machine, process.heap, CSODConfig(), seed=seed)
    started = time.perf_counter()
    result = app.run(process)
    run_s = time.perf_counter() - started
    runtime.shutdown()
    return process, runtime, result, run_s


class Workload:
    children = 0

    def __init__(self, seed: int, inline: bool):
        self.seed = seed
        self.app = None

    def prepare(self, final: bool) -> None:
        """The full-scale schedule build, then a small warm-up execution."""
        if final:
            self.app = app_for(APP, SCALE)
        else:
            SyntheticBuggyApp(spec_for(APP).scaled(SCALE))
        execute(app_for(APP), seed=self.seed)  # effectiveness scale

    def run(self, seconds: float, tracer=None) -> PassResult:
        out = PassResult()
        spec = self.app.spec
        sim_ns = 0

        def one_round(index: int) -> None:
            nonlocal sim_ns
            started = time.perf_counter()
            process, runtime, result, run_s = execute(self.app, self.seed * 1_000 + index)
            out.latencies_ms.append((time.perf_counter() - started) * 1e3)
            out.ops += result.allocations
            out.attempted += result.allocations
            out.seconds += run_s
            out.rates.append(result.allocations / run_s)
            sim_ns += process.machine.ledger.total_nanos()
            out.errors += check_mysql_execution(
                spec.total_allocations,
                spec.bug_kind,
                spec.vuln_module,
                result.allocations,
                process.allocator,
                runtime.reports,
            )
            # The runtime's object graph has cycles: collect it now, so a
            # second execution does not run beside the first's garbage
            # and peak RSS does not depend on how many executions fit.
            del process, runtime, result
            gc.collect()

        run_rounds(seconds, one_round)
        out.info = {
            "allocs_per_s": out.ops_per_s,
            "sim_ns_per_alloc": sim_ns / out.ops,
            "executions": len(out.latencies_ms),
        }
        return out

    def close(self) -> None:
        pass

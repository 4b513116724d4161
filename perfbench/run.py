#!/usr/bin/env python3
"""The repository benchmark: four workloads end to end, one traced run.

Run from the repository root::

    python3 perfbench/run.py --workload table2-fleet --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload with tracing off and prints every
end-to-end metric.  ``--trace 1`` runs the workload twice in one
process layout -- first untraced, then traced, ``--seconds``/2 each --
writes the traced pass's spans under ``perfbench/out/`` and prints the
per-layer metrics, with the traced-minus-untraced throughput difference
as ``trace_overhead_pct``.  Either way the output checks run, a
human-readable table comes first, and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

WORKLOADS = {
    "table2-fleet": "workload_fleet",
    "mysql-paper": "workload_mysql",
    "oracle": "workload_oracle",
    "service": "workload_service",
}
# Set-up is repeated and its median reported, so one slow start does
# not move setup_s.
SETUP_TRIALS = 3

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb(children: int) -> float:
    """This process's peak RSS plus ``children`` times the largest child's.

    ``children`` is how many worker processes ran at once; each was
    reaped before this is read, so ru_maxrss of RUSAGE_CHILDREN holds
    the largest of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(result, setup_s: float, rss_mb: float) -> dict:
    from common import median

    values = {
        "ops_per_s": result.ops_per_s,
        "latency_p50_ms": median(result.latencies_ms) if result.latencies_ms else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def layer_metrics(tracer, setup_tracer, traced, untraced) -> dict:
    """Every per-layer metric, from the traced pass (0.0 where unused).

    App builds are cached, so they mostly happen in the traced set-up:
    ``workloads.build_ms`` takes its spans from both.
    """
    from spans import SPAN_LAYERS

    counters = tracer.counters
    executions = counters["executions"]

    def per_exec(key: str) -> float:
        return counters[key] / executions if executions else 0.0

    runs = len(tracer.durations_ms("workloads.run"))
    self_ms = tracer.self_times_ms()
    mean = tracer.mean_ms
    metrics = {
        "workloads.build_ms": (_mean(
            setup_tracer.durations_ms("workloads.build") + tracer.durations_ms("workloads.build")
        ), "ms"),
        "workloads.driver_ms_per_exec": (
            self_ms.get("workloads.run", 0.0) / runs if runs else 0.0, "ms"),
        "core.runtime_init_ms": (mean("core.runtime_init"), "ms"),
        "core.malloc_us": (mean("core.malloc") * 1e3, "us"),
        "core.free_us": (mean("core.free") * 1e3, "us"),
        "core.shutdown_ms": (mean("core.shutdown"), "ms"),
        "core.records_ms": (mean("core.records"), "ms"),
        "core.allocations": (per_exec("allocations"), "count"),
        "core.contexts": (per_exec("contexts"), "count"),
        "core.watched_times": (per_exec("watched_times"), "count"),
        "core.traps": (per_exec("traps"), "count"),
        "heap.free_extents": (per_exec("free_extents"), "count"),
        "heap.peak_live_blocks": (per_exec("peak_live_blocks"), "count"),
        "machine.sim_ns_per_exec": (per_exec("sim_ns"), "ns"),
        "machine.sim_ns_per_alloc": (
            counters["sim_ns"] / counters["allocations"] if counters["allocations"] else 0.0,
            "ns"),
        "machine.perf_syscalls": (per_exec("perf_syscalls"), "count"),
        "fleet.campaign_init_ms": (mean("fleet.campaign_init"), "ms"),
        "fleet.wave_ms": (mean("fleet.wave"), "ms"),
        "fleet.fold_ms": (mean("fleet.fold"), "ms"),
        "fleet.evidence_ms": (mean("fleet.evidence"), "ms"),
        "fleet.finish_ms": (mean("fleet.finish"), "ms"),
        "fleet.worker_utilization": (traced.layer.get("fleet.worker_utilization", 0.0), "ratio"),
    }
    for arm in ("asan", "guardpage", "gwp-asan", "doubletake"):
        metrics[f"detectors.{arm}_ms"] = (mean(f"detectors.{arm}"), "ms")
    for step in ("generate", "csod_wave", "probe", "attribute", "converge", "scorecard"):
        metrics[f"oracle.{step}_ms"] = (mean(f"oracle.{step}"), "ms")
    metrics["triage.cluster_ms"] = (mean("triage.cluster"), "ms")
    metrics["triage.bugdb_update_ms"] = (mean("triage.bugdb_update"), "ms")
    for name in ("service.submit_ms", "service.queue_wait_ms", "service.run_ms", "service.result_ms"):
        metrics[name] = (traced.layer.get(name, 0.0), "ms")
    summary = tracer.layer_summary()
    for layer in SPAN_LAYERS:
        layer_self_ms, spans = summary[layer]
        metrics[f"{layer}.self_ms_per_op"] = (layer_self_ms / traced.ops if traced.ops else 0.0, "ms/op")
        metrics[f"{layer}.spans_per_op"] = (spans / traced.ops if traced.ops else 0.0, "1/op")
    overhead = (
        (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0 if traced.ops_per_s else 0.0
    )
    metrics["trace_overhead_pct"] = (overhead, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds through the workload's cleanup, which stops the
    # worker pools and the service process this run started.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    # A parent that ignores SIGINT (a shell's background job) would pass
    # that on to the service process, which stops on SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: program source not found at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if here not in sys.path:
        sys.path.insert(0, here)

    from common import OUT, adopt_orphans, median, stop_children

    adopt_orphans()

    module = importlib.import_module(WORKLOADS[args.workload])
    if args.trace:
        import spans  # noqa: F401 — part of set-up in a traced run
    import_s = time.perf_counter() - _STARTED

    workload = module.Workload(args.seed, inline=bool(args.trace))
    trials = []
    try:
        for trial in range(SETUP_TRIALS - 1):
            began = time.perf_counter()
            workload.prepare(final=False)
            trials.append(time.perf_counter() - began)
        if args.trace:
            from spans import Tracer, instrument

            # The last set-up is traced too: app builds happen there.
            setup_tracer = Tracer()
            with setup_tracer.job("setup"), instrument(setup_tracer):
                began = time.perf_counter()
                workload.prepare(final=True)
                trials.append(time.perf_counter() - began)
            untraced = workload.run(args.seconds / 2.0)
            tracer = Tracer(ids=setup_tracer.ids)
            with instrument(tracer):
                traced = workload.run(args.seconds / 2.0, tracer)
            passes = [untraced, traced]
        else:
            began = time.perf_counter()
            workload.prepare(final=True)
            trials.append(time.perf_counter() - began)
            setup_s = import_s + median(trials)
            passes = [workload.run(args.seconds)]
    finally:
        workload.close()
        stop_children()

    errors = [e for p in passes for e in p.errors]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = layer_metrics(tracer, setup_tracer, traced, untraced)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans-{args.workload}.jsonl.gz")
        tracer.write(spans_path, setup_tracer.spans)
    else:
        metrics = end_to_end_metrics(passes[0], setup_s, peak_rss_mb(workload.children))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  cpus {os.cpu_count()}")
    print(f"setup trials (s): {', '.join(f'{t:.3f}' for t in trials)}  imports {import_s:.3f}")
    for p, label in zip(passes, ("untraced", "traced") if args.trace else ("measured",)):
        figures = "  ".join(f"{k} {v:.6g}" for k, v in p.info.items())
        print(f"{label}: {figures}  window {p.seconds:.3f} s")
        for note in p.notes:
            print(f"  {note}")
    if args.trace:
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path)}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"attempted {attempted}  failed {failed}  checks "
          + ("passed" if not errors else f"FAILED ({len(errors)})"))
    for error in errors[:20]:
        print(f"  check: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick tests of the benchmark itself (not of the program).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload, untraced and traced, runs at a tiny size; every output
check is shown to fail on a deliberately wrong input; the attempted and
failed counts are pinned.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import workload_fleet  # noqa: E402
import workload_mysql  # noqa: E402
import workload_oracle  # noqa: E402
import workload_service  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to seconds of work."""
    monkeypatch.setattr(workload_fleet, "APPS", ("gzip", "libtiff"))
    monkeypatch.setattr(workload_fleet, "EXECUTIONS", 4)
    monkeypatch.setattr(workload_fleet, "WAVE_SIZE", 2)
    monkeypatch.setattr(workload_mysql, "SCALE", 0.05)
    monkeypatch.setattr(workload_oracle, "GENERATED", 2)
    monkeypatch.setattr(workload_service, "APPS", ("gzip", "libtiff"))
    monkeypatch.setattr(run, "SETUP_TRIALS", 2)


def bench(capsys, workload: str, trace: int, seed: int = 1) -> dict:
    assert run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)]
    ) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


E2E = {"ops_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(tiny, capsys, workload):
    result = bench(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_writes_spans(tiny, capsys, workload):
    result = bench(capsys, workload, trace=1)
    assert result["correct"] is True
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["core.runtime_init_ms"]["value"] > 0
    assert os.path.getsize(os.path.join(BENCH, "out", f"spans-{workload}.jsonl.gz")) > 0


def test_layer_metrics_land_on_their_workloads(tiny, capsys):
    metrics = bench(capsys, "oracle", trace=1)["metrics"]
    for name in ("detectors.asan_ms", "oracle.csod_wave_ms", "oracle.scorecard_ms"):
        assert metrics[name]["value"] > 0, name
    assert metrics["service.submit_ms"]["value"] == 0
    metrics = bench(capsys, "service", trace=1)["metrics"]
    for name in ("service.submit_ms", "service.run_ms", "triage.bugdb_update_ms"):
        assert metrics[name]["value"] > 0, name
    assert metrics["detectors.asan_ms"]["value"] == 0


def test_attempted_and_failed_counts(tiny, capsys):
    fleet = bench(capsys, "table2-fleet", trace=0)
    assert fleet["failed"] == 0
    assert fleet["attempted"] % (len(workload_fleet.APPS) * workload_fleet.EXECUTIONS) == 0
    oracle = bench(capsys, "oracle", trace=0)
    per_round = workload_oracle.GENERATED + len(workload_oracle.FAULT_PROGRAMS)
    rounds = oracle["attempted"] // per_round
    assert rounds >= 1 and oracle["attempted"] == rounds * per_round
    # Exactly the two fixed fault programs fail, in every round.
    assert oracle["failed"] == rounds * len(workload_oracle.FAULT_PROGRAMS)
    mysql = bench(capsys, "mysql-paper", trace=0)
    assert mysql["failed"] == 0 and mysql["attempted"] % 2873 == 0


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (copy / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _session_processes(sid: int):
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            left.append((int(pid), fields[0]))
    return left


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("workload", ["table2-fleet", "service"])
def test_leaves_no_process_behind(workload):
    # The fleet's resource tracker and the service's own one outlive
    # the run, as zombies at least, unless stop_children reaps them.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate(timeout=170)
    assert proc.returncode == 0, stdout[-2000:] + stderr[-2000:]
    assert json.loads(stdout.strip().splitlines()[-1])["correct"]
    # A new session's id is its leader's pid.
    assert _session_processes(proc.pid) == []


# ----------------------------------------------------------------------
# Each check fails on a deliberately wrong input
# ----------------------------------------------------------------------
def _result(index, detected=True, by_watchpoint=True, kind="over-write",
            access=("GZIP/overflow.c:42", "GZIP/main.c:10"), outcome="ok"):
    report = SimpleNamespace(kind=kind, access_context=access,
                             allocation_context=("GZIP/alloc.c:500",))
    return SimpleNamespace(index=index, outcome=outcome, error=None, detected=detected,
                           detected_by_watchpoint=by_watchpoint,
                           reports=[report] if detected else [])


def _fleet(results):
    return checks.check_fleet_campaign("gzip", "over-write", "GZIP", results, wave_size=2)


def test_fleet_checks():
    good = [_result(0, False, False), _result(1), _result(2), _result(3)]
    assert _fleet(good) == []
    assert _fleet([_result(0, outcome="crashed")] + good[1:])
    assert _fleet([_result(0, kind="over-read")] + good[1:])
    assert _fleet([_result(0, access=("OTHER/overflow.c:42",))] + good[1:])
    # Detected in wave 0, then missed by the watchpoint in wave 1.
    assert _fleet([_result(0), _result(1), _result(2, True, False), _result(3)])


def test_mysql_checks():
    report = SimpleNamespace(
        kind="over-write",
        allocation_context=SimpleNamespace(frames=["MYSQL/alloc.c:500"]),
    )
    healthy = SimpleNamespace(check_invariants=lambda: None)

    def broken():
        raise AssertionError("overlapping spans")

    args = (10, "over-write", "MYSQL")
    assert checks.check_mysql_execution(*args, 10, healthy, [report]) == []
    assert checks.check_mysql_execution(*args, 9, healthy, [report])
    assert checks.check_mysql_execution(
        *args, 10, SimpleNamespace(check_invariants=broken), [report])
    assert checks.check_mysql_execution(*args, 10, healthy, [])
    wrong_module = SimpleNamespace(
        kind="over-write", allocation_context=SimpleNamespace(frames=["MYSQL/mod1/a.c:1"]))
    assert checks.check_mysql_execution(*args, 10, healthy, [wrong_module])


def test_oracle_checks():
    arm = lambda detected, fp=0: SimpleNamespace(detected=detected, fp_reports=fp)  # noqa: E731
    observations = SimpleNamespace(arms={"asan": arm(True), "csod": arm(False)})
    truth = SimpleNamespace(expected={
        "asan": SimpleNamespace(capability="deterministic"),
        "csod": SimpleNamespace(capability="sampled"),
    })
    assert checks.check_oracle_program("p", truth, observations) == []
    missed = SimpleNamespace(arms={"asan": arm(False), "csod": arm(False)})
    assert checks.check_oracle_program("p", truth, missed)
    explained = SimpleNamespace(explained=True)
    assert not checks.oracle_program_failed(False, observations, explained)
    assert checks.oracle_program_failed(False, observations, SimpleNamespace(explained=False))
    benign_fp = SimpleNamespace(arms={"csod-noevidence": arm(False, fp=1)})
    assert checks.oracle_program_failed(True, benign_fp, None)
    assert checks.check_same_digests(["a", "a"]) == []
    assert checks.check_same_digests(["a", "b"])


def test_service_checks():
    submission = {"app": "gzip", "executions": 2, "seed": 5}
    job_id = checks.expected_job_id(3, submission)
    assert job_id.startswith("job-") and len(job_id) == 16
    assert checks.check_service_job(job_id, 3, submission, "completed", 2) == []
    assert checks.check_service_job(job_id, 4, submission, "completed", 2)
    assert checks.check_service_job(job_id, 3, submission, "failed", 2)
    assert checks.check_service_job(job_id, 3, submission, "completed", 1)
    assert checks.check_gapless([1, 3, 2, 4]) == []
    assert checks.check_gapless([1, 2, 4])
    assert checks.check_gapless([1, 2, 2, 3])
    assert checks.out_of_order([1, 3, 2, 4]) == 1
    assert checks.check_same_aggregate("j", {"a": [1]}, {"a": (1,)}) == []
    assert checks.check_same_aggregate("j", {"a": [1]}, {"a": [2]})

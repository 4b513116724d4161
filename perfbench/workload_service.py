"""service: the campaign service under a closed loop of ``CLIENTS`` clients.

The service runs with a bug database and ``SLOTS`` worker slots -- in a
process of its own (``python -m repro serve``), or, for traced passes,
on a thread of this process so the spans of its scheduler reach the
tracer.  Each client submits a small campaign, waits for the job's
``completed`` event on one shared SSE stream (no status polling, so
latency is not quantised by a poll interval), fetches the result, then
submits the next.  Operation = one job; request = one job, from submit
to its completion event.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import OUT, ROOT, SRC, PassResult, median, percentile
from checks import check_gapless, check_same_aggregate, check_service_job, out_of_order
from repro.errors import ServiceError
from repro.fleet.runner import run_fleet
from repro.service import CampaignSubmission, ServiceClient
from repro.workloads.buggy.registry import BUGGY_APPS

APPS = tuple(sorted(BUGGY_APPS))
CLIENTS = 2
SLOTS = 2
EXECUTIONS = 2
FINAL_STATES = ("completed", "failed", "cancelled")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 120.0


class EventListener:
    """Reads the firehose SSE stream on a thread; records job milestones."""

    def __init__(self, client: ServiceClient):
        self.seqs: List[int] = []
        self.running_at: Dict[str, int] = {}
        self.final: Dict[str, Tuple[str, Optional[int], int]] = {}
        self.error: Optional[str] = None
        self._cond = threading.Condition()
        self._client = client
        self._thread = threading.Thread(target=self._read, name="perfbench-sse", daemon=True)
        self._thread.start()

    def _read(self) -> None:
        try:
            for event in self._client.stream_events("firehose", since=0, timeout=JOB_TIMEOUT_S):
                now = time.perf_counter_ns()
                with self._cond:
                    self.seqs.append(event.get("seq"))
                    if event.get("event") != "job":
                        continue
                    job_id, state = event.get("job_id"), event.get("state")
                    if state == "running":
                        self.running_at[job_id] = now
                    elif state in FINAL_STATES:
                        self.final[job_id] = (state, event.get("executions_done"), now)
                        self._cond.notify_all()
        except (ServiceError, OSError) as exc:
            self.error = str(exc)
        finally:
            with self._cond:
                self._cond.notify_all()

    def wait_final(self, job_id: str) -> Optional[Tuple[str, Optional[int], int]]:
        with self._cond:
            self._cond.wait_for(
                lambda: job_id in self.final or not self._thread.is_alive(), JOB_TIMEOUT_S
            )
            return self.final.get(job_id)

    def seqs_seen(self) -> List[int]:
        with self._cond:
            return list(self.seqs)

    def join(self) -> None:
        self._thread.join(JOB_TIMEOUT_S)


class Workload:

    def __init__(self, seed: int, inline: bool):
        self.seed = seed
        self.inline = inline
        self.children = 0 if inline else 1
        self._proc: Optional[subprocess.Popen] = None
        self._thread = None
        self._dir: Optional[str] = None
        self._log = None
        self.client: Optional[ServiceClient] = None
        self.listener: Optional[EventListener] = None
        self._next = itertools.count()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def submission(self, n: int) -> CampaignSubmission:
        """Job ``n``: every block of nine jobs covers each app once."""
        block, slot = divmod(n, len(APPS))
        rng = random.Random(self.seed * 1_000_003 + block)
        order = list(APPS)
        rng.shuffle(order)
        return CampaignSubmission(
            app=order[slot], executions=EXECUTIONS, workers=1, seed=rng.randrange(1 << 30)
        )

    # ------------------------------------------------------------------
    # Service lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        os.makedirs(OUT, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="service-", dir=OUT)
        db = os.path.join(self._dir, "bugs.json")
        if self.inline:
            from repro.service import ServiceThread
            from repro.triage import BugDatabase

            self._thread = ServiceThread(
                port=0,
                total_workers=SLOTS,
                bug_db=BugDatabase(db),
                event_log_path=os.path.join(self._dir, "service-events.jsonl"),
            ).start()
            port = self._thread.port
        else:
            port = self._spawn(db)
        self.client = ServiceClient(port=port, timeout=JOB_TIMEOUT_S)
        self.listener = EventListener(self.client)

    def _spawn(self, db: str) -> int:
        log_path = os.path.join(self._dir, "serve.log")
        self._log = open(log_path, "w", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", str(SLOTS), "--db", db, "--out", self._dir],
            cwd=ROOT, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("[serve] listening on http://"):
                        address = line.split("http://", 1)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            if self._proc.poll() is not None:
                break
            time.sleep(0.01)
        raise ServiceError(f"service did not start; see {log_path}")

    def _stop(self) -> None:
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        if self._proc is not None:
            if self._proc.poll() is None:
                self._proc.send_signal(signal.SIGINT)
                try:
                    self._proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait()
            self._proc = None
        if self.listener is not None:
            self.listener.join()
            self.listener = None
        if self._log is not None:
            self._log.close()
            self._log = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def prepare(self, final: bool) -> None:
        """Service start and one warm-up job; torn down unless final."""
        self._start()
        warm = CampaignSubmission(app="gzip", executions=2, workers=1, seed=self.seed)
        view = self.client.submit(warm)
        if self.listener.wait_final(view["job_id"]) is None:
            raise ServiceError("warm-up job did not finish")
        if not final:
            self._stop()

    def close(self) -> None:
        self._stop()

    # ------------------------------------------------------------------
    # Closed loop
    # ------------------------------------------------------------------
    def run(self, seconds: float, tracer=None) -> PassResult:
        out = PassResult()
        lock = threading.Lock()
        jobs: List[dict] = []
        start = time.perf_counter()
        deadline = start + seconds
        ends: List[float] = []

        def client_loop() -> None:
            last_s = 0.0
            while time.perf_counter() + last_s <= deadline:
                with lock:
                    n = next(self._next)
                submission = self.submission(n)
                t0 = time.perf_counter_ns()
                view = self.client.submit(submission)
                t1 = time.perf_counter_ns()
                job_id = view["job_id"]
                final = self.listener.wait_final(job_id)
                t2 = time.perf_counter_ns()
                result = self.client.result(job_id) if final is not None else None
                t3 = time.perf_counter_ns()
                job = {
                    "job_id": job_id, "seq": view["seq"], "submission": submission.to_dict(),
                    "final": final, "t": (t0, t1, t3), "result": result,
                    "running": self.listener.running_at.get(job_id),
                }
                if tracer is not None:
                    tracer.record("service.submit", t0, t1, job_id)
                    tracer.record("service.result", t2, t3, job_id)
                last_s = (t3 - t0) / 1e9
                with lock:
                    jobs.append(job)
                    ends.append(time.perf_counter())

        threads = [threading.Thread(target=self._guard(client_loop, out)) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.seconds = (max(ends) if ends else time.perf_counter()) - start

        submit_ms, queue_ms, run_ms, result_ms = [], [], [], []
        for job in jobs:
            t0, t1, t3 = job["t"]
            out.attempted += 1
            final = job["final"]
            state, done, t_final = final if final is not None else (None, None, t3)
            out.errors += check_service_job(
                job["job_id"], job["seq"], job["submission"], state, done
            )
            if state == "completed":
                out.ops += 1
                out.latencies_ms.append((t_final - t0) / 1e6)
            submit_ms.append((t1 - t0) / 1e6)
            result_ms.append((t3 - t_final) / 1e6)
            if job["running"] is not None:
                queue_ms.append((job["running"] - t1) / 1e6)
                run_ms.append((t_final - job["running"]) / 1e6)
        out.info = {
            "jobs_per_s": out.ops_per_s,
            "job_latency_p50_ms": median(out.latencies_ms) if out.latencies_ms else 0.0,
            "job_latency_p90_ms": percentile(out.latencies_ms, 90) if out.latencies_ms else 0.0,
            "jobs": len(out.latencies_ms),
        }
        if tracer is not None:
            for name, values in (
                ("service.submit_ms", submit_ms),
                ("service.queue_wait_ms", queue_ms),
                ("service.run_ms", run_ms),
                ("service.result_ms", result_ms),
            ):
                out.layer[name] = sum(values) / len(values) if values else 0.0
        else:
            out.errors += self._verify_against_standalone(jobs)
        out.errors += self._event_errors()
        late = out_of_order(self.listener.seqs_seen())
        out.notes.append(f"firehose events delivered out of seq order: {late}")
        return out

    @staticmethod
    def _guard(fn, out: PassResult):
        def guarded() -> None:
            try:
                fn()
            except (ServiceError, OSError) as exc:
                out.errors.append(f"service: client failed: {exc}")

        return guarded

    def _event_errors(self) -> List[str]:
        errors = []
        if self.listener.error is not None:
            errors.append(f"service: event stream failed: {self.listener.error}")
        return errors + check_gapless(self.listener.seqs_seen())

    def _verify_against_standalone(self, jobs: List[dict]) -> List[str]:
        """One job per app against ``run_fleet`` of the same submission."""
        errors: List[str] = []
        seen = set()
        for job in jobs:
            sub = job["submission"]
            if sub["app"] in seen or job["result"] is None:
                continue
            seen.add(sub["app"])
            wave_size = CampaignSubmission(**{**sub, "arms": None}).effective_wave_size()
            standalone = run_fleet(
                sub["app"],
                executions=sub["executions"],
                workers=1,
                policy=sub["policy"],
                share_evidence=sub["share_evidence"],
                seed_base=sub["seed"],
                wave_size=wave_size,
            )
            errors += check_same_aggregate(
                job["job_id"], job["result"]["aggregate"], standalone.aggregator.to_dict()
            )
        return errors

"""oracle: the differential oracle over all seven detector arms.

Each round generates ``GENERATED`` programs from the seed -- two of each
non-benign defect class -- and runs ``run_oracle`` over them plus the
two fixed programs of ``FAULT_PROGRAMS`` on ``WORKERS`` workers.  It is
the only workload that runs the inline detector arms, the generator,
the invariant probes and the scorecard.  Operation = one program;
request = one round.

Benign programs are left out of the seeded mix: on some seeds the
fault below hits one of them, and an operation that fails on some
seeds only would make the failed share depend on the seed.  The fault
stays visible through ``FAULT_PROGRAMS``, which fail in every round.
"""

from __future__ import annotations

import time

from common import PassResult, run_rounds
from checks import (
    check_oracle_program,
    check_same_digests,
    oracle_program_failed,
    scorecard_digest,
)
from repro.oracle.generator import generate, oracle_app_from_name, program_from_name
from repro.oracle.grammar import ALL_DEFECTS, DEFECT_BENIGN
from repro.oracle.runner import OracleSettings, defect_sequence, run_oracle
from repro.workloads.buggy.registry import app_for

# The raw first-fit layout places a 16-byte victim directly after a
# 96-byte object whose watched boundary word is the victim's first
# word: under csod-noevidence an in-bounds read of the victim traps and
# is reported as an over-read of the neighbour (an unexplained false
# positive).  These two programs hit it on every seed.
FAULT_PROGRAMS = ("oracle:s3:i14:benign", "oracle:s4:i21:benign")
GENERATED = 16
WORKERS = 2
MIX = {d: (0.0 if d == DEFECT_BENIGN else 1.0) for d in ALL_DEFECTS}


class Workload:

    def __init__(self, seed: int, inline: bool):
        self.seed = seed
        self.workers = 1 if inline else WORKERS
        self.children = 0 if inline else WORKERS
        self.defects = defect_sequence(GENERATED, MIX)

    def programs(self, generate_fn=generate):
        generated = [generate_fn(self.seed, i, d) for i, d in enumerate(self.defects)]
        return generated + [program_from_name(name) for name in FAULT_PROGRAMS]

    def settings(self, budget: int) -> OracleSettings:
        return OracleSettings(budget=budget, seed=self.seed, workers=self.workers)

    def prepare(self, final: bool) -> None:
        """Program generation and app builds, then a one-program warm-up."""
        programs = self.programs()
        for program in programs:
            if final:
                app_for(program.name)  # fills the cache the workers inherit
            else:
                oracle_app_from_name(program.name)
        run_oracle(self.settings(1), programs=programs[:1])

    def run(self, seconds: float, tracer=None) -> PassResult:
        out = PassResult()
        digests = []
        failed_names = set()
        generate_fn = generate if tracer is None else tracer.wrap(generate, "oracle.generate")

        def one_round(index: int) -> None:
            started = time.perf_counter()
            programs = self.programs(generate_fn)
            run = run_oracle(self.settings(len(programs)), programs=programs)
            round_s = time.perf_counter() - started
            out.latencies_ms.append(round_s * 1e3)
            out.rates.append(len(programs) / round_s)
            mismatches = {m.app: m for m in run.mismatches}
            for program in programs:
                observations = run.observations[program.name]
                out.attempted += 1
                if oracle_program_failed(
                    program.truth.benign, observations, mismatches.get(program.name)
                ):
                    out.failed += 1
                    failed_names.add(program.name)
                else:
                    out.errors += check_oracle_program(program.name, program.truth, observations)
            out.ops += len(programs)
            digests.append(scorecard_digest(run.scorecard))

        out.seconds = run_rounds(seconds, one_round)
        out.errors += check_same_digests(digests)
        out.info = {
            "programs_per_s": out.ops_per_s,
            "rounds": len(digests),
        }
        out.notes += [
            f"scorecard sha256 {digests[0]}",
            f"failed programs {sorted(failed_names)}",
        ]
        return out

    def close(self) -> None:
        pass

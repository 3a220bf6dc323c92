"""The three workloads: their inputs, their trained checkpoints, their servers.

Inputs are made only from the workload seed; the program sees nothing but
the generated plan payloads.  Checkpoints are trained from scratch in every
run with the recipe's fixed training seed, so nothing one commit built is
ever loaded by another, and the model does not vary with the workload seed.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from procs import Deployment

#: the three EXPLAIN dialects, in the order requests rotate through them
DIALECTS = ("json", "xml", "mysql")
#: the open-loop rate as a share of the workload's closed-loop capacity
OPEN_SHARE = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    #: closed-loop capacity (plans/s): the median throughput_plans_per_s
    #: of ten seeds on a 2-vCPU virtual machine
    capacity: float
    #: fleet workers behind a router; 0 serves from one process
    workers: int
    #: distinct plans generated, requests walking the pool in order (the
    #: fleet's payloads are the fixed TPC-H set instead)
    pool: int

    @property
    def open_rate(self) -> float:
        """Fixed arrival rate of the open-loop phase (plans/s)."""
        return OPEN_SHARE * self.capacity


# Why each workload exists, and which layers it loads or bypasses, is
# recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    workload.name: workload
    for workload in (
        # plans rarely repeat: HTTP front end, registry ingest and rule
        # narration do all the work; the bypass workload for nlg changes
        Workload("rule-mixed", "rule", 627.0, 0, 1000),
        # every act beam-decoded: encoder, beam loop and batcher queue wait
        Workload("neural-cold", "neural", 100.0, 0, 600),
        # inputs repeat heavily: the router hop, memo and cache lookups
        Workload("classroom-fleet", "auto", 353.0, 2, 0),
    )
}

ZIPF_EXPONENT = 1.1
POPULARITY_SEED = 22
NEURAL_SEED_OFFSET = 1_000_003


def _explain_all(database: Any, sqls: list[str]) -> list[str]:
    return [
        database.explain(sql, output_format=DIALECTS[index % len(DIALECTS)])
        for index, sql in enumerate(sqls)
    ]


def build_inputs(workload: Workload, seed: int) -> tuple[list[str], Callable[[int], int]]:
    """(plan payloads, stream) — ``stream(k)`` is the payload index of the
    k-th request of the run."""
    if workload.name == "classroom-fleet":
        from repro.workloads import build_tpch_database, tpch_queries

        database = build_tpch_database(scale=0.001, seed=seed)
        payloads = [
            database.explain(query.sql, output_format=dialect)
            for query in tpch_queries()
            for dialect in DIALECTS
        ]
        # the popularity ranking is the course's, the same for every seed,
        # so the seed moves the order of requests and not their cost mix
        by_popularity = list(range(len(payloads)))
        random.Random(POPULARITY_SEED).shuffle(by_popularity)
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(payloads))]
        draws = random.Random(seed).choices(by_popularity, weights=weights, k=1 << 16)
        return payloads, lambda k: draws[k % len(draws)]

    from repro.workloads import build_dblp_database
    from repro.workloads.dblp import DBLP_JOIN_GRAPH
    from repro.workloads.generator import RandomQueryGenerator

    if workload.name == "neural-cold":
        seed += NEURAL_SEED_OFFSET
    database = build_dblp_database(publication_count=300, seed=seed)
    generator = RandomQueryGenerator(database, DBLP_JOIN_GRAPH, seed=seed)
    payloads = _explain_all(database, [query.sql for query in generator.generate(workload.pool)])
    return payloads, lambda k: k % len(payloads)


def train_checkpoint(workload: Workload, directory: Path) -> Optional[dict[str, float]]:
    """Train and save the workload's checkpoint; returns layer timings, or
    None for the rule-only workload, which serves without one."""
    if workload.mode == "rule":
        return None
    from repro.core import Lantern, LanternConfig
    from repro.nlg.train import train_workload_lantern

    started = time.perf_counter()
    if workload.name == "neural-cold":
        trained, _, _, _, history = train_workload_lantern()
        facade = Lantern(
            neural=trained.neural,
            config=LanternConfig(seed=None, decode_cache_enabled=False),
        )
    else:
        facade, _, _, _, history = train_workload_lantern(workload="tpch", queries=22)
    train_s = time.perf_counter() - started
    started = time.perf_counter()
    facade.save(directory, weights_layout="mmap")
    return {
        "train_s": train_s,
        "epoch_s": history.average_epoch_seconds,
        "save_s": time.perf_counter() - started,
    }


def boot(
    workload: Workload,
    checkpoint: Optional[Path],
    env: dict[str, str],
    log_path: Path,
    marker: str,
) -> Deployment:
    """Start the workload's deployed entry point with its defaults."""
    if workload.workers:
        argv = [
            sys.executable, "-m", "repro.service.fleet",
            "--port", "0", "--workers", str(workload.workers),
        ]
    else:
        argv = [sys.executable, "-m", "repro.service", "--port", "0"]
    if checkpoint is not None:
        argv += ["--checkpoint", str(checkpoint)]
    return Deployment(argv, env, log_path, marker, workers=workload.workers)

"""LANTERN-LEDGER: the benchmark of the serving path.

    python3 perfbench/run.py --workload rule-mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One run of one workload:

1. sets up ``SETUPS`` times — builds the inputs from ``--seed``, trains and
   saves the checkpoint, boots the deployed entry point
   (``python -m repro.service`` or ``python -m repro.service.fleet``) and
   waits for every serving process to answer ``/healthz`` 200 — keeping the
   last deployment and reporting the median as ``setup_s``;
2. warms up with ``WARMUP_S`` of closed-loop load;
3. alternates ``SLICE_PAIRS`` open-loop slices (the workload's fixed
   rate) with as many closed-loop slices (two clients), ``--seconds`` in
   all (``loadgen.measure``);
4. stops the processes with SIGINT and fails the run if any outlives it;
5. checks every response against a reference built from the same
   checkpoint (``check.py``), outside ``setup_s`` and the timed windows.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run puts
``hook/`` on the serving processes' ``PYTHONPATH`` so every layer boundary
is wrapped in a span (``hook/lantern_probe.py``); nothing else differs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 3
WARMUP_S = 1.0
#: open-loop + closed-loop slice pairs measured
SLICE_PAIRS = 3


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject",
        metavar="SPAN:FACTOR",
        help="busy-wait FACTOR x the CPU time of each call of SPAN in the serving "
        "processes (sensitivity self-test only)",
    )
    return parser.parse_args(argv)


def _git_stamp() -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(dirty.stdout.strip())}


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "service" / "__main__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy

    from check import Reference
    from layers import Snapshots, end_to_end, per_layer
    from loadgen import Stream, closed_loop, measure
    from workloads import WORKLOADS, boot, build_inputs, train_checkpoint

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    run_dir = ROOT / ".perfbench-run" / run_id
    run_dir.mkdir(parents=True)
    probe_dir = run_dir / "spans"
    env = {key: value for key, value in os.environ.items() if not key.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = str(SRC)
    if args.trace or args.inject:
        env["PYTHONPATH"] += os.pathsep + str(HERE / "hook")
    if args.trace:
        probe_dir.mkdir()
        env["PERFBENCH_PROBE_DIR"] = str(probe_dir)
    if args.inject:
        env["PERFBENCH_INJECT"] = args.inject

    stamp: dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git_stamp(),
    }
    survivors: list[int] = []
    setups: list[dict[str, float]] = []
    deployment = None
    try:
        # -- set-up, several times; the last deployment serves the run -----
        for attempt in range(SETUPS):
            started = time.perf_counter()
            payloads, index = build_inputs(workload, args.seed)
            inputs_s = time.perf_counter() - started
            checkpoint = run_dir / f"checkpoint-{attempt}" if workload.mode != "rule" else None
            timings = train_checkpoint(workload, checkpoint) if checkpoint else None
            candidate = boot(
                workload, checkpoint, env, run_dir / f"serve-{attempt}.log", f"{run_id}-{attempt}"
            )
            try:
                ready_s = candidate.wait_ready()
            except Exception:
                survivors += candidate.stop()
                raise
            setups.append(
                {
                    "setup_s": time.perf_counter() - started,
                    "inputs_s": inputs_s,
                    "ready_s": ready_s,
                    **(timings or {}),
                }
            )
            if attempt < SETUPS - 1:
                survivors += candidate.stop()
            else:
                deployment = candidate

        # -- load ---------------------------------------------------------
        stream = Stream(payloads, index, workload.mode)
        client = deployment.client
        warmup = closed_loop(client, stream, WARMUP_S, "warmup")
        snapshots = Snapshots(deployment, workload)
        snapshots.take("start")
        slices = measure(
            client, stream, deployment.cpu_seconds, args.seconds, workload.open_rate, SLICE_PAIRS
        )
        snapshots.take("end")
        rss = deployment.rss_mib()
        survivors += deployment.stop()
        deployment = None
    finally:
        if deployment is not None:
            survivors += deployment.stop()
    stamp["loadavg_after"] = os.getloadavg()

    # -- output check (outside set-up and the timed windows) --------------
    reference = Reference(checkpoint)
    outcomes = warmup + [outcome for piece in slices for outcome in piece.outcomes]
    for outcome in outcomes:
        if outcome.status == 200:
            outcome.mismatch = reference.mismatch(
                outcome.payload_index, payloads[outcome.payload_index], workload.mode, outcome.body
            )
    mismatches = [outcome for outcome in outcomes if outcome.mismatch]
    # a 500 or a dropped connection is a broken server, not shed load
    broken = [outcome for outcome in outcomes if outcome.status in (0, 500)]
    stamp["phases"] = {
        phase: {
            "sent": sum(1 for o in outcomes if o.phase == phase),
            "succeeded": sum(1 for o in outcomes if o.phase == phase and o.ok),
            "failed": sum(1 for o in outcomes if o.phase == phase and not o.ok),
        }
        for phase in ("warmup", "open", "closed")
    }

    if args.trace:
        metrics = per_layer(slices, snapshots, setups, probe_dir)
    else:
        metrics = end_to_end(slices, rss, setups)
    correct = not mismatches and not survivors and not broken
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if not o.ok),
        "metrics": metrics,
    }
    print("stamp: " + json.dumps(stamp))
    for outcome in mismatches[:20]:
        print(f"mismatch on payload {outcome.payload_index}: {outcome.mismatch}")
    for pid in survivors:
        print(f"serving process {pid} outlived its root")
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

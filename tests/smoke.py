"""End-to-end smoke of LANTERN's entry points: train, compile, serve, fleet.

Run it from the repo root, the same way in CI and on a laptop:

    PYTHONPATH=src python tests/smoke.py

It trains two tiny checkpoints (npz and mmap layouts) in a temp directory
and reuses them for every check. Each serving process it boots listens on
``--port 0``, announces its address with ``LISTENING_LINE``, and must exit
0 on SIGTERM. Apart from the temp directory it writes only the gitignored
``.perfbench-run/``. pytest does not collect this file; ``tests/test_docs.py``
byte-compiles it. Run it alone: the fleet checks look for any worker
process left on the machine.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core import Lantern
from repro.nlg.train import _build_workload
from repro.obs import format_span_tree, read_events, validate_exposition
from repro.service import LanternClient, LanternServiceError
from repro.service.fleet import FleetConfig, LanternFleet
from repro.service.server import LISTENING_LINE
from repro.workloads import build_dblp_database

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ)
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), ENV.get("PYTHONPATH")]))
BOOT_DEADLINE_S = 120.0
EXIT_DEADLINE_S = 60.0
EPOCHS = 3
TINY_TRAINING = [
    "--workload", "dblp", "--queries", "8", "--epochs", str(EPOCHS),
    "--hidden-dim", "24", "--attention-dim", "12",
    "--train-cap", "80", "--validation-cap", "16", "--no-paraphrase",
]
COUNT_SQL = "SELECT count(*) FROM publication p WHERE p.year > 2005"
JOIN_SQL = (
    "SELECT i.venue, count(*) AS n FROM inproceedings i, publication p "
    "WHERE i.paper_key = p.pub_key GROUP BY i.venue ORDER BY n"
)


def run(*argv: str) -> str:
    """Run ``python *argv`` from the repo root, require exit 0, return its stdout."""
    done = subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT, env=ENV, stdout=subprocess.PIPE, text=True
    )
    assert done.returncode == 0, f"{argv} exited {done.returncode}:\n{done.stdout}"
    return done.stdout


@contextlib.contextmanager
def serving(module: str, *args: str):
    """Boot ``python -m module *args --port 0`` and yield its URL; on leaving,
    send SIGTERM and require exit code 0."""
    argv = [sys.executable, "-m", module, *args, "--port", "0"]
    process = subprocess.Popen(argv, cwd=REPO_ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(BOOT_DEADLINE_S, process.kill)
    watchdog.start()
    url = None
    try:
        for line in process.stdout:
            match = LISTENING_LINE.search(line)
            if match:
                url = f"http://{match.group(1)}:{match.group(2)}"
                break
    finally:
        watchdog.cancel()
    assert url, f"{argv[2:]} exited ({process.wait()}) before listening"
    threading.Thread(target=process.stdout.read, daemon=True).start()  # keep the pipe drained
    try:
        yield url
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=EXIT_DEADLINE_S)
        except subprocess.TimeoutExpired:
            process.kill()
            raise
    assert code == 0, f"{argv[2:]} exited {code} after SIGTERM"
    print(f"  {module} {' '.join(args)}: exited 0 after SIGTERM")


def train_checkpoints(work: Path) -> tuple[Path, Path]:
    """The npz run also writes a parity sample and a telemetry stream."""
    run("-m", "repro.nlg.train", *TINY_TRAINING, "--bucket", "--warm-cache",
        "--parity-sample", str(work / "parity.json"), "--telemetry", str(work / "telemetry.jsonl"),
        "--out", str(work / "ckpt"))
    run("-m", "repro.nlg.train", *TINY_TRAINING, "--weights-layout", "mmap",
        "--out", str(work / "ckpt-mmap"))
    return work / "ckpt", work / "ckpt-mmap"


def check_service(work: Path) -> None:
    """The rule-only service: wire formats, a 400, curl, traces, Prometheus."""
    trace_log = work / "traces.jsonl"
    db = build_dblp_database()
    with serving("repro.service", "--trace-log", str(trace_log)) as url:
        with LanternClient(url, timeout_s=10) as client:
            for fmt in ("json", "xml", "mysql"):
                result = client.narrate(db.explain(COUNT_SQL, output_format=fmt))
                print(f"  {result['format']:>16}: {result['narration']['text'][:60]}...")
            try:
                client.narrate("not a plan at all")
                raise AssertionError("a malformed plan was narrated")
            except LanternServiceError as error:
                assert error.status == 400 and error.body["attempted_formats"], error.body
            assert client.metrics()["requests"]["total"] >= 4
            check_traces(client, db.explain(COUNT_SQL, output_format="json"))
        check_curl(url, work, db)
    events = [event for event in read_events(trace_log) if event["event"] == "trace"]
    assert len(events) >= 8, f"trace log holds {len(events)} events"


def check_traces(client: LanternClient, plan: str) -> None:
    """A rule request is narrated on its handler thread; an auto request
    queues for the batch worker and shows the queueing and decode stages."""
    traced = {}
    for mode in ("rule", "auto"):
        for _ in range(4):
            result = client.narrate(plan, mode=mode)
        assert result["trace_id"], "response lost its trace id"
        traced[mode] = result["trace_id"]
    traces = client.trace(limit=64)
    assert traces["enabled"] and traces["slowest"], traces
    by_id = {trace["trace_id"]: trace for trace in traces["slowest"]}
    rule, auto = by_id[traced["rule"]], by_id[traced["auto"]]
    stages = {child["name"] for child in rule["children"]}
    assert stages == {"read_body", "admission", "decode", "finalize", "respond"}, stages
    stages = {child["name"] for child in auto["children"]}
    assert {"queue_wait", "decode"} <= stages, stages
    decode = next(child for child in auto["children"] if child["name"] == "decode")
    assert decode["tags"]["precision"] and "cache_hits" in decode["tags"]
    print(format_span_tree(auto))
    exposition = client.prometheus_metrics()
    samples = validate_exposition(exposition)
    assert samples > 20, f"suspiciously small exposition ({samples} samples)"
    assert 'lantern_stage_latency_seconds_count{stage="decode"}' in exposition


def check_curl(url: str, work: Path, db) -> None:
    """A third-party client: 100-continue, HTTP/1.0, and keep-alive."""
    body = work / "plan.json"
    body.write_text(json.dumps({"plan": db.explain(JOIN_SQL, output_format="json")}))
    assert body.stat().st_size > 1024
    post = ["-H", "Content-Type: application/json", "--data-binary", f"@{body}", f"{url}/narrate"]
    outputs = [work / f"{name}.json" for name in "abcd"]

    def curl(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["curl", "-sS", *args], capture_output=True, text=True, check=True)

    done = curl("-v", "-o", str(outputs[0]), "-w", "%{http_code}", "-H", "Expect: 100-continue", *post)
    assert done.stdout == "200" and "< HTTP/1.1 100 Continue" in done.stderr, done.stderr
    assert curl("-o", str(outputs[1]), "-w", "%{http_code}", "--http1.0", *post).stdout == "200"
    # two URLs over one kept-alive connection: the second makes no connect
    done = curl("-o", str(outputs[2]), "-o", str(outputs[3]), "-w", "%{http_code}:%{num_connects} ",
                f"{url}/healthz", f"{url}/metrics")
    assert done.stdout == "200:1 200:0 ", done.stdout
    for output in outputs:
        json.loads(output.read_text())


def check_checkpoint(ckpt: Path, parity: Path, database) -> None:
    """A CLI-trained checkpoint reloads here with the trainer's exact
    narrations, and ``--checkpoint`` serving narrates in neural mode."""
    loaded = Lantern.load(ckpt)
    assert loaded.neural is not None and len(loaded.neural.decode_cache) > 0, "warm cache missing"
    sample = json.loads(parity.read_text())
    assert sample["payloads"]
    for payload, expected in zip(sample["payloads"], sample["texts"]):
        actual = loaded.describe_plan(loaded.parse_plan(payload), mode=sample["mode"]).text
        assert actual == expected, f"warm-boot divergence:\n{actual}\n!=\n{expected}"
    with serving("repro.service", "--checkpoint", str(ckpt)) as url:
        with LanternClient(url, timeout_s=10) as client:
            assert client.healthz()["neural_attached"], "checkpoint boot left the generator behind"
            result = client.narrate(database.explain(COUNT_SQL, output_format="json"), mode="neural")
            assert result["narration"]["generator"] == "neural"


def check_telemetry(path: Path) -> None:
    kinds = [event["event"] for event in read_events(path)]
    assert kinds[0] == "train_begin" and kinds.count("epoch") == EPOCHS, kinds
    assert kinds[-1] == "trace", kinds[-5:]


def check_zero(ckpt: Path, work: Path, database, sqls: list[str]) -> None:
    """mmap boot, an int8 round trip, and serving from a compiled cache."""
    loaded = Lantern.load(ckpt)
    assert loaded.neural.model.weights_memory_info()["mmap_backed"], "mmap boot missing"
    loaded.neural.model.quantize("int8")
    loaded.save(work / "ckpt-int8", weights_layout="mmap")
    rebooted = Lantern.load(work / "ckpt-int8")
    assert rebooted.neural.model.config.quantize == "int8"
    text = rebooted.describe_plan(rebooted.plan_for_sql(database, sqls[0]), mode="neural").text
    assert text.endswith(".") and "<" not in text, text
    cache = work / "workload.cache.json"
    run("-m", "repro.nlg.compile", "--checkpoint", str(ckpt), "--workload", "dblp",
        "--queries", "8", "--seed", "9", "--out", str(cache))
    with serving("repro.service", "--checkpoint", str(ckpt), "--compiled-cache", str(cache)) as url:
        with LanternClient(url, timeout_s=10) as client:
            assert client.healthz()["neural_attached"]
            for sql in sqls[:3]:
                result = client.narrate(database.explain(sql, output_format="json"), mode="neural")
                assert result["narration"]["generator"] == "neural"
            metrics = client.metrics()
    memory, cache_stats = metrics["memory"], metrics["decode_cache"]
    assert memory["rss_bytes"] > 0 and memory["weights_mmap_shared"] is True, memory
    assert cache_stats["compiled_hits"] >= 1, cache_stats


def check_fleet(ckpt: Path, database, sqls: list[str]) -> None:
    """2 workers under 4 threads of mixed load; one is killed mid-load."""
    payloads = [database.explain(sql, output_format="json") for sql in sqls]
    fleet = LanternFleet(FleetConfig(
        port=0, num_workers=2, checkpoint=str(ckpt), heartbeat_interval_s=0.2, snapshot_every=2,
    ))
    host, port = fleet.start()
    url = f"http://{host}:{port}"
    try:
        answered = [0] * 4

        def drive(slot: int) -> None:
            with LanternClient(url, timeout_s=30) as client:
                for round_ in range(6):
                    if round_ % 2 == slot % 2:
                        envelope = client.narrate_batch(payloads, mode="neural")
                        answered[slot] += sum("narration" in item for item in envelope["results"])
                    else:
                        for payload in payloads:
                            answered[slot] += "narration" in client.narrate(payload, mode="neural")

        threads = [threading.Thread(target=drive, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        victim = sorted(fleet.workers)[0]
        fleet.workers[victim].process.kill()
        for thread in threads:
            thread.join()
        assert sum(answered) == 4 * 6 * len(payloads), answered

        deadline = time.monotonic() + 30.0
        while not (fleet.workers[victim].alive and fleet.workers[victim].generation == 2
                   and victim in fleet.ring):
            assert time.monotonic() < deadline, f"{victim} never respawned"
            time.sleep(0.1)
        with LanternClient(url, timeout_s=30) as client:
            stats = client.metrics()["fleet"]
            assert stats["alive"] == 2 and stats["respawns"] >= 1, stats
            for worker_id, shard in stats["per_shard"].items():
                assert shard["alive"] and shard["in_ring"], (worker_id, shard)
            exposition = client.prometheus_metrics()
            assert "lantern_fleet_respawns_total" in exposition
            assert "lantern_fleet_workers" in exposition
            health = client.healthz()
            assert health["status"] == "ok" and health["routable_workers"] == 2, health
        workers = list(fleet.workers.values())
    finally:
        fleet.stop()
    codes = {handle.worker_id: handle.process.returncode for handle in workers}
    assert set(codes.values()) == {0}, f"workers did not exit 0 on stop: {codes}"


def check_fleet_cli() -> None:
    """SIGTERM on the router stops it with exit 0 and leaves no worker behind."""
    plan = build_dblp_database().explain(COUNT_SQL, output_format="json")
    with serving("repro.service.fleet", "--workers", "2") as url:
        with LanternClient(url, timeout_s=30) as client:
            assert client.narrate(plan)["narration"]["text"]
    # anchored on the interpreter so that a shell whose command text merely
    # contains the worker's arguments does not match
    workers = "^[^ ]+ -m repro[.]service --worker-id "
    left = subprocess.run(["pgrep", "-f", workers], capture_output=True, text=True)
    assert left.returncode == 1, f"workers outlived the router: {left.stdout}"


def check_perfbench(workload: str) -> None:
    """Every response of a short perfbench run matches its reference narration."""
    out = run("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "3", "--trace", "0")
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def step(name: str, check, *args):
    started = time.perf_counter()
    print(f"== {name}", flush=True)
    result = check(*args)
    print(f"   ok in {time.perf_counter() - started:.1f} s", flush=True)
    return result


def main() -> None:
    started = time.perf_counter()
    database, sqls, _ = _build_workload("dblp", 9, 8)
    with tempfile.TemporaryDirectory(prefix="lantern-smoke-") as temp:
        work = Path(temp)
        step("service: wire formats, 400, curl interop, tracing", check_service, work)
        ckpt, mmap_ckpt = step("train: npz and mmap checkpoints", train_checkpoints, work)
        step("training telemetry", check_telemetry, work / "telemetry.jsonl")
        step("checkpoint: fresh-process parity, --checkpoint serving", check_checkpoint,
             ckpt, work / "parity.json", database)
        step("zero: mmap, int8, compiled cache", check_zero, mmap_ckpt, work, database, sqls)
        step("fleet: kill mid-load, respawn, metrics", check_fleet, mmap_ckpt, database, sqls)
        step("fleet CLI: SIGTERM stops router and workers", check_fleet_cli)
        step("examples/fleet_quickstart.py", run, "examples/fleet_quickstart.py")
        for workload in ("classroom-fleet", "rule-mixed"):
            step(f"perfbench {workload}: correct, none failed", check_perfbench, workload)
    print(f"smoke OK in {time.perf_counter() - started:.0f} s")


if __name__ == "__main__":
    main()

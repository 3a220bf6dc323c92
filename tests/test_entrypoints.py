"""The serving entry points as operators run them: real subprocesses.

``python -m repro.service`` and ``python -m repro.service.fleet`` stop the
same way: SIGTERM or SIGINT drains, stops, and exits 0, and a stopped
router leaves no worker behind.  Deadlines are generous so a busy machine
does not make these tests flake.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service.client import LanternClient
from repro.service.server import LISTENING_LINE

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])
BOOT_DEADLINE_S = 120.0
EXIT_DEADLINE_S = 60.0


def _boot(argv: list[str], stderr_path: Path) -> tuple[subprocess.Popen, str]:
    """Start ``python <argv>`` and wait for its ``listening on`` line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_ROOT, env.get("PYTHONPATH")]))
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=stderr, text=True, env=env
        )
    watchdog = threading.Timer(BOOT_DEADLINE_S, process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            match = LISTENING_LINE.search(line)
            if match:
                return process, f"http://{match.group(1)}:{match.group(2)}"
    finally:
        watchdog.cancel()
    process.wait(timeout=EXIT_DEADLINE_S)
    raise AssertionError(
        f"{argv} exited ({process.returncode}) before listening:\n{stderr_path.read_text()}"
    )


def _stop(process: subprocess.Popen, signum: int) -> int:
    """Send ``signum``, then wait for the exit while draining stdout."""
    process.send_signal(signum)
    try:
        process.communicate(timeout=EXIT_DEADLINE_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    return process.returncode


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_a_signal_sent_on_the_ready_line_runs_the_orderly_stop(signum):
    """The ready line is announced only once the handlers are installed, so
    a signal sent the moment it is read runs ``stop`` instead of killing the
    process (a service exited -2 after such a SIGINT on a busy machine)."""
    script = (
        "import os\n"
        "from repro.service.frontend import run_until_signalled\n"
        "run_until_signalled(lambda: print('stopped'), "
        f"lambda: os.kill(os.getpid(), {int(signum)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
        timeout=EXIT_DEADLINE_S,
    )
    assert (done.returncode, done.stdout) == (0, "stopped\n"), done.stderr


def test_service_exits_0_after_sigterm(tmp_path):
    process, url = _boot(["-m", "repro.service", "--port", "0"], tmp_path / "stderr")
    try:
        with LanternClient(url, timeout_s=30.0) as client:
            assert client.healthz()["status"] == "ok"
    finally:
        returncode = _stop(process, signal.SIGTERM)
    assert returncode == 0, (tmp_path / "stderr").read_text()


#: a service whose rule narrations take a second, announced on stdout
SLOW_RULE_SERVICE = """
import time
from repro.service.server import build_service

service = build_service(port=0)
narrate = service.lantern.describe_plans

def slow(trees, mode="rule", *args, **kwargs):
    print("narrating", flush=True)
    time.sleep(1.0)
    return narrate(trees, mode, *args, **kwargs)

service.lantern.describe_plans = slow
service.serve_forever()
"""


def test_sigterm_during_a_rule_request_still_answers_it(tmp_path):
    """A rule request is narrated on its handler thread, not the batch
    worker; the stop routine waits for it before the process exits."""
    process, url = _boot(["-c", SLOW_RULE_SERVICE], tmp_path / "stderr")
    plan = {"Plan": {"Node Type": "Seq Scan", "Relation Name": "author"}}
    answered: list[tuple[int, dict]] = []
    request = threading.Thread(
        target=lambda: answered.append(
            LanternClient(url, timeout_s=30.0).request_json("POST", "/narrate", {"plan": plan})
        ),
        daemon=True,
    )
    try:
        request.start()
        for line in process.stdout:  # the rest of the banner, then the request
            if line.strip() == "narrating":
                break
    finally:
        returncode = _stop(process, signal.SIGTERM)
    request.join(timeout=EXIT_DEADLINE_S)
    assert returncode == 0, (tmp_path / "stderr").read_text()
    ((status, body),) = answered
    assert status == 200 and body["narration"]["steps"], body


def test_rule_only_service_imports_no_nlg_or_fleet_and_exits_0_after_sigint(tmp_path):
    """A rule-only service loads neither the neural stack nor the fleet, and
    SIGINT stops it the same way SIGTERM does."""
    stderr_path = tmp_path / "stderr"
    process, _ = _boot(["-X", "importtime", "-m", "repro.service", "--port", "0"], stderr_path)
    returncode = _stop(process, signal.SIGINT)
    imported = set(re.findall(r"\|\s+(repro[\w.]*)", stderr_path.read_text()))
    assert "repro.service.server" in imported
    assert returncode == 0
    unwanted = ("repro.nlg", "repro.service.fleet")
    assert not {name for name in imported if name.startswith(unwanted)}


def test_fleet_router_sigterm_stops_its_workers(tmp_path):
    process, url = _boot(
        ["-m", "repro.service.fleet", "--workers", "1", "--port", "0"], tmp_path / "stderr"
    )
    worker_pids: list[int] = []
    try:
        with LanternClient(url, timeout_s=30.0) as client:
            health = client.healthz()
        worker_pids = [worker["pid"] for worker in health["workers"].values()]
        assert len(worker_pids) == 1 and _running(worker_pids[0])
    finally:
        returncode = _stop(process, signal.SIGTERM)
    deadline = time.monotonic() + EXIT_DEADLINE_S
    while any(_running(pid) for pid in worker_pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    survivors = [pid for pid in worker_pids if _running(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert returncode == 0, (tmp_path / "stderr").read_text()
    assert not survivors, f"workers outlived the router: {survivors}"


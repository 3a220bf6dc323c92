"""Serving process trees: boot, health-wait, CPU and memory accounting, teardown.

Every process a run starts carries ``PERFBENCH_RUN_ID=<marker>`` in its
environment (fleet workers inherit it from the router), so teardown can
find a process that outlived its parent even after it was re-parented.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from pathlib import Path
from typing import Optional

from repro.errors import ServiceError
from repro.service.client import LanternClient

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on (http://[0-9.]+:[0-9]+)")


def _children(pid: int) -> list[int]:
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        if os.path.exists(f"/proc/{pid}"):
            tree.append(pid)
            frontier.extend(_children(pid))
    return tree


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one process (all its threads), 0 when gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return 0.0
    # fields[0] is the state (field 3 of stat); utime and stime are fields 14, 15
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def rss_mib(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def marked_processes(marker: str) -> list[int]:
    """Live processes whose environment carries this run's marker."""
    needle = f"PERFBENCH_RUN_ID={marker}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            continue
    return found


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except OSError:
        return True


class Deployment:
    """One booted serving process tree (``python -m repro.service`` or
    ``python -m repro.service.fleet``) and the client that talks to it."""

    def __init__(
        self,
        argv: list[str],
        env: dict[str, str],
        log_path: Path,
        marker: str,
        workers: int = 0,
    ) -> None:
        self.argv = argv
        self.marker = marker
        #: fleet worker processes behind the root (0: the root serves alone)
        self.workers = workers
        self.log_path = log_path
        self.started = time.perf_counter()
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            argv,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env={**env, "PERFBENCH_RUN_ID": marker, "PYTHONUNBUFFERED": "1"},
        )
        self.base_url: Optional[str] = None
        self.client: Optional[LanternClient] = None
        self.pids: list[int] = []

    def wait_ready(self, timeout_s: float = 90.0) -> float:
        """Block until the root listens and every serving process answers
        ``/healthz`` 200; returns seconds since spawn."""
        deadline = time.monotonic() + timeout_s
        while self.base_url is None:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                self.base_url = match.group(1)
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        self.client = LanternClient(self.base_url, timeout_s=30.0)
        while True:
            try:
                status, health = self.client.request_json("GET", "/healthz")
            except ServiceError:
                status, health = 0, {}
            if (
                status == 200
                and health.get("status") == "ok"
                and health.get("routable_workers", 0) == self.workers
            ):
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        ready_s = time.perf_counter() - self.started
        self.pids = process_tree(self.process.pid)
        if len(self.pids) != 1 + self.workers:
            raise RuntimeError(f"expected {1 + self.workers} serving processes, found {self.pids}")
        return ready_s

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"{self.argv} exited with {self.process.returncode}:\n"
                + self.log_path.read_text(errors="replace")[-2000:]
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"{self.argv} did not become healthy in time")

    def cpu_seconds(self) -> dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids}

    def rss_mib(self) -> float:
        return sum(rss_mib(pid) for pid in self.pids)

    def stop(self, timeout_s: float = 30.0) -> list[int]:
        """SIGINT the root and wait for the whole tree to end.

        SIGINT, not SIGTERM: both serving entry points run their orderly
        ``stop()`` (which also stops fleet workers) only on
        ``KeyboardInterrupt``.  Returns the pids of processes that had to
        be killed because they outlived the root; an empty list is a clean
        teardown.
        """
        if self.client is not None:
            self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self._log.close()
        # the root waits for its workers before exiting, so anything still
        # running now has outlived it
        survivors = [pid for pid in marked_processes(self.marker) if not _is_zombie(pid)]
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and any(
            not _is_zombie(pid) for pid in marked_processes(self.marker)
        ):
            time.sleep(0.05)
        return survivors

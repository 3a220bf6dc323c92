"""The load generator: one process, two sender threads, two keep-alive connections.

The calling thread is one of the two senders, so a phase never runs more
than two threads.  Both share one ``LanternClient``, which keeps one
persistent connection per thread.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ServiceError
from repro.service.client import LanternClient


@dataclass
class Outcome:
    """One request: which payload, when it was due and sent, how it ended."""

    phase: str
    payload_index: int
    due: float
    sent: float
    done: float
    status: int
    body: Optional[dict[str, Any]]
    #: set when the output check rejected an otherwise successful response
    mismatch: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.mismatch is None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class Stream:
    """The run's request sequence: the k-th request sends ``payloads[index(k)]``."""

    payloads: list[Any]
    index: Callable[[int], int]
    mode: str
    position: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def take(self) -> tuple[int, dict[str, Any]]:
        with self.lock:
            k = self.position
            self.position += 1
        payload_index = self.index(k)
        return payload_index, {"plan": self.payloads[payload_index], "mode": self.mode}


def _send(client: LanternClient, phase: str, stream: Stream, due: float) -> Outcome:
    payload_index, body = stream.take()
    sent = time.perf_counter()
    try:
        status, response = client.request_json("POST", "/narrate", body)
    except ServiceError:
        status, response = 0, None
    return Outcome(phase, payload_index, due, sent, time.perf_counter(), status, response)


def _run_senders(work: Callable[[], None]) -> None:
    helper = threading.Thread(target=work, name="perfbench-sender")
    helper.start()
    try:
        work()
    finally:
        helper.join()


def closed_loop(client: LanternClient, stream: Stream, seconds: float, phase: str) -> list[Outcome]:
    """Each sender sends its next request as soon as the previous one ends."""
    outcomes: list[Outcome] = []
    end = time.perf_counter() + seconds

    def work() -> None:
        while time.perf_counter() < end:
            outcomes.append(_send(client, phase, stream, time.perf_counter()))

    _run_senders(work)
    return outcomes


def open_loop(client: LanternClient, stream: Stream, seconds: float, rate: float) -> list[Outcome]:
    """Requests fall due at a fixed rate; a sender that is free takes the
    next due request, sleeping until it is due.  Latency counts from the
    due time, so a stall also charges the requests queued behind it."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    total = int(seconds * rate)
    slot = iter(range(total))
    slot_lock = threading.Lock()

    def work() -> None:
        while True:
            with slot_lock:
                n = next(slot, None)
            if n is None:
                return
            due = start + n / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcomes.append(_send(client, "open", stream, due))

    _run_senders(work)
    return outcomes


def host_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the whole host from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


@dataclass
class Slice:
    """One stretch of one phase, with what it cost the serving processes."""

    phase: str
    start: float
    end: float
    outcomes: list[Outcome]
    #: CPU seconds each serving process spent during the slice
    cpu: dict[int, float]
    #: share of the host's CPU time the hypervisor stole during the slice
    steal: float


def measure(
    client: LanternClient,
    stream: Stream,
    cpu_seconds: Callable[[], dict[int, float]],
    seconds: float,
    rate: float,
    pairs: int,
) -> list[Slice]:
    """``pairs`` open-loop slices alternating with ``pairs`` closed-loop
    slices, each ``seconds / (2 * pairs)`` long.

    Alternating short slices puts both phases under the same stretches of
    host load, which on a shared virtual machine moves every number at once,
    CPU time per request included; the steal each slice saw is recorded.
    """
    length = seconds / (2 * pairs)
    slices: list[Slice] = []
    for _ in range(pairs):
        for phase in ("open", "closed"):
            cpu_before, host_before = cpu_seconds(), host_ticks()
            start = time.perf_counter()
            if phase == "open":
                outcomes = open_loop(client, stream, length, rate)
            else:
                outcomes = closed_loop(client, stream, length, "closed")
            end = time.perf_counter()
            cpu_after, host_after = cpu_seconds(), host_ticks()
            total = host_after[1] - host_before[1]
            steal = (host_after[0] - host_before[0]) / total if total else 0.0
            cpu = {pid: cpu_after[pid] - cpu_before.get(pid, 0.0) for pid in cpu_after}
            slices.append(Slice(phase, start, end, outcomes, cpu, steal))
    return slices


def closed_rate(slices: list[Slice]) -> float:
    """Median over closed-loop slices of plans completed per second."""
    rates = [
        sum(1 for o in s.outcomes if o.ok) / (s.end - s.start)
        for s in slices
        if s.phase == "closed"
    ]
    return statistics.median(rates) if rates else 0.0

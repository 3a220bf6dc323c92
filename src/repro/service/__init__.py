"""LANTERN-SERVE: the concurrent narration service.

The serving layer that exposes LANTERN to many clients at once:

* :mod:`repro.service.server` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``POST /narrate``, ``GET /metrics`` — JSON or ``?format=prometheus`` —
  ``GET /trace``, ``GET /healthz``);
* :mod:`repro.service.frontend` — the route-table HTTP front end and the
  one error-to-status table, shared by the service and the fleet router;
* :mod:`repro.service.batcher` — the micro-batching request queue whose
  requests join the running neural decode at its next step, with
  bounded-queue admission control;
* :mod:`repro.service.telemetry` — live request/latency/batching/cache
  metrics behind ``/metrics``, backed by the LANTERN-SCOPE histograms in
  :mod:`repro.obs`;
* :mod:`repro.service.client` — a small ``urllib`` client;
* :mod:`repro.service.fleet` — LANTERN-FLEET: a router process sharding
  ``/narrate`` across N worker processes by consistent-hashed plan
  signature, with heartbeats, draining restarts, and cache handoff.

Run it with ``python -m repro.service`` (see ``--help`` for knobs), or embed
it::

    from repro.service import LanternService, ServiceConfig

    service = LanternService()          # rule-based narration, all formats
    host, port = service.start()        # non-blocking; port=0 → ephemeral
    ...
    service.stop()
"""

from repro.service.batcher import BatcherConfig, MicroBatcher
from repro.service.client import LanternClient, LanternServiceError
from repro.service.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    LanternService,
    ServiceConfig,
    build_service,
)
from repro.service.telemetry import ServiceTelemetry

# fleet names resolve lazily (PEP 562) so that spawned worker processes
# (``python -m repro.service.fleet.worker``) never see the worker module
# imported as a side effect of the parent package — see
# ``repro/service/fleet/__init__.py`` for the companion mechanism
_FLEET_EXPORTS = {
    "ConsistentHashRing",
    "FleetConfig",
    "LanternFleet",
    "WorkerService",
    "plan_routing_signature",
}


def __getattr__(name: str):
    if name in _FLEET_EXPORTS:
        import importlib

        value = getattr(importlib.import_module("repro.service.fleet"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _FLEET_EXPORTS)


__all__ = [
    "BatcherConfig",
    "ConsistentHashRing",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "FleetConfig",
    "LanternClient",
    "LanternFleet",
    "LanternService",
    "LanternServiceError",
    "MicroBatcher",
    "ServiceConfig",
    "ServiceTelemetry",
    "WorkerService",
    "build_service",
    "plan_routing_signature",
]

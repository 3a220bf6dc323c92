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
* :mod:`repro.service.client` — a small keep-alive HTTP client;
* :mod:`repro.service.fleet` — LANTERN-FLEET: a router process sharding
  ``/narrate`` across N worker processes (each ``python -m repro.service
  --worker-id W``) by consistent-hashed plan signature, with heartbeats,
  draining restarts, and cache handoff.  Import its names from
  :mod:`repro.service.fleet`.

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

__all__ = [
    "BatcherConfig",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "LanternClient",
    "LanternService",
    "LanternServiceError",
    "MicroBatcher",
    "ServiceConfig",
    "ServiceTelemetry",
    "build_service",
]

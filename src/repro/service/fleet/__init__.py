"""LANTERN-FLEET: multi-process sharded serving for LANTERN-SERVE.

One router process fronts N worker processes:

* :mod:`repro.service.fleet.ring` — the consistent-hash ring and the
  tag-abstracted plan routing signature (the decode-cache keyspace);
* :mod:`repro.service.fleet.router` — spawn, heartbeat, respawn, draining
  rolling restarts, shard routing, batch split/rejoin, trace grafting, and
  metric aggregation behind one HTTP front door.

A worker is a plain LANTERN-SERVE process, ``python -m repro.service
--worker-id W``: the worker id opens the ``/admin/drain`` and
``/admin/cache`` routes the router drives its lifecycle with (see
:meth:`repro.service.server.LanternService.routes`).

Run a fleet with ``python -m repro.service.fleet`` (see ``--help``), or
embed it::

    from repro.service.fleet import FleetConfig, LanternFleet

    fleet = LanternFleet(FleetConfig(num_workers=4, checkpoint="ckpt/"))
    host, port = fleet.start()      # spawns workers, opens the front door
    ...
    fleet.stop()
"""

from repro.service.fleet.ring import DEFAULT_REPLICAS, ConsistentHashRing, plan_routing_signature
from repro.service.fleet.router import (
    DEFAULT_ROUTER_PORT,
    FleetConfig,
    LanternFleet,
    WorkerHandle,
)

__all__ = [
    "ConsistentHashRing",
    "DEFAULT_REPLICAS",
    "DEFAULT_ROUTER_PORT",
    "FleetConfig",
    "LanternFleet",
    "WorkerHandle",
    "plan_routing_signature",
]

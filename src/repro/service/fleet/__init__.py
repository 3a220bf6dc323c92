"""LANTERN-FLEET: multi-process sharded serving for LANTERN-SERVE.

One router process fronts N worker processes:

* :mod:`repro.service.fleet.ring` — the consistent-hash ring and the
  tag-abstracted plan routing signature (the decode-cache keyspace);
* :mod:`repro.service.fleet.worker` — one LANTERN-SERVE process with the
  ``/admin/drain`` and ``/admin/cache`` lifecycle surface plus the stdout
  ready-line spawn handshake;
* :mod:`repro.service.fleet.router` — spawn, heartbeat, respawn, draining
  rolling restarts, shard routing, batch split/rejoin, trace grafting, and
  metric aggregation behind one HTTP front door.

Run a fleet with ``python -m repro.service.fleet`` (see ``--help``), or
embed it::

    from repro.service.fleet import FleetConfig, LanternFleet

    fleet = LanternFleet(FleetConfig(num_workers=4, checkpoint="ckpt/"))
    host, port = fleet.start()      # spawns workers, opens the front door
    ...
    fleet.stop()
"""

# Lazy (PEP 562) exports: ``python -m repro.service.fleet.worker`` imports
# this package before running the worker module as __main__; importing the
# submodules eagerly here would put ``repro.service.fleet.worker`` in
# sys.modules first and trip runpy's double-import warning in every spawned
# worker.  Attribute access resolves to the right submodule on demand.
_EXPORTS = {
    "ConsistentHashRing": "ring",
    "DEFAULT_REPLICAS": "ring",
    "plan_routing_signature": "ring",
    "DEFAULT_ROUTER_PORT": "router",
    "FleetConfig": "router",
    "LanternFleet": "router",
    "WorkerHandle": "router",
    "READY_PREFIX": "worker",
    "WorkerService": "worker",
    "build_worker": "worker",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "ConsistentHashRing",
    "DEFAULT_REPLICAS",
    "DEFAULT_ROUTER_PORT",
    "FleetConfig",
    "LanternFleet",
    "READY_PREFIX",
    "WorkerHandle",
    "WorkerService",
    "build_worker",
    "plan_routing_signature",
]

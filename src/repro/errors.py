"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError` so that callers can
catch library errors without accidentally swallowing programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLError(ReproError):
    """Base class for errors raised by the mini SQL engine."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""


class CatalogError(SQLError):
    """A referenced table, column, or index does not exist (or already does)."""


class ExecutionError(SQLError):
    """A runtime failure while executing a physical plan."""


class PlanningError(SQLError):
    """The optimizer could not produce a plan for a parsed statement."""


class PlanFormatError(ReproError):
    """A serialized plan (PostgreSQL JSON / SQL Server XML) is malformed."""


class PoolError(ReproError):
    """Base class for POOL language errors."""


class PoolSyntaxError(PoolError):
    """A POOL statement could not be parsed."""


class PoolSemanticError(PoolError):
    """A POOL statement references unknown sources, operators, or attributes."""


class NarrationError(ReproError):
    """RULE-LANTERN could not narrate an operator tree."""


class PlanDetectionError(NarrationError):
    """No registered plan format could ingest a payload.

    ``attempted_formats`` lists the registry formats that were tried (in
    detection order) so callers — notably the LANTERN-SERVE ``/narrate``
    endpoint, which surfaces them in its 400 response — can tell the client
    exactly which serializations were considered and why each was rejected.
    """

    def __init__(self, message: str, attempted_formats: list[str] | None = None) -> None:
        super().__init__(message)
        self.attempted_formats: list[str] = list(attempted_formats or [])


class ServiceError(ReproError):
    """Base class for LANTERN-SERVE serving-layer errors."""


class ServiceOverloadError(ServiceError):
    """The narration queue is full — the request was refused (HTTP 429)."""


class ServiceTimeoutError(ServiceError):
    """A narration request was admitted but not answered in time (HTTP 503)."""


class ServiceDrainingError(ServiceError):
    """The process is draining for a restart and takes no new narrations (HTTP 503)."""


class RequestError(ServiceError):
    """A malformed HTTP request: body, envelope, mode or presentation (HTTP 400)."""


class RequestTooLargeError(RequestError):
    """The request body exceeds the size bound (HTTP 413)."""


class RouteNotFoundError(ServiceError):
    """No route serves this method and path (HTTP 404)."""


class FleetError(ServiceError):
    """A LANTERN-FLEET operation failed (worker spawn, handshake, topology)."""


class CheckpointError(ReproError):
    """Base class for LANTERN-PERSIST checkpoint save/load errors."""


class CheckpointFormatError(CheckpointError):
    """A checkpoint path is not a checkpoint, or its manifest is malformed."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint's schema version or kind is not one this build can read."""


class CheckpointIntegrityError(CheckpointError):
    """Checkpoint contents fail verification (digest mismatch, missing or
    misshapen weight arrays) — the file is corrupt or was tampered with."""


class NLGError(ReproError):
    """Base class for neural-generation errors (vocabulary, model, decoding)."""


class VocabularyError(NLGError):
    """A token is missing from a closed vocabulary."""


class ModelConfigError(NLGError):
    """Inconsistent neural model configuration (shapes, missing embeddings)."""


class CacheFormatError(NLGError):
    """A decode-cache snapshot row is malformed (checkpoint or ``/admin/cache``)."""


class WorkloadError(ReproError):
    """A workload/schema/data-generation request is invalid."""

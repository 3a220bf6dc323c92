"""LANTERN-PERSIST: versioned checkpoints for trained narrators.

A checkpoint is a directory holding two files:

* a weight file — every trainable :class:`~repro.nlg.nn.layers.Parameter`
  of the QEP2Seq model, keyed by its unique parameter name (absent for
  rule-only facades, which have no model).  Two layouts exist, selected at
  save time with ``weights_layout`` and recorded in the manifest:

  - ``"npz"`` (default) — a ``weights.npz`` archive, fully read and
    digest-verified on load;
  - ``"mmap"`` (LANTERN-ZERO) — ``weights.bin``, the raw C-contiguous
    array bytes at 64-byte-aligned offsets with an offset index in the
    manifest.  Loading memory-maps the file read-only and the model
    *adopts* the mapped views (no copy, no digest pass — structural
    bounds are checked instead, and :func:`verify_checkpoint` performs
    the full digest on demand), so warm boot costs microseconds and N
    forked serving workers share one physical copy of the weight pages.
    Training after an mmap load transparently copies weights into
    private memory (copy-on-train, see ``Parameter.materialize``).

* ``manifest.json`` — a schema-versioned JSON document recording what kind
  of object was saved, the model/facade configuration, both vocabularies in
  id order, the serving state that must survive a restart (wording-cycle
  exposures, habituation counters, optionally the warm decode cache as
  :meth:`~repro.nlg.cache.DecodeCache.export_rows` rows), the
  weight layout, and a SHA-256 digest of the weight file so corruption is
  detectable in either layout.

Three object kinds round-trip, each strictly containing the previous:

* :func:`save_qep2seq` / :func:`load_qep2seq` — the bare encoder/decoder;
* :func:`save_neural_lantern` / :func:`load_neural_lantern` — the
  NEURAL-LANTERN facade (model + beam size + exposure state + cache);
* :func:`save_lantern` / :func:`load_lantern` — the full
  :class:`~repro.core.lantern.Lantern` (everything above + ``LanternConfig``
  + habituation counters), also reachable as ``Lantern.save(path)`` /
  ``Lantern.load(path)``.

A model loaded from a checkpoint produces **token-identical** narrations to
the model that was saved: weights, vocabulary ids, beam width, exposure
counters and cache contents are all restored bit-for-bit.  The model dtype
travels in the manifest (``Seq2SeqConfig.dtype``) and the npz archive keeps
array dtypes, so a float32 model round-trips as float32.  Optimizer moments
(Adam's m/v) are *not* persisted — checkpoints capture a narrator ready to
serve, not a training run mid-flight; continuing training from a checkpoint
restarts the optimizer state.

All failure modes raise a structured subclass of
:class:`~repro.errors.CheckpointError`: a non-checkpoint path or malformed
manifest raises :class:`~repro.errors.CheckpointFormatError`, an
unsupported schema version or mismatched kind raises
:class:`~repro.errors.CheckpointVersionError`, and a digest or weight-shape
mismatch raises :class:`~repro.errors.CheckpointIntegrityError`.
"""

from __future__ import annotations

import hashlib
import json
import mmap as mmap_module
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.core.lantern import Lantern, LanternConfig
from repro.core.rule_lantern import RuleLantern
from repro.errors import (
    CacheFormatError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointVersionError,
    PoolError,
    VocabularyError,
)
from repro.nlg.cache import DEFAULT_CACHE_SIZE
from repro.nlg.neural_lantern import NeuralLantern
from repro.obs.tracing import default_tracer
from repro.nlg.seq2seq import QEP2Seq, Seq2SeqConfig
from repro.nlg.vocab import Vocabulary
from repro.pool.poem import PoemStore

#: bumped whenever the manifest layout changes incompatibly
SCHEMA_VERSION = 1

#: the manifest's self-identification value
FORMAT_NAME = "lantern-persist"

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.npz"
WEIGHTS_BIN_FILE = "weights.bin"

LAYOUT_NPZ = "npz"
LAYOUT_MMAP = "mmap"
WEIGHT_LAYOUTS = (LAYOUT_NPZ, LAYOUT_MMAP)

#: mmap layout: every array starts on a 64-byte boundary (cacheline/SIMD
#: friendly, and trivially satisfies numpy's alignment requirements)
_MMAP_ALIGN = 64

KIND_QEP2SEQ = "qep2seq"
KIND_NEURAL = "neural-lantern"
KIND_LANTERN = "lantern"

PathLike = Union[str, Path]


class _FastInitGenerator:
    """A stand-in rng for checkpoint reconstruction (see ``QEP2Seq.init_rng``).

    Every parameter of the model under construction is overwritten or
    mmap-adopted immediately afterwards, so initialization draws are pure
    waste — this generator returns zero buffers (calloc'd, so the kernel
    never materializes the pages) instead.
    """

    @staticmethod
    def uniform(low, high, size=None):
        return np.zeros(size if size is not None else ())


# ----------------------------------------------------------------------
# saving
# ----------------------------------------------------------------------


def save_qep2seq(model: QEP2Seq, path: PathLike, weights_layout: str = LAYOUT_NPZ) -> Path:
    """Checkpoint a bare QEP2Seq model; returns the checkpoint directory."""
    section, weights = _model_section_and_weights(model)
    manifest = _base_manifest(KIND_QEP2SEQ)
    manifest["model"] = section
    return _write_checkpoint(path, manifest, weights, weights_layout)


def save_neural_lantern(
    neural: NeuralLantern,
    path: PathLike,
    include_cache: bool = True,
    weights_layout: str = LAYOUT_NPZ,
) -> Path:
    """Checkpoint a NEURAL-LANTERN facade (model + serving state).

    ``include_cache=False`` still records the cache's size/enablement but
    drops the decoded entries (smaller checkpoint, cold cache on load).
    """
    section, weights = _model_section_and_weights(neural.model)
    manifest = _base_manifest(KIND_NEURAL)
    manifest["model"] = section
    manifest["neural"] = _neural_section(neural, include_cache)
    return _write_checkpoint(path, manifest, weights, weights_layout)


def save_lantern(
    lantern: Lantern,
    path: PathLike,
    include_cache: bool = True,
    weights_layout: str = LAYOUT_NPZ,
) -> Path:
    """Checkpoint a full :class:`Lantern` facade.

    Rule-only facades (no neural generator) checkpoint too — the manifest
    then carries only the ``LanternConfig`` and habituation counters, and no
    ``weights.npz`` is written.
    """
    manifest = _base_manifest(KIND_LANTERN)
    weights = None
    if lantern.neural is not None:
        if not isinstance(lantern.neural, NeuralLantern):
            raise CheckpointError(
                "only NeuralLantern generators can be checkpointed, not "
                f"{type(lantern.neural).__name__}"
            )
        section, weights = _model_section_and_weights(lantern.neural.model)
        manifest["model"] = section
        manifest["neural"] = _neural_section(lantern.neural, include_cache)
    manifest["lantern"] = {
        "config": asdict(lantern.config),
        "operator_counts": dict(lantern._operator_counts),
        # the POEM store travels with the facade: a POOL-customized catalog
        # (edited aliases/descriptions) must narrate identically after a
        # restart, not silently revert to the default wording
        "store": [
            {
                "source": poem_object.source,
                "name": poem_object.name,
                "operator_type": poem_object.operator_type,
                "alias": poem_object.alias,
                "defn": poem_object.defn,
                "descriptions": list(poem_object.descriptions),
                "cond": poem_object.cond,
                "target": poem_object.target,
            }
            for poem_object in lantern.store.objects()
        ],
        # with a seeded rule narrator, description wording cycles with the
        # rng stream — capture each narrator's stream position so the loaded
        # facade continues the cycle instead of replaying it from the seed
        "narrator_rng": {
            poem_source: _encode_rng_state(narrator._rng.getstate())
            for poem_source, narrator in lantern._narrators.items()
            if narrator._rng is not None
        },
    }
    return _write_checkpoint(path, manifest, weights, weights_layout)


def _base_manifest(kind: str) -> dict[str, Any]:
    return {"format": FORMAT_NAME, "schema_version": SCHEMA_VERSION, "kind": kind}


def _model_section_and_weights(
    model: QEP2Seq,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    weights = {parameter.name: parameter.value for parameter in model.parameters()}
    if len(weights) != len(model.parameters()):
        raise CheckpointError("model parameter names are not unique; cannot checkpoint")
    section = {
        "config": asdict(model.config),
        "input_tokens": model.input_vocabulary.tokens,
        "output_tokens": model.output_vocabulary.tokens,
        "parameters": {name: list(value.shape) for name, value in weights.items()},
    }
    return section, weights


def _neural_section(neural: NeuralLantern, include_cache: bool) -> dict[str, Any]:
    cache = neural.decode_cache
    return {
        "beam_size": neural.beam_size,
        # the wording-cycle state: which beam alternative each act signature
        # is due next — persisting it keeps anti-habituation cycling
        # continuous across a restart
        "act_exposure": dict(neural._act_exposure),
        "cache": {
            "max_size": cache.max_size,
            "enabled": cache.enabled,
            "entries": cache.export_rows() if include_cache else None,
        },
    }


def _write_checkpoint(
    path: PathLike,
    manifest: dict[str, Any],
    weights: Optional[dict[str, np.ndarray]],
    weights_layout: str = LAYOUT_NPZ,
) -> Path:
    if weights_layout not in WEIGHT_LAYOUTS:
        raise CheckpointFormatError(
            f"unsupported weights layout {weights_layout!r}; expected one of {WEIGHT_LAYOUTS}"
        )
    tracer = default_tracer()
    with tracer.span(
        "checkpoint.save", kind=manifest.get("kind", "?"), layout=weights_layout
    ):
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        if weights is not None:
            manifest["weights_layout"] = weights_layout
            with tracer.span("weights"):
                if weights_layout == LAYOUT_NPZ:
                    with open(directory / WEIGHTS_FILE, "wb") as handle:
                        np.savez(handle, **weights)
                    manifest["weights_sha256"] = _sha256_file(directory / WEIGHTS_FILE)
                    _unlink_if_exists(directory / WEIGHTS_BIN_FILE)
                else:
                    manifest["weights_index"] = _write_weights_bin(
                        directory / WEIGHTS_BIN_FILE, weights
                    )
                    manifest["weights_sha256"] = _sha256_file(directory / WEIGHTS_BIN_FILE)
                    _unlink_if_exists(directory / WEIGHTS_FILE)
        else:
            # overwriting a neural checkpoint with a rule-only one must not
            # leave the previous model's weights orphaned beside the manifest
            _unlink_if_exists(directory / WEIGHTS_FILE)
            _unlink_if_exists(directory / WEIGHTS_BIN_FILE)
        with tracer.span("manifest"):
            (directory / MANIFEST_FILE).write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
    return directory


def _unlink_if_exists(path: Path) -> None:
    if path.exists():
        path.unlink()


def _write_weights_bin(
    path: Path, weights: dict[str, np.ndarray]
) -> list[dict[str, Any]]:
    """Write the raw mmap layout; returns the manifest offset index.

    Arrays are laid out back to back in iteration (parameter) order, each
    starting on a :data:`_MMAP_ALIGN`-byte boundary, as plain C-contiguous
    little-endian bytes — exactly the representation ``np.frombuffer`` can
    view with zero copies.
    """
    index: list[dict[str, Any]] = []
    with open(path, "wb") as handle:
        offset = 0
        for name, value in weights.items():
            array = np.ascontiguousarray(value)
            padding = (-offset) % _MMAP_ALIGN
            if padding:
                handle.write(b"\0" * padding)
                offset += padding
            index.append(
                {
                    "name": name,
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                }
            )
            data = array.tobytes()
            handle.write(data)
            offset += len(data)
    return index


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------


def load_qep2seq(path: PathLike, verify: bool = False) -> QEP2Seq:
    """Load a bare QEP2Seq checkpoint.

    ``verify=True`` forces the full weight-file digest check even for the
    mmap layout (whose default load is structural-only for speed).
    """
    directory = Path(path)
    tracer = default_tracer()
    with tracer.span("checkpoint.load", kind=KIND_QEP2SEQ):
        with tracer.span("manifest"):
            manifest = _read_manifest(directory)
        _expect_kind(manifest, KIND_QEP2SEQ)
        with tracer.span("restore"):
            return _restore_model(
                _section(manifest, "model"),
                _read_weights(directory, manifest, verify=verify),
            )


def load_neural_lantern(path: PathLike, verify: bool = False) -> NeuralLantern:
    """Load a NEURAL-LANTERN checkpoint (model + exposure state + cache)."""
    directory = Path(path)
    tracer = default_tracer()
    with tracer.span("checkpoint.load", kind=KIND_NEURAL):
        with tracer.span("manifest"):
            manifest = _read_manifest(directory)
        _expect_kind(manifest, KIND_NEURAL)
        with tracer.span("restore"):
            return _restore_neural(manifest, directory, verify=verify)


def load_lantern(path: PathLike, verify: bool = False) -> Lantern:
    """Load a full :class:`Lantern` checkpoint."""
    directory = Path(path)
    tracer = default_tracer()
    with tracer.span("checkpoint.load", kind=KIND_LANTERN):
        with tracer.span("manifest"):
            manifest = _read_manifest(directory)
        _expect_kind(manifest, KIND_LANTERN)
        section = _section(manifest, "lantern")
        config = _build_config(LanternConfig, section.get("config"), "lantern config")
        with tracer.span("restore"):
            neural = (
                _restore_neural(manifest, directory, verify=verify)
                if "neural" in manifest
                else None
            )
            lantern = Lantern(
                store=_restore_store(section.get("store")), neural=neural, config=config
            )
            counts = section.get("operator_counts", {})
            if not isinstance(counts, dict):
                raise CheckpointFormatError(
                    "the manifest's operator_counts must be an object"
                )
            lantern._operator_counts = Counter(
                {
                    str(name): _coerce_int(count, "operator count")
                    for name, count in counts.items()
                }
            )
            for poem_source, state in (section.get("narrator_rng") or {}).items():
                narrator = RuleLantern(
                    lantern.store, poem_source=poem_source, seed=lantern.config.seed
                )
                if narrator._rng is not None:
                    try:
                        narrator._rng.setstate(_decode_rng_state(state))
                    except (TypeError, ValueError) as error:
                        raise CheckpointFormatError(
                            f"invalid narrator rng state for {poem_source!r}: {error}"
                        ) from error
                lantern._narrators[poem_source] = narrator
            return lantern


def _read_manifest(directory: Path) -> dict[str, Any]:
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.is_file():
        raise CheckpointFormatError(
            f"{directory} is not a LANTERN-PERSIST checkpoint (no {MANIFEST_FILE})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointFormatError(f"unreadable checkpoint manifest: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise CheckpointFormatError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointVersionError(
            f"checkpoint schema version {version!r} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return manifest


def _expect_kind(manifest: dict[str, Any], expected: str) -> None:
    kind = manifest.get("kind")
    if kind != expected:
        raise CheckpointVersionError(
            f"checkpoint holds a {kind!r}, not the requested {expected!r} "
            "(use the matching load function, or Lantern.load for full facades)"
        )


def _section(manifest: dict[str, Any], name: str) -> dict[str, Any]:
    section = manifest.get(name)
    if not isinstance(section, dict):
        raise CheckpointFormatError(f"the manifest has no {name!r} section")
    return section


def _weights_layout(manifest: dict[str, Any]) -> str:
    layout = manifest.get("weights_layout", LAYOUT_NPZ)
    if layout not in WEIGHT_LAYOUTS:
        raise CheckpointFormatError(
            f"unsupported weights layout {layout!r}; this build reads {WEIGHT_LAYOUTS}"
        )
    return layout


def _verify_digest(weights_path: Path, manifest: dict[str, Any]) -> None:
    recorded = manifest.get("weights_sha256")
    if not isinstance(recorded, str):
        raise CheckpointFormatError("the manifest records no weights digest")
    actual = _sha256_file(weights_path)
    if actual != recorded:
        raise CheckpointIntegrityError(
            f"weights digest mismatch: manifest records sha256 {recorded[:12]}… but "
            f"{weights_path.name} hashes to {actual[:12]}… — the checkpoint is corrupt"
        )


def verify_checkpoint(path: PathLike) -> bool:
    """Full integrity check of a checkpoint's weight file, any layout.

    Recomputes the SHA-256 digest over the entire weight file and compares
    it with the manifest — the check the fast mmap load path deliberately
    skips.  Returns ``True`` for weight-less (rule-only) checkpoints.
    Raises :class:`~repro.errors.CheckpointIntegrityError` on mismatch.
    """
    directory = Path(path)
    manifest = _read_manifest(directory)
    if "weights_sha256" not in manifest:
        return True  # rule-only facade: nothing to verify
    layout = _weights_layout(manifest)
    file_name = WEIGHTS_FILE if layout == LAYOUT_NPZ else WEIGHTS_BIN_FILE
    weights_path = directory / file_name
    if not weights_path.is_file():
        raise CheckpointFormatError(f"checkpoint is missing {file_name}")
    _verify_digest(weights_path, manifest)
    return True


def _read_weights(
    directory: Path, manifest: dict[str, Any], verify: bool = False
) -> dict[str, np.ndarray]:
    if _weights_layout(manifest) == LAYOUT_MMAP:
        return _read_weights_mmap(directory, manifest, verify=verify)
    weights_path = directory / WEIGHTS_FILE
    if not weights_path.is_file():
        raise CheckpointFormatError(f"checkpoint is missing {WEIGHTS_FILE}")
    # the npz path always digests: it reads every byte anyway
    _verify_digest(weights_path, manifest)
    try:
        with np.load(weights_path, allow_pickle=False) as archive:
            return {name: np.asarray(archive[name]) for name in archive.files}
    except (OSError, ValueError) as error:
        raise CheckpointIntegrityError(f"unreadable weight archive: {error}") from error


def _read_weights_mmap(
    directory: Path, manifest: dict[str, Any], verify: bool = False
) -> dict[str, np.ndarray]:
    """Map ``weights.bin`` read-only and return zero-copy array views.

    The default check is *structural* — every index entry must fit inside
    the file — because digesting the whole file would fault in every page
    and erase the point of mapping (``verify=True`` restores the digest
    pass; :func:`verify_checkpoint` does it standalone).  The views keep
    the mapping alive through their ``base`` reference and are read-only:
    training triggers copy-on-train in ``Parameter.materialize``.
    """
    weights_path = directory / WEIGHTS_BIN_FILE
    if not weights_path.is_file():
        raise CheckpointFormatError(f"checkpoint is missing {WEIGHTS_BIN_FILE}")
    if verify:
        _verify_digest(weights_path, manifest)
    index = manifest.get("weights_index")
    if not isinstance(index, list):
        raise CheckpointFormatError("the manifest records no weights_index for the mmap layout")
    with open(weights_path, "rb") as handle:
        try:
            mapped = mmap_module.mmap(handle.fileno(), 0, access=mmap_module.ACCESS_READ)
        except (OSError, ValueError) as error:
            raise CheckpointIntegrityError(
                f"cannot map {WEIGHTS_BIN_FILE}: {error}"
            ) from error
    file_size = len(mapped)
    weights: dict[str, np.ndarray] = {}
    for entry in index:
        if not isinstance(entry, dict):
            raise CheckpointFormatError(f"malformed weights_index entry: {entry!r}")
        try:
            name = str(entry["name"])
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(_coerce_int(n, "weights_index shape") for n in entry["shape"])
            offset = _coerce_int(entry["offset"], "weights_index offset")
        except (KeyError, TypeError, ValueError) as error:
            raise CheckpointFormatError(
                f"malformed weights_index entry: {entry!r}"
            ) from error
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset < 0 or offset + nbytes > file_size:
            raise CheckpointIntegrityError(
                f"weight {name!r} spans [{offset}, {offset + nbytes}) but "
                f"{WEIGHTS_BIN_FILE} holds only {file_size} bytes — the checkpoint "
                "is truncated or the index is corrupt"
            )
        if name in weights:
            raise CheckpointFormatError(f"duplicate weight {name!r} in weights_index")
        weights[name] = np.frombuffer(
            mapped, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return weights


def _restore_model(section: dict[str, Any], weights: dict[str, np.ndarray]) -> QEP2Seq:
    # the manifest's name→shape map must agree with the archive before any
    # reconstruction: a writer bug (or a weights file paired with the wrong
    # manifest) surfaces here as a structured error, not a numpy shape blowup
    declared = section.get("parameters")
    if isinstance(declared, dict):
        if set(declared) != set(weights):
            raise CheckpointIntegrityError(
                "manifest and weight archive disagree on parameter names "
                f"(manifest-only: {sorted(set(declared) - set(weights)) or 'none'}, "
                f"archive-only: {sorted(set(weights) - set(declared)) or 'none'})"
            )
        for name, shape in declared.items():
            if list(weights[name].shape) != list(shape):
                raise CheckpointIntegrityError(
                    f"manifest declares shape {shape} for {name!r} but the "
                    f"archive holds {list(weights[name].shape)}"
                )
    config = _build_config(Seq2SeqConfig, section.get("config"), "model config")
    # the manifest's config.dtype governs reconstruction: a float32 model
    # round-trips as float32 (the npz archive preserves array dtypes, and
    # every restored value below is cast to the model dtype)
    dtype = np.dtype(getattr(config, "dtype", "float64"))
    input_vocabulary = _restore_vocabulary(section.get("input_tokens"), "input")
    output_vocabulary = _restore_vocabulary(section.get("output_tokens"), "output")
    decoder_table = weights.get("decoder_embedding.table")
    if decoder_table is None:
        raise CheckpointIntegrityError(
            "the weight archive has no decoder embedding table"
        )
    # passing a (dummy) table of the saved width as "pretrained" makes the
    # constructor adopt it, so models trained with pre-trained embeddings
    # (whose dimension differs from config.decoder_embedding_dim) rebuild
    # with correct shapes; every parameter, the table included, is then
    # overwritten (or mmap-adopted) below — which is also why construction
    # can skip real rng draws entirely (_FastInitGenerator)
    # quantization is deferred until the real weights are in place (the
    # constructor would otherwise quantize the throwaway init values)
    saved_quantize = getattr(config, "quantize", "none")
    config.quantize = "none"
    model = QEP2Seq(
        input_vocabulary,
        output_vocabulary,
        config=config,
        decoder_pretrained=np.empty(decoder_table.shape, dtype=dtype),
        init_rng=_FastInitGenerator(),
    )
    expected = {parameter.name: parameter for parameter in model.parameters()}
    if set(expected) != set(weights):
        missing = sorted(set(expected) - set(weights))
        unexpected = sorted(set(weights) - set(expected))
        raise CheckpointIntegrityError(
            "weight archive does not match the reconstructed model "
            f"(missing: {missing or 'none'}, unexpected: {unexpected or 'none'})"
        )
    for name, parameter in expected.items():
        saved = weights[name]
        if saved.shape != parameter.value.shape:
            raise CheckpointIntegrityError(
                f"weight {name!r} has shape {saved.shape}, the model expects "
                f"{parameter.value.shape}"
            )
        if not saved.flags.writeable and saved.dtype == dtype:
            # read-only view straight out of the mapped checkpoint file:
            # adopt it without copying so the weight pages stay shared
            parameter.adopt(saved)
        else:
            parameter.value[...] = np.asarray(saved, dtype=dtype)
    if saved_quantize != "none":
        # re-quantizing the restored master weights is deterministic, so a
        # quantized model's decodes survive the round trip exactly
        model.quantize(saved_quantize)
    return model


def _restore_neural(
    manifest: dict[str, Any], directory: Path, verify: bool = False
) -> NeuralLantern:
    model = _restore_model(
        _section(manifest, "model"), _read_weights(directory, manifest, verify=verify)
    )
    section = _section(manifest, "neural")
    cache_spec = section.get("cache") or {}
    neural = NeuralLantern(
        model,
        beam_size=section.get("beam_size"),
        cache_size=_coerce_int(
            cache_spec.get("max_size", DEFAULT_CACHE_SIZE), "cache max_size"
        ),
        cache_enabled=bool(cache_spec.get("enabled", True)),
    )
    exposure = section.get("act_exposure", {})
    if not isinstance(exposure, dict):
        raise CheckpointFormatError("the manifest's act_exposure must be an object")
    neural._act_exposure = {
        str(key): _coerce_int(count, "act exposure") for key, count in exposure.items()
    }
    # legacy 3-field rows were decoded by the saved model itself, so their
    # precision is the loaded model's
    try:
        neural.decode_cache.import_rows(cache_spec.get("entries") or [], model.precision)
    except CacheFormatError as error:
        raise CheckpointFormatError(f"malformed cache entry: {error}") from error
    return neural


def _restore_store(specs: Any) -> Optional[PoemStore]:
    """Rebuild the POEM store saved with a facade (None → the default store).

    Objects are re-created in their saved (insertion) order, so oids come
    back identical — ``create`` assigns them from a counter.
    """
    if specs is None:
        return None  # pre-store manifests: Lantern falls back to the default
    if not isinstance(specs, list):
        raise CheckpointFormatError("the manifest's store section is malformed")
    store = PoemStore()
    for spec in specs:
        if not isinstance(spec, dict):
            raise CheckpointFormatError(f"malformed POEM object: {spec!r}")
        try:
            store.create(
                source=spec["source"],
                name=spec["name"],
                operator_type=spec.get("operator_type", "unary"),
                alias=spec.get("alias"),
                defn=spec.get("defn"),
                descriptions=spec.get("descriptions", ()),
                cond=bool(spec.get("cond", False)),
                target=spec.get("target"),
            )
        except (KeyError, PoolError) as error:
            raise CheckpointFormatError(
                f"cannot rebuild POEM object {spec.get('name')!r}: {error}"
            ) from error
    return store


def _restore_vocabulary(tokens: Any, label: str) -> Vocabulary:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CheckpointFormatError(f"the manifest's {label} vocabulary is malformed")
    try:
        return Vocabulary.from_tokens(tokens)
    except VocabularyError as error:
        raise CheckpointFormatError(
            f"the {label} vocabulary cannot be reconstructed: {error}"
        ) from error


def _build_config(cls, payload: Any, label: str):
    if not isinstance(payload, dict):
        raise CheckpointFormatError(f"the manifest's {label} is malformed")
    try:
        return cls(**payload)
    except TypeError as error:
        raise CheckpointFormatError(f"unsupported {label} fields: {error}") from error


def _coerce_int(value: Any, label: str) -> int:
    """Manifest number → int, as a structured error (never a raw ValueError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CheckpointFormatError(f"the manifest's {label} must be a number, got {value!r}")
    return int(value)


def _encode_rng_state(state: tuple) -> list:
    """``random.Random.getstate()`` → JSON (tuples become lists)."""
    return [list(part) if isinstance(part, tuple) else part for part in state]


def _decode_rng_state(state: Any) -> tuple:
    """The inverse of :func:`_encode_rng_state` (lists become tuples)."""
    if not isinstance(state, list):
        raise CheckpointFormatError(f"malformed rng state: {state!r}")
    return tuple(tuple(part) if isinstance(part, list) else part for part in state)

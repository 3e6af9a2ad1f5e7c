"""Persist and restore trained EnQode models.

Sec. III-C: "The trained cluster models are then stored and used to
support online training and inference."  This module makes that concrete:
a fitted :class:`~repro.core.encoder.EnQodeEncoder`'s cluster centers,
optimized parameters, and configuration round-trip through a plain JSON
document, so offline training can run once (e.g. in a batch job) and the
online embedding service (:class:`repro.service.EncodingService`) can
reload the models anywhere.

Every bundle carries a ``schema_version``; readers reject a mismatched
or missing version with a :class:`~repro.errors.SerializationError`
naming the found and expected versions, so a service-side model reload
fails loudly at load time instead of with a ``KeyError`` halfway through
reconstruction.  (``format_version`` is still written and accepted as a
legacy alias for version-1 bundles produced before ``schema_version``
existed.)

:func:`check_schema_version` is the single version gate shared by every
persisted artifact in the stack — JSON model bundles (here and in
:mod:`repro.qml.serving`), the binary wire format
(:mod:`repro.io.wire`), and the ``OPENQASM`` header line
(:mod:`repro.io.qasm`) all route their accept/reject decision through
it, so a stale artifact of any format fails with the same error shape.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import pathlib
from typing import Mapping

import numpy as np

from repro.core.config import EnQodeConfig
from repro.core.encoder import ClusterModel, EnQodeEncoder, OfflineReport
from repro.core.optimizer import OptimizationResult
from repro.data.trainable import TrainableEmbedding
from repro.errors import OptimizationError, SerializationError

#: Current bundle schema.  Version 1: top-level ``config`` +
#: ``clusters`` (each with ``center``/``theta``/``fidelity`` and an
#: optional ``training_time``).
SCHEMA_VERSION = 1

#: Legacy name kept for callers that imported it.
FORMAT_VERSION = SCHEMA_VERSION


def encoder_to_dict(encoder: EnQodeEncoder) -> dict:
    """Serializable snapshot of a fitted encoder (models + config)."""
    if not encoder.is_fitted:
        raise OptimizationError("cannot serialize an unfitted encoder")
    payload = {
        "schema_version": SCHEMA_VERSION,
        # Legacy alias so version-1 bundles stay readable by pre-
        # ``schema_version`` checkouts.
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(encoder.config),
        "clusters": [
            {
                "center": model.center.tolist(),
                "theta": model.theta.tolist(),
                "fidelity": model.fidelity,
                "training_time": model.training_time,
            }
            for model in encoder.cluster_models
        ],
    }
    if encoder.preprocessor is not None:
        payload["preprocessor"] = encoder.preprocessor.to_dict()
    return payload


def save_encoder(encoder: EnQodeEncoder, path: "str | pathlib.Path") -> None:
    """Write a fitted encoder's models to ``path`` as JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(encoder_to_dict(encoder), indent=1))


def check_schema_version(
    found,
    expected,
    what: str,
    *,
    field: str = "schema_version",
    remedy: str = "re-export it with a matching build",
) -> None:
    """The one version gate for every persisted artifact.

    ``found`` is ``None`` when the artifact carries no version at all, a
    ``{field_name: value}`` mapping when it stamps several fields
    (bundles write both ``schema_version`` and the legacy
    ``format_version`` alias, and *every* stamped field must agree with
    the reader), or a bare scalar.  ``expected`` is the accepted version
    or a tuple of accepted versions (the QASM reader accepts both
    ``2.0`` and ``3.0`` headers).  Raises
    :class:`~repro.errors.SerializationError` naming the found and
    expected versions; never returns a value.
    """
    accepted = expected if isinstance(expected, tuple) else (expected,)
    accepted_label = " or ".join(str(version) for version in accepted)
    if found is None:
        raise SerializationError(
            f"{what} has no {field} field "
            f"(expected {field}={accepted_label}); "
            f"is this really a {what}?"
        )
    if not isinstance(found, dict):
        found = {field: found}
    mismatched = {k: v for k, v in found.items() if v not in accepted}
    if mismatched:
        label = ", ".join(f"{k}={v!r}" for k, v in mismatched.items())
        raise SerializationError(
            f"unsupported {what} version ({label}; this build reads "
            f"{field}={accepted_label}); {remedy}"
        )


def check_schema(payload: dict) -> None:
    """Reject unknown model-bundle schema versions with an actionable error."""
    found = {
        key: payload[key]
        for key in ("schema_version", "format_version")
        if key in payload
    }
    check_schema_version(
        found or None,
        SCHEMA_VERSION,
        "stored EnQode model bundle",
        remedy="re-export the model with a matching build",
    )


def require_section(payload: dict, key: str, what: str = "stored EnQode model"):
    """``payload[key]`` or a :class:`SerializationError` naming the hole."""
    try:
        return payload[key]
    except KeyError:
        raise SerializationError(
            f"{what} is missing the {key!r} section"
        ) from None


#: Config fields that earlier builds stored and this build no longer
#: has (``EnQodeConfig.offline_batch``, ``QMLConfig.engine``).  They
#: only chose how to *train*, so a loaded model serves the same without
#: them and :func:`config_from_section` drops them.
RETIRED_CONFIG_FIELDS = frozenset({"offline_batch", "engine"})


#: The stored value types a config field admits, by its default's type.
_ADMITS = {bool: (bool, np.bool_), int: numbers.Integral, float: numbers.Real}


def _has_type_of(value, default) -> bool:
    if default is None:
        return True  # optional knobs: ``__post_init__`` checks the value
    if isinstance(value, (bool, np.bool_)) and not isinstance(default, bool):
        return False  # JSON true/false is not a number
    return isinstance(value, _ADMITS.get(type(default), type(default)))


def config_from_section(config_cls, section, what: str):
    """Build the ``config_cls`` dataclass from a stored config section.

    The one config reader of every bundle kind (encoder and
    classifier).  Fields in :data:`RETIRED_CONFIG_FIELDS` are dropped,
    so bundles written before a field was retired still load.  A
    section that is not a mapping, an unknown field, a value of the
    wrong type and a value the config rejects all raise
    :class:`~repro.errors.SerializationError`.
    """
    if not isinstance(section, Mapping):
        raise SerializationError(
            f"{what} config must be a mapping, got {type(section).__name__}"
        )
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    kwargs = {}
    for key, value in section.items():
        if key in RETIRED_CONFIG_FIELDS:
            continue
        if key not in defaults:
            raise SerializationError(f"{what} config has unknown field {key!r}")
        if not _has_type_of(value, defaults[key]):
            raise SerializationError(
                f"{what} config field {key!r} has the wrong type: {value!r}"
            )
        kwargs[key] = value
    try:
        return config_cls(**kwargs)
    except (OptimizationError, TypeError, ValueError) as exc:
        raise SerializationError(f"{what} config is invalid: {exc}") from exc


def encoder_from_dict(payload: dict, backend) -> EnQodeEncoder:
    """Rebuild a ready-to-encode encoder from :func:`encoder_to_dict`."""
    check_schema(payload)
    config = config_from_section(
        EnQodeConfig, require_section(payload, "config"), "stored EnQode model"
    )
    preprocessor = None
    if payload.get("preprocessor") is not None:
        preprocessor = TrainableEmbedding.from_dict(payload["preprocessor"])
    encoder = EnQodeEncoder(backend, config, preprocessor=preprocessor)
    models = []
    for entry in require_section(payload, "clusters"):
        center = np.asarray(require_section(entry, "center"), dtype=float)
        theta = np.asarray(require_section(entry, "theta"), dtype=float)
        if center.size != config.num_amplitudes:
            raise SerializationError(
                f"stored center has dim {center.size}, config expects "
                f"{config.num_amplitudes}"
            )
        if theta.size != encoder.ansatz.num_parameters:
            raise SerializationError(
                f"stored theta has {theta.size} parameters, ansatz has "
                f"{encoder.ansatz.num_parameters}"
            )
        models.append(
            ClusterModel(
                center=center,
                theta=theta,
                fidelity=float(require_section(entry, "fidelity")),
                training_time=float(entry.get("training_time", 0.0)),
                result=OptimizationResult(
                    theta=theta,
                    fidelity=float(entry["fidelity"]),
                    loss=1.0 - float(entry["fidelity"]),
                    num_iterations=0,
                    num_evaluations=0,
                    time=0.0,
                    converged=True,
                ),
            )
        )
    if not models:
        raise SerializationError("stored model has no clusters")
    encoder._install_cluster_models(models)
    encoder.offline_report = OfflineReport(
        num_clusters=len(models),
        total_time=0.0,
        clustering_time=0.0,
        training_time=sum(m.training_time for m in models),
        min_nearest_fidelity=float("nan"),
        cluster_fidelities=[m.fidelity for m in models],
        cluster_times=[m.training_time for m in models],
    )
    return encoder


def load_encoder(path: "str | pathlib.Path", backend) -> EnQodeEncoder:
    """Read a fitted encoder back from :func:`save_encoder` output."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{path} does not contain an EnQode model bundle "
            f"(top-level JSON value is {type(payload).__name__})"
        )
    return encoder_from_dict(payload, backend)

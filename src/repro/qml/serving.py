"""Versioned embed+classify bundles for the serving layer.

A :class:`QMLModel` pairs a fitted :class:`~repro.core.encoder.
EnQodeEncoder` (optionally carrying a trainable preprocessing map) with
a trained :class:`~repro.qml.model.QMLClassifier`: raw feature rows go
in, predicted labels come out, and every stage in between rides the
batched machinery — preprocessing and routing through the encoder's
:class:`~repro.core.pipeline.EncodePipeline`, embedding circuits lowered
through the cached parametric template as compact IR, embedded states
simulated straight off the packed bind arrays, and the classifier head
evaluated in one stacked propagation.

Bundles serialize with the same ``schema_version`` discipline as encoder
bundles (:mod:`repro.core.serialization`): a ``kind`` tag plus the
encoder's and the classifier's sections, rejected loudly with
:class:`~repro.errors.SerializationError` on any mismatch.  A saved
bundle can be registered into an
:class:`~repro.service.registry.EncoderRegistry`
(:meth:`~repro.service.registry.EncoderRegistry.register_model`) and
served through :meth:`repro.service.service.EncodingService.predict`.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np

from repro.core.config import QMLConfig
from repro.core.encoder import EnQodeEncoder
from repro.core.serialization import (
    SCHEMA_VERSION,
    check_schema,
    config_from_section,
    encoder_from_dict,
    encoder_to_dict,
    require_section,
)
from repro.errors import OptimizationError, SerializationError
from repro.qml.model import QMLClassifier
from repro.quantum.statevector import simulate_statevector

#: ``kind`` tag distinguishing classifier bundles from bare encoder
#: bundles (both carry the same ``schema_version``).
MODEL_KIND = "enqode-qml-classifier"


class QMLModel:
    """A fitted embed + classify model, ready to serve raw samples.

    Parameters
    ----------
    encoder:
        A fitted :class:`~repro.core.encoder.EnQodeEncoder`; its
        (possibly preprocessed) input width defines what :meth:`predict`
        accepts.
    classifier:
        A :class:`~repro.qml.model.QMLClassifier` whose register width
        matches the encoder's.
    """

    def __init__(
        self, encoder: EnQodeEncoder, classifier: QMLClassifier
    ) -> None:
        if not encoder.is_fitted:
            raise OptimizationError(
                "QMLModel needs a fitted encoder (fit or load it first)"
            )
        if classifier.num_qubits != encoder.config.num_qubits:
            raise OptimizationError(
                f"classifier acts on {classifier.num_qubits} qubits but "
                f"the encoder embeds into {encoder.config.num_qubits}"
            )
        self.encoder = encoder
        self.classifier = classifier

    @property
    def input_size(self) -> int:
        """Raw feature width this model accepts (the encoder's)."""
        return self.encoder.input_size

    @property
    def num_qubits(self) -> int:
        return self.encoder.config.num_qubits

    # -- inference ------------------------------------------------------------------

    def embed(self, samples: np.ndarray) -> np.ndarray:
        """Embedded statevectors of ``samples`` as a ``(B, 2^n)`` matrix.

        One ``encode_batch`` run (template-bound compact IR), each
        circuit simulated off its packed bind arrays — these are the
        *prepared* states (fidelity ~``target_fidelity`` to the ideal
        amplitudes), i.e. exactly what hardware would hand the
        classifier.
        """
        encoded = self.encoder.encode_batch(samples)
        return np.stack(
            [simulate_statevector(e.circuit).data for e in encoded]
        )

    def decision_values(self, samples: np.ndarray) -> np.ndarray:
        """<Z_0> per sample under the trained classifier (sign = class)."""
        return self.classifier.decision_values(self.embed(samples))

    def predict(self, samples: np.ndarray) -> np.ndarray:
        """Predicted labels in {0, 1} for raw feature rows."""
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.shape[0] == 0:
            return np.empty(0, dtype=int)
        return (self.decision_values(samples) < 0.0).astype(int)

    def accuracy(self, samples: np.ndarray, labels: np.ndarray) -> float:
        labels = np.asarray(labels)
        return float(np.mean(self.predict(samples) == labels))

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serializable bundle: encoder section + classifier section."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": MODEL_KIND,
            "encoder": encoder_to_dict(self.encoder),
            "classifier": {
                "config": dataclasses.asdict(self.classifier.config),
                "theta": self.classifier.theta.tolist(),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict, backend) -> "QMLModel":
        """Rebuild a ready-to-predict model from :meth:`to_dict`."""
        check_schema(payload)
        kind = payload.get("kind")
        if kind != MODEL_KIND:
            raise SerializationError(
                f"stored bundle has kind={kind!r}, expected "
                f"{MODEL_KIND!r} (is this an encoder-only bundle?)"
            )
        encoder = encoder_from_dict(require_section(payload, "encoder"), backend)
        section = require_section(payload, "classifier")
        config = config_from_section(
            QMLConfig, require_section(section, "config"), "stored classifier"
        )
        classifier = QMLClassifier(config=config, backend=backend)
        theta = np.asarray(require_section(section, "theta"), dtype=float)
        if theta.size != classifier.vqc.num_parameters:
            raise SerializationError(
                f"stored theta has {theta.size} parameters, classifier "
                f"has {classifier.vqc.num_parameters}"
            )
        classifier.theta = theta
        return cls(encoder, classifier)

    def __repr__(self) -> str:
        return (
            f"QMLModel(input={self.input_size}, qubits={self.num_qubits}, "
            f"layers={self.classifier.config.num_layers})"
        )


def save_qml_model(model: QMLModel, path: "str | pathlib.Path") -> None:
    """Write a trained embed+classify bundle to ``path`` as JSON."""
    pathlib.Path(path).write_text(json.dumps(model.to_dict(), indent=1))


def load_qml_model(path: "str | pathlib.Path", backend) -> QMLModel:
    """Read a bundle back from :func:`save_qml_model` output."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, dict):
        raise SerializationError(
            f"{path} does not contain a QML model bundle "
            f"(top-level JSON value is {type(payload).__name__})"
        )
    return QMLModel.from_dict(payload, backend)

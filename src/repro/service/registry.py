"""Encoder registry: named, versioned model bundles for the service.

The registry is the serving-side counterpart of the paper's "trained
cluster models are then stored" (Sec. III-C): each fitted
:class:`~repro.core.encoder.EnQodeEncoder` is registered under a key —
a dataset class label, a model id, anything hashable — and the service
routes every request to one of them.  Bundles persisted by
:mod:`repro.core.serialization` load directly into a registry slot, and
a version-mismatched bundle is rejected at load time with a
:class:`~repro.errors.SerializationError` (never mid-request).

Automatic routing makes :func:`repro.core.multiclass.nearest_class`'s
decision with one distance pass over a stacked table of every encoder's
cluster centers, and :meth:`EncoderRegistry.from_per_class` adopts a
per-class collection trained by
:class:`repro.core.multiclass.PerClassEnQode` wholesale.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.clustering import center_distances, nearest_center
from repro.core.encoder import EnQodeEncoder
from repro.core.multiclass import PerClassEnQode
from repro.core.serialization import load_encoder, save_encoder
from repro.data.preprocess import validate_samples
from repro.errors import ServiceError
from repro.hardware.backend import Backend


class EncoderRegistry:
    """Fitted encoders keyed by class label / model id.

    Keys keep registration order, which makes automatic routing
    deterministic (ties go to the earliest-registered encoder).
    """

    def __init__(self) -> None:
        self._encoders: dict = {}
        self._models: dict = {}

    # -- population ----------------------------------------------------------------

    def register(self, key, encoder: EnQodeEncoder) -> EnQodeEncoder:
        """Register a fitted encoder under ``key`` (replacing any holder)."""
        if not isinstance(encoder, EnQodeEncoder):
            raise ServiceError(
                f"registry holds EnQodeEncoder instances, got "
                f"{type(encoder).__name__}"
            )
        if not encoder.is_fitted:
            raise ServiceError(
                f"cannot register unfitted encoder under key {key!r}; "
                "fit it or load a stored bundle first"
            )
        self._encoders[key] = encoder
        return encoder

    def load(
        self, key, path: "str | pathlib.Path", backend: Backend
    ) -> EnQodeEncoder:
        """Load a stored model bundle into the ``key`` slot.

        Schema validation happens here, at load time: a bundle written
        by an incompatible build raises
        :class:`~repro.errors.SerializationError` naming the found and
        expected ``schema_version`` instead of failing on live traffic.
        """
        return self.register(key, load_encoder(path, backend))

    def save(self, key, path: "str | pathlib.Path") -> None:
        """Persist the ``key`` encoder as a versioned bundle."""
        save_encoder(self.get(key), path)

    # -- classifier bundles ----------------------------------------------------------

    def register_model(self, key, model) -> "object":
        """Register a trained embed+classify bundle under ``key``.

        The model's encoder simultaneously occupies the same ``key`` in
        the encoder table, so embedding traffic (``submit``) and
        prediction traffic (:meth:`repro.service.service.EncodingService.
        predict`) agree on what ``key`` means.
        """
        # Imported lazily: repro.qml sits above the service layer in the
        # package hierarchy, so a module-level import would be a cycle.
        from repro.qml.serving import QMLModel

        if not isinstance(model, QMLModel):
            raise ServiceError(
                f"registry model slots hold QMLModel instances, got "
                f"{type(model).__name__}"
            )
        self.register(key, model.encoder)
        self._models[key] = model
        return model

    def model(self, key):
        """The classifier bundle registered under ``key``."""
        try:
            return self._models[key]
        except KeyError:
            raise ServiceError(
                f"no model registered under key {key!r}; "
                f"available: {self.model_keys()}"
            ) from None

    def model_keys(self) -> list:
        return list(self._models)

    def load_model(self, key, path: "str | pathlib.Path", backend: Backend):
        """Load a stored classifier bundle into the ``key`` model slot
        (schema-checked at load time, like :meth:`load`)."""
        from repro.qml.serving import load_qml_model

        return self.register_model(key, load_qml_model(path, backend))

    def save_model(self, key, path: "str | pathlib.Path") -> None:
        """Persist the ``key`` classifier bundle as versioned JSON."""
        from repro.qml.serving import save_qml_model

        save_qml_model(self.model(key), path)

    def unregister(self, key) -> None:
        """Remove the ``key`` encoder (and any classifier bundle).

        The operational escape hatch for a poisoned bundle: a key whose
        circuit breaker keeps opening can be pulled out of routing
        without restarting the service.  Unknown keys raise
        :class:`~repro.errors.ServiceError` — silently "removing"
        nothing would mask an ops typo.
        """
        if key not in self._encoders:
            raise ServiceError(
                f"no encoder registered under key {key!r}; "
                f"available: {self.keys()}"
            )
        del self._encoders[key]
        self._models.pop(key, None)

    @classmethod
    def from_per_class(cls, per_class: PerClassEnQode) -> "EncoderRegistry":
        """Adopt a trained :class:`PerClassEnQode`'s encoders wholesale."""
        registry = cls()
        for label, encoder in per_class.encoders.items():
            registry.register(label, encoder)
        return registry

    # -- lookup --------------------------------------------------------------------

    def get(self, key) -> EnQodeEncoder:
        try:
            return self._encoders[key]
        except KeyError:
            raise ServiceError(
                f"no encoder registered under key {key!r}; "
                f"available: {self.keys()}"
            ) from None

    def keys(self) -> list:
        return list(self._encoders)

    def items(self):
        return self._encoders.items()

    def __len__(self) -> int:
        return len(self._encoders)

    def __contains__(self, key) -> bool:
        return key in self._encoders

    # -- wire-format rehydration -----------------------------------------------------

    def rehydrate_wire(self, data: bytes):
        """Decode a wire blob against the registered encoders' templates.

        Template-bound records (the compact kind
        :meth:`~repro.service.records.EncodeResponse.to_wire` and
        :meth:`~repro.service.service.EncodingService.export_wire`
        emit) carry only a template fingerprint plus bound angles; this
        resolves the fingerprint against every registered encoder's
        cached :class:`~repro.transpile.template.ParametricTemplate`
        and rebinds, returning a :class:`~repro.transpile.bound.
        BoundCircuitBatch` that simulates ``np.array_equal`` to the
        sender's.  Self-contained gate-stream records decode without any
        template and come back as circuits.  A fingerprint no registered
        encoder produces raises :class:`~repro.errors.
        SerializationError` naming the known fingerprints.
        """
        from repro.io.wire import load

        return load(data, template_resolver=self._template_for_fingerprint)

    def _template_for_fingerprint(self, fingerprint: bytes):
        from repro.errors import SerializationError

        known = {}
        for key, encoder in self._encoders.items():
            template = encoder.pipeline.lower.template()
            if template.fingerprint == fingerprint:
                return template
            known[key] = template.fingerprint.hex()
        raise SerializationError(
            f"wire fingerprint {fingerprint.hex()} matches no registered "
            f"encoder's template (known: {known or 'none — registry is empty'})"
        )

    # -- routing -------------------------------------------------------------------

    def route(self, sample: np.ndarray):
        """Key of the encoder whose nearest cluster center is closest.

        :func:`repro.core.multiclass.nearest_class`'s decision, ties to
        the earliest-registered key included, made with one distance
        pass over a table that stacks every preprocessor-free encoder's
        centers, built from the registry as it stands at the call; the
        service routes submissions that name no encoder here.  Only
        encoders of the sample's input width take part.  Malformed
        input, or a width no encoder accepts, raises
        :class:`~repro.errors.ServiceError`.
        """
        row = validate_samples(sample, None, ServiceError, single=True)[0]
        if not self._encoders:
            raise ServiceError("cannot route: registry is empty")
        # The candidates in registration order: preprocessor-free centers
        # stacked into one table with the candidate slot owning each row,
        # and every encoder with a preprocessor kept for its projection.
        # Iterating a snapshot keeps a concurrent register from breaking
        # the loop (submit routes outside the service lock).
        keys, table, owners, projecting = [], [], [], []
        for key, encoder in tuple(self._encoders.items()):
            if encoder.input_size != row.size:
                continue
            centers = encoder.pipeline.transfer.centers
            if encoder.preprocessor is None:
                table.append(centers)
                owners += [len(keys)] * len(centers)
            else:
                projecting.append((len(keys), encoder, centers))
            keys.append(key)
        if not keys:
            widths = sorted({e.input_size for e in self._encoders.values()})
            raise ServiceError(
                f"no registered encoder accepts {row.size}-feature "
                f"samples (registered input widths: {widths})"
            )
        # nearest_class's arithmetic: the unit sample, renormalized by the
        # identity projection; the first minimum in registration order wins.
        unit = row / np.linalg.norm(row)
        best = (np.inf, 0)
        if table:
            distances = center_distances(
                unit / np.linalg.norm(unit), np.concatenate(table)
            )[0]
            nearest = int(np.argmin(distances))
            best = (distances[nearest], owners[nearest])
        for slot, encoder, centers in projecting:
            _, distance = nearest_center(encoder.project(unit), centers)
            best = min(best, (distance, slot))
        return keys[best[1]]

    def __repr__(self) -> str:
        return f"EncoderRegistry(keys={self.keys()})"


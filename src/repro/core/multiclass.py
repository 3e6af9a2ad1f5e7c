"""Per-class EnQode training — the paper's full-dataset workflow.

Sec. IV-A reports offline cost "per dataset and class": EnQode trains an
independent set of cluster models for every class of a dataset.  This
facade trains that collection (one encoder per class) and aggregates the
offline reports (what Fig. 9(b) plots).  Serving goes through
:class:`repro.service.EncodingService`, which adopts the trained
encoders via ``EncoderRegistry.from_per_class`` and routes samples of
unknown class by :func:`nearest_class`'s rule.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.clustering import nearest_center
from repro.core.config import EnQodeConfig
from repro.core.encoder import EnQodeEncoder, OfflineReport
from repro.data.preprocess import EmbeddingDataset
from repro.errors import OptimizationError
from repro.hardware.backend import Backend


def nearest_class(
    sample: np.ndarray, encoders: Mapping[int, EnQodeEncoder]
) -> int:
    """The class whose nearest cluster center is closest to ``sample``.

    The natural extension of Sec. III-D's nearest-cluster assignment
    across several trained models: each class is represented by its best
    (closest) cluster center, and ties go to the earliest-registered
    class.  The service registry's automatic routing
    (:meth:`repro.service.EncoderRegistry.route`) makes the same
    decision with one distance pass over a stacked table of every
    encoder's centers; this per-encoder loop is the reference its tests
    compare against.
    """
    if not encoders:
        raise OptimizationError("no encoders to route between")
    sample = np.asarray(sample, dtype=float).ravel()
    norm = np.linalg.norm(sample)
    if norm < 1e-12:
        raise OptimizationError("cannot route the zero vector")
    unit = sample / norm
    best_label, best_distance = None, np.inf
    for label, encoder in encoders.items():
        # Compare in each encoder's *embedded* space (the identity map
        # for preprocessor-free encoders) with the same nearest-center
        # arithmetic the route stage uses, so class-level and
        # cluster-level assignments cannot drift apart.
        projected = (
            encoder.project(unit) if hasattr(encoder, "project") else unit
        )
        _, nearest = nearest_center(projected, encoder.cluster_centers())
        if nearest < best_distance:
            best_label, best_distance = label, nearest
    return best_label


class PerClassEnQode:
    """One :class:`EnQodeEncoder` per dataset class (Sec. III-C setup)."""

    def __init__(
        self, backend: Backend, config: EnQodeConfig | None = None
    ) -> None:
        self.backend = backend
        self.config = config or EnQodeConfig()
        self.encoders: dict[int, EnQodeEncoder] = {}

    # -- offline -----------------------------------------------------------------

    def fit(self, dataset: EmbeddingDataset) -> dict[int, OfflineReport]:
        """Train cluster models for every class; returns per-class reports."""
        reports = {}
        for label in dataset.classes():
            label = int(label)
            encoder = EnQodeEncoder(self.backend, self.config)
            reports[label] = encoder.fit(dataset.class_slice(label))
            self.encoders[label] = encoder
        return reports

    @property
    def is_fitted(self) -> bool:
        return bool(self.encoders)

    def classes(self) -> list[int]:
        return sorted(self.encoders)

    # -- reporting ----------------------------------------------------------------

    def total_offline_time(self) -> float:
        """Sum of per-class offline costs (the paper's <200 s per class)."""
        return sum(
            encoder.offline_report.total_time
            for encoder in self.encoders.values()
            if encoder.offline_report is not None
        )

    def __repr__(self) -> str:
        return (
            f"PerClassEnQode(classes={self.classes()}, "
            f"backend={self.backend.name!r})"
        )

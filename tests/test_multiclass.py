"""Unit tests for per-class EnQode training and its auto-routing.

Samples are served the way the service serves them: routed through
``EncoderRegistry.from_per_class(model)`` (or :func:`nearest_class`),
then encoded by the routed class's encoder.
"""

import numpy as np
import pytest

from repro.core import EnQodeConfig, PerClassEnQode, nearest_class
from repro.data import prepare_embedding_dataset
from repro.errors import OptimizationError, ServiceError
from repro.service import EncoderRegistry


@pytest.fixture(scope="module")
def toy_dataset():
    """Two classes of clusterable 16-dim vectors via the real pipeline."""
    rng = np.random.default_rng(0)
    images = []
    labels = []
    prototypes = rng.normal(size=(2, 40))
    for label in (0, 1):
        block = prototypes[label] + 0.05 * rng.normal(size=(40, 40))
        images.append(np.abs(block))
        labels.extend([label] * 40)
    return prepare_embedding_dataset(
        "toy", np.concatenate(images), np.asarray(labels), num_features=16
    )


@pytest.fixture(scope="module")
def fitted(segment4, toy_dataset):
    model = PerClassEnQode(
        segment4,
        EnQodeConfig(
            num_qubits=4,
            num_layers=4,
            offline_restarts=3,
            offline_max_iterations=400,
            seed=2,
        ),
    )
    reports = model.fit(toy_dataset)
    return model, reports


def test_fit_trains_every_class(fitted):
    model, reports = fitted
    assert model.classes() == [0, 1]
    assert set(reports) == {0, 1}
    for report in reports.values():
        assert report.num_clusters >= 1


def test_encode_with_label(fitted, toy_dataset):
    model, _ = fitted
    sample = toy_dataset.class_slice(0)[0]
    encoded = EncoderRegistry.from_per_class(model).get(0).encode(sample)
    assert 0 < encoded.ideal_fidelity <= 1


def test_encode_unknown_label_rejected(fitted):
    model, _ = fitted
    with pytest.raises(ServiceError):
        EncoderRegistry.from_per_class(model).get(9)


def test_encode_auto_routes_to_right_class(fitted, toy_dataset):
    model, _ = fitted
    registry = EncoderRegistry.from_per_class(model)
    for label in (0, 1):
        sample = toy_dataset.class_slice(label)[1]
        auto = registry.get(registry.route(sample)).encode(sample)
        manual = model.encoders[label].encode(sample)
        # Auto-routing should reach (at least) the labelled fidelity.
        assert auto.ideal_fidelity >= manual.ideal_fidelity - 0.05


def test_encode_auto_selects_best_overlap_class(fitted, toy_dataset):
    """The routed class is the one with the maximal best-center overlap.

    For unit vectors ``||x - c||^2 = 2 - 2<x, c>``, so the nearest-center
    rule picks the class whose best cluster center has the largest
    signed overlap ``<x, c>`` — the closest-fidelity proxy the
    deployment workflow relies on (fidelity is the overlap squared).
    """
    model, _ = fitted
    registry = EncoderRegistry.from_per_class(model)
    for label in (0, 1):
        sample = toy_dataset.class_slice(label)[2]
        unit = sample / np.linalg.norm(sample)
        per_class_best = {
            cls: max(
                float(np.dot(unit, center))
                for center in encoder.cluster_centers()
            )
            for cls, encoder in model.encoders.items()
        }
        routed = nearest_class(sample, model.encoders)
        assert per_class_best[routed] == max(per_class_best.values())
        # The registry routes to that same class's models.
        encoded = registry.get(registry.route(sample)).encode(sample)
        routed_encoder = model.encoders[routed]
        assert encoded.cluster_index < len(routed_encoder.cluster_models)
        manual = routed_encoder.encode(sample)
        assert encoded.ideal_fidelity == pytest.approx(
            manual.ideal_fidelity, abs=1e-12
        )
        assert encoded.cluster_index == manual.cluster_index


def test_nearest_class_tie_breaks_to_first_registered(fitted):
    """Registration order decides exact ties (deterministic routing)."""
    model, _ = fitted
    # Route one of class 1's own cluster centers through a dict that
    # contains the same encoder twice under different labels.
    center = model.encoders[1].cluster_centers()[0]
    duplicated = {7: model.encoders[1], 8: model.encoders[1]}
    assert nearest_class(center, duplicated) == 7


def test_nearest_class_input_validation(fitted):
    model, _ = fitted
    with pytest.raises(OptimizationError):
        nearest_class(np.ones(16), {})
    with pytest.raises(OptimizationError):
        nearest_class(np.zeros(16), model.encoders)


def test_encode_auto_matches_service_registry_routing(fitted, toy_dataset):
    """nearest_class and the service registry make identical decisions."""
    model, _ = fitted
    registry = EncoderRegistry.from_per_class(model)
    assert registry.keys() == list(model.encoders)
    for label in (0, 1):
        sample = toy_dataset.class_slice(label)[3]
        assert registry.route(sample) == nearest_class(sample, model.encoders)


def test_encode_auto_before_fit_rejected(segment4):
    model = PerClassEnQode(segment4, EnQodeConfig(num_qubits=4))
    with pytest.raises(ServiceError):
        EncoderRegistry.from_per_class(model).route(np.ones(16))


def test_total_offline_time(fitted):
    model, reports = fitted
    total = model.total_offline_time()
    assert total == pytest.approx(
        sum(r.total_time for r in reports.values()), rel=1e-6
    )

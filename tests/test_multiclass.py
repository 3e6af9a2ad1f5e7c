"""Unit tests for per-class EnQode training and its auto-routing.

Samples are served the way the service serves them: routed through
``EncoderRegistry.from_per_class(model)`` (or :func:`nearest_class`),
then encoded by the routed class's encoder.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import (
    EnQodeConfig,
    EnQodeEncoder,
    PerClassEnQode,
    nearest_center,
    nearest_class,
)
from repro.core.serialization import encoder_from_dict, encoder_to_dict
from repro.data import prepare_embedding_dataset
from repro.data.trainable import TrainableEmbedding
from repro.errors import OptimizationError, ServiceError
from repro.hardware import brisbane_linear_segment
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
    # from_per_class keeps the label order, which decides exact ties.
    assert registry.keys() == list(model.encoders)
    for label in (0, 1):
        sample = toy_dataset.class_slice(label)[3]
        assert registry.route(sample) == nearest_class(sample, model.encoders)
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


def _small_encoder(backend, seed, preprocessor=None):
    config = EnQodeConfig(
        num_qubits=backend.num_qubits,
        num_layers=2,
        offline_restarts=1,
        offline_max_iterations=60,
        max_clusters=3,
        seed=seed,
    )
    return EnQodeEncoder(backend, config, preprocessor=preprocessor)


@pytest.fixture(scope="module")
def routing_pool(fitted, segment4, toy_dataset):
    """What the routing sweep registers: the two class encoders, a twin
    of class 0's whose centers sit one ulp away (decisions between the
    two turn on the last bits of the distances), a 3-qubit encoder
    (8-feature input), a 3-qubit encoder that projects 16-feature input
    through a preprocessor, and a 4-qubit encoder the sweep refits."""
    model, _ = fitted
    payload = encoder_to_dict(model.encoders[0])
    for cluster in payload["clusters"]:
        cluster["center"] = np.nextafter(cluster["center"], np.inf).tolist()
    twin = encoder_from_dict(payload, segment4)
    rng = np.random.default_rng(5)
    segment3 = brisbane_linear_segment(3)
    narrow = _small_encoder(segment3, seed=1)
    narrow.fit(np.abs(rng.normal(size=(12, 8))) + 0.05)
    projecting = _small_encoder(
        segment3, seed=2, preprocessor=TrainableEmbedding(16, 8, seed=3)
    )
    projecting.fit(np.abs(rng.normal(size=(12, 16))) + 0.05)
    refit = _small_encoder(segment4, seed=4)
    refit.fit(toy_dataset.class_slice(0)[:12])
    return {
        "zero": model.encoders[0],
        "one": model.encoders[1],
        "twin": twin,
        "narrow": narrow,
        "projecting": projecting,
        "refit": refit,
    }


_POOL = ("zero", "one", "twin", "narrow", "projecting", "refit")
_KEYS = ("a", "b", "c", "d")


@given(
    registrations=st.lists(
        st.tuples(st.sampled_from(_KEYS), st.sampled_from(_POOL)),
        min_size=1,
        max_size=6,
    ),
    change=st.tuples(
        st.sampled_from(("register", "unregister", "reinsert", "refit")),
        st.sampled_from(_KEYS),
        st.sampled_from(_POOL),
    ),
    picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
)
# One encoder under two keys, queried at one of its own centers.
@example(
    registrations=[("a", "one"), ("b", "zero"), ("c", "one")],
    change=("refit", "a", "zero"),
    picks=[1, 5, 9],
)
# Ulp-level near ties: class samples and both encoders' centers.
@example(
    registrations=[("a", "twin"), ("b", "zero")],
    change=("register", "c", "twin"),
    picks=[0, 4, 8, 12, 1, 5, 17, 21],
)
# A refit from class 0 onto class 1, queried at the new centers: a
# table of the old centers would send them to class 1's encoder.
@example(
    registrations=[("a", "refit"), ("b", "one")],
    change=("refit", "a", "zero"),
    picks=[1, 17, 33],
)
# A preprocessor encoder between two identity encoders, then a
# re-registration that keeps the key's position.
@example(
    registrations=[("a", "zero"), ("b", "projecting"), ("c", "one")],
    change=("register", "a", "projecting"),
    picks=[0, 2, 3],
)
# A tie whose winner changes when the first key is re-inserted last.
@example(
    registrations=[("a", "one"), ("b", "one")],
    change=("reinsert", "a", "one"),
    picks=[1, 5],
)
# Mixed input widths, then an unregister.
@example(
    registrations=[("a", "narrow"), ("b", "refit"), ("c", "zero")],
    change=("unregister", "c", "zero"),
    picks=[1, 3, 4],
)
def test_encode_auto_matches_service_registry_routing(
    toy_dataset, routing_pool, registrations, change, picks
):
    """The registry's stacked-table routing makes nearest_class's
    decision, exact ties included, and stays right across register,
    re-register, unregister, re-insertion and a refit of a registered
    encoder.  The routed encoder's pipeline assigns the cluster that
    nearest_class's arithmetic finds."""
    registry = EncoderRegistry()
    reference: dict = {}
    # Every example starts with the refit encoder fitted on class 0.
    routing_pool["refit"].fit(toy_dataset.class_slice(0)[:12])
    for key, name in registrations:
        registry.register(key, routing_pool[name])
        reference[key] = routing_pool[name]
    toy = np.concatenate([toy_dataset.class_slice(c) for c in (0, 1)])

    def sample_for(pick):
        rng = np.random.default_rng(pick)
        kind = pick % 4
        if kind == 0:
            return toy[pick % len(toy)] + 0.01 * rng.normal(size=16)
        if kind == 1:
            identity = [
                e for e in reference.values() if e.preprocessor is None
            ] or [routing_pool["zero"]]
            centers = identity[pick // 4 % len(identity)].cluster_centers()
            return centers[pick // 16 % len(centers)]
        return rng.normal(size=16 if kind == 2 else 8)

    def check():
        for pick in picks:
            sample = sample_for(pick)
            candidates = {
                key: encoder
                for key, encoder in reference.items()
                if encoder.input_size == sample.size
            }
            if not candidates:
                with pytest.raises(ServiceError):
                    registry.route(sample)
                continue
            key = registry.route(sample)
            assert key == nearest_class(sample, candidates)
            encoder = registry.get(key)
            plan = encoder.pipeline.route.run(
                encoder.pipeline.prepare(sample)
            )
            expected, _ = nearest_center(
                encoder.project(sample), encoder.cluster_centers()
            )
            assert plan.indices[0] == expected

    check()
    action, key, name = change
    if action == "register":
        registry.register(key, routing_pool[name])
        reference[key] = routing_pool[name]
    elif action in ("unregister", "reinsert") and key in reference:
        registry.unregister(key)
        del reference[key]
        if action == "reinsert":  # back in, now the latest-registered
            registry.register(key, routing_pool[name])
            reference[key] = routing_pool[name]
    elif action == "refit":
        routing_pool["refit"].fit(toy_dataset.class_slice(1)[:12])
    if reference:
        check()


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

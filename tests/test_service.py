"""Tests for the online serving layer and the stage pipeline behind it.

Covers the PR-3 acceptance criteria: ``EncodingService`` submit-then-
flush equivalence with ``encode_batch`` (cluster assignments, fidelities
to 1e-9, identical transpiled circuits), micro-batcher size/deadline
triggers, registry routing and versioned-bundle loading, service stats,
and the shared ``EncodePipeline`` stage objects the shims execute.
"""

import warnings

import numpy as np
import pytest

from repro.core import EnQodeConfig, EnQodeEncoder, nearest_center
from repro.core.pipeline import EncodePipeline, RoutePlan
from repro.errors import OptimizationError, SerializationError, ServiceError
from repro.service import (
    EncodeRequest,
    EncoderRegistry,
    EncodingService,
    MicroBatcher,
)
from repro.transpile import transpile


@pytest.fixture(scope="module")
def cluster_data():
    """Two tight clusters of unit vectors in R^16."""
    rng = np.random.default_rng(21)
    centers = rng.normal(size=(2, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = []
    for center in centers:
        block = center + 0.04 * rng.normal(size=(20, 16))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


@pytest.fixture(scope="module")
def fitted(segment4, cluster_data):
    config = EnQodeConfig(
        num_qubits=4,
        num_layers=6,
        offline_restarts=3,
        offline_max_iterations=500,
        online_max_iterations=60,
        max_clusters=8,
        seed=9,
    )
    encoder = EnQodeEncoder(segment4, config)
    encoder.fit(cluster_data)
    return encoder


class ManualClock:
    """Injectable monotonic clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# -- the acceptance regression: service == encode_batch -------------------------------


def test_submit_then_flush_matches_encode_batch(fitted, cluster_data):
    """Streamed submissions produce exactly the batch-path results."""
    samples = cluster_data[:16]
    reference = fitted.encode_batch(samples)

    service = EncodingService(max_batch=16)
    service.register("only", fitted)
    tickets = [service.submit(x, key="only") for x in samples]
    # The 16th submission hit the size trigger: everything is served.
    assert all(ticket.done for ticket in tickets)
    for ticket, ref in zip(tickets, reference):
        response = ticket.result()
        assert response.cluster_index == ref.cluster_index
        assert abs(response.fidelity - ref.ideal_fidelity) < 1e-9
        assert list(response.circuit) == list(ref.circuit)
        assert response.batch_size == 16
        assert response.latency >= 0.0


def test_partial_batch_flush_matches_encode_batch(fitted, cluster_data):
    """An explicit flush of a partial queue equals encode_batch on it."""
    samples = cluster_data[:5]
    reference = fitted.encode_batch(samples)
    service = EncodingService(max_batch=32)
    service.register(0, fitted)
    tickets = [service.submit(x, key=0) for x in samples]
    assert not any(ticket.done for ticket in tickets)
    assert service.pending == 5
    responses = service.flush()
    assert len(responses) == 5
    for response, ref in zip(responses, reference):
        assert response.cluster_index == ref.cluster_index
        assert abs(response.fidelity - ref.ideal_fidelity) < 1e-9
        assert list(response.circuit) == list(ref.circuit)


def test_single_submission_matches_encode(fitted, cluster_data):
    """A flush of one request equals the one-off path modulo the template.

    Size-1 pipeline runs use the sequential fine-tune engine, so the
    service never diverges from ``encode`` on trickle traffic.
    """
    sample = cluster_data[3]
    reference = fitted.encode(sample)
    service = EncodingService(max_batch=32)
    service.register(0, fitted)
    response = service.submit(sample, key=0).result()
    assert response.cluster_index == reference.cluster_index
    assert abs(response.fidelity - reference.ideal_fidelity) < 1e-12
    assert list(response.circuit) == list(reference.circuit)


# -- micro-batcher triggers -----------------------------------------------------------


def test_size_trigger_flushes_at_max_batch(fitted, cluster_data):
    service = EncodingService(max_batch=4)
    service.register(0, fitted)
    tickets = [service.submit(x, key=0) for x in cluster_data[:6]]
    assert all(t.done for t in tickets[:4])  # first full window flushed
    assert not any(t.done for t in tickets[4:])  # remainder still queued
    assert service.pending == 2


def test_deadline_trigger_flushes_old_requests(fitted, cluster_data):
    clock = ManualClock()
    service = EncodingService(max_batch=100, max_delay=0.5, clock=clock)
    service.register(0, fitted)
    early = service.submit(cluster_data[0], key=0)
    clock.advance(0.1)
    assert not early.done
    clock.advance(0.6)
    # Any later submit enforces the deadline across all queues...
    late = service.submit(cluster_data[1], key=0)
    assert early.done
    # ...and the sweep happens after enqueueing, so the fresh request
    # rode along in the same flush rather than being stranded.
    assert late.done
    assert early.result().latency == pytest.approx(0.7)


def test_poll_flushes_due_queues_without_traffic(fitted, cluster_data):
    clock = ManualClock()
    service = EncodingService(max_batch=100, max_delay=1.0, clock=clock)
    service.register(0, fitted)
    ticket = service.submit(cluster_data[0], key=0)
    assert service.poll() == []  # not due yet
    clock.advance(2.0)
    responses = service.poll()
    assert len(responses) == 1
    assert ticket.done


def test_ticket_result_forces_flush(fitted, cluster_data):
    service = EncodingService(max_batch=32)
    service.register(0, fitted)
    ticket = service.submit(cluster_data[0], key=0)
    assert not ticket.done
    response = ticket.result()  # flushes the owning queue
    assert ticket.done
    assert response.request_id == ticket.request.request_id
    with pytest.raises(ServiceError):
        EncodingService(max_batch=0)


def test_microbatcher_bookkeeping():
    batcher = MicroBatcher(max_batch=2, max_delay=1.0)
    first = EncodeRequest(0, "k", np.ones(4), submitted_at=0.0)
    assert batcher.add(first) is False
    assert batcher.pending("k") == 1
    assert batcher.due_keys(0.5) == []
    assert batcher.due_keys(1.5) == ["k"]
    assert batcher.add(EncodeRequest(1, "k", np.ones(4), 0.2)) is True
    assert batcher.full_keys() == ["k"]
    drained = batcher.drain("k")
    assert [r.request_id for r in drained] == [0, 1]
    assert batcher.pending() == 0
    assert batcher.drain("k") == []
    assert batcher.oldest_age(5.0) == 0.0


# -- registry + routing ---------------------------------------------------------------


def test_registry_rejects_unfitted(segment4):
    registry = EncoderRegistry()
    with pytest.raises(ServiceError):
        registry.register(0, EnQodeEncoder(segment4, EnQodeConfig(num_qubits=4)))
    with pytest.raises(ServiceError):
        registry.register(0, "not an encoder")
    with pytest.raises(ServiceError):
        registry.get(0)
    with pytest.raises(ServiceError):
        registry.route(np.ones(16))


@pytest.mark.parametrize(
    "sample",
    [
        np.array(["1.0"] * 16),
        [[1.0, 2.0], [3.0]],
        object(),
        np.ones(16) + 0.5j,
        np.where(np.arange(16) == 2, np.inf, 1.0),
        np.full(16, np.nan),
        np.full(16, 1e200),
        np.zeros(16),
        np.ones(8),
    ],
    ids=[
        "string", "ragged", "object", "complex", "inf", "nan",
        "norm-overflow", "zero", "width",
    ],
)
def test_registry_route_rejects_malformed_samples(fitted, sample):
    """``route`` is a public entry point: only ServiceError escapes, and
    no numpy warning fires on the way."""
    registry = EncoderRegistry()
    registry.register("a", fitted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ServiceError):
            registry.route(sample)


def test_registry_bundle_roundtrip(fitted, segment4, tmp_path):
    registry = EncoderRegistry()
    registry.register("a", fitted)
    registry.save("a", tmp_path / "a.json")
    reloaded = registry.load("b", tmp_path / "a.json", segment4)
    assert reloaded.is_fitted
    assert registry.keys() == ["a", "b"]
    np.testing.assert_allclose(
        reloaded.cluster_centers(), fitted.cluster_centers()
    )


def test_registry_load_rejects_bad_schema(fitted, segment4, tmp_path):
    import json

    from repro.core import encoder_to_dict

    payload = encoder_to_dict(fitted)
    payload["schema_version"] = 99
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    registry = EncoderRegistry()
    with pytest.raises(SerializationError, match="99"):
        registry.load("x", path, segment4)
    assert "x" not in registry


def test_service_routes_unkeyed_submissions(fitted, segment4, cluster_data):
    """No-key submits follow the nearest-class rule per encoder."""
    # Two "classes": encoders trained on each half of the data.
    config = fitted.config
    low = EnQodeEncoder(segment4, config)
    low.fit(cluster_data[:20])
    high = EnQodeEncoder(segment4, config)
    high.fit(cluster_data[20:])
    service = EncodingService(max_batch=4)
    service.register("low", low)
    service.register("high", high)
    ticket_low = service.submit(cluster_data[2])
    ticket_high = service.submit(cluster_data[25])
    assert ticket_low.request.key == "low"
    assert ticket_high.request.key == "high"


def test_submit_validation(fitted):
    service = EncodingService()
    service.register(0, fitted)
    with pytest.raises(ServiceError):
        service.submit(np.zeros(16), key=0)  # zero vector
    with pytest.raises(ServiceError):
        service.submit(np.full(16, np.nan), key=0)  # non-finite
    with pytest.raises(ServiceError):
        service.submit(np.ones(8), key=0)  # wrong width
    with pytest.raises(ServiceError):
        service.submit(np.ones(8))  # wrong width, unkeyed (routes first)
    with pytest.raises(ServiceError):
        service.submit(np.ones(16), key="missing")  # unknown key
    good = np.ones(16)
    for row in (
        np.where(np.arange(16) == 2, np.inf, good),
        np.where(np.arange(16) == 2, -np.inf, good),
        np.array(["1.0"] * 16),  # numeric strings are still strings
        np.array(["x"] * 16),
        good + 0.5j,  # nonzero imaginary part
        [[1.0, 2.0], [3.0]],  # ragged
        np.full(16, 1e200),  # finite entries, overflowing norm
    ):
        with pytest.raises(ServiceError):
            service.submit(row, key=0)
        with pytest.raises(ServiceError):
            service.submit(row)  # unkeyed: validated before routing
    assert service.stats().requests_submitted == 0


def test_failed_flush_fails_tickets_loudly(fitted, cluster_data):
    """A flush-time error must not silently strand drained requests.

    Simulates the hot-reload hazard: a request that no longer matches
    its encoder's amplitude width poisons the micro-batch.  The flush
    raises, every drained ticket carries the error (result() re-raises
    instead of claiming 'still queued'), and the failure is counted.
    """
    service = EncodingService(max_batch=32)
    service.register(0, fitted)
    good = service.submit(cluster_data[0], key=0)
    # A stale-width request, as a swapped-out model bundle would leave.
    stale = EncodeRequest(
        request_id=999, key=0, sample=np.ones(8), submitted_at=0.0
    )
    service.batcher.add(stale)
    with pytest.raises(ServiceError, match="flush of 2 request"):
        service.flush()
    assert good.failed and not good.done
    with pytest.raises(ServiceError, match="failed during its micro-batch"):
        good.result()
    stats = service.stats()
    assert stats.requests_failed == 2
    assert stats.requests_completed == 0
    assert stats.requests_pending == 0  # nothing stranded in the queue


def test_service_stats_accounting(fitted, cluster_data):
    service = EncodingService(max_batch=4)
    service.register(0, fitted)
    for x in cluster_data[:10]:
        service.submit(x, key=0)
    service.flush()
    stats = service.stats()
    assert stats.requests_submitted == 10
    assert stats.requests_completed == 10
    assert stats.requests_pending == 0
    assert stats.num_flushes == 3  # 4 + 4 + 2
    assert stats.mean_batch_size == pytest.approx(10 / 3)
    assert stats.p50_latency >= 0.0
    assert stats.p95_latency >= stats.p50_latency
    assert stats.evals_per_sample > 0
    assert 0.0 < stats.mean_fidelity <= 1.0
    assert stats.per_key_completed == {0: 10}
    # The template was built (or cache-hit) once per flush.
    assert stats.template_cache_hits + stats.template_cache_misses == 3
    # Bind accounting is per *row*: a batched flush of B requests counts
    # B template binds, exactly like B per-sample binds would.
    assert stats.template_binds == 10
    assert "served in 3 flushes" in stats.summary()
    assert "10 template binds" in stats.summary()


def test_template_binds_counted_per_row(fitted, cluster_data):
    """Regression: bind counters advance by batch size, not flush count."""
    pipeline = fitted.pipeline
    template = pipeline.lower.template()
    binds_before = template.num_binds
    service = EncodingService(max_batch=8)
    service.register(0, fitted)
    for x in cluster_data[:8]:
        service.submit(x, key=0)  # flushes once, at max_batch
    assert template.num_binds - binds_before == 8
    assert service.stats().template_binds == 8


# -- the stage pipeline ----------------------------------------------------------------


def test_pipeline_stage_objects_shared_by_shims(fitted, monkeypatch):
    """encode/encode_batch execute the same EncodePipeline instance."""
    pipeline = fitted.pipeline
    assert isinstance(pipeline, EncodePipeline)
    assert fitted.pipeline is pipeline  # cached
    run = pipeline.run_reported
    batch_sizes = []

    def recording_run(samples):
        encoded, report = run(samples)
        batch_sizes.append(report.batch_size)
        return encoded, report

    monkeypatch.setattr(pipeline, "run_reported", recording_run)
    fitted.encode(np.ones(16))
    fitted.encode_batch(np.ones((2, 16)))
    assert batch_sizes == [1, 2]


def test_pipeline_rebuilt_after_reload(fitted, segment4):
    from repro.core import encoder_from_dict, encoder_to_dict

    restored = encoder_from_dict(encoder_to_dict(fitted), segment4)
    first = restored.pipeline
    assert first.transfer is restored._transfer
    # Replacing the models (as a service-side reload does) rebuilds it.
    restored._transfer = fitted._transfer
    assert restored.pipeline is not first
    assert restored.pipeline.transfer is fitted._transfer


def test_pipeline_before_fit_rejected(segment4):
    encoder = EnQodeEncoder(segment4, EnQodeConfig(num_qubits=4))
    with pytest.raises(OptimizationError):
        encoder.pipeline


def test_route_stage_matches_scalar_assignment(fitted, cluster_data):
    plan = fitted.pipeline.route.run(cluster_data[:6])
    assert isinstance(plan, RoutePlan)
    assert plan.batch_size == 6
    for b in range(6):
        index, distance = nearest_center(
            cluster_data[b], fitted._transfer.centers
        )
        assert plan.indices[b] == index
        assert plan.distances[b] == pytest.approx(distance)
        np.testing.assert_array_equal(
            plan.theta0[b], fitted._transfer.cluster_thetas[index]
        )


def test_bind_and_lower_stages_compose(fitted, cluster_data):
    """Template fetch → bind_batch equals the full transpile of the
    bound ansatz, and is what the pipeline served."""
    pipeline = fitted.pipeline
    encoded = fitted.encode_batch(cluster_data[:1])[0]
    lowered = transpile(
        encoded.logical_circuit,
        fitted.backend,
        optimization_level=pipeline.lower.optimization_level,
    )
    template_bound = pipeline.lower.template().bind_batch(
        encoded.theta[None, :]
    )[0]
    assert list(lowered.circuit) == list(template_bound.circuit)
    assert list(encoded.circuit) == list(lowered.circuit)


def test_pipeline_reports_optimizer_evaluations(fitted, cluster_data):
    batch = fitted.encode_batch(cluster_data[:3])
    assert all(sample.optimizer_evaluations > 0 for sample in batch)
    one = fitted.encode(cluster_data[0])
    assert one.optimizer_evaluations > 0


def test_config_validation_hardened():
    with pytest.raises(OptimizationError):
        EnQodeConfig(max_clusters=0)
    with pytest.raises(OptimizationError):
        EnQodeConfig(target_fidelity=0.0)
    with pytest.raises(OptimizationError):
        EnQodeConfig(target_fidelity=1.5)
    with pytest.raises(OptimizationError):
        EnQodeConfig(gtol=0.0)
    with pytest.raises(OptimizationError):
        EnQodeConfig(ftol=-1e-9)
    with pytest.raises(OptimizationError):
        EnQodeConfig(optimization_level=2)
    assert EnQodeConfig(optimization_level=0).optimization_level == 0

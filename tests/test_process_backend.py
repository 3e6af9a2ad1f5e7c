"""Tests for the process-pool serving backend (``backend="process"``).

The PR-10 acceptance criteria: a fleet of worker processes holding
float-exact encoder replicas serves micro-batched traffic with
responses float-bit identical to a synchronous ``encode_batch`` replay
of the same per-key flush partition (decoded from the kind-4 wire
record by template rebind); registry keys shard deterministically over
the fleet; bundles registered after start reach every live worker; an
injected worker death escalates to a real SIGKILL whose respawn loses
zero tickets; and the whole resilience layer (retries, deadlines,
admission) keeps working across the process boundary.

Spawned fleets are slow to start (each worker is a fresh interpreter
importing numpy/scipy), so the suite keeps encoders small (4 qubits),
fleets small (2 workers), and service starts few — and carries the
``process_backend`` marker so CI can run it as a dedicated job with an
extended watchdog.
"""

import time

import numpy as np
import pytest

from repro.core import EnQodeConfig, EnQodeEncoder, ServiceConfig
from repro.errors import ServiceError
from repro.io import dump_encoded_batch, load_encoded_batch
from repro.service import (
    EncodingService,
    FaultInjector,
    FaultRule,
    ProcessBackend,
)
from repro.service.process_backend import _stable_hash

pytestmark = [pytest.mark.process_backend, pytest.mark.timeout(300)]


@pytest.fixture(scope="module")
def cluster_data():
    rng = np.random.default_rng(55)
    centers = rng.normal(size=(2, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = []
    for center in centers:
        block = center + 0.04 * rng.normal(size=(30, 16))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


def _fit(segment4, data, seed):
    config = EnQodeConfig(
        num_qubits=4,
        num_layers=4,
        offline_restarts=2,
        offline_max_iterations=200,
        online_max_iterations=40,
        max_clusters=3,
        seed=seed,
    )
    encoder = EnQodeEncoder(segment4, config)
    encoder.fit(data)
    return encoder


@pytest.fixture(scope="module")
def fitted_pair(segment4, cluster_data):
    half = len(cluster_data) // 2
    return (
        _fit(segment4, cluster_data[:half], seed=3),
        _fit(segment4, cluster_data[half:], seed=5),
    )


def _assert_bit_identical_replay(service, tickets):
    """Group done tickets by (key, flush_id) and replay each partition
    through a synchronous ``encode_batch``: every field must be
    float-bit equal — the wire crossing must be invisible."""
    groups: dict = {}
    for ticket in tickets:
        response = ticket.response
        groups.setdefault((response.key, response.flush_id), []).append(
            (response, ticket.request.sample)
        )
    assert groups
    for (key, _fid), group in groups.items():
        encoder = service.registry.get(key)
        samples = np.stack([sample for _, sample in group])
        for (response, _), reference in zip(
            group, encoder.encode_batch(samples)
        ):
            assert response.cluster_index == reference.cluster_index
            assert np.array_equal(response.encoded.theta, reference.theta)
            assert (
                response.encoded.ideal_fidelity
                == reference.ideal_fidelity
            )
            assert list(response.circuit) == list(reference.circuit)


# -- config + sharding (no fleet spawned) ----------------------------------------------


def test_process_config_knobs_validate():
    config = ServiceConfig(
        backend="process",
        workers=3,
        shard_strategy="modulo",
        spawn_timeout=10.0,
        handshake_timeout=5.0,
    )
    assert config.shard_strategy == "modulo"
    with pytest.raises(ServiceError, match="shard_strategy"):
        ServiceConfig(shard_strategy="random")
    with pytest.raises(ServiceError, match="spawn_timeout"):
        ServiceConfig(spawn_timeout=0.0)
    with pytest.raises(ServiceError, match="handshake_timeout"):
        ServiceConfig(handshake_timeout=-1.0)


def test_stable_hash_is_process_independent():
    """Sharding must not depend on per-process hash salting: the hash
    of a key is a pure function of its text."""
    assert _stable_hash("model-a") == _stable_hash("model-a")
    assert _stable_hash("model-a") != _stable_hash("model-b")
    # Known-answer: pin the value so an accidental switch to salted
    # hash() (or a digest change) fails loudly rather than silently
    # resharding every deployment.
    assert _stable_hash("") == int.from_bytes(
        bytes.fromhex("d41d8cd98f00b204"), "little"
    )


@pytest.mark.parametrize("strategy", ["rendezvous", "modulo"])
def test_sharding_is_deterministic_and_rebalances(strategy, fitted_pair):
    """Routing is a pure function of (key, alive fleet): stable while
    the fleet is whole, rerouted onto survivors when a slot dies, and
    restored when it comes back."""
    service = EncodingService(
        backend="process", workers=4, shard_strategy=strategy
    )
    backend = service._backend_impl
    assert isinstance(backend, ProcessBackend)
    # No processes are spawned here: mark slots alive by hand and
    # exercise the pure routing logic.
    for slot in backend._slots:
        slot.alive = True
    keys = [f"model-{i}" for i in range(16)]
    first = {key: backend.shard_of(key).index for key in keys}
    assert first == {key: backend.shard_of(key).index for key in keys}
    assert set(first.values()) <= {0, 1, 2, 3}
    assert len(set(first.values())) > 1  # 16 keys spread over 4 workers
    dead = backend._slots[1]
    dead.alive = False
    rerouted = {key: backend.shard_of(key).index for key in keys}
    for key in keys:
        if first[key] != 1:
            if strategy == "rendezvous":
                # Minimal-disruption property: only the dead worker's
                # keys move.
                assert rerouted[key] == first[key]
        else:
            assert rerouted[key] != 1
    dead.alive = True
    assert {key: backend.shard_of(key).index for key in keys} == first


def test_shard_of_none_when_fleet_down():
    service = EncodingService(backend="process", workers=2)
    assert service._backend_impl.shard_of("k") is None


# -- kind-4 wire record (no fleet spawned) ---------------------------------------------


def test_encoded_batch_wire_roundtrip(fitted_pair, cluster_data):
    """The response payload format: dump on one side, rebind on the
    other, and every per-sample field plus the run report survives
    bit-exactly."""
    encoder = fitted_pair[0]
    samples = cluster_data[:5]
    encoded, report = encoder.pipeline.run_reported(samples)
    blob = dump_encoded_batch(encoded, report)
    template = encoder.pipeline.lower.template()
    targets = encoder.pipeline.prepare(samples)
    decoded, decoded_report = load_encoded_batch(
        blob, template=template, targets=targets
    )
    assert len(decoded) == len(encoded)
    for ours, theirs in zip(decoded, encoded):
        assert np.array_equal(ours.theta, theirs.theta)
        assert ours.cluster_index == theirs.cluster_index
        assert ours.ideal_fidelity == theirs.ideal_fidelity
        assert ours.compile_time == theirs.compile_time
        assert ours.optimizer_iterations == theirs.optimizer_iterations
        assert ours.optimizer_evaluations == theirs.optimizer_evaluations
        assert np.array_equal(ours.target, theirs.target)
        assert list(ours.transpiled.circuit) == list(
            theirs.transpiled.circuit
        )
    assert decoded_report.batch_size == report.batch_size
    assert decoded_report.route_seconds == report.route_seconds
    assert decoded_report.finetune_seconds == report.finetune_seconds
    assert decoded_report.bind_seconds == report.bind_seconds
    assert decoded_report.lower_seconds == report.lower_seconds
    assert decoded_report.template_binds == report.template_binds
    assert decoded_report.template_hit == report.template_hit


# -- live fleet ------------------------------------------------------------------------


def test_process_service_end_to_end(fitted_pair, cluster_data):
    """One fleet, the full story: spawn, shard, serve two keys
    bit-identically, register a key after start, restart the service,
    and stop clean."""
    first, second = fitted_pair
    with EncodingService(
        backend="process", workers=2, max_batch=4, max_delay=0.01
    ) as service:
        service.register("low", first)
        shard_map = service.shard_map()
        assert set(shard_map) == {"low"}
        assert all(0 <= idx < 2 for idx in shard_map.values())

        tickets = [
            service.submit(x, key="low") for x in cluster_data[:8]
        ]
        # Register a second bundle while the fleet is live: it must
        # reach every worker, wherever the key routes.
        service.register("high", second)
        assert set(service.shard_map()) == {"low", "high"}
        tickets += [
            service.submit(x, key="high") for x in cluster_data[30:36]
        ]
        service.drain(timeout=120.0)
        assert all(t.done for t in tickets)
        _assert_bit_identical_replay(service, tickets)

        stats = service.stats()
        assert stats.requests_completed == len(tickets)
        assert stats.requests_failed == 0

    # Restart after stop: a fresh fleet comes up with all bundles.
    service.start()
    try:
        ticket = service.submit(cluster_data[10], key="high")
        response = ticket.result(timeout=120.0)
        reference = second.encode_batch(cluster_data[10:11])[0]
        assert np.array_equal(response.encoded.theta, reference.theta)
        assert list(response.circuit) == list(reference.circuit)
    finally:
        service.stop()


def test_injected_death_sigkills_and_respawns(fitted_pair, cluster_data):
    """``kind="death"`` under the process backend is a real SIGKILL:
    the routed worker process dies, the batch requeues in order, a
    replacement process comes up, and no ticket is lost."""
    injector = FaultInjector(
        [FaultRule("worker", kind="death", times=1, probability=1.0)]
    )
    with EncodingService(
        backend="process",
        workers=2,
        max_batch=4,
        max_delay=0.005,
        fault_injector=injector,
    ) as service:
        service.register("k", fitted_pair[0])
        tickets = [service.submit(x, key="k") for x in cluster_data[:8]]
        service.drain(timeout=180.0)
        assert injector.fired_count("worker") == 1
        # The replacement worker thread.
        assert service.stats().worker_respawns == 1
        # The replacement *process* spawns asynchronously (a fresh
        # interpreter importing numpy) while survivors absorb the
        # rerouted traffic; wait for it to land.
        deadline = time.monotonic() + 120.0
        while (
            service.stats().process_respawns < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        respawned = service.stats()
        assert respawned.process_respawns >= 1  # replacement process
        assert respawned.process_respawn_failures == 0
        assert all(t.done for t in tickets)  # deaths never fail work
        _assert_bit_identical_replay(service, tickets)
        stats = service.stats()
    assert stats.requests_completed == len(tickets)
    assert stats.requests_pending == 0


def test_parent_side_retry_wraps_the_process_boundary(
    fitted_pair, cluster_data
):
    """The resilience layer is parent-side and unchanged: a transient
    injected flush fault is retried to success even though the flush
    body executes in a worker process."""
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=1, transient=True)]
    )
    with EncodingService(
        backend="process",
        workers=2,
        max_batch=4,
        max_delay=0.005,
        retry_attempts=3,
        retry_backoff=0.0,
        fault_injector=injector,
    ) as service:
        service.register("k", fitted_pair[0])
        tickets = [service.submit(x, key="k") for x in cluster_data[:4]]
        service.drain(timeout=120.0)
        assert injector.fired_count("flush") == 1
        assert all(t.done for t in tickets)
        _assert_bit_identical_replay(service, tickets)
        assert service.stats().retries == 1

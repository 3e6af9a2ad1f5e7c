"""Deterministic fault-injection (chaos) suite for the threaded service.

The PR-9 chaos acceptance criteria: under injected stage faults,
latencies, retries, worker deaths, and flush-timeout abandonment, the
service loses no ticket (every one resolves as done or failed), never
deadlocks (stop() joins cleanly under the test watchdog), conserves its
accounting ledger, and keeps successful responses float-bit identical
to a fault-free synchronous ``encode_batch`` replay of the same flush
partition.  Degraded (shed) responses are flagged and exactly equal the
finetune-skipped centroid path.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EnQodeConfig, EnQodeEncoder
from repro.errors import DeadlineExceededError, ServiceError
from repro.service import (
    EncodingService,
    FaultInjector,
    FaultRule,
)

pytestmark = pytest.mark.timeout(90)


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


def _assert_all_resolved(tickets):
    """No lost or hung tickets: every event is set, with exactly one
    of response/error populated."""
    for ticket in tickets:
        assert ticket._event.is_set(), f"ticket {ticket.request.request_id} hung"
        assert ticket.done != ticket.failed


def _assert_conserved(stats):
    assert stats.requests_submitted == (
        stats.requests_completed
        + stats.requests_failed
        + stats.rejected
        + stats.requests_pending
    )
    assert stats.requests_pending == 0


def _assert_replay_identical(service, tickets):
    """Successful non-degraded responses, grouped by flush_id, must be
    float-bit identical to a fault-free sync ``encode_batch`` replay of
    the same per-key batch partition."""
    groups: dict = {}
    for ticket in tickets:
        if not ticket.done or ticket.response.degraded:
            continue
        response = ticket.response
        groups.setdefault((response.key, response.flush_id), []).append(
            (response, ticket.request.sample)
        )
    assert groups, "chaos run completed no requests; faults too aggressive"
    for (key, _fid), group in groups.items():
        # A flush carries its rows in submission (request id) order, but
        # threads submitting together can append their tickets out of
        # it, and a permuted batch gives different bits.
        group.sort(key=lambda entry: entry[0].request_id)
        encoder = service.registry.get(key)
        samples = np.stack([sample for _, sample in group])
        for (response, _), reference in zip(
            group, encoder.encode_batch(samples)
        ):
            assert response.cluster_index == reference.cluster_index
            assert np.array_equal(response.encoded.theta, reference.theta)
            assert (
                response.encoded.ideal_fidelity == reference.ideal_fidelity
            )
            assert list(response.circuit) == list(reference.circuit)


# -- the main chaos run ----------------------------------------------------------------


def test_chaos_mixed_faults_no_lost_tickets_and_bit_identical_replay(
    fitted_pair, cluster_data
):
    """Probabilistic stage/flush faults + latency + retries, 2 keys, a
    concurrent worker pool: everything resolves, the ledger balances,
    and whatever succeeded is bit-identical to the fault-free path."""
    injector = FaultInjector(
        [
            FaultRule("finetune", kind="error", probability=0.2),
            FaultRule("flush", kind="error", probability=0.2),
            FaultRule("route", kind="latency", latency=0.002, probability=0.3),
        ],
        seed=1234,
    )
    with EncodingService(
        backend="thread",
        workers=3,
        max_batch=4,
        max_delay=0.005,
        retry_attempts=4,
        retry_backoff=0.001,
        fault_injector=injector,
    ) as service:
        service.register("left", fitted_pair[0])
        service.register("right", fitted_pair[1])
        tickets = [
            service.submit(x, key="left" if i % 2 else "right")
            for i, x in enumerate(cluster_data[:24])
        ]
        service.drain(timeout=30.0)
        stats = service.stats()

    assert injector.fired_count() > 0, "chaos run injected nothing"
    _assert_all_resolved(tickets)
    _assert_conserved(stats)
    assert stats.retries > 0  # transient faults actually exercised retry
    _assert_replay_identical(service, tickets)
    # Failed tickets (retry budget exhausted) re-raise loudly.
    for ticket in tickets:
        if ticket.failed:
            with pytest.raises(ServiceError, match="flush"):
                ticket.result(flush=False)


def test_sync_chaos_run_is_exactly_replayable(fitted_pair, cluster_data):
    """Same rules + same seed + same arrival order = same faults, same
    outcomes, bit-identical numerics — the determinism contract."""

    def run():
        injector = FaultInjector(
            [FaultRule("flush", kind="error", probability=0.4)], seed=7
        )
        service = EncodingService(
            max_batch=100,  # no inline size trigger while submitting
            retry_attempts=1,
            retry_backoff=0.0,
            fault_injector=injector,
        )
        service.register("k", fitted_pair[0])
        tickets = []
        for x in cluster_data[:16]:
            tickets.append(service.submit(x, key="k"))
        service.batcher.max_batch = 4  # drain 4-at-a-time below
        # Flush 4-at-a-time; a failed flush fails only its own batch.
        while service.pending:
            try:
                service.flush()
            except ServiceError:
                pass
        outcomes = [
            (t.done, tuple(t.response.encoded.theta) if t.done else None)
            for t in tickets
        ]
        return outcomes, list(injector.log)

    first_outcomes, first_log = run()
    second_outcomes, second_log = run()
    assert first_log == second_log
    assert first_outcomes == second_outcomes


# -- worker death ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "backend",
    [
        "thread",
        pytest.param(
            "process",
            marks=[
                pytest.mark.process_backend,
                pytest.mark.timeout(300),
            ],
        ),
    ],
)
def test_worker_death_respawns_and_loses_nothing(
    fitted_pair, cluster_data, backend
):
    """Injected deaths under both concurrent backends: threads respawn
    a worker thread; the process backend additionally SIGKILLs and
    respawns the routed worker *process*.  Either way the batch
    requeues in order and nothing is lost."""
    injector = FaultInjector(
        [FaultRule("worker", kind="death", times=2, probability=1.0)]
    )
    with EncodingService(
        backend=backend,
        workers=2,
        max_batch=4,
        max_delay=0.005,
        fault_injector=injector,
    ) as service:
        service.register("k", fitted_pair[0])
        tickets = [service.submit(x, key="k") for x in cluster_data[:12]]
        service.drain(timeout=180.0)
        assert service.stats().worker_respawns == 2
        if backend == "process":
            # Both SIGKILLed processes respawn; traffic rerouted to the
            # survivor in the interim, so no ticket waited on them.
            deadline = time.monotonic() + 120.0
            while (
                service.stats().process_respawns < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.1)
        stats = service.stats()

    assert injector.fired_count("worker") == 2
    if backend == "process":
        assert stats.process_respawns >= 2
        assert stats.process_respawn_failures == 0
    _assert_all_resolved(tickets)
    assert all(t.done for t in tickets)  # deaths requeue, never fail work
    _assert_conserved(stats)
    _assert_replay_identical(service, tickets)


# -- flush-timeout abandonment ---------------------------------------------------------


def test_flush_timeout_abandons_wedged_flush(fitted_pair, cluster_data):
    """A wedged fine-tune can't head-of-line-block its key forever:
    the flusher abandons it, fails its tickets, and follow-up traffic
    proceeds while the zombie's late result is discarded."""
    injector = FaultInjector(
        [FaultRule("finetune", kind="latency", latency=0.8, times=1)]
    )
    with EncodingService(
        backend="thread",
        workers=2,
        max_batch=4,
        max_delay=0.005,
        flush_timeout=0.15,
        fault_injector=injector,
    ) as service:
        service.register("k", fitted_pair[0])
        wedged = service.submit(cluster_data[0], key="k")
        with pytest.raises(DeadlineExceededError, match="flush_timeout"):
            wedged.result(timeout=5.0)
        # The key is free again: follow-up traffic serves normally even
        # though the zombie flush is still sleeping in its fault.
        follow_up = service.submit(cluster_data[1], key="k")
        assert follow_up.result(timeout=5.0).encoded is not None
        service.drain(timeout=30.0)
        stats = service.stats()

    assert stats.deadline_expired == 1
    assert stats.requests_failed == 1
    assert stats.requests_completed == 1  # zombie result was discarded
    _assert_conserved(stats)


# -- degraded shedding under concurrency -----------------------------------------------


def test_degrade_shed_under_thread_backend(fitted_pair, cluster_data):
    """Over-budget flood with the degrade policy: every ticket resolves,
    shed responses are flagged and exactly the centroid bind."""
    with EncodingService(
        backend="thread",
        workers=2,
        max_batch=4,
        max_delay=0.01,
        max_pending_per_key=4,
        overload_policy="degrade",
    ) as service:
        service.register("k", fitted_pair[1])
        tickets = []

        def flood():
            for x in cluster_data[:20]:
                tickets.append(service.submit(x, key="k"))

        threads = [threading.Thread(target=flood) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.drain(timeout=30.0)
        stats = service.stats()

    _assert_all_resolved(tickets)
    _assert_conserved(stats)
    assert stats.requests_submitted == 40
    assert stats.shed_degraded == sum(
        1 for t in tickets if t.done and t.response.degraded
    )
    encoder = fitted_pair[1]
    for ticket in tickets:
        if ticket.done and ticket.response.degraded:
            response = ticket.response
            assert response.flush_id == -1
            centroid = encoder._transfer.cluster_thetas[
                response.cluster_index
            ]
            assert np.array_equal(response.encoded.theta, centroid)
            assert response.encoded.optimizer_evaluations == 0
    _assert_replay_identical(service, tickets)

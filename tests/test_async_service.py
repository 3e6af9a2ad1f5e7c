"""Concurrency/stress tests for the threaded EncodingService backend.

The PR-5 acceptance criteria: with ``backend="thread"`` the daemon
flusher honors ``max_delay`` with zero follow-up traffic (by sleeping,
not busy-waiting), a worker pool flushes different keys concurrently
while keeping at most one flush in flight per key (and per shared
pipeline), responses are sample-for-sample instruction-identical to a
synchronous ``encode_batch`` replay of the same per-key traffic, errors
stay confined to the failing key's tickets, lifecycle
(``start``/``stop``/``drain``) is clean under load, and the per-flush
stats application is atomic when flushes race.  With ``max_delay`` set,
dispatch is work-conserving: an idle pool serves a request at once, and
the deadline cuts a batch only while every worker is busy.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EnQodeConfig, EnQodeEncoder, ServiceConfig
from repro.errors import ServiceError
from repro.service import (
    EncodeRequest,
    EncodingService,
    FaultInjector,
    FaultRule,
    MicroBatcher,
)
from repro.service.service import STATS_WINDOW

# A wedged flusher/worker must fail the test fast, not hang the suite.
pytestmark = pytest.mark.timeout(60)


@pytest.fixture(scope="module")
def cluster_data():
    """Two tight clusters of unit vectors in R^16."""
    rng = np.random.default_rng(33)
    centers = rng.normal(size=(2, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = []
    for center in centers:
        block = center + 0.04 * rng.normal(size=(40, 16))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


def _fit(segment4, data, seed=9):
    config = EnQodeConfig(
        num_qubits=4,
        num_layers=5,
        offline_restarts=2,
        offline_max_iterations=300,
        online_max_iterations=50,
        max_clusters=4,
        seed=seed,
    )
    encoder = EnQodeEncoder(segment4, config)
    encoder.fit(data)
    return encoder


@pytest.fixture(scope="module")
def fitted(segment4, cluster_data):
    return _fit(segment4, cluster_data)


@pytest.fixture(scope="module")
def fitted_pair(segment4, cluster_data):
    """Two distinct encoders (trained per half) for multi-key traffic."""
    half = len(cluster_data) // 2
    return (
        _fit(segment4, cluster_data[:half], seed=3),
        _fit(segment4, cluster_data[half:], seed=5),
    )


class ManualClock:
    """Injectable monotonic clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _wait_until(predicate, seconds: float = 10.0) -> bool:
    """Poll ``predicate`` in real time.  Under a fake clock that never
    reaches a ticket's timeout, this is the bounded wait."""
    limit = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > limit:
            return False
        time.sleep(0.002)
    return True


def _assert_instruction_identical(response, reference):
    """Float-bit equality: angles and the lowered instruction stream."""
    assert response.cluster_index == reference.cluster_index
    assert np.array_equal(response.encoded.theta, reference.theta)
    assert (
        response.encoded.ideal_fidelity == reference.ideal_fidelity
    )  # bit-equal, not approx
    assert list(response.circuit) == list(reference.circuit)


def _replay_reference(encoder, tickets):
    """Synchronous ``encode_batch`` replay of the exact flush partition.

    Responses sharing a ``flush_id`` were encoded in one micro-batch;
    re-running ``encode_batch`` on the *original submitted samples* (the
    ones still on the tickets' requests — not ``encoded.target``, which
    is already unit-normalized and would renormalize a last-ulp apart)
    must be instruction-identical — the service guarantee, independent
    of how the scheduler happened to slice the traffic.
    """
    groups: dict = {}
    for ticket in tickets:
        response = ticket.result(flush=False)
        groups.setdefault(response.flush_id, []).append(
            (response, ticket.request.sample)
        )
    for group in groups.values():
        samples = np.stack([sample for _, sample in group])
        for (response, _), reference in zip(
            group, encoder.encode_batch(samples)
        ):
            _assert_instruction_identical(response, reference)


# -- lifecycle -------------------------------------------------------------------------


def test_thread_backend_requires_start(fitted, cluster_data):
    service = EncodingService(max_batch=4, backend="thread")
    service.register("a", fitted)
    with pytest.raises(ServiceError, match="not running"):
        service.submit(cluster_data[0], key="a")
    service.start()
    ticket = service.submit(cluster_data[0], key="a")
    assert ticket.result(timeout=10.0).key == "a"
    service.stop()
    with pytest.raises(ServiceError, match="not running"):
        service.submit(cluster_data[0], key="a")


def test_double_start_rejected_restart_allowed(fitted, cluster_data):
    service = EncodingService(max_batch=4, backend="thread")
    service.register("a", fitted)
    service.start()
    with pytest.raises(ServiceError, match="already running"):
        service.start()
    service.stop()
    service.stop()  # idempotent
    service.start()  # restart after stop is fine
    assert service.running
    ticket = service.submit(cluster_data[1], key="a")
    assert ticket.result(timeout=10.0).key == "a"
    service.stop()


def test_context_manager_lifecycle(fitted, cluster_data):
    with EncodingService(max_batch=32, backend="thread") as service:
        service.register("a", fitted)
        tickets = [service.submit(x, key="a") for x in cluster_data[:3]]
        assert service.running
    # __exit__ stopped with drain: every ticket resolved.
    assert all(t.done for t in tickets)
    assert not service.running


def test_sync_backend_lifecycle_is_inline(fitted, cluster_data):
    """start/stop/drain exist on the sync backend too (uniform callers)."""
    service = EncodingService(max_batch=32)
    service.register("a", fitted)
    assert service.running  # sync is always ready
    service.start()  # no-op
    tickets = [service.submit(x, key="a") for x in cluster_data[:3]]
    service.drain()  # == flush()
    assert all(t.done for t in tickets)
    more = service.submit(cluster_data[3], key="a")
    service.stop()  # drains inline
    assert more.done
    stats = service.stats()
    assert stats.backend == "sync"
    assert stats.flusher_wakeups == 0


def test_service_config_plumbing(fitted):
    with pytest.raises(ServiceError, match="backend"):
        ServiceConfig(backend="asyncio")
    with pytest.raises(ServiceError, match="workers"):
        ServiceConfig(backend="thread", workers=0)
    with pytest.raises(ServiceError, match="max_batch"):
        ServiceConfig(max_batch=0)
    with pytest.raises(ServiceError, match="max_delay"):
        ServiceConfig(max_delay=-0.1)
    config = ServiceConfig(
        backend="thread", workers=2, max_batch=7, max_delay=0.5
    )
    service = EncodingService(config=config)
    assert service.backend == "thread"
    assert service.batcher.max_batch == 7
    assert service.batcher.max_delay == 0.5
    assert service._backend_impl.num_workers == 2
    assert "backend='thread'" in repr(service)


# -- equivalence: threaded == synchronous encode_batch ---------------------------------


def test_threaded_single_key_instruction_identical(fitted, cluster_data):
    """Full-batch traffic: threaded responses == encode_batch chunks."""
    window = 8
    samples = cluster_data[:24]
    with EncodingService(max_batch=window, backend="thread", workers=3) as s:
        s.register("only", fitted)
        tickets = [s.submit(x, key="only") for x in samples]
        responses = [t.result(timeout=30.0) for t in tickets]
    for start in range(0, len(samples), window):
        chunk = samples[start : start + window]
        for response, reference in zip(
            responses[start:], fitted.encode_batch(chunk)
        ):
            _assert_instruction_identical(response, reference)
    assert all(r.batch_size == window for r in responses)


def test_threaded_multikey_submitter_threads(fitted_pair, cluster_data):
    """N submitter threads x M keys: per-key instruction identity.

    Each key's traffic comes from its own thread (so per-key order is
    well defined); the worker pool interleaves flushes across keys.
    """
    low, high = fitted_pair
    window = 4
    per_key = 16
    keys = ["low", "high", "low-alias"]
    encoders = {"low": low, "high": high, "low-alias": low}
    traffic = {
        key: cluster_data[i * per_key : (i + 1) * per_key]
        for i, key in enumerate(keys)
    }
    tickets: dict = {key: [] for key in keys}
    with EncodingService(max_batch=window, backend="thread", workers=4) as s:
        for key, encoder in encoders.items():
            s.register(key, encoder)

        def submit_all(key):
            for x in traffic[key]:
                tickets[key].append(s.submit(x, key=key))

        threads = [
            threading.Thread(target=submit_all, args=(key,)) for key in keys
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s.drain()
    for key in keys:
        responses = [t.result(flush=False) for t in tickets[key]]
        # Submission order per key is the thread's order; every flush is
        # a contiguous full window of it.
        for start in range(0, per_key, window):
            chunk = traffic[key][start : start + window]
            for response, reference in zip(
                responses[start:], encoders[key].encode_batch(chunk)
            ):
                _assert_instruction_identical(response, reference)


def test_threaded_partial_batches_replay_identically(fitted, cluster_data):
    """Deadline-flushed partial batches still match their sync replay."""
    with EncodingService(
        max_batch=32, max_delay=0.02, backend="thread", workers=2
    ) as service:
        service.register("a", fitted)
        tickets = []
        for burst in range(4):
            for x in cluster_data[burst * 3 : burst * 3 + 3]:
                tickets.append(service.submit(x, key="a"))
            time.sleep(0.05)  # idle gap: only the deadline can flush
        responses = [t.result(flush=False, timeout=10.0) for t in tickets]
    assert {r.batch_size for r in responses} != {32}  # really partials
    _replay_reference(fitted, tickets)


def test_shared_pipeline_keys_never_overlap(fitted, cluster_data):
    """Two keys aliasing one encoder serialize on its pipeline.

    The flusher must not run one EncodePipeline concurrently with
    itself; the observable contract is that results are still
    instruction-identical per key under heavy cross-key load.
    """
    window = 4
    with EncodingService(max_batch=window, backend="thread", workers=4) as s:
        s.register("a", fitted)
        s.register("b", fitted)
        tickets = {"a": [], "b": []}

        def hammer(key):
            for x in cluster_data[:16]:
                tickets[key].append(s.submit(x, key=key))

        threads = [
            threading.Thread(target=hammer, args=(key,)) for key in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s.drain()
    for key in ("a", "b"):
        _replay_reference(fitted, tickets[key])


def test_aliased_key_past_deadline_does_not_spin_flusher(
    fitted, cluster_data
):
    """Regression: an overdue key blocked on an alias's in-flight flush
    must not clamp the flusher's sleep to zero (100%-CPU spin until the
    alias completes); its dispatch is driven by the completion event.
    """
    with EncodingService(
        max_batch=8, max_delay=0.01, backend="thread", workers=2
    ) as service:
        service.register("a", fitted)
        service.register("b", fitted)  # same encoder: shared pipeline
        tickets = []
        for _ in range(4):
            # Full window on "a" flushes immediately; "b" goes overdue
            # while "a" is in flight on the shared pipeline.
            tickets += [service.submit(x, key="a") for x in cluster_data[:8]]
            tickets.append(service.submit(cluster_data[8], key="b"))
        service.drain()
        wakeups = service.stats().flusher_wakeups
        assert all(t.done for t in tickets)
    # A zero-timeout spin racks up thousands of wakeups inside a single
    # 10ms flush; event-driven wakeups stay within a few per flush.
    assert wakeups < 100


# -- the deadline and the sleeping flusher ---------------------------------------------


def test_deadline_fires_with_zero_followup_traffic(fitted, cluster_data):
    """An idle queue is served within max_delay with no follow-up
    traffic, and an idle pool does not hold it until the deadline."""
    with EncodingService(
        max_batch=100, max_delay=1.0, backend="thread"
    ) as service:
        service.register("a", fitted)
        start = time.monotonic()
        ticket = service.submit(cluster_data[0], key="a")
        # No further submits, polls, or flushes: the flusher serves
        # the lone request on its own.
        response = ticket.result(flush=False, timeout=5.0)
        elapsed = time.monotonic() - start
    # An idle worker took it at once; a 1 s hold would fail this, while
    # even a cold first flush takes a small fraction of it.
    assert response.latency < 1.0
    assert elapsed < 2.0  # ...and did not wait for anything else
    assert response.batch_size == 1


def test_idle_flusher_sleeps(fitted):
    """No traffic, no deadline: the flusher blocks instead of polling."""
    with EncodingService(max_batch=8, backend="thread") as service:
        service.register("a", fitted)
        time.sleep(0.25)
        wakeups = service.stats().flusher_wakeups
    # A busy-waiting flusher would rack up thousands of cycles in 250ms.
    assert wakeups <= 3


def test_deadline_wait_is_event_driven_not_polling(fitted, cluster_data):
    """One request served via deadline costs O(1) flusher wakeups."""
    with EncodingService(
        max_batch=100, max_delay=0.1, backend="thread"
    ) as service:
        service.register("a", fitted)
        ticket = service.submit(cluster_data[0], key="a")
        ticket.result(flush=False, timeout=5.0)
        time.sleep(0.15)  # idle tail: no further wakeups should accrue
        wakeups = service.stats().flusher_wakeups
    # submit kick + deadline expiry + completion notification, plus a
    # little scheduler slack — nowhere near a 1ms-poll busy loop.
    assert wakeups <= 8


def test_injectable_clock_deadline_determinism(fitted_pair, cluster_data):
    """Fake-clock seam: with the only worker busy, a queued request is
    cut into its own batch exactly when the clock reaches max_delay,
    and a request submitted after the cut rides a separate flush."""
    low, high = fitted_pair
    clock = ManualClock()
    release = threading.Event()
    # The latency fault holds the only worker until the test releases it.
    injector = FaultInjector(
        [FaultRule("worker", kind="latency", times=1)],
        sleeper=lambda _seconds: release.wait(timeout=30.0),
    )
    with EncodingService(
        max_batch=100,
        max_delay=5.0,
        backend="thread",
        workers=1,
        clock=clock,
        fault_injector=injector,
    ) as service:
        service.register("busy", low)
        service.register("a", high)  # its own pipeline: only the pool blocks it
        held = service.submit(cluster_data[0], key="busy")
        assert _wait_until(lambda: injector.fired_count("worker") == 1)
        queued = service.submit(cluster_data[1], key="a")
        service.poll()  # t=0: not due, and no worker is free
        time.sleep(0.05)
        assert service.batcher.pending("a") == 1
        clock.advance(4.0)
        service.poll()  # t=4.0 < 5.0: still not due
        time.sleep(0.05)
        assert service.batcher.pending("a") == 1
        clock.advance(1.0)
        service.poll()  # t=5.0: due exactly at the deadline (>=)
        assert _wait_until(lambda: service.batcher.pending("a") == 0)
        later = service.submit(cluster_data[2], key="a")
        assert service.batcher.pending("a") == 1  # after the cut
        release.set()
        first = queued.result(flush=False, timeout=10.0)
        second = later.result(flush=False, timeout=10.0)
        held.result(flush=False, timeout=10.0)
    assert first.batch_size == 1 and second.batch_size == 1
    assert first.flush_id != second.flush_id
    assert first.latency == 5.0  # fake-clock latency is exact
    assert second.latency == 0.0


@pytest.mark.parametrize(
    "backend",
    [
        "thread",
        pytest.param(
            "process",
            marks=[pytest.mark.process_backend, pytest.mark.timeout(300)],
        ),
    ],
)
def test_idle_worker_serves_queued_request_at_once(
    fitted, cluster_data, backend
):
    """Work-conserving dispatch: the fake clock never moves, so the
    request never comes due; only the idle-worker trigger can serve
    it, with a latency of exactly zero."""
    clock = ManualClock()
    service = EncodingService(
        max_batch=100, max_delay=5.0, backend=backend, workers=1, clock=clock
    )
    service.register("a", fitted)
    with service:
        ticket = service.submit(cluster_data[0], key="a")
        assert _wait_until(lambda: ticket.done, seconds=30.0)
        response = ticket.result(flush=False)
    assert response.latency == 0.0
    assert response.batch_size == 1


def test_overdue_busy_key_neither_wakes_nor_dispatches(fitted, cluster_data):
    """An overdue key whose flush is already in flight is excluded at
    the source: ``due_keys`` never reports it, and the flusher's sleep
    carries no deadline for it — so a busy key cannot zero-timeout-spin
    the flusher.  The in-flight completion is the wakeup that serves
    the follow-up."""
    clock = ManualClock()
    injector = FaultInjector(
        [FaultRule("finetune", kind="latency", latency=0.4, times=1)]
    )
    with EncodingService(
        max_batch=100,
        max_delay=1.0,
        backend="thread",
        workers=1,
        clock=clock,
        fault_injector=injector,
    ) as service:
        service.register("a", fitted)
        first = service.submit(cluster_data[0], key="a")
        clock.advance(2.0)
        service.poll()  # due: dispatches; the worker enters a slow flush
        time.sleep(0.05)  # let the worker claim the task
        follow_up = service.submit(cluster_data[1], key="a")
        clock.advance(5.0)  # follow-up long overdue — but the key is busy
        service.poll()  # kick the flusher with the new clock
        before = service.stats().flusher_wakeups
        time.sleep(0.15)  # inside the in-flight flush's latency window
        spin = service.stats().flusher_wakeups - before
        assert spin <= 2  # no due hit, no armed deadline, no spin
        assert not follow_up.done  # busy key was not double-dispatched
        first.result(flush=False, timeout=10.0)
        follow_up.result(flush=False, timeout=10.0)


def test_result_timeout_raises_then_ticket_still_serves(fitted, cluster_data):
    with EncodingService(max_batch=32, backend="thread") as service:
        service.register("a", fitted)
        ticket = service.submit(cluster_data[0], key="a")
        with pytest.raises(ServiceError, match="not served within"):
            ticket.result(flush=False, timeout=0.05)
        assert not ticket.done  # timing out does not consume the ticket
        response = ticket.result(timeout=10.0)  # flush=True forces it
        assert response.request_id == ticket.request.request_id


def test_result_forces_flush_of_partial_queue(fitted, cluster_data):
    with EncodingService(max_batch=32, backend="thread") as service:
        service.register("a", fitted)
        tickets = [service.submit(x, key="a") for x in cluster_data[:3]]
        response = tickets[0].result(timeout=10.0)
        assert response.batch_size == 3  # whole queue rode the flush
        assert all(t.done for t in tickets)


# -- stop / drain ----------------------------------------------------------------------


def test_stop_drains_partial_queues(fitted_pair, cluster_data):
    low, high = fitted_pair
    service = EncodingService(max_batch=100, backend="thread", workers=2)
    service.register("low", low)
    service.register("high", high)
    service.start()
    tickets = [
        service.submit(cluster_data[i], key=key)
        for i, key in enumerate(["low", "high", "low", "high", "low"])
    ]
    service.stop()  # drain=True: nothing may be stranded
    assert all(t.done for t in tickets)
    stats = service.stats()
    assert stats.requests_completed == 5
    assert stats.requests_pending == 0


def test_stop_without_drain_rejects_pending(fitted, cluster_data):
    service = EncodingService(max_batch=100, backend="thread")
    service.register("a", fitted)
    service.start()
    tickets = [service.submit(x, key="a") for x in cluster_data[:4]]
    service.stop(drain=False)
    assert all(t.failed and not t.done for t in tickets)
    with pytest.raises(ServiceError, match="rejected"):
        tickets[0].result()
    stats = service.stats()
    assert stats.requests_failed == 4
    assert stats.requests_completed == 0
    assert stats.requests_pending == 0


def test_drain_under_concurrent_submissions(fitted, cluster_data):
    """drain() returns only once the service is truly quiescent."""
    with EncodingService(max_batch=4, backend="thread", workers=2) as service:
        service.register("a", fitted)
        tickets: list = []

        def submitter():
            for x in cluster_data[:12]:
                tickets.append(service.submit(x, key="a"))

        thread = threading.Thread(target=submitter)
        thread.start()
        thread.join()
        service.drain()
        assert service.pending == 0
        assert all(t.done for t in tickets)


@pytest.mark.timeout(30)
def test_drain_flushes_traffic_arriving_mid_drain(fitted, cluster_data):
    """Regression: drain() must serve submits that land *while* draining.

    A one-shot forced-key snapshot would strand a request submitted
    after the snapshot (no deadline, queue below max_batch) and
    deadlock the drain; an active drain waiter has to keep the flusher
    dispatching unconditionally until quiescent.
    """
    with EncodingService(max_batch=100, backend="thread") as service:
        service.register("a", fitted)
        tickets = [service.submit(cluster_data[0], key="a")]
        stop_feeding = threading.Event()

        def trickle():
            # Keep landing new partial-queue requests while the main
            # thread sits inside drain().
            for x in cluster_data[1:10]:
                if stop_feeding.is_set():
                    break
                tickets.append(service.submit(x, key="a"))
                time.sleep(0.01)

        feeder = threading.Thread(target=trickle)
        feeder.start()
        try:
            service.drain(timeout=20.0)  # deadlocks (then times out) if
        finally:  # mid-drain arrivals are not dispatched
            stop_feeding.set()
            feeder.join()
        service.drain()  # pick up any post-first-drain stragglers
        assert all(t.done for t in tickets)


# -- error isolation -------------------------------------------------------------------


def test_flush_error_fails_only_that_key(fitted_pair, cluster_data):
    """A poisoned key loses its own tickets; other keys keep serving."""
    low, high = fitted_pair
    with EncodingService(max_batch=100, backend="thread", workers=2) as s:
        s.register("low", low)
        s.register("high", high)
        good = [s.submit(x, key="high") for x in cluster_data[:3]]
        victim = s.submit(cluster_data[3], key="low")
        # Poison the low queue the way a hot-swapped bundle would: a
        # request whose width no longer matches the encoder.
        with s._lock:
            s.batcher.add(
                EncodeRequest(
                    request_id=999999,
                    key="low",
                    sample=np.ones(8),
                    submitted_at=s.clock(),
                )
            )
        s.drain()
        assert victim.failed
        with pytest.raises(ServiceError, match="failed during"):
            victim.result()
        for ticket in good:
            assert ticket.result(flush=False).key == "high"
        # The pool survived: the poisoned key serves again afterwards.
        retry = s.submit(cluster_data[4], key="low")
        assert retry.result(timeout=10.0).key == "low"
        stats = s.stats()
    assert stats.requests_failed == 2  # victim + the injected poison
    assert stats.requests_completed == 4
    assert stats.backend == "thread"


# -- racing stats ----------------------------------------------------------------------


def test_stats_consistent_under_concurrent_flushes(fitted_pair, cluster_data):
    """Atomic per-flush accounting: totals reconcile after a storm."""
    low, high = fitted_pair
    per_thread = 20
    keys = ["low", "high"]
    with EncodingService(max_batch=8, backend="thread", workers=4) as s:
        s.register("low", low)
        s.register("high", high)

        def submitter(key, offset):
            rng = np.random.default_rng(offset)
            for _ in range(per_thread):
                x = cluster_data[int(rng.integers(len(cluster_data)))]
                s.submit(x, key=key)

        threads = [
            threading.Thread(target=submitter, args=(key, i))
            for i, key in enumerate(keys * 2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        s.drain()
        stats = s.stats()
    total = per_thread * len(keys) * 2
    assert stats.requests_submitted == total
    assert stats.requests_completed == total
    assert stats.requests_failed == 0
    assert stats.requests_pending == 0
    # The percentile window saw every request exactly once.
    assert len(s._latency_window) == min(total, STATS_WINDOW)
    assert stats.p50_latency <= stats.p95_latency
    assert stats.mean_batch_size == pytest.approx(total / stats.num_flushes)
    assert sum(stats.per_key_completed.values()) == total
    # Row-level bind accounting survived the races.
    assert stats.template_binds == total
    assert stats.template_cache_hits + stats.template_cache_misses == (
        stats.num_flushes
    )


def test_per_key_ordering_and_flush_partition(fitted, cluster_data):
    """One flush in flight per key: completion order == submission order."""
    with EncodingService(max_batch=4, backend="thread", workers=4) as service:
        service.register("a", fitted)
        tickets = [service.submit(x, key="a") for x in cluster_data[:14]]
        service.drain()
        responses = [t.result(flush=False) for t in tickets]
    # flush_ids are non-decreasing along submission order, and each
    # flush is one contiguous slice of the request stream.
    flush_ids = [r.flush_id for r in responses]
    assert flush_ids == sorted(flush_ids)
    seen: dict = {}
    for r in responses:
        seen.setdefault(r.flush_id, []).append(r.request_id)
    for ids in seen.values():
        assert ids == list(range(ids[0], ids[0] + len(ids)))
    # Latencies never decrease across flushes of one key (FIFO service).
    completed = [r.completed_at for r in responses]
    assert completed == sorted(completed)


# -- micro-batcher edge semantics ------------------------------------------------------


def test_microbatcher_next_deadline_semantics():
    batcher = MicroBatcher(max_batch=8, max_delay=1.0)
    assert batcher.next_deadline() is None  # empty: nothing armed
    batcher.add(EncodeRequest(0, "a", np.ones(4), submitted_at=2.0))
    batcher.add(EncodeRequest(1, "b", np.ones(4), submitted_at=1.0))
    assert batcher.next_deadline() == 2.0  # b's head (1.0) + max_delay
    # A busy key must not arm a wakeup (its completion wakes the
    # flusher); the other key's deadline remains.
    assert batcher.next_deadline(exclude={"b"}) == 3.0
    assert batcher.next_deadline(exclude={"a", "b"}) is None
    no_delay = MicroBatcher(max_batch=8, max_delay=None)
    no_delay.add(EncodeRequest(2, "a", np.ones(4), submitted_at=0.0))
    assert no_delay.next_deadline() is None


def test_microbatcher_deadline_exactly_at_now_is_due():
    batcher = MicroBatcher(max_batch=8, max_delay=1.0)
    batcher.add(EncodeRequest(0, "k", np.ones(4), submitted_at=1.0))
    assert batcher.due_keys(1.999999) == []
    assert batcher.due_keys(2.0) == ["k"]  # >=, not >: no zero-sleep spin
    zero = MicroBatcher(max_batch=8, max_delay=0.0)
    zero.add(EncodeRequest(1, "k", np.ones(4), submitted_at=5.0))
    assert zero.due_keys(5.0) == ["k"]  # max_delay=0: due immediately


def test_microbatcher_oldest_age_clamped():
    batcher = MicroBatcher(max_batch=8, max_delay=None)
    assert batcher.oldest_age(10.0) == 0.0  # empty
    batcher.add(EncodeRequest(0, "k", np.ones(4), submitted_at=5.0))
    assert batcher.oldest_age(7.5) == 2.5
    # A head stamped after `now` (stale read racing a submit, or a
    # rewound fake clock) reports age 0, never negative.
    assert batcher.oldest_age(4.0) == 0.0


# -- pipeline per-run reporting --------------------------------------------------------


def test_pipeline_run_reported_isolates_per_flush_stats(fitted, cluster_data):
    pipeline = fitted.pipeline
    encoded, report = pipeline.run_reported(cluster_data[:5])
    assert len(encoded) == 5
    assert report.batch_size == 5
    assert report.template_binds == 5
    assert report.template_hit in (True, False)
    assert report.finetune_seconds >= 0.0
    # Empty batch: a report with nothing in it and no template fetch.
    out, empty = pipeline.run_reported(np.empty((0, 16)))
    assert out == [] and empty.batch_size == 0
    assert empty.template_binds == 0 and empty.template_hit is None

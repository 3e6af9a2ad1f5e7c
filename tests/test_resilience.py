"""Tests for the serving resilience layer.

Covers the PR-9 acceptance criteria on the deterministic side:
admission control (queue budgets, reject vs degrade-shed policies),
per-request deadlines through the batcher and flush path, flush retry
with backoff and a transient classifier, per-key circuit breakers,
the stop-without-drain ticket-rejection regression, the resilience
primitives themselves (FaultInjector / CircuitBreaker / RetryPolicy),
and the Prometheus metrics export.  The probabilistic chaos runs live
in test_chaos.py.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import EnQodeConfig, EnQodeEncoder, ServiceConfig
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadError,
    ServiceError,
)
from repro.service import (
    CircuitBreaker,
    EncodeRequest,
    EncodingService,
    FaultInjector,
    FaultRule,
    InjectedFault,
    MicroBatcher,
    RetryPolicy,
    ServiceStats,
    WorkerDeath,
    default_transient_classifier,
)

pytestmark = pytest.mark.timeout(120)


@pytest.fixture(scope="module")
def cluster_data():
    """Two tight clusters of unit vectors in R^16."""
    rng = np.random.default_rng(77)
    centers = rng.normal(size=(2, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = []
    for center in centers:
        block = center + 0.04 * rng.normal(size=(24, 16))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


@pytest.fixture(scope="module")
def fitted(segment4, cluster_data):
    config = EnQodeConfig(
        num_qubits=4,
        num_layers=5,
        offline_restarts=2,
        offline_max_iterations=300,
        online_max_iterations=50,
        max_clusters=4,
        seed=11,
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


def _conserved(stats) -> bool:
    return stats.requests_submitted == (
        stats.requests_completed
        + stats.requests_failed
        + stats.rejected
        + stats.requests_pending
    )


# -- config validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_pending_per_key": 0},
        {"max_pending_total": -1},
        {"overload_policy": "panic"},
        {"flush_timeout": 0.0},
        {"retry_attempts": -1},
        {"retry_backoff": -0.1},
        {"retry_jitter": 1.5},
        {"breaker_threshold": 0},
        {"breaker_reset_timeout": -1.0},
    ],
)
def test_resilience_config_validation(kwargs):
    with pytest.raises(ServiceError):
        ServiceConfig(**kwargs)


def test_resilience_knobs_reach_service_config():
    service = EncodingService(
        max_pending_per_key=3,
        max_pending_total=10,
        overload_policy="degrade",
        retry_attempts=2,
        breaker_threshold=5,
    )
    assert service.config.max_pending_per_key == 3
    assert service.config.max_pending_total == 10
    assert service.config.overload_policy == "degrade"
    assert service.config.retry_attempts == 2
    assert service.config.breaker_threshold == 5
    # A knob beside config= would be dropped silently; it is refused.
    with pytest.raises(ServiceError, match="not both"):
        EncodingService(config=ServiceConfig(), max_pending_per_key=3)


# -- admission control -----------------------------------------------------------------


def test_per_key_budget_rejects_with_typed_error(fitted, cluster_data):
    service = EncodingService(max_batch=100, max_pending_per_key=2)
    service.register("a", fitted)
    tickets = [service.submit(x, key="a") for x in cluster_data[:2]]
    with pytest.raises(OverloadError, match="queue budget"):
        service.submit(cluster_data[2], key="a")
    stats = service.stats()
    assert stats.rejected == 1
    assert stats.requests_submitted == 3
    assert stats.requests_pending == 2
    assert _conserved(stats)
    # The queued requests are unharmed: they flush and serve normally.
    service.flush()
    assert all(t.done and not t.response.degraded for t in tickets)


def test_global_budget_spans_keys(fitted, cluster_data):
    service = EncodingService(max_batch=100, max_pending_total=2)
    service.register("a", fitted)
    service.register("b", fitted)
    service.submit(cluster_data[0], key="a")
    service.submit(cluster_data[1], key="b")
    with pytest.raises(OverloadError):
        service.submit(cluster_data[2], key="a")
    assert service.stats().rejected == 1
    service.flush()
    assert _conserved(service.stats())


def test_rejected_submission_leaves_no_ticket_behind(fitted, cluster_data):
    service = EncodingService(max_batch=100, max_pending_per_key=1)
    service.register("a", fitted)
    service.submit(cluster_data[0], key="a")
    before = dict(service._tickets)
    with pytest.raises(OverloadError):
        service.submit(cluster_data[1], key="a")
    assert service._tickets == before  # nothing leaked


# -- graceful degradation --------------------------------------------------------------


def test_degrade_policy_sheds_inline(fitted, cluster_data):
    service = EncodingService(
        max_batch=100, max_pending_per_key=1, overload_policy="degrade"
    )
    service.register("a", fitted)
    queued = service.submit(cluster_data[0], key="a")
    shed = service.submit(cluster_data[1], key="a")
    # The shed ticket resolved inline, without touching the queue.
    assert shed.done
    assert shed.response.degraded
    assert shed.response.flush_id == -1
    assert shed.response.batch_size == 1
    assert service.pending == 1
    stats = service.stats()
    assert stats.shed_degraded == 1
    assert stats.requests_completed == 1
    assert stats.rejected == 0
    assert _conserved(stats)
    service.flush()
    assert queued.done and not queued.response.degraded


def test_degraded_response_is_finetune_skipped_centroid(
    fitted, cluster_data
):
    """The shed path == run_degraded_reported == the routed centroid."""
    service = EncodingService(
        max_batch=100, max_pending_per_key=1, overload_policy="degrade"
    )
    service.register("a", fitted)
    service.submit(cluster_data[0], key="a")
    sample = cluster_data[7]
    shed = service.submit(sample, key="a")
    response = shed.result()

    reference = fitted.pipeline.run_degraded_reported(
        sample[np.newaxis, :]
    )[0][0]
    assert np.array_equal(response.encoded.theta, reference.theta)
    assert response.encoded.ideal_fidelity == reference.ideal_fidelity
    assert list(response.circuit) == list(reference.circuit)
    # Finetune was skipped: theta is exactly the routed centroid and no
    # optimizer work happened.
    centroid = fitted._transfer.cluster_thetas[response.cluster_index]
    assert np.array_equal(response.encoded.theta, centroid)
    assert response.encoded.optimizer_iterations == 0
    assert response.encoded.optimizer_evaluations == 0


def test_degraded_fidelity_is_honest(fitted, cluster_data):
    """Shed responses report true (centroid) fidelity, not the polished one."""
    sample = cluster_data[3]
    service = EncodingService(
        max_batch=100, max_pending_per_key=1, overload_policy="degrade"
    )
    service.register("a", fitted)
    service.submit(cluster_data[0], key="a")
    degraded = service.submit(sample, key="a").result()
    polished = fitted.encode(sample)
    assert degraded.fidelity <= polished.ideal_fidelity + 1e-12


# -- per-request deadlines -------------------------------------------------------------


def test_submit_rejects_nonpositive_deadline(fitted, cluster_data):
    service = EncodingService(max_batch=4)
    service.register("a", fitted)
    with pytest.raises(ServiceError, match="deadline"):
        service.submit(cluster_data[0], key="a", deadline=0.0)
    assert service.stats().requests_submitted == 0


def test_expired_request_fails_without_pipeline_work(fitted, cluster_data):
    clock = ManualClock()
    service = EncodingService(max_batch=100, clock=clock)
    service.register("a", fitted)
    ticket = service.submit(cluster_data[0], key="a", deadline=1.0)
    clock.advance(2.0)
    # poll() treats the expiry as a flush trigger and drains the key;
    # the expired request is failed before the pipeline runs.
    responses = service.poll()
    assert responses == []
    assert ticket.failed
    with pytest.raises(DeadlineExceededError, match="deadline"):
        ticket.result()
    stats = service.stats()
    assert stats.deadline_expired == 1
    assert stats.requests_failed == 1
    assert stats.num_flushes == 0  # no pipeline work was spent
    assert _conserved(stats)


def test_expiry_spares_batchmates(fitted, cluster_data):
    """One expired request does not poison the rest of its micro-batch."""
    clock = ManualClock()
    service = EncodingService(max_batch=100, clock=clock)
    service.register("a", fitted)
    doomed = service.submit(cluster_data[0], key="a", deadline=1.0)
    healthy = service.submit(cluster_data[1], key="a")
    clock.advance(5.0)
    service.flush()
    assert doomed.failed
    assert healthy.done
    assert healthy.response.batch_size == 1  # expired rows dropped first
    stats = service.stats()
    assert stats.deadline_expired == 1
    assert stats.requests_completed == 1
    assert _conserved(stats)


def test_batcher_per_request_deadline_is_a_trigger():
    batcher = MicroBatcher(max_batch=10, max_delay=None)
    batcher.add(
        EncodeRequest(
            request_id=0, key="a", sample=np.ones(4), submitted_at=0.0,
            deadline=1.5,
        )
    )
    assert batcher.due_keys(1.0) == []
    assert batcher.due_keys(1.5) == ["a"]  # exact hit counts (>=)
    assert batcher.next_deadline() == 1.5


def test_batcher_next_deadline_min_of_queue_and_request():
    batcher = MicroBatcher(max_batch=10, max_delay=5.0)
    batcher.add(
        EncodeRequest(
            request_id=0, key="a", sample=np.ones(4), submitted_at=0.0,
            deadline=2.0,
        )
    )
    # Queue deadline would be 5.0; the request's own 2.0 wins.
    assert batcher.next_deadline() == 2.0
    assert batcher.next_deadline(exclude={"a"}) is None


def test_drain_culls_expired_request_beyond_the_batch_window():
    """Regression: an expired request at position max_batch + 1 must be
    culled at drain time, not stranded behind the batch window.

    Before the fix, ``drain`` took the first ``max_batch`` requests and
    left the rest queued — an already-expired straggler at position 5
    of a 4-wide window survived the drain, kept re-arming the deadline
    trigger, and its ticket was only failed whenever it eventually
    aged into a later window."""
    batcher = MicroBatcher(max_batch=4, max_delay=None)
    for i in range(4):
        batcher.add(
            EncodeRequest(i, "a", np.ones(4), submitted_at=0.0)
        )
    batcher.add(
        EncodeRequest(4, "a", np.ones(4), submitted_at=0.0, deadline=1.0)
    )
    drained = batcher.drain("a", now=2.0)
    # The window's four live requests plus the expired fifth, in order;
    # the flush's expiry sweep fails the expired one before pipeline
    # work is spent.
    assert [r.request_id for r in drained] == [0, 1, 2, 3, 4]
    assert batcher.pending() == 0


def test_drain_without_now_keeps_the_window_contract():
    """No clock, no cull: drain(key) is exactly the old window slice."""
    batcher = MicroBatcher(max_batch=2, max_delay=None)
    for i in range(3):
        batcher.add(
            EncodeRequest(i, "a", np.ones(4), submitted_at=0.0, deadline=0.5)
        )
    assert [r.request_id for r in batcher.drain("a")] == [0, 1]
    assert batcher.pending("a") == 1


def test_drain_cull_spares_live_stragglers():
    """The cull takes only *expired* stragglers; live ones stay queued
    in order for the next window."""
    batcher = MicroBatcher(max_batch=2, max_delay=None)
    batcher.add(EncodeRequest(0, "a", np.ones(4), submitted_at=0.0))
    batcher.add(EncodeRequest(1, "a", np.ones(4), submitted_at=0.0))
    batcher.add(
        EncodeRequest(2, "a", np.ones(4), submitted_at=0.0, deadline=1.0)
    )
    batcher.add(EncodeRequest(3, "a", np.ones(4), submitted_at=0.0))
    drained = batcher.drain("a", now=5.0)
    assert [r.request_id for r in drained] == [0, 1, 2]
    assert [r.request_id for r in batcher.drain("a")] == [3]


def test_due_keys_exclude_skips_busy_keys():
    """``due_keys(now, exclude=...)`` must not report an excluded key,
    however overdue — same contract as ``next_deadline(exclude=)``."""
    batcher = MicroBatcher(max_batch=10, max_delay=1.0)
    batcher.add(EncodeRequest(0, "a", np.ones(4), submitted_at=0.0))
    batcher.add(EncodeRequest(1, "b", np.ones(4), submitted_at=0.0))
    assert batcher.due_keys(5.0) == ["a", "b"]
    assert batcher.due_keys(5.0, exclude={"a"}) == ["b"]
    assert batcher.due_keys(5.0, exclude={"a", "b"}) == []


def test_result_timeout_routes_through_injected_clock(fitted, cluster_data):
    """Ticket ``result(timeout=)`` arithmetic runs on the service's
    injected clock, so timeout expiry is testable deterministically:
    nothing will ever serve this ticket (no deadline trigger, partial
    batch, flush=False), and the wait ends exactly when the fake clock
    jumps past the deadline — not after 5 real seconds."""
    clock = ManualClock()
    with EncodingService(
        max_batch=100, backend="thread", clock=clock
    ) as service:
        service.register("a", fitted)
        ticket = service.submit(cluster_data[0], key="a")
        # Jump the fake clock past the deadline from a side thread; the
        # waiting result() call observes it and gives up.
        timer = threading.Timer(0.05, clock.advance, args=(10.0,))
        timer.start()
        start = time.monotonic()
        try:
            with pytest.raises(ServiceError, match="not served within 5"):
                ticket.result(flush=False, timeout=5.0)
        finally:
            timer.cancel()
        # The expiry came from the fake clock, not a real 5s sleep.
        assert time.monotonic() - start < 2.0
        # Timing out does not consume the ticket: a forced flush still
        # serves it.
        assert not ticket.done
        response = ticket.result(timeout=30.0)
        assert response.request_id == ticket.request.request_id


# -- retries ---------------------------------------------------------------------------


def test_transient_flush_failure_retries_to_success(fitted, cluster_data):
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=2, transient=True)]
    )
    service = EncodingService(
        max_batch=100,
        retry_attempts=3,
        retry_backoff=0.0,
        fault_injector=injector,
    )
    service.register("a", fitted)
    tickets = [service.submit(x, key="a") for x in cluster_data[:3]]
    responses = service.flush()
    assert len(responses) == 3
    assert all(t.done for t in tickets)
    stats = service.stats()
    assert stats.retries == 2
    assert stats.requests_failed == 0
    assert injector.fired_count("flush") == 2
    # The retried flush is numerically untouched: same as encode_batch.
    reference = fitted.encode_batch(np.stack(cluster_data[:3]))
    for response, ref in zip(responses, reference):
        assert np.array_equal(response.encoded.theta, ref.theta)


def test_retry_budget_exhaustion_fails_the_flush(fitted, cluster_data):
    injector = FaultInjector(
        [FaultRule("flush", kind="error", transient=True)]  # forever
    )
    service = EncodingService(
        max_batch=100,
        retry_attempts=2,
        retry_backoff=0.0,
        fault_injector=injector,
    )
    service.register("a", fitted)
    ticket = service.submit(cluster_data[0], key="a")
    with pytest.raises(ServiceError, match="failed"):
        service.flush()
    assert ticket.failed
    stats = service.stats()
    assert stats.retries == 2  # the budget, fully spent
    assert stats.requests_failed == 1
    assert injector.fired_count("flush") == 3  # initial + 2 retries


def test_permanent_failure_is_not_retried(fitted, cluster_data):
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=1, transient=False)]
    )
    service = EncodingService(
        max_batch=100,
        retry_attempts=5,
        retry_backoff=0.0,
        fault_injector=injector,
    )
    service.register("a", fitted)
    ticket = service.submit(cluster_data[0], key="a")
    with pytest.raises(ServiceError):
        service.flush()
    assert ticket.failed
    assert service.stats().retries == 0


def test_fault_injector_does_not_outlive_its_service(fitted, cluster_data):
    """A service's injector rides with that service's runs only: once a
    faulty service has stopped, the same encoder serves ``encode()`` and
    a second, fault-free service."""
    injector = FaultInjector([FaultRule("finetune", kind="error")])
    with EncodingService(
        backend="thread", workers=1, max_batch=1, fault_injector=injector
    ) as faulty:
        faulty.register("a", fitted)
        ticket = faulty.submit(cluster_data[0], key="a")
        with pytest.raises(ServiceError, match="injected"):
            ticket.result(timeout=30.0)
    assert injector.fired_count("finetune") == 1
    encoded = fitted.encode(cluster_data[1])
    clean = EncodingService(max_batch=1)
    clean.register("a", fitted)
    ticket = clean.submit(cluster_data[1], key="a")
    assert ticket.done
    assert np.array_equal(ticket.response.encoded.theta, encoded.theta)
    assert injector.fired_count("finetune") == 1


def test_custom_transient_classifier(fitted, cluster_data):
    """A deployment-specific classifier can widen what gets retried."""
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=1, transient=False)]
    )
    service = EncodingService(
        max_batch=100,
        retry_attempts=2,
        retry_backoff=0.0,
        fault_injector=injector,
        transient_classifier=lambda exc: isinstance(exc, InjectedFault),
    )
    service.register("a", fitted)
    ticket = service.submit(cluster_data[0], key="a")
    service.flush()  # permanent fault, but the classifier retries it
    assert ticket.done
    assert service.stats().retries == 1


def test_retry_sleeps_through_injected_sleeper(fitted, cluster_data):
    sleeps: list = []
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=2, transient=True)]
    )
    service = EncodingService(
        max_batch=100,
        retry_attempts=3,
        retry_backoff=0.1,
        retry_jitter=0.0,
        fault_injector=injector,
        retry_sleeper=sleeps.append,
    )
    service.register("a", fitted)
    service.submit(cluster_data[0], key="a")
    service.flush()
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]  # 2**k


def test_expiry_checked_between_retries(fitted, cluster_data):
    """A request whose deadline passes mid-backoff is not re-run."""
    clock = ManualClock()
    injector = FaultInjector([FaultRule("flush", kind="error")])
    service = EncodingService(
        max_batch=100,
        retry_attempts=10,
        retry_backoff=0.01,  # positive so the injected sleeper runs
        clock=clock,
        fault_injector=injector,
        retry_sleeper=lambda _s: clock.advance(1.0),
    )
    service.register("a", fitted)
    ticket = service.submit(cluster_data[0], key="a", deadline=0.5)
    assert service.flush() == []
    assert ticket.failed
    with pytest.raises(DeadlineExceededError):
        ticket.result()
    stats = service.stats()
    assert stats.retries == 1  # one backoff, then the expiry cut it off
    assert stats.deadline_expired == 1


# -- circuit breaker -------------------------------------------------------------------


def test_breaker_opens_then_half_opens_then_closes(fitted, cluster_data):
    clock = ManualClock()
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=2, transient=False)]
    )
    service = EncodingService(
        max_batch=100,
        breaker_threshold=2,
        breaker_reset_timeout=10.0,
        clock=clock,
        fault_injector=injector,
    )
    service.register("a", fitted)

    for i in range(2):  # two consecutive flush failures open the breaker
        service.submit(cluster_data[i], key="a")
        with pytest.raises(ServiceError):
            service.flush()
    stats = service.stats()
    assert stats.breaker_opens == 1
    assert stats.requests_failed == 2

    # Open: submissions fail fast with the typed error and count as
    # rejected, conserving the ledger.
    with pytest.raises(CircuitOpenError, match="breaker"):
        service.submit(cluster_data[2], key="a")
    assert service.stats().rejected == 1

    # After the reset timeout a probe is admitted (half-open); the
    # fault rule is exhausted, so it succeeds and closes the breaker.
    clock.advance(10.0)
    probe = service.submit(cluster_data[3], key="a")
    service.flush()
    assert probe.done
    assert service._breakers["a"].state == "closed"
    service.submit(cluster_data[4], key="a")  # freely admitted again
    service.flush()
    assert _conserved(service.stats())


def test_breaker_reopens_on_failed_probe(fitted, cluster_data):
    clock = ManualClock()
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=3, transient=False)]
    )
    service = EncodingService(
        max_batch=100,
        breaker_threshold=2,
        breaker_reset_timeout=10.0,
        clock=clock,
        fault_injector=injector,
    )
    service.register("a", fitted)
    for i in range(2):
        service.submit(cluster_data[i], key="a")
        with pytest.raises(ServiceError):
            service.flush()
    clock.advance(10.0)
    service.submit(cluster_data[2], key="a")  # half-open probe
    with pytest.raises(ServiceError):
        service.flush()  # probe fails -> straight back to open
    assert service.stats().breaker_opens == 2
    with pytest.raises(CircuitOpenError):
        service.submit(cluster_data[3], key="a")


def test_breakers_are_per_key(fitted, cluster_data):
    injector = FaultInjector(
        [FaultRule("flush", kind="error", times=1, transient=False)]
    )
    service = EncodingService(
        max_batch=100, breaker_threshold=1, fault_injector=injector
    )
    service.register("a", fitted)
    service.register("b", fitted)
    service.submit(cluster_data[0], key="a")
    with pytest.raises(ServiceError):
        service.flush("a")
    with pytest.raises(CircuitOpenError):
        service.submit(cluster_data[1], key="a")
    # Key "b" is unaffected by "a"'s open breaker.
    ticket = service.submit(cluster_data[2], key="b")
    service.flush("b")
    assert ticket.done


# -- stop-without-drain regression -----------------------------------------------------


def test_sync_stop_without_drain_fails_pending_tickets(fitted, cluster_data):
    """Regression: queued sync-backend tickets must not hang forever."""
    service = EncodingService(max_batch=100)
    service.register("a", fitted)
    tickets = [service.submit(x, key="a") for x in cluster_data[:3]]
    service.stop(drain=False)
    assert all(t.failed and not t.done for t in tickets)
    with pytest.raises(ServiceError, match="rejected"):
        tickets[0].result()
    stats = service.stats()
    assert stats.requests_failed == 3
    assert stats.requests_pending == 0
    assert _conserved(stats)


def test_thread_result_on_stopped_backend_raises_not_hangs(
    fitted, cluster_data
):
    service = EncodingService(max_batch=100, backend="thread")
    service.register("a", fitted)
    service.start()
    ticket = service.submit(cluster_data[0], key="a")
    service.stop(drain=False)
    # The ticket was already failed by the stop; result() must raise
    # immediately (typed), never block on an event nobody will set.
    with pytest.raises(ServiceError, match="rejected"):
        ticket.result(timeout=5.0)
    assert not service._backend_impl.will_serve


def test_will_serve_lifecycle(fitted, cluster_data):
    service = EncodingService(max_batch=4, backend="thread")
    service.register("a", fitted)
    backend = service._backend_impl
    assert not backend.will_serve  # NEW
    service.start()
    assert backend.will_serve
    service.stop()
    assert not backend.will_serve  # STOPPED


# -- ledger conservation ---------------------------------------------------------------


def _stop_without_drain(backend):
    def scenario(service_for, data, monkeypatch):
        service = service_for(max_batch=100, backend=backend)
        service.start()
        tickets = [service.submit(x, key="a") for x in data[:3]]
        service.stop(drain=False)
        return service, tickets

    return scenario


def _deadline_expiry(service_for, data, monkeypatch):
    clock = ManualClock()
    service = service_for(max_batch=100, clock=clock)
    tickets = [
        service.submit(data[0], key="a", deadline=1.0),
        service.submit(data[1], key="a"),
    ]
    clock.advance(2.0)
    service.flush()
    return service, tickets


def _terminal_flush_failure(service_for, data, monkeypatch):
    service = service_for(
        max_batch=100,
        fault_injector=FaultInjector(
            [FaultRule("flush", kind="error", transient=False)]
        ),
    )
    tickets = [service.submit(x, key="a") for x in data[:2]]
    with pytest.raises(ServiceError, match="failed"):
        service.flush()
    return service, tickets


def _degraded_failure(service_for, data, monkeypatch):
    service = service_for(
        max_batch=100, max_pending_per_key=1, overload_policy="degrade"
    )

    def broken_bind(samples):
        raise RuntimeError("degraded bind failed")

    queued = service.submit(data[0], key="a")
    monkeypatch.setattr(
        service.registry.get("a").pipeline,
        "run_degraded_reported",
        broken_bind,
    )
    shed = service.submit(data[1], key="a")
    assert shed.failed
    service.flush()
    return service, [queued, shed]


def _abandoned_retrying_flush(deadlines):
    """A thread-backend flush that fails transiently forever, retrying
    every 20 ms, with one request per entry of ``deadlines``: its
    ``flush_timeout`` abandons it at 0.15 s, and its zombie gives up at
    about 0.5 s, before ``stop`` returns."""

    def scenario(service_for, data, monkeypatch):
        with service_for(
            backend="thread",
            workers=1,
            max_batch=len(deadlines),
            flush_timeout=0.15,
            retry_attempts=25,
            retry_backoff=0.01,
            retry_sleeper=lambda _delay: time.sleep(0.02),
            fault_injector=FaultInjector([FaultRule("flush", kind="error")]),
        ) as service:
            tickets = [
                service.submit(x, key="a", deadline=deadline)
                for x, deadline in zip(data, deadlines)
            ]
            assert all(ticket.wait(5.0) for ticket in tickets)
        return service, tickets

    return scenario


@pytest.mark.parametrize(
    "scenario, failed",
    [
        pytest.param(_stop_without_drain("sync"), 3, id="sync-stop"),
        pytest.param(_stop_without_drain("thread"), 3, id="thread-stop"),
        pytest.param(_deadline_expiry, 1, id="deadline-expiry"),
        pytest.param(_terminal_flush_failure, 2, id="terminal-flush"),
        pytest.param(_degraded_failure, 1, id="degraded-failure"),
        # The first request expires between retries, before the
        # abandonment fails its batch-mate: counted once, not again.
        pytest.param(
            _abandoned_retrying_flush([0.05, None]),
            2,
            id="expired-then-abandoned",
        ),
        # The abandonment fails the request first; its deadline then
        # passes while the zombie flush is still retrying.
        pytest.param(
            _abandoned_retrying_flush([0.3]), 1, id="abandoned-then-expired"
        ),
    ],
)
def test_every_resolution_path_counts_each_request_once(
    fitted, cluster_data, monkeypatch, scenario, failed
):
    def service_for(**knobs):
        service = EncodingService(**knobs)
        service.register("a", fitted)
        return service

    service, tickets = scenario(service_for, cluster_data, monkeypatch)
    stats = service.stats()
    assert all(ticket.done != ticket.failed for ticket in tickets)
    assert stats.requests_submitted == len(tickets)
    assert stats.requests_failed == failed
    assert stats.requests_completed == len(tickets) - failed
    assert stats.requests_pending == 0
    assert _conserved(stats)


# -- resilience primitives -------------------------------------------------------------


def test_fault_rule_validation():
    with pytest.raises(ServiceError):
        FaultRule("flush", kind="explode")
    with pytest.raises(ServiceError):
        FaultRule("flush", kind="death")  # death only at "worker"
    with pytest.raises(ServiceError):
        FaultRule("flush", probability=1.5)
    with pytest.raises(ServiceError):
        FaultRule("flush", times=-1)
    with pytest.raises(ServiceError):
        FaultRule("flush", latency=-0.1)


def test_injector_times_and_after_schedule():
    injector = FaultInjector(
        [FaultRule("flush", kind="error", after=2, times=2)]
    )
    injector.fire("flush")  # skipped (after)
    injector.fire("flush")  # skipped (after)
    for _ in range(2):
        with pytest.raises(InjectedFault):
            injector.fire("flush")
    injector.fire("flush")  # budget spent: silent again
    assert injector.fired_count() == 2
    assert injector.log == [("flush", "error"), ("flush", "error")]


def test_injector_latency_uses_sleeper_then_error_raises():
    slept: list = []
    injector = FaultInjector(
        [
            FaultRule("finetune", kind="latency", latency=0.25),
            FaultRule("finetune", kind="error", times=1),
        ],
        sleeper=slept.append,
    )
    with pytest.raises(InjectedFault):
        injector.fire("finetune")
    assert slept == [0.25]  # the slow AND failing stage composes


def test_injector_seeded_probability_is_replayable():
    def run(seed):
        injector = FaultInjector(
            [FaultRule("bind", kind="error", probability=0.5)], seed=seed
        )
        outcomes = []
        for _ in range(50):
            try:
                injector.fire("bind")
                outcomes.append(0)
            except InjectedFault:
                outcomes.append(1)
        return outcomes

    assert run(42) == run(42)
    assert run(42) != run(43)  # and the seed actually matters
    assert 0 < sum(run(42)) < 50


def test_worker_death_is_not_a_repro_error():
    from repro.errors import ReproError

    assert not issubclass(WorkerDeath, ReproError)
    with pytest.raises(WorkerDeath):
        FaultInjector(
            [FaultRule("worker", kind="death", times=1)]
        ).fire("worker")


def test_default_transient_classifier():
    assert default_transient_classifier(InjectedFault("flush"))
    assert not default_transient_classifier(
        InjectedFault("flush", transient=False)
    )
    assert not default_transient_classifier(ValueError("width mismatch"))


def test_circuit_breaker_state_machine():
    breaker = CircuitBreaker(threshold=3, reset_timeout=5.0)
    assert breaker.allow(0.0)
    assert not breaker.record_failure(0.0)
    assert not breaker.record_failure(0.0)
    assert breaker.record_failure(1.0)  # third strike opens
    assert breaker.state == "open"
    assert not breaker.allow(3.0)
    assert breaker.allow(6.0)  # reset_timeout elapsed -> half-open probe
    assert breaker.state == "half-open"
    assert breaker.record_failure(6.5)  # failed probe reopens immediately
    assert breaker.opens == 2
    assert breaker.allow(11.5)
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.failures == 0


def test_retry_policy_delay_bounds():
    policy = RetryPolicy(backoff=0.1, jitter=0.5, seed=0)
    for attempt in range(4):
        base = 0.1 * 2**attempt
        for _ in range(20):
            delay = policy.delay(attempt)
            assert base * 0.5 <= delay <= base
    assert RetryPolicy(backoff=0.0).delay(3) == 0.0
    zero_jitter = RetryPolicy(backoff=0.1, jitter=0.0)
    assert zero_jitter.delay(2) == pytest.approx(0.4)


# -- metrics export --------------------------------------------------------------------


def test_to_metrics_exports_served_traffic(fitted, cluster_data):
    service = EncodingService(max_batch=4)
    service.register("digits", fitted)
    for x in cluster_data[:4]:
        service.submit(x, key="digits")
    text = service.stats().to_metrics()
    assert "# TYPE enqode_requests_submitted_total counter" in text
    assert "enqode_requests_submitted_total 4" in text
    assert "enqode_requests_completed_total 4" in text
    assert "enqode_flushes_total 1" in text
    assert 'enqode_request_latency_seconds{quantile="0.5"}' in text
    assert 'enqode_requests_completed_by_key{key="digits"} 4' in text
    assert 'enqode_backend_info{backend="sync"} 1' in text
    assert text.endswith("\n")


def test_to_metrics_skips_nan_gauges_and_escapes_labels():
    stats = ServiceStats(per_key_completed={'we"ird\nkey\\x': 2})
    text = stats.to_metrics(prefix="svc")
    assert "mean_fidelity" not in text  # NaN gauge omitted
    assert 'svc_requests_completed_by_key{key="we\\"ird\\nkey\\\\x"} 2' in text


#: A fully populated snapshot in exposition format.  Scrapers, dashboards
#: and alerts key on these exact names and help lines, so the text is
#: pinned byte for byte.
GOLDEN_METRICS = r"""# HELP enqode_requests_submitted_total Submissions accepted or refused by submit().
# TYPE enqode_requests_submitted_total counter
enqode_requests_submitted_total 42
# HELP enqode_requests_completed_total Requests served (degraded responses included).
# TYPE enqode_requests_completed_total counter
enqode_requests_completed_total 30
# HELP enqode_requests_failed_total Requests whose ticket resolved with an error.
# TYPE enqode_requests_failed_total counter
enqode_requests_failed_total 5
# HELP enqode_requests_rejected_total Submissions refused fast: queue budget or open breaker.
# TYPE enqode_requests_rejected_total counter
enqode_requests_rejected_total 5
# HELP enqode_requests_shed_degraded_total Over-budget submissions served by the finetune-skipped path.
# TYPE enqode_requests_shed_degraded_total counter
enqode_requests_shed_degraded_total 3
# HELP enqode_requests_deadline_expired_total Requests failed because their deadline passed.
# TYPE enqode_requests_deadline_expired_total counter
enqode_requests_deadline_expired_total 2
# HELP enqode_flush_retries_total Flush retry attempts after transient failures.
# TYPE enqode_flush_retries_total counter
enqode_flush_retries_total 4
# HELP enqode_breaker_opens_total Circuit-breaker open transitions across all keys.
# TYPE enqode_breaker_opens_total counter
enqode_breaker_opens_total 1
# HELP enqode_flushes_total Micro-batch flushes executed.
# TYPE enqode_flushes_total counter
enqode_flushes_total 9
# HELP enqode_template_binds_total Rows lowered through a cached transpile template.
# TYPE enqode_template_binds_total counter
enqode_template_binds_total 27
# HELP enqode_template_cache_hits_total Template-cache hits incurred by this service's flushes.
# TYPE enqode_template_cache_hits_total counter
enqode_template_cache_hits_total 8
# HELP enqode_template_cache_misses_total Template-cache misses incurred by this service's flushes.
# TYPE enqode_template_cache_misses_total counter
enqode_template_cache_misses_total 1
# HELP enqode_predictions_total Samples classified through predict().
# TYPE enqode_predictions_total counter
enqode_predictions_total 6
# HELP enqode_flusher_wakeups_total Background-flusher wakeups (0 under the sync backend).
# TYPE enqode_flusher_wakeups_total counter
enqode_flusher_wakeups_total 11
# HELP enqode_worker_respawns_total Replacement worker threads started after worker deaths.
# TYPE enqode_worker_respawns_total counter
enqode_worker_respawns_total 2
# HELP enqode_process_respawns_total Worker processes respawned after deaths (process backend).
# TYPE enqode_process_respawns_total counter
enqode_process_respawns_total 1
# HELP enqode_process_respawn_failures_total Worker-process respawns that failed to come up.
# TYPE enqode_process_respawn_failures_total counter
enqode_process_respawn_failures_total 1
# HELP enqode_requests_pending Requests queued in the micro-batcher right now.
# TYPE enqode_requests_pending gauge
enqode_requests_pending 2
# HELP enqode_mean_batch_size Mean requests per flush.
# TYPE enqode_mean_batch_size gauge
enqode_mean_batch_size 3.0
# HELP enqode_mean_fidelity Mean ideal fidelity of served embeddings.
# TYPE enqode_mean_fidelity gauge
enqode_mean_fidelity 0.9875
# HELP enqode_evals_per_sample Mean optimizer objective evaluations per served sample.
# TYPE enqode_evals_per_sample gauge
enqode_evals_per_sample 14.5
# HELP enqode_request_latency_seconds End-to-end request latency over the recent window.
# TYPE enqode_request_latency_seconds summary
enqode_request_latency_seconds{quantile="0.5"} 0.0125
enqode_request_latency_seconds{quantile="0.95"} 0.0375
# HELP enqode_requests_completed_by_key Requests served, by registry key.
# TYPE enqode_requests_completed_by_key counter
enqode_requests_completed_by_key{key="a"} 15
enqode_requests_completed_by_key{key="b"} 12
enqode_requests_completed_by_key{key="we\"ird\nkey\\x"} 3
# HELP enqode_backend_info Execution backend of this snapshot (label carries the name).
# TYPE enqode_backend_info gauge
enqode_backend_info{backend="thread"} 1
"""

GOLDEN_SUMMARY = (
    "30/42 served in 9 flushes (mean batch 3.0), "
    "latency p50 12.50ms p95 37.50ms, "
    "14.5 evals/sample, "
    "mean fidelity 0.9875, "
    "template cache 8 hits / 1 misses, "
    "27 template binds, "
    "5 rejected, "
    "3 shed degraded, "
    "4 retries, "
    "1 breaker opens, "
    "2 deadline expired"
)


def test_metrics_and_summary_match_golden_text():
    stats = ServiceStats(
        requests_submitted=42,
        requests_completed=30,
        requests_failed=5,
        requests_pending=2,
        rejected=5,
        shed_degraded=3,
        retries=4,
        breaker_opens=1,
        deadline_expired=2,
        num_flushes=9,
        mean_batch_size=3.0,
        p50_latency=0.0125,
        p95_latency=0.0375,
        mean_latency=0.015,
        evals_per_sample=14.5,
        mean_fidelity=0.9875,
        template_cache_hits=8,
        template_cache_misses=1,
        template_binds=27,
        per_key_completed={"b": 12, 'we"ird\nkey\\x': 3, "a": 15},
        predictions_completed=6,
        backend="thread",
        flusher_wakeups=11,
        worker_respawns=2,
        process_respawns=1,
        process_respawn_failures=1,
    )
    assert stats.to_metrics() == GOLDEN_METRICS
    assert stats.summary() == GOLDEN_SUMMARY


def test_resilience_counters_reach_metrics_and_summary(fitted, cluster_data):
    service = EncodingService(
        max_batch=100, max_pending_per_key=1, overload_policy="degrade"
    )
    service.register("a", fitted)
    service.submit(cluster_data[0], key="a")
    service.submit(cluster_data[1], key="a")  # shed
    service.flush()
    stats = service.stats()
    assert "1 shed degraded" in stats.summary()
    assert "enqode_requests_shed_degraded_total 1" in stats.to_metrics()
    # Counters that are zero stay out of the human line but are still
    # exported for scrapers (rate() needs the zero samples).
    assert "rejected" not in stats.summary()
    assert "enqode_requests_rejected_total 0" in stats.to_metrics()


def test_unregister_pulls_key_out_of_routing(fitted, cluster_data):
    service = EncodingService(max_batch=4)
    service.register("a", fitted)
    service.registry.unregister("a")
    with pytest.raises(ServiceError, match="no encoder registered"):
        service.submit(cluster_data[0], key="a")
    with pytest.raises(ServiceError):
        service.registry.unregister("a")  # unknown key is loud

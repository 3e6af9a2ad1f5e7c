"""The online encoding service: registry + micro-batcher + accounting.

:class:`EncodingService` is the deployment surface Sec. III-C/III-D
describe — train once, store, then serve a live stream of samples at
millisecond compile latency (Fig. 9a).  It composes the pieces this
package provides:

* an :class:`~repro.service.registry.EncoderRegistry` of fitted
  encoders keyed by class/model id (loaded from versioned bundles or
  registered in-process);
* a :class:`~repro.service.batcher.MicroBatcher` that accumulates
  ``submit()``-ed samples per key and flushes on ``max_batch`` or a
  latency deadline, so streaming traffic executes the *batched* stage
  pipeline (batched fine-tune + cached-template re-bind) instead of the
  one-off path;
* typed :class:`~repro.service.records.EncodeRequest` /
  :class:`~repro.service.records.EncodeResponse` records with
  per-request timing and fidelity, counted once each into one
  :class:`~repro.service.records.ServiceStats` ledger (p50/p95 latency,
  evals/sample, template-cache hits);
* a pluggable execution backend
  (:class:`~repro.core.config.ServiceConfig`): ``"sync"`` flushes
  inline from ``submit``/``poll`` calls, ``"thread"`` runs the
  :class:`~repro.service.async_service.ThreadBackend` — a background
  flusher that hands a queued key to an idle worker at once and
  honors ``max_delay`` without requiring traffic, plus a worker pool
  flushing different keys concurrently — and ``"process"``
  runs the same control plane over the
  :class:`~repro.service.process_backend.ProcessBackend` fleet of
  worker processes.

Every flush runs :meth:`repro.core.encoder.EnQodeEncoder.pipeline`'s
``run_reported`` on the accumulated batch — the *same* stage objects
``encode_batch`` executes — so a submit-then-flush of B samples is
numerically identical to one ``encode_batch`` call on those B samples.
The thread and process backends preserve this: at most one flush per
key (and per underlying pipeline) is in flight, so each key's
micro-batches are contiguous FIFO slices of its traffic, completed in
submission order.

Example
-------
>>> service = EncodingService(max_batch=32)
>>> service.register("digits-0", fitted_encoder)
>>> tickets = [service.submit(x) for x in stream]   # auto-flushes per 32
>>> service.flush()                                  # drain the remainder
>>> fidelities = [t.result().fidelity for t in tickets]
>>> print(service.stats().summary())

Threaded (deadlines fire on idle queues; submit from any thread):

>>> with EncodingService(max_batch=32, max_delay=0.05,
...                      backend="thread", workers=4) as service:
...     service.register("digits-0", fitted_encoder)
...     tickets = [service.submit(x) for x in stream]
...     results = [t.result(timeout=5.0) for t in tickets]
"""

from __future__ import annotations

import itertools
import pathlib
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import ServiceConfig
from repro.core.encoder import EnQodeEncoder
from repro.data.preprocess import validate_samples
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadError,
    ServiceError,
)
from repro.hardware.backend import Backend
from repro.service.async_service import ThreadBackend
from repro.service.batcher import MicroBatcher
from repro.service.records import EncodeRequest, EncodeResponse, ServiceStats
from repro.service.registry import EncoderRegistry
from repro.service.resilience import (
    CircuitBreaker,
    RetryPolicy,
    WorkerDeath,
    default_transient_classifier,
)

#: Latency percentiles are computed over this many most-recent requests,
#: so a long-lived service keeps O(1) memory per request stream (means
#: and counts are exact running aggregates over *all* traffic).
STATS_WINDOW = 4096


@dataclass
class EncodeTicket:
    """Handle returned by :meth:`EncodingService.submit`.

    The response appears when the request's micro-batch flushes;
    :meth:`result` forces a flush of the owning queue if the caller
    cannot wait for a trigger, and under the thread backend blocks
    (optionally with ``timeout``) until a worker serves it.  A request
    whose flush errored carries the failure in ``error`` and re-raises
    it from :meth:`result`.  Completion is signalled through an event,
    so any number of threads may wait on one ticket.
    """

    request: EncodeRequest
    response: "EncodeResponse | None" = None
    error: "Exception | None" = None
    _service: "EncodingService | None" = field(
        default=None, repr=False, compare=False
    )
    _event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the ticket resolves (served or failed)."""
        return self._event.wait(timeout)

    def _complete(self, response: EncodeResponse) -> None:
        self.response = response
        self._event.set()

    def _fail(self, error: Exception) -> None:
        self.error = error
        self._event.set()

    def result(
        self, flush: bool = True, timeout: "float | None" = None
    ) -> EncodeResponse:
        """The response, flushing this request's queue first if needed.

        Sync backend: ``flush`` triggers an inline flush of the owning
        queue (the historical behaviour); ``timeout`` is ignored — the
        flush happens on this thread.  Thread backend: ``flush`` asks
        the background flusher to serve the queue eagerly, then blocks
        up to ``timeout`` seconds (forever if ``None``) for a worker to
        resolve the ticket; a timeout raises :class:`ServiceError`
        without consuming the ticket — the request stays in flight and a
        later ``result`` call can still collect it.
        """
        if self.response is None and self.error is None:
            if self._service is not None:
                self._service._serve_ticket(self, flush=flush, timeout=timeout)
        if self.error is not None:
            # Typed serving errors (deadline expiry, overload, stop
            # rejection) re-raise as themselves so callers can catch
            # them specifically; everything else wraps.
            if isinstance(self.error, ServiceError):
                raise self.error
            raise ServiceError(
                f"request {self.request.request_id} failed during its "
                f"micro-batch flush: {self.error}"
            ) from self.error
        if self.response is None:
            raise ServiceError(
                f"request {self.request.request_id} is still queued "
                "(called with flush=False, or the ticket is detached "
                "from its service); flush the service to serve it"
            )
        return self.response


class EncodingService:
    """Micro-batched, multi-encoder online serving front end.

    Parameters
    ----------
    registry:
        Encoder collection to serve from (a fresh empty registry by
        default; populate via :meth:`register` / :meth:`load`).
    config:
        A :class:`~repro.core.config.ServiceConfig` holding every
        serving knob (backend, batching, admission, retries, breakers,
        fleet).  Alternatively pass the knobs as keyword arguments
        (``EncodingService(max_batch=8, backend="thread")``), which
        build the config; giving both raises :class:`ServiceError`.
        The thread and process backends need :meth:`start` before
        submissions (or use the service as a context manager) and
        :meth:`stop` when done.
    clock:
        Monotonic time source; injectable for deterministic tests.
        Condition-variable waits always use real time — with a fake
        clock, advance it and call :meth:`poll` to wake the flusher.
    fault_injector, transient_classifier, retry_sleeper:
        Resilience hooks: the chaos harness fired at the flush and stage
        sites, the predicate deciding which flush failures retry, and
        the backoff sleep (see :mod:`repro.service.resilience`).
    """

    def __init__(
        self,
        registry: "EncoderRegistry | None" = None,
        *,
        config: "ServiceConfig | None" = None,
        clock=time.monotonic,
        fault_injector=None,
        transient_classifier=None,
        retry_sleeper=time.sleep,
        **knobs,
    ) -> None:
        if config is None:
            config = ServiceConfig(**knobs)
        elif knobs:
            raise ServiceError(
                f"pass serving knobs either through config= or as keyword "
                f"arguments, not both (got config= and "
                f"{', '.join(sorted(knobs))})"
            )
        self.config = config
        self.registry = registry if registry is not None else EncoderRegistry()
        self.batcher = MicroBatcher(
            max_batch=config.max_batch, max_delay=config.max_delay
        )
        self.clock = clock
        #: One lock guards the batcher, the ticket table, and the
        #: ledger; the thread backend's condition variables share it.
        #: Reentrant so sync-backend flush paths may nest safely.
        self._lock = threading.RLock()
        self._ids = itertools.count()
        self._flush_ids = itertools.count()
        self._tickets: "dict[int, EncodeTicket]" = {}
        # The running ledger: every exported count, exact over all
        # traffic.  Beside it sit only the sums behind the means and the
        # latency percentile window, bounded so unbounded traffic cannot
        # grow service memory.  Every flush applies its whole
        # contribution under the lock in one step.
        self._ledger = ServiceStats(backend=config.backend)
        self._latency_window: "deque[float]" = deque(maxlen=STATS_WINDOW)
        self._latency_sum = 0.0
        self._batch_size_sum = 0
        self._evaluation_sum = 0
        self._fidelity_sum = 0.0
        # Resilience machinery (see repro.service.resilience).  The
        # injector fires the "flush" site inside _execute_flush and
        # rides with each of this service's pipeline runs so stage sites
        # fire too (never stored on the shared pipeline); the retry
        # policy and transient classifier drive the flush retry loop;
        # breakers are lazily created per key under the service lock.
        self.fault_injector = fault_injector
        self.transient_classifier = (
            transient_classifier
            if transient_classifier is not None
            else default_transient_classifier
        )
        self._retry_policy = RetryPolicy(
            backoff=config.retry_backoff,
            jitter=config.retry_jitter,
            seed=config.retry_seed,
            sleeper=retry_sleeper,
        )
        self._breakers: "dict[object, CircuitBreaker]" = {}
        if config.backend == "thread":
            self._backend_impl = ThreadBackend(self, config.workers)
        elif config.backend == "process":
            # Imported lazily: the process backend pulls in the wire
            # codec and multiprocessing, which sync/thread services
            # never need.
            from repro.service.process_backend import ProcessBackend

            self._backend_impl = ProcessBackend(self, config.workers)
        else:
            self._backend_impl = None

    # -- registry passthroughs -----------------------------------------------------

    def register(self, key, encoder: EnQodeEncoder) -> EnQodeEncoder:
        """Register a fitted encoder under ``key``."""
        encoder = self.registry.register(key, encoder)
        if self._backend_impl is not None:
            self._backend_impl.on_register(key, encoder)
        return encoder

    def load(
        self, key, path: "str | pathlib.Path", backend: Backend
    ) -> EnQodeEncoder:
        """Load a versioned model bundle into the ``key`` slot."""
        encoder = self.registry.load(key, path, backend)
        if self._backend_impl is not None:
            self._backend_impl.on_register(key, encoder)
        return encoder

    def keys(self) -> list:
        return self.registry.keys()

    def register_model(self, key, model):
        """Register a trained embed+classify bundle under ``key`` (its
        encoder also takes the ``key`` encoder slot — see
        :meth:`repro.service.registry.EncoderRegistry.register_model`)."""
        return self.registry.register_model(key, model)

    def load_model(self, key, path: "str | pathlib.Path", backend: Backend):
        """Load a stored classifier bundle into the ``key`` model slot."""
        return self.registry.load_model(key, path, backend)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def backend(self) -> str:
        return self.config.backend

    @property
    def running(self) -> bool:
        """True when submissions are accepted (sync is always ready)."""
        if self._backend_impl is None:
            return True
        return self._backend_impl.running

    def shard_map(self) -> dict:
        """``key -> worker index`` routing of the process fleet.

        Process backend only: answers which worker process currently
        serves each registered key under the configured
        ``shard_strategy`` (over the *alive* fleet, so it reflects any
        in-progress death/respawn).  Other backends have no shards and
        raise :class:`ServiceError`.
        """
        backend_impl = self._backend_impl
        if backend_impl is None or not hasattr(backend_impl, "shard_map"):
            raise ServiceError(
                f"shard_map() requires backend='process', "
                f"this service runs backend={self.config.backend!r}"
            )
        return backend_impl.shard_map()

    def start(self) -> "EncodingService":
        """Start the thread backend's flusher + workers (sync: no-op)."""
        if self._backend_impl is not None:
            self._backend_impl.start()
        return self

    def stop(self, drain: bool = True, timeout: "float | None" = None) -> None:
        """Shut down.  Thread backend: drain (or reject) pending work and
        join the flusher + workers — see
        :meth:`~repro.service.async_service.ThreadBackend.stop`.  Sync
        backend: a draining stop flushes every queue inline; with
        ``drain=False`` every queued ticket is *rejected* (fails with
        :class:`ServiceError`) so no caller is ever left blocking on a
        ticket nobody will serve.
        """
        if self._backend_impl is not None:
            self._backend_impl.stop(drain=drain, timeout=timeout)
        elif drain:
            self.flush()
        else:
            with self._lock:
                self._reject_all_pending()

    def _reject_all_pending(self) -> None:
        """Fail every queued-but-unserved ticket (caller holds the lock).

        Both backends' non-draining stop paths funnel here: leaving a
        queued ticket unresolved would hang its ``result()`` forever
        (the event would never be set).
        """
        for key in list(self.batcher.pending_keys()):
            while self.batcher.pending(key):
                self._fail(
                    self.batcher.drain(key),
                    lambda request: ServiceError(
                        f"request {request.request_id} rejected: service "
                        "stopped without draining"
                    ),
                )

    def _fail(self, requests, error_for, expired: bool = False) -> None:
        """Resolve ``requests`` as failed (caller holds the lock).

        ``error_for(request)`` builds the exception the ticket carries.
        A request already resolved (served, expired between retries, or
        its flush abandoned) is skipped, so each request counts once;
        ``expired`` failures also count in ``deadline_expired``.
        """
        for request in requests:
            if request.resolved:
                continue
            request.resolved = True
            self._ledger.requests_failed += 1
            if expired:
                self._ledger.deadline_expired += 1
            ticket = self._tickets.pop(request.request_id, None)
            if ticket is not None:
                ticket._fail(error_for(request))

    def _complete(self, requests, responses) -> None:
        """Resolve ``requests`` with their served ``responses`` (caller
        holds the lock): count each and feed the means and the latency
        window.  Marking them resolved keeps a flush-timeout sweep that
        races the completion from failing them again."""
        ledger = self._ledger
        for request, response in zip(requests, responses):
            request.resolved = True
            ledger.requests_completed += 1
            ledger.per_key_completed[response.key] = (
                ledger.per_key_completed.get(response.key, 0) + 1
            )
            self._latency_window.append(response.latency)
            self._latency_sum += response.latency
            self._evaluation_sum += response.encoded.optimizer_evaluations
            self._fidelity_sum += response.encoded.ideal_fidelity
            ticket = self._tickets.pop(request.request_id, None)
            if ticket is not None:
                ticket._complete(response)

    def drain(self, timeout: "float | None" = None) -> None:
        """Serve everything pending and block until quiescent."""
        if self._backend_impl is not None:
            self._backend_impl.drain(timeout=timeout)
        else:
            self.flush()

    def __enter__(self) -> "EncodingService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ----------------------------------------------------------------

    def submit(
        self, sample: np.ndarray, key=None, deadline: "float | None" = None
    ) -> EncodeTicket:
        """Queue one sample; returns a ticket that fills on flush.

        Without ``key`` the sample goes to the encoder
        :meth:`EncoderRegistry.route` picks: the one with the nearest
        cluster center, found in one pass over the registry's stacked
        center table.  Validation happens here — a malformed sample
        fails its own ``submit`` call instead of poisoning a whole
        micro-batch later.

        ``deadline`` is a per-request latency budget in seconds
        (relative to now): a request still unserved when it expires is
        failed with :class:`~repro.errors.DeadlineExceededError` before
        any pipeline work is spent on it — the batcher treats the
        expiry like a flush trigger, and the flush path drops expired
        requests from the batch (including between retry attempts).

        Admission control runs before enqueueing: an open circuit
        breaker for ``key`` raises
        :class:`~repro.errors.CircuitOpenError`; a queue-budget
        violation (``max_pending_per_key`` / ``max_pending_total``)
        either raises :class:`~repro.errors.OverloadError`
        (``overload_policy="reject"``) or serves the sample inline
        through the finetune-skipped degraded path
        (``overload_policy="degrade"`` — the returned ticket is
        already ``done`` with ``response.degraded`` set).  Both
        refusal counters land in :meth:`stats`.

        Sync backend: if this submission fills the key's queue to
        ``max_batch`` the queue is flushed before returning (the
        returned ticket is then already ``done``), and a configured
        ``max_delay`` is enforced across all queues on every submit.
        Thread backend: the call only enqueues and wakes the background
        flusher — it returns immediately and is safe from any thread;
        wait on the ticket (``result(timeout=...)``) for the response.
        """
        sample = validate_samples(sample, None, ServiceError, single=True)[0]
        if deadline is not None and deadline <= 0.0:
            raise ServiceError(
                "deadline must be > 0 seconds (relative to submission)"
            )
        if key is None:
            key = self.registry.route(sample)
        encoder = self.registry.get(key)
        if sample.size != encoder.input_size:
            raise ServiceError(
                f"sample has {sample.size} features, encoder {key!r} "
                f"expects {encoder.input_size}"
            )
        config = self.config
        with self._lock:
            # Checked under the lock: stop() holds it for its whole
            # state transition, so a submission can never slip into the
            # queue after a drain decided the service was quiescent.
            if (
                self._backend_impl is not None
                and not self._backend_impl.running
            ):
                raise ServiceError(
                    "thread backend is not running; start() the service "
                    "(or use it as a context manager) before submitting"
                )
            now = self.clock()
            over = (
                config.max_pending_per_key is not None
                and self.batcher.pending(key) >= config.max_pending_per_key
            ) or (
                config.max_pending_total is not None
                and self.batcher.pending() >= config.max_pending_total
            )
            breaker = self._breakers.get(key)
            refusal = None
            if breaker is not None and not breaker.allow(now):
                refusal = CircuitOpenError(
                    f"circuit breaker for key {key!r} is open "
                    f"({breaker.threshold} consecutive flush failures); "
                    f"probes resume {config.breaker_reset_timeout}s "
                    "after it opened"
                )
            elif over and config.overload_policy == "reject":
                refusal = OverloadError(
                    f"queue budget exceeded for key {key!r} "
                    f"({self.batcher.pending(key)} pending on the key, "
                    f"{self.batcher.pending()} total); retry later or "
                    "switch overload_policy='degrade'"
                )
            self._ledger.requests_submitted += 1
            if refusal is not None:
                self._ledger.rejected += 1
                raise refusal
            request = EncodeRequest(
                request_id=next(self._ids),
                key=key,
                sample=sample,
                submitted_at=now,
                deadline=None if deadline is None else now + deadline,
            )
            ticket = EncodeTicket(request=request, _service=self)
            self._tickets[request.request_id] = ticket
            full = not over and self.batcher.add(request)
        if over:
            # Outside the lock: the degraded bind is microseconds, but
            # there is no reason to serialize it against the batcher.
            self._serve_degraded(request)
            return ticket
        if self._backend_impl is not None:
            # Wake the flusher: a fresh queue head may arm an earlier
            # deadline, and a full queue must dispatch now.
            self._backend_impl.kick()
            return ticket
        if full:
            self._flush_key(key)
        self.poll()
        return ticket

    def _serve_degraded(self, request: EncodeRequest) -> None:
        """Serve one over-budget request via the finetune-skipped path.

        Runs inline on the submitting thread (route + centroid template
        bind — microseconds), so shed traffic never touches the queues
        or the worker pool.  The request's ticket resolves before this
        returns: ``done`` with ``degraded=True``, or failed if even the
        degraded bind errored.
        """
        try:
            pipeline = self.registry.get(request.key).pipeline
            encoded = pipeline.run_degraded_reported(
                request.sample[np.newaxis, :]
            )[0][0]
        except Exception as exc:
            with self._lock:
                self._fail([request], lambda _request: exc)
            return
        response = EncodeResponse(
            request_id=request.request_id,
            key=request.key,
            encoded=encoded,
            submitted_at=request.submitted_at,
            completed_at=self.clock(),
            batch_size=1,
            flush_id=-1,
            degraded=True,
        )
        with self._lock:
            self._ledger.shed_degraded += 1
            self._complete([request], [response])

    def _serve_ticket(
        self, ticket: EncodeTicket, flush: bool, timeout: "float | None"
    ) -> None:
        """Backend-appropriate wait used by :meth:`EncodeTicket.result`."""
        if self._backend_impl is None:
            if flush:
                self.flush(ticket.request.key)
            return
        # A ticket still unresolved on a backend that will never serve
        # again (stopped, or never started) cannot resolve — no flusher,
        # no workers — so waiting (with or without flush, with or
        # without timeout) would hang forever.  Raise instead.  stop()
        # fails every pending ticket before this can normally trigger;
        # it is the belt to that suspender.  A STOPPING backend (a
        # draining stop in progress on another thread) *will* serve the
        # ticket, so that state falls through to the wait.
        if not self._backend_impl.will_serve and not ticket._event.is_set():
            raise ServiceError(
                f"request {ticket.request.request_id} cannot be served: "
                "the thread backend is not running"
            )
        # One absolute deadline spans the forced flush *and* the event
        # wait, so the documented bound holds end to end (not 2x).  The
        # arithmetic runs on the injectable service clock, not a
        # hard-coded time.monotonic(), so fake-clock tests can advance
        # time past the deadline and observe expiry deterministically.
        deadline = None if timeout is None else self.clock() + timeout
        if (
            flush
            and not ticket._event.is_set()
            and self._backend_impl.running
        ):
            self._backend_impl.flush_key(ticket.request.key, timeout=timeout)
        if deadline is None:
            served = ticket._event.wait()
        elif self.clock is time.monotonic:
            # Real clock: one event wait covers the remaining budget.
            served = ticket._event.wait(max(deadline - self.clock(), 0.0))
        else:
            # Injected clock: the event wait can only block in real
            # time, so poll it in short real slices while re-reading
            # the fake clock — a test advancing the clock (before the
            # call or concurrently) sees expiry without real sleeping
            # through the nominal timeout.
            served = ticket._event.is_set()
            while not served and self.clock() < deadline:
                served = ticket._event.wait(0.005)
            served = served or ticket._event.is_set()
        if not served:
            raise ServiceError(
                f"request {ticket.request.request_id} was not served "
                f"within {timeout}s"
            )

    # -- prediction ----------------------------------------------------------------

    def predict(self, samples: np.ndarray, key=None) -> np.ndarray:
        """Classify raw samples through a registered :class:`~repro.qml.
        serving.QMLModel` bundle; returns labels in {0, 1}.

        The whole matrix runs as **one** batch — one pipeline run embeds
        every row (preprocessing included), one template bind evaluates
        the classifier head over the stacked states — so prediction
        throughput scales like ``encode_batch``, not like a per-sample
        loop.  Runs inline on the calling thread under either backend
        (it is already batched; there is no queue to amortize).  With
        one registered model ``key`` may be omitted.
        """
        if key is None:
            model_keys = self.registry.model_keys()
            if len(model_keys) != 1:
                raise ServiceError(
                    f"predict needs an explicit key when "
                    f"{len(model_keys)} models are registered "
                    f"(available: {model_keys})"
                )
            key = model_keys[0]
        model = self.registry.model(key)
        samples = validate_samples(samples, model.input_size, ServiceError)
        labels = model.predict(samples)
        with self._lock:
            self._ledger.predictions_completed += samples.shape[0]
        return labels

    # -- export --------------------------------------------------------------------

    def export_wire(self, responses) -> bytes:
        """One compact wire blob for a list of served responses.

        Responses encoded by the same flush share one
        :class:`~repro.transpile.bound.BoundCircuitBatch`, so the blob
        is a single template-bound record over exactly those rows — a
        few hundred bytes per circuit.  Mixed or non-template responses
        fall back to self-contained gate streams.  Decode on any process
        holding the same models with
        :meth:`~repro.service.registry.EncoderRegistry.rehydrate_wire`.
        """
        from repro.io.wire import dump_circuits

        return dump_circuits([response.circuit for response in responses])

    def export_qasm(self, responses, version: int = 2) -> list[str]:
        """OpenQASM text (one document per response) for external runners."""
        from repro.io.qasm import to_qasm

        return [
            to_qasm(response.circuit, version=version)
            for response in responses
        ]

    # -- flushing ------------------------------------------------------------------

    def poll(self) -> list[EncodeResponse]:
        """Sync backend: flush every queue whose deadline has passed and
        return the responses.  Thread backend: wake the background
        flusher (it re-reads the injected clock) and return ``[]`` —
        responses surface through tickets.
        """
        if self._backend_impl is not None:
            self._backend_impl.kick()
            return []
        with self._lock:
            due = self.batcher.due_keys(self.clock())
        responses: list[EncodeResponse] = []
        for key in due:
            responses.extend(self._flush_key(key))
        return responses

    def flush(self, key=None) -> list[EncodeResponse]:
        """Serve one key's queue (or, with no key, every pending queue).

        Sync backend: flushes inline and returns the responses.  Thread
        backend: forces the background flusher to serve the queue(s) and
        blocks until done, returning ``[]`` (collect responses from
        tickets) — flushes always execute on the worker pool so the
        one-in-flight-per-key ordering guarantee holds.
        """
        if self._backend_impl is not None:
            if key is not None:
                self._backend_impl.flush_key(key)
            else:
                self._backend_impl.drain()
            return []
        with self._lock:
            keys = [key] if key is not None else self.batcher.pending_keys()
        responses: list[EncodeResponse] = []
        for one in keys:
            while self.batcher.pending(one):
                responses.extend(self._flush_key(one))
        return responses

    def _flush_key(self, key) -> list[EncodeResponse]:
        """Sync-backend flush: drain and execute on the calling thread."""
        with self._lock:
            requests = self.batcher.drain(key, now=self.clock())
        return self._execute_flush(key, requests, reraise=True)

    def _expire_requests(self, requests: list) -> list:
        """Fail every deadline-expired request; return the survivors.

        Called before the pipeline runs and again between retry
        attempts, so a request never consumes fine-tune work after its
        deadline passed — the paper's bounded-latency story enforced at
        the flush boundary.
        """
        now = self.clock()
        live = [r for r in requests if not r.expired(now)]
        if len(live) == len(requests):
            return requests
        with self._lock:
            self._fail(
                [r for r in requests if r.expired(now)],
                lambda request: DeadlineExceededError(
                    f"request {request.request_id} expired: its "
                    f"{request.deadline - request.submitted_at:.3f}s "
                    "deadline passed before its micro-batch flushed"
                ),
                expired=True,
            )
        return live

    def _flush_abandoned(self, task_id) -> bool:
        """Did the flusher abandon this flush while it executed?

        Caller holds the lock.  Consuming the mark transfers the
        bookkeeping duty: an abandoned flush's tickets were already
        failed (and its key freed) by the flusher, so the executing
        worker must discard its result without touching any counter.
        """
        if task_id is None or self._backend_impl is None:
            return False
        return self._backend_impl.consume_abandoned(task_id)

    def _execute_flush(
        self, key, requests: list, reraise: bool, task_id=None
    ) -> list[EncodeResponse]:
        """Encode one drained micro-batch and resolve its tickets.

        Runs outside the service lock (the pipeline stages are
        re-entrant); only the final accounting step locks, applying the
        flush's entire stats contribution atomically so concurrent
        ``stats()`` snapshots never see a half-applied flush.  With
        ``reraise=False`` (worker pool) an encoding failure resolves
        into the affected tickets instead of propagating.

        Resilience behaviour: deadline-expired requests are failed
        before (and between) pipeline runs; a failure the transient
        classifier accepts is retried up to ``retry_attempts`` times
        with backoff+jitter (the attempt count rides on the requests,
        so the budget survives worker-death requeues); terminal
        failures and successes feed the key's circuit breaker.  Under
        the thread backend, ``task_id`` lets a flush that outlived
        ``flush_timeout`` detect its own abandonment and discard its
        result — the flusher already failed the tickets and freed the
        key, so applying anything here would double-count.
        """
        requests = self._expire_requests(requests)
        if not requests:
            return []
        config = self.config
        while True:
            try:
                if self.fault_injector is not None:
                    self.fault_injector.fire("flush")
                encoder = self.registry.get(key)
                pipeline = encoder.pipeline
                samples = np.stack(
                    [request.sample for request in requests]
                )
                # The same stage objects encode/encode_batch execute — a
                # flush of B requests is numerically identical to
                # encode_batch on them (one vectorized template
                # bind_batch sweep per flush).  A backend that owns
                # execution (process fleet) routes the run to a worker
                # replica of those same stages instead.
                encoded, report = self._run_pipeline(
                    key, pipeline, requests, samples
                )
                break
            except WorkerDeath:
                # Not a flush failure: the executing worker process died
                # under this batch.  Propagate to the worker loop, which
                # requeues the batch at the head (order preserved,
                # retry/breaker budgets untouched) and respawns.
                raise
            except Exception as exc:
                attempt = max(request.attempts for request in requests)
                if attempt < config.retry_attempts and self.transient_classifier(
                    exc
                ):
                    with self._lock:
                        self._ledger.retries += 1
                        for request in requests:
                            request.attempts = attempt + 1
                    self._retry_policy.sleep(attempt)
                    requests = self._expire_requests(requests)
                    if not requests:
                        return []
                    continue
                # Terminal failure: the requests are already drained, so
                # fail their tickets loudly (result() re-raises) rather
                # than stranding them forever — e.g. a hot-reloaded
                # bundle with a different amplitude width invalidates
                # whatever was queued under the old model.
                with self._lock:
                    if self._record_breaker_failure(key):
                        self._ledger.breaker_opens += 1
                    if self._flush_abandoned(task_id):
                        return []
                    self._fail(requests, lambda _request: exc)
                if reraise:
                    raise ServiceError(
                        f"flush of {len(requests)} request(s) for encoder "
                        f"{key!r} failed: {exc}"
                    ) from exc
                return []
        completed_at = self.clock()
        responses = []
        with self._lock:
            self._record_breaker_success(key)
            if self._flush_abandoned(task_id):
                # The flusher cut this flush loose mid-run: its tickets
                # already failed with DeadlineExceededError and its key
                # already re-dispatched.  Discard the late result whole.
                return []
            flush_id = next(self._flush_ids)
            responses = [
                EncodeResponse(
                    request_id=request.request_id,
                    key=key,
                    encoded=sample,
                    submitted_at=request.submitted_at,
                    completed_at=completed_at,
                    batch_size=len(requests),
                    flush_id=flush_id,
                )
                for request, sample in zip(requests, encoded)
            ]
            # One atomic ledger application per flush: counts, sums, and
            # the percentile window advance together or not at all.  The
            # run's report is the pipeline's only accounting.
            ledger = self._ledger
            if report.template_hit is not None:
                if report.template_hit:
                    ledger.template_cache_hits += 1
                else:
                    ledger.template_cache_misses += 1
            ledger.template_binds += report.template_binds
            ledger.num_flushes += 1
            self._batch_size_sum += len(requests)
            self._complete(requests, responses)
        return responses

    def _run_pipeline(self, key, pipeline, requests: list, samples):
        """Execute one flush's pipeline run — locally or on the fleet.

        The seam between the (backend-agnostic) resilience loop above
        and the execution substrate: sync and thread backends run the
        registered pipeline in-process; a backend that *owns execution*
        (``ProcessBackend``) ships ``(key, request_ids, samples)`` to a
        worker process and decodes the wire-record response.  Either
        way the return contract is ``encode_batch``'s:
        ``(list[EncodedSample], PipelineRunReport)``, float-bit
        identical for identical samples.
        """
        backend_impl = self._backend_impl
        if backend_impl is not None and backend_impl.owns_execution:
            request_ids = [request.request_id for request in requests]
            return backend_impl.run_pipeline(key, request_ids, samples)
        return pipeline.run_reported(samples, faults=self.fault_injector)

    # -- circuit breakers ----------------------------------------------------------

    def _breaker_for(self, key) -> "CircuitBreaker | None":
        """The key's breaker, lazily created (caller holds the lock)."""
        if self.config.breaker_threshold is None:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_reset_timeout,
            )
            self._breakers[key] = breaker
        return breaker

    def _record_breaker_failure(self, key) -> bool:
        """Count a flush failure; True if the breaker just opened."""
        breaker = self._breaker_for(key)
        if breaker is None:
            return False
        return breaker.record_failure(self.clock())

    def _record_breaker_success(self, key) -> None:
        breaker = self._breakers.get(key)
        if breaker is not None:
            breaker.record_success()

    # -- introspection -------------------------------------------------------------

    @property
    def pending(self) -> int:
        with self._lock:
            return self.batcher.pending()

    def stats(self) -> ServiceStats:
        """Aggregate accounting snapshot since construction.

        A copy of the ledger plus what derives from it: the pending
        count, the means (exact over all served traffic), the latency
        percentiles over the most recent :data:`STATS_WINDOW` requests,
        and the backend's wakeup and respawn counters.  Taken under the
        service lock, so a snapshot observes whole flushes only, even
        while the worker pool is racing.
        """
        nan = float("nan")
        with self._lock:
            ledger = self._ledger
            done = ledger.requests_completed
            flushes = ledger.num_flushes
            window = np.asarray(self._latency_window, dtype=float)
            p50, p95 = (
                np.percentile(window, [50, 95]) if window.size else (nan, nan)
            )
            impl = self._backend_impl
            return replace(
                ledger,
                per_key_completed=dict(ledger.per_key_completed),
                requests_pending=self.batcher.pending(),
                mean_batch_size=(
                    self._batch_size_sum / flushes if flushes else nan
                ),
                p50_latency=float(p50),
                p95_latency=float(p95),
                mean_latency=self._latency_sum / done if done else nan,
                evals_per_sample=self._evaluation_sum / done if done else nan,
                mean_fidelity=self._fidelity_sum / done if done else nan,
                flusher_wakeups=getattr(impl, "flusher_wakeups", 0),
                worker_respawns=getattr(impl, "worker_respawns", 0),
                process_respawns=getattr(impl, "process_respawns", 0),
                process_respawn_failures=getattr(
                    impl, "process_respawn_failures", 0
                ),
            )

    def __repr__(self) -> str:
        return (
            f"EncodingService(keys={self.keys()}, "
            f"backend={self.config.backend!r}, "
            f"max_batch={self.batcher.max_batch}, "
            f"max_delay={self.batcher.max_delay}, pending={self.pending})"
        )

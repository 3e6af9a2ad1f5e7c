"""Typed request/response records for the online encoding service.

The serving layer talks in these records rather than bare numpy arrays:
every submitted sample becomes an :class:`EncodeRequest` stamped with a
monotonic submission time, every flushed request becomes an
:class:`EncodeResponse` carrying the :class:`~repro.core.pipeline.
EncodedSample` plus per-request accounting (end-to-end latency, the
micro-batch it rode in, optimizer work), and :class:`ServiceStats` is
the aggregate snapshot (:meth:`repro.service.EncodingService.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import EncodedSample


@dataclass
class EncodeRequest:
    """One sample submitted to the service, awaiting a micro-batch flush.

    ``deadline`` is the *absolute* (service-clock) time after which the
    request must not be served — expired requests are failed with
    :class:`~repro.errors.DeadlineExceededError` before any pipeline
    work is spent on them (``None`` = no deadline).  ``attempts``
    counts flush retries this request has ridden through; it lives on
    the request (not the flush) so the retry budget stays per-ticket
    even when a worker death requeues the batch.
    """

    request_id: int
    key: int | str
    sample: np.ndarray
    submitted_at: float
    deadline: "float | None" = None
    attempts: int = 0

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def __repr__(self) -> str:
        return (
            f"EncodeRequest(id={self.request_id}, key={self.key!r}, "
            f"dim={self.sample.size})"
        )


@dataclass
class EncodeResponse:
    """One served embedding with its per-request accounting.

    ``latency`` is end-to-end (submit to flush completion, including
    queueing time in the micro-batcher); ``encoded.compile_time`` is the
    sample's even share of the batch's pipeline work.  ``batch_size``
    records how many requests rode in the same flush, and ``flush_id``
    which flush it was — a service-wide counter, so the concurrency
    tests can reconstruct the exact micro-batch partition the worker
    pool executed (responses sharing a ``flush_id`` were encoded
    together, and per key the ids are strictly increasing: one flush in
    flight per key, completed in submission order).

    ``degraded`` marks a load-shed response: admission control (see
    ``ServiceConfig.overload_policy``) served it by binding the routed
    cluster-centroid parameters *without* the finetune stage —
    microseconds of work, the centroid's lower fidelity, and
    ``flush_id == -1`` (it rode no micro-batch).
    """

    request_id: int
    key: int | str
    encoded: EncodedSample
    submitted_at: float
    completed_at: float
    batch_size: int
    flush_id: int = -1
    degraded: bool = False

    @property
    def latency(self) -> float:
        """Seconds from submission to flush completion."""
        return self.completed_at - self.submitted_at

    @property
    def fidelity(self) -> float:
        return self.encoded.ideal_fidelity

    @property
    def cluster_index(self) -> int:
        return self.encoded.cluster_index

    @property
    def circuit(self):
        """The hardware-native embedding circuit.

        On the template fast path this is a lazy compact-IR view
        (:class:`repro.transpile.bound.BoundCircuit`): the response
        holds packed bind arrays — a few hundred bytes per sample —
        and only builds instruction objects if the caller iterates the
        circuit; simulation answers straight off the arrays.
        """
        return self.encoded.circuit

    def to_qasm(self, version: int = 2) -> str:
        """This response's circuit as OpenQASM 2 or 3 text.

        For handing the embedding to an external runner; the text
        round-trips through :func:`repro.io.qasm.from_qasm` with
        float-bit identical parameters.
        """
        # Imported lazily: repro.io sits beside the service layer and is
        # only needed when a caller actually exports.
        from repro.io.qasm import to_qasm

        return to_qasm(self.circuit, version=version)

    def to_wire(self) -> bytes:
        """This response's circuit as one compact binary wire record.

        On the template fast path this is a single-row template-bound
        record (fingerprint + one theta row — a few hundred bytes);
        decode it with :meth:`repro.service.registry.EncoderRegistry.
        rehydrate_wire` on any process holding the same models.
        """
        from repro.io.wire import dump_circuit

        return dump_circuit(self.circuit)

    def __repr__(self) -> str:
        return (
            f"EncodeResponse(id={self.request_id}, key={self.key!r}, "
            f"fidelity={self.fidelity:.4f}, "
            f"latency={self.latency * 1e3:.2f}ms, batch={self.batch_size})"
        )


@dataclass
class ServiceStats:
    """Aggregate service-level accounting snapshot.

    Latency percentiles are end-to-end request latencies (queueing +
    encoding) over the service's most recent window (see
    :data:`repro.service.service.STATS_WINDOW`); counts and means are
    exact over all served traffic.  ``evals_per_sample`` averages the
    optimizer's objective evaluations attributed to each sample — its
    unit depends on ``EnQodeConfig.online_batch_engine`` (the per-row
    drive counts each row's own evaluations, the stacked drive splits
    whole-batch scipy passes evenly), so compare it only within one
    engine setting; the
    template counters are the transpile-cache hits/misses incurred by
    this service's flushes only, and ``template_binds`` counts the
    *rows* this service lowered through a cached template — one per
    sample of every flush, each flush binding its rows through a single
    vectorized ``bind_batch`` sweep.

    Under the ``"thread"`` backend several flushes race: each flush
    applies its whole contribution (counts, sums, and the latency-window
    appends feeding p50/p95) in one locked step, so a snapshot never
    observes a half-applied flush — percentiles are always computed
    over complete flushes.  ``backend`` names the execution backend the
    snapshot came from and ``flusher_wakeups`` counts background-flusher
    wakeups (0 under ``"sync"``) — a flusher honoring a deadline by
    sleeping wakes O(flushes) times, a busy-waiting one diverges.

    The resilience counters follow the admission/flush paths:
    ``rejected`` counts submissions refused at the front door (queue
    budget with the ``"reject"`` policy, or an open circuit breaker),
    ``shed_degraded`` counts over-budget submissions served by the
    finetune-skipped degraded path (these also count in
    ``requests_completed``), ``retries`` counts flush retry attempts,
    ``breaker_opens`` counts closed/half-open → open transitions across
    all keys, and ``deadline_expired`` counts requests failed because
    their deadline passed (also counted in ``requests_failed``).
    Conservation: every accepted-or-refused submission resolves —
    ``requests_submitted == requests_completed + requests_failed +
    rejected + requests_pending`` at any quiescent point.
    """

    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_pending: int = 0
    rejected: int = 0
    shed_degraded: int = 0
    retries: int = 0
    breaker_opens: int = 0
    deadline_expired: int = 0
    num_flushes: int = 0
    mean_batch_size: float = float("nan")
    p50_latency: float = float("nan")
    p95_latency: float = float("nan")
    mean_latency: float = float("nan")
    evals_per_sample: float = float("nan")
    mean_fidelity: float = float("nan")
    template_cache_hits: int = 0
    template_cache_misses: int = 0
    template_binds: int = 0
    per_key_completed: dict = field(default_factory=dict)
    #: Samples classified through :meth:`repro.service.service.
    #: EncodingService.predict` (inline batched inference; separate from
    #: the encode request counters above).
    predictions_completed: int = 0
    backend: str = "sync"
    flusher_wakeups: int = 0

    def summary(self) -> str:
        """One human-readable line (what the examples print)."""
        line = (
            f"{self.requests_completed}/{self.requests_submitted} served "
            f"in {self.num_flushes} flushes "
            f"(mean batch {self.mean_batch_size:.1f}), "
            f"latency p50 {self.p50_latency * 1e3:.2f}ms "
            f"p95 {self.p95_latency * 1e3:.2f}ms, "
            f"{self.evals_per_sample:.1f} evals/sample, "
            f"mean fidelity {self.mean_fidelity:.4f}, "
            f"template cache {self.template_cache_hits} hits / "
            f"{self.template_cache_misses} misses, "
            f"{self.template_binds} template binds"
        )
        resilience = []
        if self.rejected:
            resilience.append(f"{self.rejected} rejected")
        if self.shed_degraded:
            resilience.append(f"{self.shed_degraded} shed degraded")
        if self.retries:
            resilience.append(f"{self.retries} retries")
        if self.breaker_opens:
            resilience.append(f"{self.breaker_opens} breaker opens")
        if self.deadline_expired:
            resilience.append(f"{self.deadline_expired} deadline expired")
        if resilience:
            line += ", " + ", ".join(resilience)
        return line

    def to_metrics(self, prefix: str = "enqode") -> str:
        """This snapshot in Prometheus text exposition format.

        Scrape-ready: counters get a ``_total`` suffix, latency
        percentiles export as summary quantiles, per-key completions as
        a labelled counter family.  No dependencies — the exposition
        format is plain text — and NaN-valued gauges (an idle service)
        are simply omitted.  Serve the returned string with content
        type ``text/plain; version=0.0.4``.
        """

        def esc(value) -> str:
            return (
                str(value)
                .replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
            )

        lines: list[str] = []

        def emit(name, kind, help_text, value, labels="") -> None:
            if isinstance(value, float) and not np.isfinite(value):
                return
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} {kind}")
            lines.append(f"{prefix}_{name}{labels} {value}")

        emit(
            "requests_submitted_total", "counter",
            "Submissions accepted or refused by submit().",
            self.requests_submitted,
        )
        emit(
            "requests_completed_total", "counter",
            "Requests served (degraded responses included).",
            self.requests_completed,
        )
        emit(
            "requests_failed_total", "counter",
            "Requests whose ticket resolved with an error.",
            self.requests_failed,
        )
        emit(
            "requests_rejected_total", "counter",
            "Submissions refused fast: queue budget or open breaker.",
            self.rejected,
        )
        emit(
            "requests_shed_degraded_total", "counter",
            "Over-budget submissions served by the finetune-skipped path.",
            self.shed_degraded,
        )
        emit(
            "requests_deadline_expired_total", "counter",
            "Requests failed because their deadline passed.",
            self.deadline_expired,
        )
        emit(
            "flush_retries_total", "counter",
            "Flush retry attempts after transient failures.",
            self.retries,
        )
        emit(
            "breaker_opens_total", "counter",
            "Circuit-breaker open transitions across all keys.",
            self.breaker_opens,
        )
        emit(
            "flushes_total", "counter",
            "Micro-batch flushes executed.",
            self.num_flushes,
        )
        emit(
            "template_binds_total", "counter",
            "Rows lowered through a cached transpile template.",
            self.template_binds,
        )
        emit(
            "template_cache_hits_total", "counter",
            "Template-cache hits incurred by this service's flushes.",
            self.template_cache_hits,
        )
        emit(
            "template_cache_misses_total", "counter",
            "Template-cache misses incurred by this service's flushes.",
            self.template_cache_misses,
        )
        emit(
            "predictions_total", "counter",
            "Samples classified through predict().",
            self.predictions_completed,
        )
        emit(
            "flusher_wakeups_total", "counter",
            "Background-flusher wakeups (0 under the sync backend).",
            self.flusher_wakeups,
        )
        emit(
            "requests_pending", "gauge",
            "Requests queued in the micro-batcher right now.",
            self.requests_pending,
        )
        emit(
            "mean_batch_size", "gauge",
            "Mean requests per flush.",
            self.mean_batch_size,
        )
        emit(
            "mean_fidelity", "gauge",
            "Mean ideal fidelity of served embeddings.",
            self.mean_fidelity,
        )
        emit(
            "evals_per_sample", "gauge",
            "Mean optimizer objective evaluations per served sample.",
            self.evals_per_sample,
        )
        quantiles = [
            ("0.5", self.p50_latency),
            ("0.95", self.p95_latency),
        ]
        finite = [(q, v) for q, v in quantiles if np.isfinite(v)]
        if finite:
            lines.append(
                f"# HELP {prefix}_request_latency_seconds "
                "End-to-end request latency over the recent window."
            )
            lines.append(f"# TYPE {prefix}_request_latency_seconds summary")
            for quantile, value in finite:
                lines.append(
                    f"{prefix}_request_latency_seconds"
                    f'{{quantile="{quantile}"}} {value}'
                )
        if self.per_key_completed:
            lines.append(
                f"# HELP {prefix}_requests_completed_by_key "
                "Requests served, by registry key."
            )
            lines.append(f"# TYPE {prefix}_requests_completed_by_key counter")
            for key, count in sorted(
                self.per_key_completed.items(), key=lambda kv: str(kv[0])
            ):
                lines.append(
                    f"{prefix}_requests_completed_by_key"
                    f'{{key="{esc(key)}"}} {count}'
                )
        emit(
            "backend_info", "gauge",
            "Execution backend of this snapshot (label carries the name).",
            1,
            labels=f'{{backend="{esc(self.backend)}"}}',
        )
        return "\n".join(lines) + "\n"

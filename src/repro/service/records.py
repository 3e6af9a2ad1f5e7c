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

from dataclasses import dataclass, field, fields

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
    #: Set under the service lock when the request's outcome is counted
    #: (served or failed), so no path counts it twice.
    resolved: bool = False

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


def _metric(
    kind: str,
    help_text: str,
    name: "str | None" = None,
    *,
    label: "str | None" = None,
    labels: str = "",
    **default,
):
    """Declare a :class:`ServiceStats` field as one exported metric.

    ``kind`` is the Prometheus type and ``help_text`` its ``# HELP``
    line.  ``name`` is the exported name when it is not the field name
    (plus ``_total`` for counters).  ``label`` names the label that
    carries a dict field's keys or a string field's value; ``labels``
    is a fixed label set (a summary quantile).  ``default`` is the
    field's ``default`` or ``default_factory`` (``0`` if omitted).
    """
    declared = {
        "kind": kind,
        "help": help_text,
        "name": name,
        "label": label,
        "labels": labels,
    }
    return field(metadata={"metric": declared}, **(default or {"default": 0}))


def _escape(value) -> str:
    """A label value, escaped for the exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


#: Both latency quantiles are samples of one summary family.
_LATENCY = (
    "summary",
    "End-to-end request latency over the recent window.",
    "request_latency_seconds",
)
_NAN = float("nan")


@dataclass
class ServiceStats:
    """Service accounting: each field that exports is declared here once.

    A field built by ``_metric`` carries its Prometheus type, help text
    and, where it differs from the field name, its exported name;
    :meth:`to_metrics` is a loop over those declarations, in field
    order.  :class:`repro.service.EncodingService` keeps one instance as
    its running ledger and :meth:`~repro.service.EncodingService.stats`
    returns a copy, so a snapshot observes whole flushes only.  The copy
    adds what is derived at snapshot time: ``requests_pending``, the
    means, the latency percentiles (over the most recent
    :data:`repro.service.service.STATS_WINDOW` requests) and the
    backend's own counters (``flusher_wakeups``, ``worker_respawns``,
    ``process_respawns``, ``process_respawn_failures``).

    Conservation: every accepted-or-refused submission resolves once,
    so ``requests_submitted == requests_completed + requests_failed +
    rejected + requests_pending`` at any quiescent point.
    ``shed_degraded`` responses also count in ``requests_completed``,
    and ``deadline_expired`` failures in ``requests_failed``.

    ``evals_per_sample`` has the unit of
    ``EnQodeConfig.online_batch_engine`` (the per-row drive counts each
    row's own evaluations, the stacked drive splits whole-batch scipy
    passes evenly), so compare it only within one engine setting.  The
    template counters cover this service's flushes only;
    ``template_binds`` counts rows, so it equals the rows served by
    flushes.
    """

    requests_submitted: int = _metric(
        "counter", "Submissions accepted or refused by submit()."
    )
    requests_completed: int = _metric(
        "counter", "Requests served (degraded responses included)."
    )
    requests_failed: int = _metric(
        "counter", "Requests whose ticket resolved with an error."
    )
    rejected: int = _metric(
        "counter",
        "Submissions refused fast: queue budget or open breaker.",
        "requests_rejected_total",
    )
    shed_degraded: int = _metric(
        "counter",
        "Over-budget submissions served by the finetune-skipped path.",
        "requests_shed_degraded_total",
    )
    deadline_expired: int = _metric(
        "counter",
        "Requests failed because their deadline passed.",
        "requests_deadline_expired_total",
    )
    retries: int = _metric(
        "counter",
        "Flush retry attempts after transient failures.",
        "flush_retries_total",
    )
    breaker_opens: int = _metric(
        "counter", "Circuit-breaker open transitions across all keys."
    )
    num_flushes: int = _metric(
        "counter", "Micro-batch flushes executed.", "flushes_total"
    )
    template_binds: int = _metric(
        "counter", "Rows lowered through a cached transpile template."
    )
    template_cache_hits: int = _metric(
        "counter", "Template-cache hits incurred by this service's flushes."
    )
    template_cache_misses: int = _metric(
        "counter", "Template-cache misses incurred by this service's flushes."
    )
    predictions_completed: int = _metric(
        "counter", "Samples classified through predict().", "predictions_total"
    )
    flusher_wakeups: int = _metric(
        "counter", "Background-flusher wakeups (0 under the sync backend)."
    )
    worker_respawns: int = _metric(
        "counter", "Replacement worker threads started after worker deaths."
    )
    process_respawns: int = _metric(
        "counter", "Worker processes respawned after deaths (process backend)."
    )
    process_respawn_failures: int = _metric(
        "counter", "Worker-process respawns that failed to come up."
    )
    requests_pending: int = _metric(
        "gauge", "Requests queued in the micro-batcher right now."
    )
    mean_batch_size: float = _metric(
        "gauge", "Mean requests per flush.", default=_NAN
    )
    mean_fidelity: float = _metric(
        "gauge", "Mean ideal fidelity of served embeddings.", default=_NAN
    )
    evals_per_sample: float = _metric(
        "gauge",
        "Mean optimizer objective evaluations per served sample.",
        default=_NAN,
    )
    p50_latency: float = _metric(
        *_LATENCY, labels='quantile="0.5"', default=_NAN
    )
    p95_latency: float = _metric(
        *_LATENCY, labels='quantile="0.95"', default=_NAN
    )
    #: Mean end-to-end latency over all served traffic (not exported).
    mean_latency: float = _NAN
    per_key_completed: dict = _metric(
        "counter",
        "Requests served, by registry key.",
        "requests_completed_by_key",
        label="key",
        default_factory=dict,
    )
    backend: str = _metric(
        "gauge",
        "Execution backend of this snapshot (label carries the name).",
        "backend_info",
        label="backend",
        default="sync",
    )

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
        notes = [
            f"{getattr(self, name)} {name.replace('_', ' ')}"
            for name in (
                "rejected",
                "shed_degraded",
                "retries",
                "breaker_opens",
                "deadline_expired",
            )
            if getattr(self, name)
        ]
        return ", ".join([line, *notes])

    def to_metrics(self, prefix: str = "enqode") -> str:
        """This snapshot in Prometheus text exposition format.

        One family per declared field, in field order: counters get a
        ``_total`` suffix, the latency percentiles export as summary
        quantiles, dict fields as one labelled sample per key and string
        fields as an info gauge.  NaN-valued samples (an idle service)
        are omitted, and so is a family with no sample.  Serve the
        returned string with content type ``text/plain; version=0.0.4``.
        """
        lines: list[str] = []
        families: set[str] = set()
        for spec in fields(self):
            declared = spec.metadata.get("metric")
            if declared is None:
                continue
            kind, label = declared["kind"], declared["label"]
            name = declared["name"] or (
                spec.name + "_total" if kind == "counter" else spec.name
            )
            value = getattr(self, spec.name)
            if isinstance(value, dict):
                samples = [
                    (f'{{{label}="{_escape(key)}"}}', count)
                    for key, count in sorted(
                        value.items(), key=lambda kv: str(kv[0])
                    )
                ]
            elif isinstance(value, str):
                samples = [(f'{{{label}="{_escape(value)}"}}', 1)]
            elif isinstance(value, float) and not np.isfinite(value):
                samples = []
            else:
                fixed = declared["labels"]
                samples = [(f"{{{fixed}}}" if fixed else "", value)]
            if not samples:
                continue
            family = f"{prefix}_{name}"
            if family not in families:
                families.add(family)
                lines.append(f"# HELP {family} {declared['help']}")
                lines.append(f"# TYPE {family} {kind}")
            lines += [f"{family}{tags} {sample}" for tags, sample in samples]
        return "\n".join(lines) + "\n"

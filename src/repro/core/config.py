"""Configuration dataclasses for the EnQode encoder and serving layer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OptimizationError, ServiceError


@dataclass(frozen=True)
class EnQodeConfig:
    """All tunables of the EnQode pipeline, with the paper's defaults.

    Attributes
    ----------
    num_qubits, num_layers:
        Ansatz geometry (paper: 8 qubits, 8 layers -> 64 Rz parameters).
    entangler, alternate_orientation:
        Entangling-gate choice (paper: CY, alternating arrangement).
    min_cluster_fidelity:
        Sec. IV-A rule: clusters are added until every sample has
        nearest-cluster fidelity at least this value (paper: 0.95).
    max_clusters:
        Safety cap for the cluster search.
    offline_restarts, offline_max_iterations:
        L-BFGS budget when training a cluster mean from scratch.
    offline_polish_threshold:
        Gradient inf-norm above which a cluster left unconverged by the
        stacked offline run gets an individual warm-started polish run
        (see :class:`repro.core.batch.BatchLBFGSOptimizer`).
    warm_start_cluster_search:
        Seed each step of the growing-``k`` cluster search from the
        previous step's centers (one Lloyd run per step) instead of
        independent k-means++ restarts at every ``k`` — see
        :func:`repro.core.clustering.select_num_clusters`.
    online_max_iterations:
        L-BFGS budget for transfer-learned per-sample fine-tuning
        (small, keeping online latency low and uniform — Sec. III-D).
    online_batch_engine:
        Which batched drive fine-tunes a multi-row online batch (a
        single row always runs sequential scipy L-BFGS):
        ``"rows"`` (the default) runs the per-row vectorized L-BFGS
        (:meth:`repro.core.batch.BatchLBFGSOptimizer.optimize_rows`),
        ``"stacked"`` runs one scipy L-BFGS over the block-diagonal
        summed objective.  Which is faster depends on the batch size.
        On warm-started MNIST-PCA rows (perfbench's fit data and request
        mix, one BLAS thread, 2-vCPU Xeon VM, medians of 8 batches)
        ``"stacked"`` beat ``"rows"`` by 1.1-1.7x at 2-32 rows at 4 and
        6 qubits; ``"rows"`` won only at 64 rows (1.4x at 4 qubits,
        1.2x at 6), because it drops converged rows out of later passes
        while the stacked drive's shared line search makes every row
        wait for the slowest one.  The default serves the paper's
        batch-64 regime.  Both engines share the scipy polish backstop,
        so final fidelities agree to ~1e-13; ``"stacked"`` reproduces
        the historical batch trajectories exactly.  Caveat: the engines
        count ``num_evaluations`` in different units — ``"stacked"``
        reports scipy's whole-batch objective passes split evenly
        across rows (~1 per sample), ``"rows"`` reports each row's own
        evaluations (~13 per sample, commensurate with the sequential
        per-sample path) — so ``evals_per_sample`` stats are not
        comparable across the knob.
    target_fidelity:
        Early-exit threshold for offline restarts.
    optimization_level:
        Transpiler effort used when lowering embedding circuits.
    seed:
        Master seed for clustering and optimizer restarts.
    """

    num_qubits: int = 8
    num_layers: int = 8
    entangler: str = "cy"
    alternate_orientation: bool = True
    min_cluster_fidelity: float = 0.95
    max_clusters: int = 64
    offline_restarts: int = 6
    offline_max_iterations: int = 1500
    offline_polish_threshold: float = 1e-7
    warm_start_cluster_search: bool = True
    online_max_iterations: int = 80
    online_batch_engine: str = "rows"
    target_fidelity: float = 0.995
    gtol: float = 1e-9
    ftol: float = 1e-12
    optimization_level: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise OptimizationError("num_qubits must be >= 2")
        if self.num_layers < 1:
            raise OptimizationError("num_layers must be >= 1")
        if not 0.0 < self.min_cluster_fidelity <= 1.0:
            raise OptimizationError(
                "min_cluster_fidelity must be in (0, 1]"
            )
        if self.max_clusters < 1:
            raise OptimizationError("max_clusters must be >= 1")
        if self.online_max_iterations < 1 or self.offline_max_iterations < 1:
            raise OptimizationError("iteration budgets must be positive")
        if self.offline_restarts < 1:
            raise OptimizationError("offline_restarts must be >= 1")
        if self.offline_polish_threshold < 0.0:
            raise OptimizationError(
                "offline_polish_threshold must be non-negative"
            )
        if self.online_batch_engine not in ("stacked", "rows"):
            raise OptimizationError(
                f"online_batch_engine must be 'stacked' or 'rows', "
                f"got {self.online_batch_engine!r}"
            )
        if not 0.0 < self.target_fidelity <= 1.0:
            raise OptimizationError("target_fidelity must be in (0, 1]")
        if self.gtol <= 0.0 or self.ftol <= 0.0:
            raise OptimizationError("gtol and ftol must be > 0")
        if self.optimization_level not in (0, 1):
            raise OptimizationError(
                f"optimization_level must be 0 or 1 (the transpiler's "
                f"supported range), got {self.optimization_level}"
            )

    @property
    def num_amplitudes(self) -> int:
        return 2**self.num_qubits


@dataclass(frozen=True)
class QMLConfig:
    """Tunables of the VQC classifier head and its SPSA trainer.

    Attributes
    ----------
    num_qubits, num_layers:
        Classifier-ansatz geometry.  ``num_qubits`` must match the
        embedding register (the classifier consumes embedded
        ``2**num_qubits``-amplitude states directly).
    margin:
        Hinge threshold of the training loss
        ``mean(max(0, margin - y_i * <Z_0>_i))``.
    num_steps:
        SPSA iterations.
    spsa_a, spsa_c:
        SPSA gain sequences ``a_k = spsa_a / k**0.602`` and
        ``c_k = spsa_c / k**0.101`` (the standard Spall exponents).
    minibatch_size:
        Optional number of samples drawn (without replacement) per SPSA
        step; ``None`` uses the full batch every step.  Minibatch draws
        come from the same RNG stream as the perturbation directions.
    eval_every:
        Record full-batch loss/accuracy into the training history every
        this many steps (plus the final step).
    optimization_level:
        Transpiler effort for the classifier template.
    seed:
        Seed for theta initialization and the SPSA stream.
    """

    num_qubits: int = 8
    num_layers: int = 2
    margin: float = 0.4
    num_steps: int = 120
    spsa_a: float = 0.25
    spsa_c: float = 0.15
    minibatch_size: "int | None" = None
    eval_every: int = 10
    optimization_level: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_qubits < 2:
            raise OptimizationError("num_qubits must be >= 2")
        if self.num_layers < 1:
            raise OptimizationError("num_layers must be >= 1")
        if self.margin <= 0.0:
            raise OptimizationError("margin must be > 0")
        if self.num_steps < 1:
            raise OptimizationError("num_steps must be >= 1")
        if self.spsa_a <= 0.0 or self.spsa_c <= 0.0:
            raise OptimizationError("spsa_a and spsa_c must be > 0")
        if self.minibatch_size is not None and self.minibatch_size < 1:
            raise OptimizationError(
                "minibatch_size must be >= 1 (or None for full batch)"
            )
        if self.eval_every < 1:
            raise OptimizationError("eval_every must be >= 1")
        if self.optimization_level not in (0, 1):
            raise OptimizationError(
                f"optimization_level must be 0 or 1, "
                f"got {self.optimization_level}"
            )

    @property
    def num_amplitudes(self) -> int:
        return 2**self.num_qubits

    @property
    def num_parameters(self) -> int:
        return 2 * self.num_qubits * self.num_layers


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the :class:`repro.service.EncodingService` front end.

    Attributes
    ----------
    backend:
        Execution backend for micro-batch flushes.  ``"sync"`` (the
        default) flushes inline from ``submit``/``poll``/``flush`` calls
        — deterministic and single-threaded, but the ``max_delay``
        deadline only fires when some call happens to arrive.
        ``"thread"`` runs a daemon flusher thread plus a worker pool of
        ``workers`` threads executing flushes for different keys
        concurrently; with ``max_delay`` set, dispatch is
        work-conserving (an idle worker takes a queued key at once),
        and the flusher also wakes on the earliest pending deadline
        and on full-queue events; the service must be
        ``start()``-ed before submitting and ``stop()``-ed when done.
        ``"process"`` keeps the same flusher/worker plumbing but
        executes each flush in one of ``workers`` *worker processes*
        that own fitted-encoder replicas (bundles shipped at spawn via
        the JSON serialization, responses returned as the binary wire
        record and decoded by template rebind — float-bit identical to
        ``encode_batch``), escaping the GIL for CPU-bound fine-tuning.
    workers:
        Worker-pool size for the ``"thread"`` and ``"process"``
        backends (ignored by ``"sync"``).  At most one flush per
        registry key — and at most one flush per underlying encoder
        pipeline — is in flight at any time, so a key's requests
        complete in submission order and every flush is
        instruction-identical to ``encode_batch`` on the same samples;
        ``workers`` bounds how many *different* keys encode
        concurrently.  Under ``"process"`` it is also the process-fleet
        size: every worker process holds replicas of *all* registered
        encoders, and ``shard_strategy`` routes each key to one of
        them.
    max_batch:
        Size trigger: a key's queue reaching this many pending requests
        is flushed immediately.
    max_delay:
        Optional latency deadline in seconds: a queue whose oldest
        request has waited this long is flushed — at the next
        ``submit``/``poll`` under the sync backend, by the background
        flusher (without requiring traffic) under the thread and
        process backends.  There it is an upper bound, not a hold:
        while fewer than ``workers`` flushes are queued or running, a
        queued key is dispatched at once, so only a request whose
        workers are all busy waits for the deadline.  ``None`` disables
        the deadline and leaves flushing size-only (plus explicit
        ``flush``/``result`` calls).
    max_pending_per_key:
        Admission control: the most requests one key's queue may hold.
        A ``submit`` that would exceed it is handled per
        ``overload_policy`` *before* enqueueing, so overload is decided
        in O(1) at the front door instead of melting down the worker
        pool.  ``None`` (default) disables the per-key budget.
    max_pending_total:
        Admission control: the most requests all queues together may
        hold (the global memory/latency budget).  ``None`` disables it.
    overload_policy:
        What an over-budget ``submit`` does.  ``"reject"`` (default)
        raises a typed :class:`repro.errors.OverloadError` immediately —
        the caller sees backpressure and can retry later.  ``"degrade"``
        sheds load gracefully: the sample is served *inline* by binding
        its routed cluster-centroid parameters through the cached
        template with the finetune stage skipped entirely — the paper's
        offline/online split exploited as a fallback.  Degraded
        responses come back in microseconds with ``degraded=True`` and
        the centroid's (lower) fidelity instead of queueing behind a
        saturated fine-tune pipeline.
    flush_timeout:
        Thread backend only: seconds a dispatched flush may execute
        before the flusher *abandons* it — its tickets fail with
        :class:`repro.errors.DeadlineExceededError`, its key is freed
        for follow-up traffic, and the (unkillable) pipeline run's
        eventual result is discarded.  This bounds head-of-line
        blocking when one fine-tune wedges.  ``None`` (default)
        disables it.  The sync backend ignores it (a sync flush runs on
        the caller's thread; there is nobody to abandon it).
    retry_attempts:
        Most retries of a failing flush whose exception the service's
        transient classifier accepts (default classifier: the
        exception's ``transient`` attribute is truthy).  Retries re-run
        the *same* batch through the same pipeline — deterministic
        numerics — with exponential backoff and full jitter between
        attempts, and each request carries its attempt count across
        worker-death requeues so the budget is per ticket, not per
        dispatch.  ``0`` (default) disables retries.
    retry_backoff:
        Base backoff in seconds: attempt ``k`` sleeps
        ``retry_backoff * 2**k`` scaled by jitter.  ``0.0`` retries
        immediately (useful in tests).
    retry_jitter:
        Fraction of each backoff randomized away (full-jitter style):
        the sleep is uniform in
        ``[delay * (1 - retry_jitter), delay]``.  ``0.0`` is
        deterministic backoff, ``1.0`` is full jitter.
    retry_seed:
        Seed of the jitter RNG (retries stay reproducible).
    breaker_threshold:
        Per-key circuit breaker: after this many *consecutive* flush
        failures the key's breaker opens and submissions for it fail
        fast with :class:`repro.errors.CircuitOpenError` — a poisoned
        bundle stops burning workers.  After ``breaker_reset_timeout``
        seconds the breaker goes half-open: one probe batch is admitted;
        success closes the breaker, failure re-opens it for another
        timeout.  ``None`` (default) disables the breaker.
    breaker_reset_timeout:
        Seconds an open breaker waits before allowing the half-open
        probe.
    shard_strategy:
        Process backend only: how registry keys map onto worker
        processes.  ``"rendezvous"`` (default) uses highest-random-
        weight hashing over the *alive* fleet — when a worker dies only
        its own keys move, and they move straight to survivors (every
        process holds every bundle, so rerouting needs no data motion).
        ``"modulo"`` hashes the key modulo the fleet size and probes
        forward past dead slots — simpler to reason about, but a death
        reshuffles more keys.  Both use a stable content hash (never
        Python's per-process-salted ``hash``), so ``key -> worker`` is
        reproducible across runs and across the parent/bench tooling.
    spawn_timeout:
        Process backend only: seconds to wait for a worker process to
        come up and complete its ready handshake (covers interpreter
        start, imports, and deserializing every encoder bundle).
        Fleet spawn waits this long *per fleet*, respawns this long per
        replacement worker.
    handshake_timeout:
        Process backend only: seconds to wait for a worker's
        acknowledgement of a control message (e.g. shipping a newly
        ``register()``-ed bundle to the live fleet).  A worker that is
        mid-flush finishes that flush first, so size this above the
        slowest expected flush.
    """

    backend: str = "sync"
    workers: int = 4
    max_batch: int = 32
    max_delay: "float | None" = None
    max_pending_per_key: "int | None" = None
    max_pending_total: "int | None" = None
    overload_policy: str = "reject"
    flush_timeout: "float | None" = None
    retry_attempts: int = 0
    retry_backoff: float = 0.05
    retry_jitter: float = 0.5
    retry_seed: int = 0
    breaker_threshold: "int | None" = None
    breaker_reset_timeout: float = 30.0
    shard_strategy: str = "rendezvous"
    spawn_timeout: float = 60.0
    handshake_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.backend not in ("sync", "thread", "process"):
            raise ServiceError(
                f"backend must be 'sync', 'thread' or 'process', "
                f"got {self.backend!r}"
            )
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if self.max_delay is not None and self.max_delay < 0.0:
            raise ServiceError("max_delay must be non-negative (or None)")
        if self.max_pending_per_key is not None and self.max_pending_per_key < 1:
            raise ServiceError("max_pending_per_key must be >= 1 (or None)")
        if self.max_pending_total is not None and self.max_pending_total < 1:
            raise ServiceError("max_pending_total must be >= 1 (or None)")
        if self.overload_policy not in ("reject", "degrade"):
            raise ServiceError(
                f"overload_policy must be 'reject' or 'degrade', "
                f"got {self.overload_policy!r}"
            )
        if self.flush_timeout is not None and self.flush_timeout <= 0.0:
            raise ServiceError("flush_timeout must be > 0 (or None)")
        if self.retry_attempts < 0:
            raise ServiceError("retry_attempts must be >= 0")
        if self.retry_backoff < 0.0:
            raise ServiceError("retry_backoff must be non-negative")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ServiceError("retry_jitter must be in [0, 1]")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ServiceError("breaker_threshold must be >= 1 (or None)")
        if self.breaker_reset_timeout < 0.0:
            raise ServiceError("breaker_reset_timeout must be non-negative")
        if self.shard_strategy not in ("rendezvous", "modulo"):
            raise ServiceError(
                f"shard_strategy must be 'rendezvous' or 'modulo', "
                f"got {self.shard_strategy!r}"
            )
        if self.spawn_timeout <= 0.0:
            raise ServiceError("spawn_timeout must be > 0")
        if self.handshake_timeout <= 0.0:
            raise ServiceError("handshake_timeout must be > 0")

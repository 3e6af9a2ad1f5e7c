"""Streaming-service throughput: micro-batched submits vs per-sample encode.

Three serving claims are measured and gated here:

* **Streaming throughput** (the PR-3 tentpole): a stream of
  one-at-a-time ``EncodingService.submit`` calls (batch window 32,
  size-triggered flushes) must deliver >= 4x the throughput of the
  historical per-sample loop at 6 qubits (sequential fine-tune plus a
  full transpile per sample — ``per_sample_encode`` of
  ``bench_batch_throughput``), with identical cluster assignments and
  no fidelity regression.  The threaded backend
  is measured alongside (same traffic, background flusher + worker
  pool) to show the handoff machinery does not tax throughput.

* **Idle-gap latency** (the PR-5 tentpole): bursty traffic with idle
  gaps between bursts, far below the batch window, under a
  ``max_delay`` latency deadline.  The sync backend only flushes when
  some call arrives, so each burst waits a whole gap for the *next*
  burst's submit (p95 ~ gap); the threaded backend needs no follow-up
  traffic: an idle worker takes each burst at once, ``max_delay`` only
  bounds the wait behind a busy pool, and p95 must stay within the
  deadline plus one small-batch flush.

* **Overload shedding** (the PR-9 tentpole): traffic offered at 4x the
  measured capacity against a bounded admission queue
  (``max_pending_per_key``, ``overload_policy="reject"``).  Gates:
  shed submissions must fail fast (median reject < 1ms — admission is
  an O(1) front-door check, no pipeline work), accepted throughput
  must stay within 20% of the unthrottled baseline (30% in smoke —
  overload control must not tax the requests it admits), and accepted
  p95 latency must stay within a budget derived from the queue bound
  (a full admission queue is the worst case a request waits behind).

Runs standalone (``PYTHONPATH=src python benchmarks/bench_service_throughput.py``),
as a CI smoke check (``... --smoke`` — reduced 4-qubit scenarios, no
artifact write), or under pytest; the full run writes the
``BENCH_service_throughput.json`` artifact at the repo root so future
PRs can track the serving-path trajectory.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np
from bench_batch_throughput import per_sample_encode

from repro.core import EnQodeConfig, EnQodeEncoder
from repro.data import load_dataset
from repro.errors import OverloadError
from repro.hardware import brisbane_linear_segment
from repro.service import EncodingService

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_service_throughput.json"
)

NUM_SAMPLES = 64
BATCH_WINDOW = 32
QUBIT_COUNTS = (4, 6)
#: The acceptance gate applies at the paper-adjacent mid scale.
GATED_QUBITS = 6
MIN_SPEEDUP = 4.0
REPETITIONS = 3

#: Idle-gap scenario shape: bursts far below the batch window, with an
#: idle gap long against the deadline, so only a self-waking flusher
#: can honor ``IDLE_MAX_DELAY``.
IDLE_MAX_DELAY = 0.05
IDLE_GAP = 0.4
IDLE_BURST = 3
IDLE_NUM_BURSTS = 6
#: The async backend must serve p95 within deadline + one small-batch
#: flush + scheduling margin; the sync backend is expected to miss by
#: construction (its first chance to flush a burst is the next burst).
IDLE_ASYNC_P95_BUDGET = IDLE_MAX_DELAY + 0.10
IDLE_SYNC_P95_FLOOR = 0.8 * IDLE_GAP

#: Overload scenario: offered load vs measured capacity, queue bound as
#: a multiple of the batch window, paced-submit duration, and the gates
#: (reject fast-fail, accepted-throughput floor, derived p95 budget).
OVERLOAD_FACTOR = 4.0
OVERLOAD_QUEUE_WINDOWS = 2
OVERLOAD_SECONDS = 2.0
OVERLOAD_REJECT_BUDGET = 1e-3
OVERLOAD_THROUGHPUT_FLOOR = 0.8
OVERLOAD_SMOKE_THROUGHPUT_FLOOR = 0.7

#: Multi-process scenario (the PR-10 tentpole): the fine-tune is
#: CPU-bound numpy/scipy holding the GIL, so threaded workers serialize
#: on compute; worker *processes* must actually scale it.  Traffic
#: spreads over PROCESS_KEYS keys with distinct (float-identical)
#: encoder clones, because flushes single-flight per key and per
#: pipeline — multi-key traffic is what a fleet parallelizes.  The
#: >= 1.5x-threaded gate only binds where the host can physically show
#: it (``os.cpu_count() >= PROCESS_MIN_CORES``); smaller hosts record
#: a waiver in the artifact instead of a vacuous failure.  Smoke uses
#: a loose floor — there it is a correctness/liveness check, not a
#: scaling claim.
PROCESS_WORKERS = 4
PROCESS_KEYS = 4
PROCESS_MIN_SPEEDUP_VS_THREAD = 1.5
PROCESS_MIN_CORES = 4
PROCESS_SMOKE_FLOOR = 0.2
#: Accepted p95 must stay within a slack factor of the threaded p95 —
#: crossing the pipe may not wreck tail latency.
PROCESS_P95_FACTOR = 2.0
PROCESS_P95_SLACK_SECONDS = 0.25


def _fitted_encoder(num_qubits: int, num_samples: int):
    # PCA requires at least 2**num_qubits samples.
    dataset = load_dataset(
        "mnist",
        samples_per_class=60,
        num_features=2**num_qubits,
        seed=0,
    )
    config = EnQodeConfig(
        num_qubits=num_qubits,
        num_layers=8,
        offline_restarts=2,
        offline_max_iterations=500,
        online_max_iterations=80,
        max_clusters=24,
        seed=7,
    )
    encoder = EnQodeEncoder(brisbane_linear_segment(num_qubits), config)
    encoder.fit(dataset.amplitudes)
    return encoder, dataset.amplitudes[:num_samples]


# -- streaming throughput --------------------------------------------------------------


def _stream_once(
    encoder: EnQodeEncoder, samples: np.ndarray, window: int
):
    """One full streaming pass: submit one at a time, drain the tail."""
    service = EncodingService(max_batch=window)
    service.register("bench", encoder)
    tickets = [service.submit(x, key="bench") for x in samples]
    service.flush()
    return service, [ticket.result(flush=False) for ticket in tickets]


def _stream_once_threaded(
    encoder: EnQodeEncoder, samples: np.ndarray, window: int
):
    """Same traffic through the background flusher + worker pool."""
    service = EncodingService(max_batch=window, backend="thread", workers=4)
    service.register("bench", encoder)
    with service:
        tickets = [service.submit(x, key="bench") for x in samples]
        service.drain()
        responses = [ticket.result(flush=False) for ticket in tickets]
    return service, responses


def _check_equivalence(sequential, responses) -> dict:
    """Streamed results must match the per-sample loop (batch-path rules)."""
    diffs = [
        r.fidelity - s.ideal_fidelity
        for s, r in zip(sequential, responses)
    ]
    return {
        "max_fidelity_diff": float(max(abs(d) for d in diffs)),
        "min_fidelity_advantage": float(min(diffs)),
        "clusters_equal": bool(
            all(
                r.cluster_index == s.cluster_index
                for s, r in zip(sequential, responses)
            )
        ),
        "gate_counts_equal": bool(
            all(
                r.circuit.count_ops() == s.circuit.count_ops()
                for s, r in zip(sequential, responses)
            )
        ),
    }


def run_scenario(num_qubits: int, num_samples: int, window: int) -> dict:
    encoder, samples = _fitted_encoder(num_qubits, num_samples)
    # Warm both paths (template build, numpy/scipy caches).
    sequential = [per_sample_encode(encoder, x) for x in samples[:2]]
    _stream_once(encoder, samples[:2], window)

    seq_times, stream_times, threaded_times = [], [], []
    service = None
    responses = None
    threaded_responses = None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        sequential = [per_sample_encode(encoder, x) for x in samples]
        seq_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        service, responses = _stream_once(encoder, samples, window)
        stream_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        _, threaded_responses = _stream_once_threaded(
            encoder, samples, window
        )
        threaded_times.append(time.perf_counter() - start)

    seq_time = float(np.median(seq_times))
    stream_time = float(np.median(stream_times))
    threaded_time = float(np.median(threaded_times))
    stats = service.stats()
    assert stats.requests_completed == num_samples
    threaded_equiv = _check_equivalence(sequential, threaded_responses)
    return {
        "num_samples": num_samples,
        "batch_window": window,
        "sequential_seconds": seq_time,
        "streaming_seconds": stream_time,
        "threaded_seconds": threaded_time,
        "sequential_samples_per_sec": num_samples / seq_time,
        "streaming_samples_per_sec": num_samples / stream_time,
        "threaded_samples_per_sec": num_samples / threaded_time,
        "speedup": seq_time / stream_time,
        "threaded_speedup": seq_time / threaded_time,
        "threaded_clusters_equal": threaded_equiv["clusters_equal"],
        "threaded_max_fidelity_diff": threaded_equiv["max_fidelity_diff"],
        "num_flushes": stats.num_flushes,
        "mean_batch_size": stats.mean_batch_size,
        "p50_latency_ms": stats.p50_latency * 1e3,
        "p95_latency_ms": stats.p95_latency * 1e3,
        "evals_per_sample": stats.evals_per_sample,
        "template_cache_hits": stats.template_cache_hits,
        "template_cache_misses": stats.template_cache_misses,
        **_check_equivalence(sequential, responses),
    }


# -- idle-gap latency ------------------------------------------------------------------


def _idle_gap_traffic(service, samples, gap, burst, final_poll):
    """Bursty submits with idle gaps; optionally poll once at the end.

    ``final_poll`` models the sync backend's best case — some late
    housekeeping call eventually arrives — without giving it traffic
    during the gaps (where the deadline should have fired).
    """
    tickets = []
    for start in range(0, len(samples), burst):
        for x in samples[start : start + burst]:
            tickets.append(service.submit(x, key="bench"))
        time.sleep(gap)
    if final_poll:
        service.poll()
    return [ticket.result(timeout=10.0) for ticket in tickets]


def run_idle_gap_scenario(
    num_qubits: int,
    gap: float = IDLE_GAP,
    burst: int = IDLE_BURST,
    num_bursts: int = IDLE_NUM_BURSTS,
    max_delay: float = IDLE_MAX_DELAY,
) -> dict:
    encoder, samples = _fitted_encoder(num_qubits, burst * num_bursts)
    samples = samples[: burst * num_bursts]
    encoder.encode_batch(samples[:burst])  # warm template + caches

    sync_service = EncodingService(
        max_batch=BATCH_WINDOW, max_delay=max_delay
    )
    sync_service.register("bench", encoder)
    sync_responses = _idle_gap_traffic(
        sync_service, samples, gap, burst, final_poll=True
    )

    async_service = EncodingService(
        max_batch=BATCH_WINDOW,
        max_delay=max_delay,
        backend="thread",
        workers=2,
    )
    async_service.register("bench", encoder)
    with async_service:
        async_responses = _idle_gap_traffic(
            async_service, samples, gap, burst, final_poll=False
        )

    sync_stats = sync_service.stats()
    async_stats = async_service.stats()
    assert sync_stats.requests_completed == len(samples)
    assert async_stats.requests_completed == len(samples)
    clusters_equal = all(
        a.cluster_index == s.cluster_index
        for a, s in zip(async_responses, sync_responses)
    )
    return {
        "num_samples": len(samples),
        "burst": burst,
        "gap_seconds": gap,
        "max_delay": max_delay,
        "sync_p50_latency_ms": sync_stats.p50_latency * 1e3,
        "sync_p95_latency_ms": sync_stats.p95_latency * 1e3,
        "async_p50_latency_ms": async_stats.p50_latency * 1e3,
        "async_p95_latency_ms": async_stats.p95_latency * 1e3,
        "async_flusher_wakeups": async_stats.flusher_wakeups,
        "async_meets_deadline_budget": bool(
            async_stats.p95_latency <= IDLE_ASYNC_P95_BUDGET
        ),
        "sync_misses_deadline": bool(
            sync_stats.p95_latency >= IDLE_SYNC_P95_FLOOR
        ),
        "clusters_equal": bool(clusters_equal),
    }


# -- overload shedding -----------------------------------------------------------------


def run_overload_scenario(
    num_qubits: int,
    window: int = BATCH_WINDOW,
    seconds: float = OVERLOAD_SECONDS,
    num_baseline: int = NUM_SAMPLES,
) -> dict:
    """Offer 4x measured capacity against a bounded admission queue.

    Phase 1 measures closed-loop capacity (the baseline the throughput
    floor is relative to); phase 2 paces submissions at
    ``OVERLOAD_FACTOR`` times that rate against
    ``max_pending_per_key = OVERLOAD_QUEUE_WINDOWS * window`` with the
    reject policy, timing every shed submission's wall cost.
    """
    encoder, samples = _fitted_encoder(num_qubits, num_baseline)
    encoder.encode_batch(samples[: min(8, len(samples))])  # warm caches

    # Phase 1: closed-loop capacity through the same backend shape.
    # The submitter stays live for the whole window, topping the queue
    # back up to queue_bound whenever it drops — the same driver-thread
    # presence the overload phase has, so the throughput floor compares
    # like with like (a fire-and-drain burst baseline leaves the driver
    # idle while the workers encode, overstating capacity by the CPU
    # share the paced offerer consumes in phase 2).
    queue_bound = OVERLOAD_QUEUE_WINDOWS * window
    baseline = EncodingService(max_batch=window, backend="thread", workers=2)
    baseline.register("bench", encoder)
    submitted = 0
    with baseline:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if baseline.pending < queue_bound:
                baseline.submit(
                    samples[submitted % len(samples)], key="bench"
                )
                submitted += 1
            else:
                time.sleep(0.0005)
        baseline.drain()
        baseline_elapsed = time.perf_counter() - start
    baseline_stats = baseline.stats()
    assert baseline_stats.requests_completed == submitted
    baseline_sps = submitted / baseline_elapsed

    # Phase 2: paced 4x-over-capacity offered load, bounded queue.
    service = EncodingService(
        max_batch=window,
        backend="thread",
        workers=2,
        max_pending_per_key=queue_bound,
        overload_policy="reject",
    )
    service.register("bench", encoder)
    interval = 1.0 / (OVERLOAD_FACTOR * baseline_sps)
    reject_seconds: list = []
    accepted = 0
    offered = 0
    with service:
        start = time.perf_counter()
        next_at = start
        while True:
            now = time.perf_counter()
            if now - start >= seconds:
                break
            if now < next_at:
                time.sleep(min(next_at - now, 0.001))
                continue
            next_at += interval
            sample = samples[offered % len(samples)]
            offered += 1
            call_start = time.perf_counter()
            try:
                service.submit(sample, key="bench")
                accepted += 1
            except OverloadError:
                reject_seconds.append(time.perf_counter() - call_start)
        service.drain()
        total_elapsed = time.perf_counter() - start
    stats = service.stats()
    assert stats.rejected == len(reject_seconds)
    assert stats.requests_completed == accepted
    assert stats.requests_submitted == offered
    accepted_sps = accepted / total_elapsed

    # Derived p95 budget: the worst case an accepted request waits is a
    # full admission queue draining at capacity, plus flush/scheduling
    # slack.  Generous on purpose — the gate is "bounded", not "fast".
    p95_budget = 4.0 * (queue_bound / baseline_sps) + 0.25
    return {
        "num_qubits": num_qubits,
        "batch_window": window,
        "queue_bound": queue_bound,
        "overload_factor": OVERLOAD_FACTOR,
        "duration_seconds": seconds,
        "offered": offered,
        "accepted": accepted,
        "rejected": len(reject_seconds),
        "baseline_samples_per_sec": baseline_sps,
        "baseline_p95_latency_ms": baseline_stats.p95_latency * 1e3,
        "accepted_samples_per_sec": accepted_sps,
        "accepted_over_baseline": accepted_sps / baseline_sps,
        "accepted_p95_latency_ms": stats.p95_latency * 1e3,
        "accepted_p95_budget_ms": p95_budget * 1e3,
        "median_reject_ms": (
            float(np.median(reject_seconds)) * 1e3
            if reject_seconds
            else float("nan")
        ),
        "max_reject_ms": (
            float(np.max(reject_seconds)) * 1e3
            if reject_seconds
            else float("nan")
        ),
        "accepted_p95_within_budget": bool(
            stats.p95_latency <= p95_budget
        ),
        "rejects_fail_fast": bool(
            reject_seconds
            and float(np.median(reject_seconds)) < OVERLOAD_REJECT_BUDGET
        ),
    }


# -- multi-process fleet ---------------------------------------------------------------


def _cloned_encoders(encoder, count: int) -> list:
    """Distinct encoder objects with bit-identical numerics.

    The JSON bundle roundtrip is float-exact, and each clone owns its
    own pipeline — so multi-key traffic over the clones can flush
    concurrently (single-flight is per key *and* per pipeline) while
    every response stays comparable to the original encoder."""
    from repro.core.serialization import encoder_from_dict, encoder_to_dict

    payload = encoder_to_dict(encoder)
    return [
        encoder_from_dict(payload, encoder.backend) for _ in range(count)
    ]


def _keyed_service(backend_name, encoders, keys, window, workers):
    service = EncodingService(
        max_batch=window, backend=backend_name, workers=workers
    )
    for key, clone in zip(keys, encoders):
        service.register(key, clone)
    return service


def _timed_keyed_stream(service, samples, keys) -> tuple:
    """Round-robin the samples over the keys; wall-clock to drained."""
    start = time.perf_counter()
    tickets = [
        service.submit(x, key=keys[i % len(keys)])
        for i, x in enumerate(samples)
    ]
    service.drain(timeout=600.0)
    elapsed = time.perf_counter() - start
    return elapsed, tickets


def run_process_scenario(
    num_qubits: int,
    num_samples: int = NUM_SAMPLES,
    window: int = 8,
    workers: int = PROCESS_WORKERS,
    num_keys: int = PROCESS_KEYS,
) -> dict:
    """Threaded vs process fleet on identical multi-key traffic.

    Fleet spawn is excluded from the timing (it is a once-per-deploy
    cost) and each backend is warmed with one flush per key first, so
    the comparison is steady-state serving throughput.  The process
    responses are additionally checked float-bit identical to an
    ``encode_batch`` replay of the same per-key flush partition — the
    wire crossing must be invisible."""
    import os

    encoder, samples = _fitted_encoder(num_qubits, num_samples)
    keys = [f"bench-{i}" for i in range(num_keys)]
    warm = samples[:num_keys]
    results = {}
    tickets_by_backend = {}
    for backend_name in ("thread", "process"):
        service = _keyed_service(
            backend_name,
            _cloned_encoders(encoder, num_keys),
            keys,
            window,
            workers,
        )
        with service:
            # Warm every key (template caches on both sides of the
            # boundary) outside the timed window.
            for key, x in zip(keys, warm):
                service.submit(x, key=key)
            service.drain(timeout=600.0)
            elapsed, tickets = _timed_keyed_stream(service, samples, keys)
            stats = service.stats()
        results[backend_name] = {
            "seconds": elapsed,
            "samples_per_sec": num_samples / elapsed,
            "p95_latency_ms": stats.p95_latency * 1e3,
        }
        tickets_by_backend[backend_name] = (service, tickets)

    # Correctness: process responses grouped by (key, flush_id) replay
    # bit-identically through a synchronous encode_batch.
    service, tickets = tickets_by_backend["process"]
    groups: dict = {}
    for ticket in tickets:
        response = ticket.response
        groups.setdefault((response.key, response.flush_id), []).append(
            (response, ticket.request.sample)
        )
    replay_identical = True
    for (key, _fid), group in groups.items():
        reference = service.registry.get(key).encode_batch(
            np.stack([sample for _, sample in group])
        )
        for (response, _), ref in zip(group, reference):
            if not (
                response.cluster_index == ref.cluster_index
                and np.array_equal(response.encoded.theta, ref.theta)
                and response.encoded.ideal_fidelity == ref.ideal_fidelity
            ):
                replay_identical = False

    # Rejected-submit latency: admission stays an O(1) parent-side
    # front-door check — a process fleet must not tax the reject path.
    reject_service = EncodingService(
        max_batch=window,
        backend="process",
        workers=2,
        max_pending_per_key=window,
        overload_policy="reject",
    )
    for key, clone in zip(keys[:1], _cloned_encoders(encoder, 1)):
        reject_service.register(key, clone)
    reject_seconds: list = []
    with reject_service:
        offered = 0
        while len(reject_seconds) < 32 and offered < 64 * window:
            call_start = time.perf_counter()
            try:
                reject_service.submit(
                    samples[offered % len(samples)], key=keys[0]
                )
            except OverloadError:
                reject_seconds.append(time.perf_counter() - call_start)
            offered += 1
        reject_service.drain(timeout=600.0)
    median_reject = (
        float(np.median(reject_seconds)) if reject_seconds else float("nan")
    )

    thread_row = results["thread"]
    process_row = results["process"]
    speedup = thread_row["seconds"] / process_row["seconds"]
    cpu_count = os.cpu_count() or 1
    p95_budget_ms = (
        max(
            PROCESS_P95_FACTOR * thread_row["p95_latency_ms"],
            thread_row["p95_latency_ms"]
            + PROCESS_P95_SLACK_SECONDS * 1e3,
        )
    )
    return {
        "num_qubits": num_qubits,
        "num_samples": num_samples,
        "num_keys": num_keys,
        "workers": workers,
        "batch_window": window,
        "cpu_count": cpu_count,
        "threaded_seconds": thread_row["seconds"],
        "threaded_samples_per_sec": thread_row["samples_per_sec"],
        "threaded_p95_latency_ms": thread_row["p95_latency_ms"],
        "process_seconds": process_row["seconds"],
        "process_samples_per_sec": process_row["samples_per_sec"],
        "process_p95_latency_ms": process_row["p95_latency_ms"],
        "speedup_vs_threaded": speedup,
        "replay_identical": bool(replay_identical),
        "process_p95_budget_ms": p95_budget_ms,
        "process_p95_within_budget": bool(
            process_row["p95_latency_ms"] <= p95_budget_ms
        ),
        "rejected": len(reject_seconds),
        "median_reject_ms": median_reject * 1e3,
        "rejects_fail_fast": bool(
            reject_seconds and median_reject < OVERLOAD_REJECT_BUDGET
        ),
        #: The scaling gate binds only where the host has the cores to
        #: show it; otherwise the artifact records the waiver.
        "speedup_gate_applies": bool(cpu_count >= PROCESS_MIN_CORES),
        "speedup_gate_waived_reason": (
            None
            if cpu_count >= PROCESS_MIN_CORES
            else f"host has {cpu_count} cpu(s) < {PROCESS_MIN_CORES}"
        ),
    }


def run_benchmark() -> dict:
    return {
        "streaming": {
            str(num_qubits): run_scenario(
                num_qubits, NUM_SAMPLES, BATCH_WINDOW
            )
            for num_qubits in QUBIT_COUNTS
        },
        "idle_gap": {
            str(num_qubits): run_idle_gap_scenario(num_qubits)
            for num_qubits in QUBIT_COUNTS
        },
        #: Overload runs at the gated scale only — it refits an encoder
        #: per scenario, and the gates are capacity-relative anyway.
        "overload": {
            str(GATED_QUBITS): run_overload_scenario(GATED_QUBITS)
        },
        #: Process fleet at the gated scale only, for the same reason.
        "process": {
            str(GATED_QUBITS): run_process_scenario(GATED_QUBITS)
        },
    }


def publish(results: dict) -> None:
    """Print the results table (the artifact is written separately)."""
    header = (
        f"{'qubits':>6} {'seq s/s':>10} {'stream s/s':>11} {'thread s/s':>11} "
        f"{'speedup':>8} {'fid diff':>10}"
    )
    print("\n" + header)
    for qubits, row in sorted(results.get("streaming", {}).items()):
        print(
            f"{qubits:>6} {row['sequential_samples_per_sec']:>10.1f} "
            f"{row['streaming_samples_per_sec']:>11.1f} "
            f"{row['threaded_samples_per_sec']:>11.1f} "
            f"{row['speedup']:>7.1f}x {row['max_fidelity_diff']:>10.1e}"
        )
    idle = results.get("idle_gap", {})
    if idle:
        print(
            f"{'qubits':>6} {'sync p95 ms':>12} {'async p95 ms':>13} "
            f"{'deadline ms':>12} {'wakeups':>8}"
        )
        for qubits, row in sorted(idle.items()):
            print(
                f"{qubits:>6} {row['sync_p95_latency_ms']:>12.1f} "
                f"{row['async_p95_latency_ms']:>13.1f} "
                f"{row['max_delay'] * 1e3:>12.1f} "
                f"{row['async_flusher_wakeups']:>8}"
            )
    overload = results.get("overload", {})
    if overload:
        print(
            f"{'qubits':>6} {'base s/s':>10} {'accept s/s':>11} "
            f"{'shed':>6} {'reject ms':>10} {'p95 ms':>9}"
        )
        for qubits, row in sorted(overload.items()):
            print(
                f"{qubits:>6} {row['baseline_samples_per_sec']:>10.1f} "
                f"{row['accepted_samples_per_sec']:>11.1f} "
                f"{row['rejected']:>6} "
                f"{row['median_reject_ms']:>10.3f} "
                f"{row['accepted_p95_latency_ms']:>9.1f}"
            )
    process = results.get("process", {})
    if process:
        print(
            f"{'qubits':>6} {'thread s/s':>11} {'process s/s':>12} "
            f"{'vs thread':>10} {'p95 ms':>9} {'reject ms':>10}"
        )
        for qubits, row in sorted(process.items()):
            waiver = (
                ""
                if row["speedup_gate_applies"]
                else f"  (gate waived: {row['speedup_gate_waived_reason']})"
            )
            print(
                f"{qubits:>6} {row['threaded_samples_per_sec']:>11.1f} "
                f"{row['process_samples_per_sec']:>12.1f} "
                f"{row['speedup_vs_threaded']:>9.2f}x "
                f"{row['process_p95_latency_ms']:>9.1f} "
                f"{row['median_reject_ms']:>10.3f}{waiver}"
            )


def write_artifact(results: dict) -> None:
    """Write ``BENCH_*.json``; full runs call this after every gate."""
    ARTIFACT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"artifact: {ARTIFACT}")


def test_service_throughput():
    results = run_benchmark()
    publish(results)
    for row in results["streaming"].values():
        assert row["clusters_equal"]
        assert row["threaded_clusters_equal"]
        # Streaming may only ever match or beat the sequential optimizer.
        assert row["min_fidelity_advantage"] > -1e-9
    # Strict acceptance gate at the paper-adjacent mid scale: numerically
    # equivalent results and >= 4x streaming throughput at window 32.
    gated = results["streaming"][str(GATED_QUBITS)]
    assert gated["max_fidelity_diff"] < 1e-9
    assert gated["threaded_max_fidelity_diff"] < 1e-9
    assert gated["gate_counts_equal"]
    assert gated["speedup"] >= MIN_SPEEDUP
    # The background flusher's handoff must not tax streaming throughput
    # below the acceptance bar either.
    assert gated["threaded_speedup"] >= MIN_SPEEDUP
    # Idle-gap gate: the async backend honors max_delay on a quiet
    # queue; the sync backend structurally cannot (it waits for the
    # next burst's submit), which is the whole case for the backend.
    for row in results["idle_gap"].values():
        assert row["clusters_equal"]
        assert row["async_meets_deadline_budget"], row
        assert row["sync_misses_deadline"], row
    # Overload gates: shed fast, admit at near-capacity, bound the p95.
    for row in results["overload"].values():
        assert row["rejected"] > 0, row  # 4x offered load actually shed
        assert row["rejects_fail_fast"], row
        assert (
            row["accepted_over_baseline"] >= OVERLOAD_THROUGHPUT_FLOOR
        ), row
        assert row["accepted_p95_within_budget"], row
    # Process-fleet gates: responses cross the wire bit-identically,
    # rejects stay O(1), tail latency stays bounded, and — where the
    # host has the cores — 4 workers beat the GIL-bound thread pool.
    for row in results["process"].values():
        assert row["replay_identical"], row
        assert row["rejected"] > 0, row
        assert row["rejects_fail_fast"], row
        assert row["process_p95_within_budget"], row
        if row["speedup_gate_applies"]:
            assert (
                row["speedup_vs_threaded"]
                >= PROCESS_MIN_SPEEDUP_VS_THREAD
            ), row
    write_artifact(results)


def smoke() -> None:
    """CI guard: reduced 4-qubit scenarios, no artifact write."""
    results = {
        "streaming": {"4q_smoke": run_scenario(4, 16, 8)},
        "idle_gap": {
            "4q_smoke": run_idle_gap_scenario(
                4, gap=0.3, burst=2, num_bursts=3, max_delay=0.04
            )
        },
        "overload": {
            "4q_smoke": run_overload_scenario(
                4, window=8, seconds=1.0, num_baseline=16
            )
        },
        "process": {
            "4q_smoke": run_process_scenario(
                4, num_samples=16, window=4, workers=2, num_keys=2
            )
        },
    }
    publish(results)
    row = results["streaming"]["4q_smoke"]
    assert row["clusters_equal"]
    assert row["threaded_clusters_equal"]
    assert row["max_fidelity_diff"] < 1e-9
    assert row["threaded_max_fidelity_diff"] < 1e-9
    assert row["num_flushes"] == 2  # 16 submits through window 8
    idle = results["idle_gap"]["4q_smoke"]
    assert idle["clusters_equal"]
    # Loose smoke bounds (CI machines jitter): the async backend must
    # still beat the burst gap by a wide margin while sync waits it out.
    assert idle["async_p95_latency_ms"] < 0.5 * idle["gap_seconds"] * 1e3
    assert idle["sync_p95_latency_ms"] > 0.5 * idle["gap_seconds"] * 1e3
    overload = results["overload"]["4q_smoke"]
    assert overload["rejected"] > 0, overload
    assert overload["rejects_fail_fast"], overload
    assert (
        overload["accepted_over_baseline"]
        >= OVERLOAD_SMOKE_THROUGHPUT_FLOOR
    ), overload
    assert overload["accepted_p95_within_budget"], overload
    process = results["process"]["4q_smoke"]
    # Smoke is a correctness/liveness check for the fleet, not a
    # scaling claim: bit-identical replay, fast rejects, and a floor
    # loose enough for single-core CI runners.
    assert process["replay_identical"], process
    assert process["rejects_fail_fast"], process
    assert process["speedup_vs_threaded"] >= PROCESS_SMOKE_FLOOR, process
    print("service throughput smoke: ok")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        smoke()
    else:
        test_service_throughput()

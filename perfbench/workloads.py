"""The benchmark workloads: fixed fit data, seeded requests, load loops.

Each workload fixes its fit data (``DATA_SEED``); ``--seed`` draws only
the requests and their arrival times.  The work of one run is a fixed
number of requests (``per_second`` times ``--seconds``), never "as many
as fit in the time", so two runs of one seed do identical work.

Requests are blends of two held-out rows of one class (fresh weights per
request), so every request is distinct, none is a fit row, and no exact
repeat can hand a future exact-hit cache a free win.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import time

import numpy as np
from checks import CheckFailed

from repro.core import EnQodeConfig, EnQodeEncoder
from repro.data import load_dataset
from repro.errors import ServiceError
from repro.hardware import brisbane_linear_segment
from repro.service import EncodingService

#: The service's default clock.  Request stamps, due times and trace
#: spans all read it, so they subtract directly.
CLOCK = time.monotonic

DATA_SEED = 0
FIT_PER_CLASS = 60
POOL_PER_CLASS = 60
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Served samples re-simulated by the correctness gate, and the fixed
#: subset the circuit metrics average over.
CHECK_ROWS = 24
#: Flush partitions the process workload replays through encode_batch.
REPLAY_FLUSHES = 8
WAIT_TIMEOUT = 60.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic shape; its ``why`` in ``BENCHMARK.json`` restates it."""

    name: str
    qubits: int
    #: "encoder" drives ``encode_batch`` directly (one encoder fitted on
    #: every class); otherwise the ``EncodingService`` backend, serving
    #: one encoder per class.
    backend: str
    loop: str
    #: Work per second of ``--seconds``: calls on batch-8q, requests
    #: otherwise.  On an open loop this is also the arrival rate.
    per_second: float
    limit_ms: float
    tail_pct: float
    max_batch: int = 32
    max_delay: "float | None" = None
    batch_rows: int = 64
    #: Service workers (threads or processes); never more than the
    #: host's two cores.
    workers: int = 2


# The open loops run far below saturation: near it, batch sizes and GIL
# contention amplify host noise.  At 6 arrivals/s per key a 40 ms
# deadline window mostly holds one request, so most flushes take the
# single-row path, and the fixed wait keeps compute noise a small part
# of the latency.  Each tail is the highest percentile with at least ten
# samples beyond it that stayed steady across seeds during tuning.  The
# fleet runs one worker process: on the shared 2-vCPU Xeon VM it was
# tuned on, two CPU-bound processes get only ~1.2x the throughput of
# one, so a second worker beside the parent adds scheduler contention,
# not capacity.  Over six interleaved seed pairs there, one worker gave
# fleet p90 an IQR/median of 4.7% against 12.1% with two (p50: 2.4%
# against 4.1%).
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "batch-8q", 8, "encoder", "closed", per_second=16.0,
            limit_ms=250.0, tail_pct=90.0,
        ),
        Workload(
            "stream-4q", 4, "sync", "closed", per_second=1500.0,
            limit_ms=250.0, tail_pct=95.0,
        ),
        Workload(
            "serve-4q", 4, "thread", "open", per_second=30.0,
            limit_ms=100.0, tail_pct=90.0, max_delay=0.04,
        ),
        Workload(
            "fleet-6q", 6, "process", "open", per_second=30.0,
            limit_ms=100.0, tail_pct=90.0, max_delay=0.04, workers=1,
        ),
    )
}


def work_count(wl: Workload, seconds: float) -> int:
    """Requests (or batches) one run serves: fixed by ``--seconds``.

    Never fewer than the tail percentile needs to keep ten samples
    beyond it.
    """
    floor = math.ceil(10.0 / (1.0 - wl.tail_pct / 100.0))
    return max(floor, int(round(wl.per_second * seconds)))


# -- inputs ----------------------------------------------------------------------


def fixed_data(wl: Workload):
    """``(fit rows by class, held-out pool by class)`` — seed-independent."""
    dataset = load_dataset(
        "mnist",
        samples_per_class=FIT_PER_CLASS + POOL_PER_CLASS,
        num_features=2**wl.qubits,
        seed=DATA_SEED,
    )
    fit, pool = {}, {}
    for label in dataset.classes():
        rows = dataset.class_slice(label)
        fit[int(label)] = rows[:FIT_PER_CLASS]
        pool[int(label)] = rows[FIT_PER_CLASS:]
    return fit, pool


def draw_requests(pool: dict, count: int, rng) -> np.ndarray:
    """``count`` distinct unit rows, each a blend of two held-out rows."""
    stacked = np.stack([pool[label] for label in sorted(pool)])
    classes, size = stacked.shape[0], stacked.shape[1]
    # Every class gets an equal share, so the class mix (and with it the
    # fidelity metrics) does not drift from seed to seed.
    cls = rng.permutation(np.arange(count) % classes)
    first = rng.integers(size, size=count)
    second = (first + rng.integers(1, size, size=count)) % size
    weight = rng.uniform(0.55, 0.95, size=count)[:, None]
    rows = weight * stacked[cls, first] + (1.0 - weight) * stacked[cls, second]
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def repeat_share(requests: np.ndarray, fit: dict) -> float:
    """Share of requests that repeat another request or equal a fit row."""
    seen = {row.tobytes() for rows in fit.values() for row in rows}
    repeats = 0
    for row in requests:
        key = row.tobytes()
        repeats += key in seen
        seen.add(key)
    return repeats / len(requests)


def arrival_offsets(wl: Workload, count: int, rng) -> np.ndarray:
    """Poisson arrivals conditioned on ``count`` events in ``count/rate`` s.

    Sorted uniform times are exactly a Poisson process given its event
    count, so the offered rate is the same in every run.
    """
    return np.sort(rng.uniform(0.0, count / wl.per_second, size=count))


# -- set-up ----------------------------------------------------------------------


def encoder_config(qubits: int) -> EnQodeConfig:
    return EnQodeConfig(
        num_qubits=qubits,
        num_layers=8,
        offline_restarts=2,
        offline_max_iterations=500,
        online_max_iterations=80,
        max_clusters=24,
        seed=7,
    )


@dataclasses.dataclass
class State:
    encoders: dict
    service: "EncodingService | None"
    seconds: float = 0.0


def setup(wl: Workload, fit: dict) -> State:
    """Fit, build the template and start the service; then warm up.

    ``State.seconds`` times the set-up proper: fit, template build, and
    service start or fleet spawn.  A fresh hardware backend object per
    set-up gives the template cache a fresh key, so each set-up pays its
    own template build.  The untimed warm-up that follows runs one 2-row
    and one 1-row batch per key, so both fine-tune engines (and each
    fleet worker's own template) are warm before the timed phase.
    """
    start = CLOCK()
    hw = brisbane_linear_segment(wl.qubits)
    config = encoder_config(wl.qubits)
    if wl.backend == "encoder":
        encoder = EnQodeEncoder(hw, config)
        encoder.fit(np.concatenate([fit[label] for label in sorted(fit)]))
        encoder.pipeline.lower.template()
        seconds = CLOCK() - start
        encoder.encode_batch(fit[min(fit)][:2])
        encoder.encode_batch(fit[min(fit)][2:3])
        return State({"all": encoder}, None, seconds)
    encoders = {}
    for label in sorted(fit):
        encoder = EnQodeEncoder(hw, config)
        encoder.fit(fit[label])
        encoders[label] = encoder
    next(iter(encoders.values())).pipeline.lower.template()
    service = EncodingService(
        max_batch=wl.max_batch,
        max_delay=wl.max_delay,
        backend=wl.backend,
        workers=wl.workers,
    )
    for label, encoder in encoders.items():
        service.register(label, encoder)
    service.start()
    seconds = CLOCK() - start
    try:
        for label in encoders:
            for rows in (fit[label][:2], fit[label][2:3]):
                tickets = [service.submit(row, key=label) for row in rows]
                service.flush(label)
                for ticket in tickets:
                    ticket.result(timeout=WAIT_TIMEOUT)
    except BaseException:
        service.stop(drain=False)
        raise
    return State(encoders, service, seconds)


def teardown(state: State) -> None:
    if state.service is not None:
        state.service.stop()


# -- load loops ------------------------------------------------------------------


@dataclasses.dataclass
class Served:
    """What one pass over the requests produced."""

    attempted: int
    failed: int
    #: Completed requests' latencies in seconds, in request order (per
    #: call on batch-8q).
    latency: np.ndarray
    slo_hits: int
    #: Seconds of the timed pass; on open loops from the first due time
    #: to the last completion.
    span: float
    fidelity: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray
    #: Request index -> EncodeResponse (services) for every completed
    #: request, or -> EncodedSample for the kept batch-8q rows.
    results: dict
    lag: "np.ndarray | None" = None
    stats: object = None

    @property
    def completed(self) -> int:
        return len(self.fidelity)


def drive(wl, state, requests, offsets, keep) -> Served:
    if wl.backend == "encoder":
        return _drive_batch(wl, state, requests, keep)
    if wl.loop == "closed":
        return _drive_stream(wl, state, requests)
    return _drive_open(wl, state, requests, offsets)


def _drive_batch(wl, state, requests, keep) -> Served:
    encoder = state.encoders["all"]
    rows = wl.batch_rows
    calls = len(requests) // rows
    latency = np.empty(calls)
    fidelity = np.empty(calls * rows)
    iterations = np.empty(calls * rows)
    evaluations = np.empty(calls * rows)
    kept = {}
    begin = CLOCK()
    for call in range(calls):
        lo = call * rows
        start = CLOCK()
        out = encoder.encode_batch(requests[lo : lo + rows])
        latency[call] = CLOCK() - start
        for offset, sample in enumerate(out):
            fidelity[lo + offset] = sample.ideal_fidelity
            iterations[lo + offset] = sample.optimizer_iterations
            evaluations[lo + offset] = sample.optimizer_evaluations
            if lo + offset in keep:
                kept[lo + offset] = sample
    span = CLOCK() - begin
    return Served(
        attempted=calls * rows,
        failed=0,
        latency=latency,
        slo_hits=int(np.sum(latency <= wl.limit_ms / 1e3)) * rows,
        span=span,
        fidelity=fidelity,
        iterations=iterations,
        evaluations=evaluations,
        results=kept,
    )


def _collect(wl, tickets, due, span=None, lag=None, stats=None) -> Served:
    """Turn resolved tickets into a :class:`Served` (services)."""
    limit = wl.limit_ms / 1e3
    results, latency, failed, hits = {}, [], 0, 0
    for index, ticket in enumerate(tickets):
        if ticket is not None and not (ticket.done or ticket.failed):
            raise CheckFailed(f"request {index} never resolved")
        if ticket is None or ticket.failed:
            failed += 1
            continue
        response = ticket.response
        results[index] = response
        start = response.submitted_at if due is None else due[index]
        elapsed = response.completed_at - start
        latency.append(elapsed)
        hits += elapsed <= limit
    samples = [response.encoded for response in results.values()]
    if due is not None:
        span = max(r.completed_at for r in results.values()) - due[0]
    return Served(
        attempted=len(tickets),
        failed=failed,
        latency=np.asarray(latency),
        slo_hits=hits,
        span=span,
        fidelity=np.asarray([s.ideal_fidelity for s in samples]),
        iterations=np.asarray([s.optimizer_iterations for s in samples]),
        evaluations=np.asarray([s.optimizer_evaluations for s in samples]),
        results=results,
        lag=lag,
        stats=stats,
    )


def _drive_stream(wl, state, requests) -> Served:
    service = state.service
    before = service.stats()
    tickets = []
    begin = CLOCK()
    for row in requests:
        tickets.append(service.submit(row))
    service.flush()
    span = CLOCK() - begin
    return _collect(wl, tickets, None, span, stats=(before, service.stats()))


def _drive_open(wl, state, requests, offsets) -> Served:
    """One generator thread submits on a seeded schedule, never waiting."""
    service = state.service
    before = service.stats()
    count = len(requests)
    tickets = [None] * count
    lag = np.empty(count)
    due = CLOCK() + 0.05 + offsets
    for index in range(count):
        delay = due[index] - CLOCK()
        if delay > 0.0:
            time.sleep(delay)
        lag[index] = CLOCK() - due[index]
        try:
            tickets[index] = service.submit(requests[index])
        except ServiceError:
            pass  # refused: counted as failed and as an SLO miss
    for ticket in tickets:
        if ticket is not None:
            ticket.wait(WAIT_TIMEOUT)
    return _collect(
        wl, tickets, due, None, lag=lag, stats=(before, service.stats())
    )


# -- end-to-end metrics ------------------------------------------------------------


def peak_rss_mb(wl: Workload) -> float:
    """Peak RSS of this process; on the fleet plus its largest worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.backend == "process":
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(wl, served: Served, setup_seconds, circuit_rows) -> dict:
    latency_ms = served.latency * 1e3
    return {
        "samples_per_s": served.completed / served.span,
        "latency_p50_ms": float(np.percentile(latency_ms, 50)),
        "latency_tail_ms": float(np.percentile(latency_ms, wl.tail_pct)),
        "slo_attainment": served.slo_hits / served.attempted,
        "ok_share": served.completed / served.attempted,
        "fidelity_mean": float(np.mean(served.fidelity)),
        "fidelity_p01": float(np.percentile(served.fidelity, 1)),
        "gates_1q": float(np.mean([r["one_qubit_gates"] for r in circuit_rows])),
        "gates_2q": float(np.mean([r["two_qubit_gates"] for r in circuit_rows])),
        "depth": float(np.mean([r["depth"] for r in circuit_rows])),
        "setup_s": float(np.median(setup_seconds)),
        "peak_rss_mb": peak_rss_mb(wl),
    }

"""Deployment workflow: train offline once, serve a stream online.

Sec. III-C/III-D describe EnQode as an offline/online system: cluster
models are trained once per dataset+class, *stored*, and reused to embed
a stream of incoming samples in real time.  This example runs that
workflow end to end on the service API:

1. offline job — fit per-class encoders on a dataset, save them as
   versioned JSON bundles;
2. online service — load the bundles into an
   :class:`repro.service.EncodingService`, stream samples through the
   micro-batcher (auto-routing samples of unknown class to the nearest
   model), read the embedded states out with finite shots and calibrated
   readout error, and print the service's latency/fidelity accounting
   (response circuits are lazy compact-IR views —
   :class:`repro.transpile.BoundCircuit` — simulated straight off the
   packed bind arrays, materialized to instructions only on demand);
3. async service — the same registry behind the ``backend="thread"``
   execution backend: ``start()`` the background flusher + worker pool,
   submit from several producer threads at once, collect responses with
   ``ticket.result(timeout=...)``, and ``stop()`` cleanly.  The
   difference from step 2: nothing waits for follow-up traffic or
   polling — an idle worker takes a queued class at once, and the
   ``max_delay`` deadline bounds the wait of a request whose workers
   are all busy — and different classes' flushes run concurrently
   while each class's requests still complete in submission order (one
   in-flight flush per key);
4. resilient service — the same thread backend with the PR-9 hardening
   knobs turned on: a bounded admission queue that sheds over-budget
   traffic to a finetune-skipped degraded path, transient flush faults
   retried with full-jitter backoff (a deterministic
   :class:`repro.service.FaultInjector` stands in for real failures),
   and the :meth:`~repro.service.ServiceStats.to_metrics` Prometheus
   export a scraper would read;
5. process-pool service — ``backend="process"``: the same control
   plane over a fleet of worker processes holding float-exact encoder
   replicas (true multi-core scaling for the CPU-bound fine-tune),
   keys sharded to workers by stable hash, flush results crossing the
   pipe as compact wire records — and a fault-injected worker death
   escalated to a real SIGKILL, survived by requeue + respawn;
6. wire export — ship a flushed batch to another process as a compact
   :mod:`repro.io` wire record (template fingerprint + bound angles,
   a few hundred bytes per circuit), rehydrate it against a receiving
   registry holding the same bundles, and verify the rebound circuits
   simulate to *bit-identical* statevectors; individual responses also
   export to standard OpenQASM 2/3 text for other toolchains.

Run:  python examples/deployment_workflow.py
"""

import pathlib
import tempfile
import threading
import time

import numpy as np

from repro import EnQodeConfig, brisbane_linear_segment, load_dataset
from repro.core import PerClassEnQode, save_encoder
from repro.quantum import simulate_statevector
from repro.quantum.measurement import backend_readout_errors, sample_counts
from repro.service import EncodingService


def offline_job(backend, dataset, model_dir: pathlib.Path) -> None:
    """Train and persist one encoder per class as a versioned bundle."""
    trainer = PerClassEnQode(backend, EnQodeConfig(seed=7))
    reports = trainer.fit(dataset)
    for label, encoder in trainer.encoders.items():
        path = model_dir / f"enqode_class{label}.json"
        save_encoder(encoder, path)
        report = reports[label]
        print(
            f"  class {label}: {report.num_clusters} clusters, "
            f"{report.total_time:.1f}s, saved {path.name} "
            f"({path.stat().st_size / 1024:.0f} KiB)"
        )
    print(f"  total offline time: {trainer.total_offline_time():.1f}s")


def online_service(backend, dataset, model_dir: pathlib.Path) -> None:
    """Reload the bundles and serve a stream of samples."""
    # A small batch window keeps the demo's flushes visible; production
    # windows (32+) amortize the batched fine-tune and the vectorized
    # template lowering further: each flush fine-tunes its whole batch in
    # one L-BFGS drive and lowers it through a single
    # ParametricTemplate.bind_batch sweep (stacked 2x2 composition +
    # batched ZYZ — instruction-identical to per-sample compiles; the
    # stats line below counts one template bind per request).  Since PR 6
    # the response circuits are *compact-IR* views
    # (repro.transpile.BoundCircuit): per sample the service holds only
    # packed angle arrays — a few hundred bytes instead of thousands of
    # instruction objects — and simulate_statevector below walks those
    # arrays directly; the eager instruction list is built lazily only
    # if something iterates the circuit (drawing, instruction export).
    # Loading a bundle validates its schema_version up front — an
    # incompatible bundle fails here, not on live traffic.
    service = EncodingService(max_batch=4)
    for path in sorted(model_dir.glob("enqode_class*.json")):
        label = int(path.stem.replace("enqode_class", ""))
        service.load(label, path, backend)
    print(f"  loaded encoders for classes {service.keys()}")

    # Stream twelve requests of unknown class: submit() routes each to
    # the nearest model and micro-batches the fine-tunes; every fourth
    # submission triggers a flush.
    rng = np.random.default_rng(0)
    true_labels = [int(rng.choice(service.keys())) for _ in range(12)]
    tickets = [
        (
            label,
            service.submit(dataset.class_slice(label)[int(rng.integers(20))]),
        )
        for label in true_labels
    ]
    service.flush()  # drain the last partial batch

    readout = backend_readout_errors(backend)
    for i, (label, ticket) in enumerate(tickets[:4]):
        response = ticket.result()
        state = simulate_statevector(response.circuit)
        counts = sample_counts(
            state, shots=256, seed=rng, readout_errors=readout
        )
        print(
            f"  request {i}: true class {label}, routed to "
            f"{response.key}, fidelity {response.fidelity:.3f}, "
            f"latency {response.latency * 1e3:.0f} ms "
            f"(batch of {response.batch_size}), "
            f"top outcome {counts.most_frequent()!r}"
        )
    routed = sum(
        1 for label, ticket in tickets if ticket.result().key == label
    )
    print(f"  routing: {routed}/{len(tickets)} requests reached their class")
    print(f"  service: {service.stats().summary()}")


def async_online_service(backend, dataset, model_dir: pathlib.Path) -> None:
    """Serve concurrent producers through the threaded backend."""
    # backend="thread" adds a daemon flusher (hands a queued class to an
    # idle worker at once, and cuts a batch at its max_delay deadline
    # or on a full queue while every worker is busy) and a small worker
    # pool (flushes for different classes run concurrently).  The
    # context manager start()s the threads and stop()s them with a full
    # drain on exit; submit() is safe from any thread.
    service = EncodingService(
        max_batch=4, max_delay=0.05, backend="thread", workers=2
    )
    for path in sorted(model_dir.glob("enqode_class*.json")):
        label = int(path.stem.replace("enqode_class", ""))
        service.load(label, path, backend)

    rng = np.random.default_rng(1)
    tickets: dict = {label: [] for label in service.keys()}
    with service:

        def produce(label) -> None:
            # One producer per class, racing each other into the
            # micro-batcher; per-class order is preserved end to end.
            rows = dataset.class_slice(label)
            for _ in range(6):
                sample = rows[int(rng.integers(20))]
                tickets[label].append(service.submit(sample, key=label))

        producers = [
            threading.Thread(target=produce, args=(label,))
            for label in service.keys()
        ]
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join()
        # A trickle never strands: even with no further traffic every
        # queue is served, at once by an idle worker, or cut into a
        # batch at its max_delay deadline while the pool is busy.
        # result() blocks on the ticket's event with a timeout instead
        # of flushing inline — the worker pool does the encoding.
        for label, owned in tickets.items():
            latencies = [
                ticket.result(timeout=5.0).latency * 1e3 for ticket in owned
            ]
            print(
                f"  class {label}: {len(owned)} requests, "
                f"worst latency {max(latencies):.0f} ms "
                f"(deadline {service.batcher.max_delay * 1e3:.0f} ms)"
            )
        print(f"  service: {service.stats().summary()}")
    # stop() (via the context manager) drained the queues and joined the
    # flusher + workers; submits would now raise ServiceError.


def resilient_service(backend, dataset, model_dir: pathlib.Path) -> None:
    """Serve an overload burst with faults injected, then read metrics."""
    from repro.service import FaultInjector, FaultRule

    # The resilience knobs all live on ServiceConfig / the constructor:
    #   max_pending_per_key / max_pending_total — admission budgets; an
    #     over-budget submit() either raises OverloadError fast
    #     (overload_policy="reject") or is served inline through the
    #     finetune-skipped centroid path (overload_policy="degrade": the
    #     ticket returns already done, response.degraded set — lower
    #     fidelity, microsecond latency, zero optimizer work);
    #   submit(deadline=...) — a request still unserved when its budget
    #     expires fails with DeadlineExceededError before any pipeline
    #     work is spent on it;
    #   retry_attempts / retry_backoff / retry_jitter — transient flush
    #     failures retry with full-jitter exponential backoff;
    #   breaker_threshold / breaker_reset_timeout — a per-key circuit
    #     breaker stops hammering a persistently failing encoder
    #     (CircuitOpenError until a half-open probe succeeds);
    #   flush_timeout — a wedged flush is abandoned: its tickets fail,
    #     its key frees for follow-up traffic, its late result is
    #     discarded.
    # A deterministic FaultInjector stands in for real failures: the
    # first two flush attempts raise a transient error, then the rule
    # exhausts and the service recovers — same seed, same faults, so
    # chaos runs replay exactly.
    injector = FaultInjector(
        [FaultRule("flush", kind="error", probability=1.0, times=2)]
    )
    service = EncodingService(
        max_batch=4,
        max_delay=0.05,
        backend="thread",
        workers=2,
        max_pending_per_key=4,
        overload_policy="degrade",
        retry_attempts=3,
        retry_backoff=0.01,
        fault_injector=injector,
    )
    for path in sorted(model_dir.glob("enqode_class*.json")):
        label = int(path.stem.replace("enqode_class", ""))
        service.load(label, path, backend)

    rng = np.random.default_rng(3)
    label = service.keys()[0]
    rows = dataset.class_slice(label)
    with service:
        # Burst 16 submissions at a queue budgeted for 4: the overflow
        # is shed to the degraded path instead of queueing unboundedly,
        # while the injected faults force the first flush through two
        # retries before it succeeds.
        tickets = [
            service.submit(rows[int(rng.integers(20))], key=label)
            for _ in range(16)
        ]
        service.drain(timeout=30.0)
        stats = service.stats()

    responses = [ticket.result(flush=False) for ticket in tickets]
    shed = [r for r in responses if r.degraded]
    polished = [r for r in responses if not r.degraded]
    print(
        f"  burst of {len(tickets)}: {len(polished)} polished, "
        f"{len(shed)} shed to the degraded path "
        f"(fidelity {min(r.fidelity for r in polished):.3f} polished "
        f"vs {min(r.fidelity for r in shed):.3f} degraded)"
    )
    print(f"  service: {stats.summary()}")
    # The same snapshot in Prometheus text exposition format — serve it
    # from a /metrics endpoint and any scraper can alert on shed rate,
    # retry rate, or breaker opens.  A few of the resilience series:
    wanted = (
        "_requests_shed_degraded_total",
        "_flush_retries_total",
        "_requests_rejected_total",
        "_breaker_opens_total",
    )
    for line in stats.to_metrics().splitlines():
        if not line.startswith("#") and any(w in line for w in wanted):
            print(f"  metrics: {line}")


def process_service(backend, dataset, model_dir: pathlib.Path) -> None:
    """Serve from a worker-process fleet; kill a worker and recover."""
    from repro.service import FaultInjector, FaultRule

    # backend="process" keeps the whole thread-backend control plane
    # (micro-batcher, flusher, tickets, resilience) and moves the
    # pipeline execution into worker processes, each holding a
    # float-exact replica of every registered encoder — true multi-core
    # scaling for the CPU-bound fine-tune, with responses still
    # float-bit identical to encode_batch.  The extra knobs:
    #   shard_strategy — "rendezvous" (default; a death moves only the
    #     dead worker's keys) or "modulo" routing of keys to workers;
    #   spawn_timeout / handshake_timeout — fleet startup and
    #     bundle-shipping budgets.
    # The FaultRule below demonstrates recovery: under this backend an
    # injected worker death is escalated to a real SIGKILL of the
    # routed worker process.
    injector = FaultInjector(
        [FaultRule("worker", kind="death", times=1, probability=1.0)]
    )
    service = EncodingService(
        max_batch=4,
        max_delay=0.05,
        backend="process",
        workers=2,
        fault_injector=injector,
    )
    for path in sorted(model_dir.glob("enqode_class*.json")):
        label = int(path.stem.replace("enqode_class", ""))
        service.load(label, path, backend)

    rng = np.random.default_rng(5)
    with service:  # spawns the fleet: slow once, then steady-state
        # Every key routes deterministically to one worker; because all
        # workers hold all bundles, this is routing only — a dead
        # worker's keys reroute to survivors instantly.
        print(f"  shard map over 2 workers: {service.shard_map()}")
        labels = service.keys()
        tickets = [
            service.submit(
                dataset.class_slice(label)[int(rng.integers(20))],
                key=label,
            )
            for label in labels
            for _ in range(4)
        ]
        service.drain(timeout=120.0)
        print(
            f"  served {len(tickets)} requests across "
            f"{len(labels)} keys; worker death: SIGKILL delivered "
            f"({injector.fired_count('worker')} fired), batch requeued "
            f"in order, no ticket lost"
        )
        # Traffic rerouted to the survivor immediately; the replacement
        # process spawns in the background — wait for it so the fleet
        # is whole again before shutdown.
        deadline = time.monotonic() + 60.0
        while (
            service.stats().process_respawns < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
        respawns = service.stats().process_respawns
    done = sum(ticket.done for ticket in tickets)
    print(
        f"  recovery: {done}/{len(tickets)} completed, "
        f"{respawns} worker process(es) respawned"
    )


def wire_export(backend, dataset, model_dir: pathlib.Path) -> None:
    """Export a flushed batch as a wire record and rehydrate it."""
    from repro.io import describe
    from repro.quantum import state_fidelity

    # Sender: a service embeds one micro-batch and serializes it.  The
    # responses share one template-bound compact-IR batch, so the record
    # is just the template fingerprint plus the bound angles — no
    # instruction streams cross the wire.
    sender = EncodingService(max_batch=4)
    for path in sorted(model_dir.glob("enqode_class*.json")):
        label = int(path.stem.replace("enqode_class", ""))
        sender.load(label, path, backend)
    label = sender.keys()[0]
    rng = np.random.default_rng(2)
    tickets = [
        sender.submit(dataset.class_slice(label)[int(rng.integers(20))])
        for _ in range(4)
    ]
    sender.flush()
    responses = [ticket.result() for ticket in tickets]
    blob = sender.export_wire(responses)
    summary = describe(blob)
    print(
        f"  exported {summary['num_circuits']} circuits as "
        f"{summary['kind']} record: {len(blob)} bytes "
        f"({len(blob) / len(responses):.0f} B/circuit)"
    )

    # Receiver: a *different* registry loaded from the same bundles
    # resolves the fingerprint to its own cached template and rebinds —
    # deterministically, so the states match bit for bit.
    receiver = EncodingService(max_batch=4)
    for path in sorted(model_dir.glob("enqode_class*.json")):
        receiver.load(
            int(path.stem.replace("enqode_class", "")), path, backend
        )
    batch = receiver.registry.rehydrate_wire(blob)
    fidelities = [
        state_fidelity(
            batch.statevector_row(row),
            simulate_statevector(response.circuit),
        )
        for row, response in enumerate(responses)
    ]
    print(
        f"  rehydrated on the receiver: batch of {batch.batch_size}, "
        f"state fidelity vs sender {min(fidelities):.10f} (bit-identical)"
    )

    # And for everything else there is text: standard OpenQASM 2/3.
    qasm = responses[0].to_qasm(version=3)
    print(
        f"  OpenQASM 3 export of response 0: {len(qasm)} bytes, "
        f"starts {qasm.splitlines()[0]!r}"
    )


def main() -> None:
    backend = brisbane_linear_segment(8)
    # PCA to 256 features needs at least 256 samples: 3 classes x 90.
    dataset = load_dataset("mnist", samples_per_class=90, num_classes=3, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        model_dir = pathlib.Path(tmp)
        print("offline job:")
        offline_job(backend, dataset, model_dir)
        print("online service:")
        online_service(backend, dataset, model_dir)
        print("async online service:")
        async_online_service(backend, dataset, model_dir)
        print("resilient service:")
        resilient_service(backend, dataset, model_dir)
        print("process-pool service:")
        process_service(backend, dataset, model_dir)
        print("wire export / rehydrate:")
        wire_export(backend, dataset, model_dir)


if __name__ == "__main__":
    main()

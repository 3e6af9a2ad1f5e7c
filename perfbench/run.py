"""EnQode serving benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-8q --seed 1 --seconds 10 --trace 0

Workloads (full definitions in ``workloads.py``):

``serve-4q``
    Open loop: seeded Poisson arrivals at a fixed low rate into the
    thread backend with a ``max_delay`` deadline; mostly one-row flushes.
``fleet-6q``
    The same traffic at 6 qubits on the process backend with one worker
    process: the only workload that crosses the process pipe and the
    wire codec.
``batch-8q``
    Closed loop, one caller: ``EnQodeEncoder.encode_batch`` on 64-row
    batches at the paper's geometry (8 qubits, 8 layers).  Finetune and
    bind dominate; no service code runs.
``stream-4q``
    Closed loop, one caller submitting keyless samples one at a time to
    a sync ``EncodingService`` over five per-class 4-qubit encoders;
    size-only flushes (32 rows), so the flush partition is fixed.

Only the two open loops are declared in ``BENCHMARK.json``.  The closed
loops are CPU-bound end to end, so on a shared 2-vCPU host whose speed
shifts by up to 1.4x for minutes at a time their rates and medians
spread by up to 27% across seeds; they stay runnable for their layer
traces (``--trace 1`` on batch-8q splits a 64-row batch by stage).

The seed draws the requests and arrival times; fit data is fixed per
workload.  A run serves a fixed number of requests (set by
``--seconds``), checks the outputs (``checks.py``), and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  A traced run serves the requests
three times, untraced, traced, untraced, and reports the traced pass's
headline against the untraced mean as ``trace.overhead_share``; its
spans go to ``perfbench/out/``.  A failed check prints no result and
exits 1.  On every way out, the run stops each process it started and
waits for it to end.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import pathlib
import signal
import sys
import threading

import host

# One BLAS thread per process, inherited by the process backend's
# workers.  With the default two, the fleet's processes oversubscribe a
# 2-core host: measured on a 2-vCPU Xeon VM, a single-row 4-qubit
# fine-tune, normally ~2.4 ms, took 60-70 ms in bursts and fleet p90
# doubled.  Single-threaded BLAS left batch-8q throughput within noise.
# Set before numpy loads; recorded in the host fingerprint.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: A run that has not finished by now is wedged: dump stacks, stop its
#: processes and exit.  If the wedge holds the GIL, faulthandler exits
#: a few seconds later without the clean-up.
WATCHDOG_SECONDS = 165


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The spawn start method (the process backend's and the capacity
    probe's) also launches multiprocessing's resource tracker, which by
    default outlives its parent for a moment; it is stopped and reaped
    too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def _wedged() -> None:
    print(f"perfbench: run wedged after {WATCHDOG_SECONDS} s", file=sys.stderr)
    faulthandler.dump_traceback(all_threads=True)
    stop_children()
    os._exit(1)


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import checks
    import workloads as wls
    from layers import layer_metrics
    from tracing import Tracer, install_layer_spans

    wl = wls.WORKLOADS[workload]
    fingerprint = host.fingerprint(ROOT)
    fingerprint["parallel_capacity"] = host.parallel_capacity()
    probe_before = host.cpu_probe_ms()

    fit, pool = wls.fixed_data(wl)
    count = wls.work_count(wl, seconds)
    rng = np.random.default_rng(seed)
    rows = count * (wl.batch_rows if wl.backend == "encoder" else 1)
    requests = wls.draw_requests(pool, rows, rng)
    offsets = wls.arrival_offsets(wl, count, rng) if wl.loop == "open" else None
    repeats = wls.repeat_share(requests, fit)
    if repeats:
        raise checks.CheckFailed(f"repeat share {repeats} != 0")
    keep = {int(i) for i in rng.choice(rows, wls.CHECK_ROWS, replace=False)}
    row_ids = {row.tobytes(): index for index, row in enumerate(requests)}

    tracer = Tracer(clock=wls.CLOCK) if trace else None
    setup_seconds, setup_spans = [], []
    for rep in range(wls.SETUP_REPEATS):
        last = rep == wls.SETUP_REPEATS - 1
        if tracer is not None and last:
            install_layer_spans(tracer)
        try:
            state = wls.setup(wl, fit)
        finally:
            if tracer is not None and last:
                tracer.restore()
                setup_spans, tracer.spans = tracer.spans, []
        setup_seconds.append(state.seconds)
        if not last:
            wls.teardown(state)

    try:
        served = wls.drive(wl, state, requests, offsets, keep)
        if tracer is not None:
            install_layer_spans(tracer, row_ids)
            try:
                traced = wls.drive(wl, state, requests, offsets, keep)
            finally:
                tracer.restore()
            # Untraced again: the overhead compares the traced pass with
            # both neighbours, which cancels a steady drift of the host.
            plain = [served, wls.drive(wl, state, requests, offsets, keep)]
        circuit_rows = checks.check_samples(served, keep)
        checks.check_ledger(served)
        replayed = 0
        if wl.backend == "process":
            replayed = checks.check_replay(
                state, served, requests, rng, wls.REPLAY_FLUSHES
            )
        if tracer is not None:
            checks.check_ledger(plain[1])
            metrics = layer_metrics(wl, tracer, plain, traced, state, setup_spans)
        else:
            metrics = wls.end_to_end(wl, served, setup_seconds, circuit_rows)
    finally:
        wls.teardown(state)

    if tracer is not None:
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        tracer.spans = setup_spans + tracer.spans
        tracer.write(trace_path)
    report = {
        "workload": workload,
        "seed": seed,
        "requests": count,
        "repeat_share": repeats,
        "checked_rows": len(keep),
        "replayed_rows": replayed,
        "tail_pct": wl.tail_pct,
        "latency_ms_pooled": {
            f"p{q}": float(np.percentile(served.latency, q)) * 1e3
            for q in (50, 75, 90, 95, 99)
        },
        "limit_ms": wl.limit_ms,
        "setup_s": setup_seconds,
        "cpu_probe_ms": [probe_before, host.cpu_probe_ms()],
        "loadgen_lag_ms_max": (
            float(np.max(served.lag)) * 1e3 if served.lag is not None else 0.0
        ),
        "host": fingerprint,
    }
    print("run: " + json.dumps(report, sort_keys=True))
    return {
        "correct": True,
        "attempted": served.attempted,
        "failed": served.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an exception, so the clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    watchdog = threading.Timer(WATCHDOG_SECONDS, _wedged)
    watchdog.daemon = True
    watchdog.start()
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS + 8, exit=True)
    import checks

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        watchdog.cancel()
        faulthandler.cancel_dump_traceback_later()
        stop_children()
    units = declared["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != set(units):
        print(
            "perfbench: measured metrics do not match BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    for name, entry in result["metrics"].items():
        print(f"  {name:<34} {entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer metrics of the traced run, named by module.

A metric whose layer is not on a workload's path reads 0 (no time was
spent there, no event happened).  On fleet-6q the pipeline runs inside
worker processes, which are not traced: its route/finetune/template/bind
numbers are the stage seconds each worker reports back over the wire.
"""

from __future__ import annotations

import numpy as np

#: Spans whose summed duration makes up a batch call's stage time.
STAGES = (
    "pipeline.prepare",
    "pipeline.route",
    "pipeline.finetune",
    "pipeline.template",
    "pipeline.bind",
)


def _pct(values, q) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def _sum(values) -> float:
    return float(np.sum(values)) if len(values) else 0.0


def layer_metrics(wl, tracer, plain, traced, state, setup_spans) -> dict:
    """``plain`` lists the untraced passes around the ``traced`` one."""
    rows = max(traced.completed, 1)
    fleet = wl.backend == "process"
    span_sum = lambda name: _sum(tracer.durations(name))  # noqa: E731
    metrics = {}

    runs = tracer.named("process.run_pipeline" if fleet else "pipeline.run")
    if fleet:
        attr_sum = lambda key: _sum([s.attrs[key] for s in runs])  # noqa: E731
        route, finetune, bind = (
            attr_sum("worker_route_s"),
            attr_sum("worker_finetune_s"),
            attr_sum("worker_bind_s"),
        )
        template_runs = [s.attrs["worker_template_s"] for s in runs]
        misses = sum(s.attrs["worker_template_hit"] is False for s in runs)
    else:
        route = span_sum("pipeline.route")
        finetune = span_sum("pipeline.finetune")
        bind = span_sum("pipeline.bind")
        template_runs = tracer.durations("pipeline.template")
        misses = sum(not s.attrs["hit"] for s in tracer.named("pipeline.template"))
    metrics["pipeline.prepare_us_per_row"] = span_sum("pipeline.prepare") / rows * 1e6
    metrics["pipeline.route_us_per_row"] = route / rows * 1e6
    metrics["pipeline.finetune_us_per_row"] = finetune / rows * 1e6
    metrics["pipeline.finetune_evals_per_row"] = float(np.mean(traced.evaluations))
    metrics["pipeline.finetune_iters_per_row"] = float(np.mean(traced.iterations))
    metrics["pipeline.template_us_per_run"] = (
        float(np.mean(template_runs)) * 1e6 if len(template_runs) else 0.0
    )
    metrics["pipeline.template_misses"] = float(misses)
    metrics["pipeline.bind_us_per_row"] = bind / rows * 1e6

    # Admission: submit time without any flush it ran inline (sync).
    submit = tracer.self_times("service.submit", exclude={"pipeline.run"})
    metrics["service.submit_us_p50"] = _pct(submit, 50) * 1e6
    metrics["registry.route_us_p50"] = _pct(tracer.durations("registry.route"), 50) * 1e6
    if traced.stats is not None:
        before, after = traced.stats
        failed = after.requests_failed - before.requests_failed
        rejected = after.rejected - before.rejected
    else:
        failed = rejected = 0
    metrics["service.failed"] = float(failed)
    metrics["service.rejected"] = float(rejected)

    # Queue + dispatch, from each flush span and its requests' stamps.
    waits, lags, flush_rows = [], [], []
    if traced.stats is not None:
        for run in runs:
            ids = run.attrs.get("request_ids") or []
            stamps = [
                traced.results[i].submitted_at
                for i in ids
                if i is not None and i in traced.results
            ]
            if not stamps:
                continue
            flush_rows.append(run.attrs["rows"])
            waits.extend(run.start - stamp for stamp in stamps)
            if wl.max_delay is not None and run.attrs["rows"] < wl.max_batch:
                lags.append(run.start - (min(stamps) + wl.max_delay))
    metrics["service.queue_wait_ms_p50"] = _pct(waits, 50) * 1e3
    metrics["service.queue_wait_ms_tail"] = _pct(waits, wl.tail_pct) * 1e3
    metrics["service.flush_lag_ms_p50"] = _pct(lags, 50) * 1e3
    metrics["service.rows_per_flush"] = float(np.mean(flush_rows)) if flush_rows else 0.0
    metrics["service.single_row_share"] = (
        float(np.mean(np.asarray(flush_rows) == 1)) if flush_rows else 0.0
    )

    # IPC + wire (fleet only).
    roundtrip = tracer.self_times("process.run_pipeline", exclude={"wire.decode"})
    decodes = tracer.named("wire.decode")
    metrics["process.roundtrip_ms_p50"] = _pct(roundtrip, 50) * 1e3
    metrics["process.roundtrip_ms_tail"] = _pct(roundtrip, wl.tail_pct) * 1e3
    metrics["wire.decode_ms_p50"] = _pct([s.duration for s in decodes], 50) * 1e3
    metrics["wire.bytes_per_row"] = (
        _sum([s.attrs["bytes"] for s in decodes])
        / max(_sum([s.attrs["rows"] for s in decodes]), 1.0)
    )
    busiest = respawns = spawn = 0.0
    if fleet:
        shards = state.service.shard_map()
        per_worker: dict = {}
        for response in traced.results.values():
            worker = shards[response.key]
            per_worker[worker] = per_worker.get(worker, 0) + 1
        busiest = max(per_worker.values()) / traced.completed
        respawns = float(state.service._backend_impl.process_respawns)
        spawn = _sum([s.duration for s in setup_spans if s.name == "service.start"])
    metrics["process.busiest_worker_share"] = busiest
    metrics["process.respawns"] = respawns
    metrics["process.spawn_s"] = spawn

    reports = [encoder.offline_report for encoder in state.encoders.values()]
    metrics["fit.cluster_s"] = _sum([r.clustering_time for r in reports])
    metrics["fit.train_s"] = _sum([r.training_time for r in reports])
    metrics["fit.clusters"] = float(sum(r.num_clusters for r in reports))

    lag = plain[0].lag
    metrics["loadgen.lag_ms_tail"] = (
        _pct(lag, wl.tail_pct) * 1e3 if lag is not None else 0.0
    )
    # Headline: samples/s on closed loops (lower when traced), p50
    # latency on open loops (higher when traced).
    if wl.loop == "closed":
        rate = lambda served: served.completed / served.span  # noqa: E731
        untraced = float(np.mean([rate(p) for p in plain]))
        overhead = (untraced - rate(traced)) / untraced
    else:
        untraced = float(np.mean([_pct(p.latency, 50) for p in plain]))
        overhead = (_pct(traced.latency, 50) - untraced) / untraced
    metrics["trace.overhead_share"] = overhead

    # Share of the batch call that the named stages account for: the
    # encode_batch call (batch-8q), the flush's pipeline run, or on the
    # fleet the parent's run_pipeline call (the rest is IPC).
    if fleet:
        covered = (
            span_sum("pipeline.prepare")
            + span_sum("wire.decode")
            + route
            + finetune
            + bind
            + _sum(template_runs)
        )
        whole = span_sum("process.run_pipeline")
    else:
        covered = sum(span_sum(name) for name in STAGES)
        whole = span_sum(
            "encoder.encode_batch" if wl.backend == "encoder" else "pipeline.run"
        )
    metrics["trace.stage_share"] = covered / whole if whole else 0.0
    return metrics

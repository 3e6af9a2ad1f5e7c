"""Outside-in span tracing for the traced benchmark run.

Nothing inside ``src/`` is instrumented.  :class:`Tracer` replaces a
public function or method with a wrapper that records one span per call
(name, start, end, parent span, request id) and puts the original back
on :meth:`Tracer.restore`.  Parents come from a per-thread span stack,
so a span opened on a service worker thread nests under whatever traced
call that thread is inside.  Spans live in memory until :meth:`write`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import numpy as np


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "attrs")

    def __init__(self, span_id, name, start, end, parent, request_id, attrs):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request_id = request_id
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around patched calls; see the module docstring."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``note(args, kwargs, result)`` may return a dict of span
        attributes; its ``request_id`` key, if present, fills the span's
        request id.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, None, {"error": True})
                )
                raise
            end = tracer.clock()
            stack.pop()
            attrs = note(args, kwargs, result) if note is not None else {}
            tracer.spans.append(
                Span(
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    attrs.pop("request_id", None),
                    attrs,
                )
            )
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def children(self) -> dict:
        """``span id -> [child spans]``."""
        out: dict = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def self_times(self, name: str, exclude=None) -> np.ndarray:
        """Per-span self time: duration minus the time its children cover.

        ``exclude`` limits the subtraction to children with those names.
        """
        kids = self.children()
        out = []
        for span in self.named(name):
            intervals = sorted(
                (child.start, child.end)
                for child in kids.get(span.id, ())
                if exclude is None or child.name in exclude
            )
            covered, cursor = 0.0, span.start
            for lo, hi in intervals:
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return np.asarray(out, dtype=float)

    def durations(self, name: str) -> np.ndarray:
        return np.asarray([s.duration for s in self.named(name)], dtype=float)

    def write(self, path) -> None:
        """Dump every span as compact JSON (one row per span)."""
        rows = [
            [s.id, s.name, s.start, s.end, s.parent, s.request_id, s.attrs]
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": [
                        "id", "name", "start", "end", "parent",
                        "request_id", "attrs",
                    ],
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )


def install_layer_spans(tracer: Tracer, row_ids: "dict | None" = None) -> None:
    """Patch the public call at each layer boundary of the serving stack.

    ``row_ids`` maps a request's sample bytes to the benchmark's request
    index, so pipeline spans of a service flush can name the requests
    they carried (the flush receives stacked rows, not ids).
    """
    from repro.core.encoder import EnQodeEncoder
    from repro.core.pipeline import (
        EncodePipeline,
        FinetuneStage,
        LowerStage,
        RouteStage,
    )
    from repro.io import wire
    from repro.service import process_backend
    from repro.service.registry import EncoderRegistry
    from repro.service.service import EncodingService
    from repro.transpile.template import ParametricTemplate

    def rows(args, kwargs, result):
        return {"rows": int(np.atleast_2d(args[1]).shape[0])}

    def request_rows(samples) -> dict:
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        attrs = {"rows": int(samples.shape[0])}
        if row_ids:
            ids = [row_ids.get(row.tobytes()) for row in samples]
            attrs["request_ids"] = ids
            attrs["request_id"] = ids[0]
        return attrs

    def flush_rows(args, kwargs, result):
        return request_rows(args[1])

    def submitted(args, kwargs, result):
        return {"request_id": request_rows(args[1]).get("request_id")}

    def template_hit(args, kwargs, result):
        return {"hit": bool(result[1])}

    def bound(args, kwargs, result):
        return {"rows": len(result)}

    def roundtrip(args, kwargs, result):
        encoded, report = result
        return {
            **request_rows(args[3]),
            "worker_route_s": report.route_seconds,
            "worker_finetune_s": report.finetune_seconds,
            "worker_template_s": report.lower_seconds,
            "worker_bind_s": report.bind_seconds,
            "worker_template_hit": report.template_hit,
        }

    def decoded(args, kwargs, result):
        return {"rows": len(result[0]), "bytes": len(args[0])}

    tracer.patch(EnQodeEncoder, "fit", "encoder.fit")
    tracer.patch(EnQodeEncoder, "encode_batch", "encoder.encode_batch", rows)
    tracer.patch(EncodingService, "start", "service.start")
    tracer.patch(EncodingService, "submit", "service.submit", submitted)
    tracer.patch(EncoderRegistry, "route", "registry.route")
    tracer.patch(EncodePipeline, "run_reported", "pipeline.run", flush_rows)
    tracer.patch(EncodePipeline, "prepare", "pipeline.prepare", rows)
    tracer.patch(RouteStage, "run", "pipeline.route", rows)
    tracer.patch(FinetuneStage, "run", "pipeline.finetune")
    tracer.patch(LowerStage, "template_reported", "pipeline.template", template_hit)
    tracer.patch(ParametricTemplate, "bind_batch", "pipeline.bind", bound)
    tracer.patch(
        process_backend.ProcessBackend, "run_pipeline", "process.run_pipeline",
        roundtrip,
    )
    # The process backend calls the decoder through its own module
    # namespace, so both bindings are patched.
    tracer.patch(wire, "load_encoded_batch", "wire.decode", decoded)
    tracer.patch(process_backend, "load_encoded_batch", "wire.decode", decoded)

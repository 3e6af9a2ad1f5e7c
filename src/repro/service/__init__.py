"""repro.service — the online serving layer (train once, serve many).

The paper frames EnQode as an offline/online *system*: cluster models
are trained once (Sec. III-C), stored, and then serve a live stream of
samples at millisecond compile latency (Sec. III-D, Fig. 9a).  This
package is that serving surface:

* :class:`EncoderRegistry` — fitted encoders keyed by class/model id,
  loading versioned bundles via :mod:`repro.core.serialization`;
* :class:`MicroBatcher` — accumulates submitted samples and flushes on
  ``max_batch`` or a latency deadline, so streaming traffic executes
  the batched stage pipeline;
* :class:`EncodingService` — the front end: typed
  :class:`EncodeRequest`/:class:`EncodeResponse` records, automatic
  nearest-model routing, and :class:`ServiceStats` accounting
  (p50/p95 latency, evals/sample, template-cache hits);
* :class:`ThreadBackend` — the ``backend="thread"`` execution engine
  (selected via :class:`repro.core.config.ServiceConfig`): a daemon
  flusher thread plus a worker pool flushing different keys
  concurrently.  With ``max_delay`` set, an idle worker takes a queued
  key at once and the deadline bounds the wait of a request whose
  workers are all busy, with zero follow-up traffic needed.  One flush
  stays in flight per key, so responses stay instruction-identical to
  the synchronous path;
* :class:`ProcessBackend` — the ``backend="process"`` engine: the same
  control plane over a fleet of worker *processes* holding
  float-exact encoder replicas, keys sharded by stable hash, flush
  batches and kind-4 wire responses crossing a pipe per worker, and
  SIGKILL-level death survived by requeue + respawn;
* :mod:`repro.service.resilience` — the hardening layer: a seeded
  :class:`FaultInjector` chaos harness, per-key
  :class:`CircuitBreaker`, and :class:`RetryPolicy` backoff, composed
  by the service into admission control (queue budgets with reject or
  degrade-shed policies), per-request deadlines, flush retries, and
  flush-timeout abandonment.

Every flush executes the same :class:`repro.core.pipeline.
EncodePipeline` stage objects as ``EnQodeEncoder.encode_batch``, so
service results are numerically identical to the big-batch path.
"""

from repro.core.config import ServiceConfig
from repro.service.async_service import ThreadBackend
from repro.service.batcher import MicroBatcher
from repro.service.process_backend import ProcessBackend
from repro.service.records import EncodeRequest, EncodeResponse, ServiceStats
from repro.service.registry import EncoderRegistry
from repro.service.resilience import (
    FAULT_SITES,
    CircuitBreaker,
    FaultInjector,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    WorkerDeath,
    default_transient_classifier,
)
from repro.service.service import EncodeTicket, EncodingService

__all__ = [
    "FAULT_SITES",
    "CircuitBreaker",
    "EncodeRequest",
    "EncodeResponse",
    "EncodeTicket",
    "EncoderRegistry",
    "EncodingService",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "MicroBatcher",
    "ProcessBackend",
    "RetryPolicy",
    "ServiceConfig",
    "ServiceStats",
    "ThreadBackend",
    "WorkerDeath",
    "default_transient_classifier",
]

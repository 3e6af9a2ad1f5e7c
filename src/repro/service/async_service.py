"""Threaded execution backend: background flusher + worker pool.

The default service backend is synchronous — flush triggers only fire
inside ``submit``/``poll`` calls, so with idle traffic the ``max_delay``
deadline is a promise nobody keeps.  :class:`ThreadBackend` makes the
service honor it unconditionally:

* dispatch is **work-conserving** whenever ``max_delay`` is set: while
  fewer than ``workers`` flushes are queued or running, the flusher
  hands a queued key to the pool at once, so ``max_delay`` is an upper
  bound on queue wait, not a hold (``max_delay=None`` stays
  size-triggered);
* a daemon **flusher** thread sleeps until the earliest pending
  deadline (``MicroBatcher.next_deadline``) or until woken by a
  new-request / full-queue / forced-flush / completion / shutdown
  event — it never polls on a fixed interval, so an idle service costs
  zero CPU;
* a small **worker pool** executes the dispatched flushes, so slow
  fine-tunes for one registry key don't head-of-line-block another
  key's traffic.

Correctness invariants
----------------------
*One flush in flight per key.*  The flusher never dispatches a key that
already has a flush executing, so a key's requests complete strictly in
submission order and every micro-batch is a contiguous FIFO slice of
that key's traffic — which is what makes threaded serving
instruction-identical to a synchronous ``encode_batch`` replay of the
same per-key stream.

*One flush in flight per pipeline.*  Two keys may share one encoder
(aliases of the same model).  Key-level exclusion alone would then run
one :class:`~repro.core.pipeline.EncodePipeline` concurrently with
itself; the stages are re-entrant, but serializing per pipeline keeps
the batch partition — and therefore the per-sample numerics — a pure
function of each key's arrival order, independent of scheduling.

*Errors stay per-flush.*  A failing flush fails exactly its own
tickets (``EncodeTicket.result`` re-raises); the flusher, the pool, and
every other key's traffic keep running.

*No flush wedges its key forever.*  With ``flush_timeout`` configured,
the flusher abandons any flush still executing past the budget: its
tickets fail with :class:`~repro.errors.DeadlineExceededError`, its key
and pipeline marks are released so follow-up traffic dispatches, and
the zombie worker — which cannot be killed mid-pipeline — discards its
late result through a task-id handshake
(:meth:`ThreadBackend.consume_abandoned`) instead of double-counting.

*Worker death is survivable.*  A
:class:`~repro.service.resilience.WorkerDeath` — injected before the
flush body runs, or raised by the process backend when a worker
*process* dies mid-flush — requeues the batch at the head of the task
queue with its in-flight marks kept — ordering holds — and spawns a
replacement before the dying worker exits.

All mutable state (queues, tickets, in-flight marks, stats) is guarded
by the owning service's single lock; both condition variables share it,
so every predicate check is atomic with the sleep that follows it.
Flush execution itself happens outside the lock — only dispatch and
completion bookkeeping serialize.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

from repro.errors import DeadlineExceededError, ServiceError
from repro.service.resilience import WorkerDeath

#: Lifecycle states.  NEW -> (start) -> RUNNING -> (stop) -> STOPPING
#: -> STOPPED -> (start) -> RUNNING ...  STOPPING only exists inside
#: ``stop``/``drain``-style waits; submissions are rejected outside
#: RUNNING.
_NEW = "new"
_RUNNING = "running"
_STOPPING = "stopping"
_STOPPED = "stopped"

#: How long ``stop`` waits for each thread to exit before declaring the
#: backend wedged.  A healthy flush finishes in milliseconds; a join
#: timing out means a flush deadlocked, and raising beats hanging CI.
_JOIN_TIMEOUT = 30.0


class ThreadBackend:
    """Background flusher + worker pool for one :class:`EncodingService`.

    Created by ``EncodingService(backend="thread", workers=N)``; not
    constructed directly.  Shares the service's lock: the two condition
    variables below are views onto it, so batcher/ticket/stats access
    and backend scheduling state always change under one mutex.
    """

    #: Does this backend execute flush pipelines itself (worker
    #: processes) instead of running them in-process?  When True,
    #: ``EncodingService._run_pipeline`` routes to ``run_pipeline``.
    owns_execution = False

    def __init__(self, service, workers: int) -> None:
        self.service = service
        self.num_workers = workers
        #: Wakes the flusher (new request, forced flush, task done,
        #: lifecycle change) and the workers (task queued, shutdown).
        self._work = threading.Condition(service._lock)
        #: Wakes quiescence waiters: ``drain``/``stop``/``flush``.
        self._idle = threading.Condition(service._lock)
        self._state = _NEW
        #: Dispatched-but-unstarted flushes: (task_id, key, requests,
        #: pipeline_id).  Task ids make every dispatch distinguishable,
        #: which abandonment and death-requeue bookkeeping both need.
        self._tasks: "deque[tuple[int, object, list, int | None]]" = deque()
        self._task_ids = itertools.count()
        #: In-flight marks map key/pipeline -> owning task_id, so a
        #: release after abandonment only clears a mark the *same* task
        #: set (the key may have re-dispatched under a new task id).
        self._inflight_keys: "dict[object, int]" = {}
        self._inflight_pipelines: "dict[int, int]" = {}
        #: Flushes a worker is executing right now:
        #: task_id -> (key, pipeline_id, requests, started_at).
        self._running: "dict[int, tuple]" = {}
        #: Task ids the flusher abandoned (flush_timeout overdue); the
        #: executing worker consumes its id on completion and discards
        #: the result.
        self._abandoned: "set[int]" = set()
        #: Replacement worker threads spawned after worker deaths
        #: (``ServiceStats.worker_respawns``).
        self.worker_respawns = 0
        self._forced: set = set()
        #: While > 0 a drain() is waiting for quiescence, and the
        #: flusher dispatches every pending key unconditionally — also
        #: traffic that arrives *during* the drain, which a one-shot
        #: forced-key snapshot would strand (and deadlock the drain).
        self._drain_waiters = 0
        self._threads: list[threading.Thread] = []
        #: Times the flusher returned from its wait (for the no-busy-wait
        #: tests and ``ServiceStats.flusher_wakeups``): an idle or
        #: deadline-sleeping flusher wakes O(events) times, a spinning
        #: one diverges.
        self.flusher_wakeups = 0

    # -- lifecycle -----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._state == _RUNNING

    @property
    def will_serve(self) -> bool:
        """True while pending tickets can still resolve.

        RUNNING obviously serves; STOPPING does too — a draining stop
        dispatches everything before the state advances, and a
        non-draining stop fails every pending ticket while still in
        STOPPING.  Only NEW/STOPPED backends leave a wait hopeless.
        """
        return self._state in (_RUNNING, _STOPPING)

    def start(self) -> None:
        """Spawn the flusher and worker threads; idempotent-hostile.

        Starting a running backend raises (a double ``start`` is a
        lifecycle bug, not a no-op); restarting after ``stop`` is fine.
        """
        with self._work:
            if self._state in (_RUNNING, _STOPPING):
                raise ServiceError(
                    "thread backend is already running; stop() it before "
                    "starting again"
                )
            self._state = _RUNNING
            self._tasks.clear()
            self._inflight_keys.clear()
            self._inflight_pipelines.clear()
            self._running.clear()
            self._abandoned.clear()
            self.worker_respawns = 0
            self._forced.clear()
            self.flusher_wakeups = 0
            self._threads = [
                threading.Thread(
                    target=self._flusher_loop,
                    name="enqode-flusher",
                    daemon=True,
                )
            ]
            self._threads += [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"enqode-worker-{i}",
                    daemon=True,
                )
                for i in range(self.num_workers)
            ]
            for thread in self._threads:
                thread.start()

    def stop(self, drain: bool = True, timeout: "float | None" = None) -> None:
        """Shut the backend down; no-op if never started / already stopped.

        With ``drain`` (default) every queued request is flushed first —
        partial batches included — so no ticket is left pending.  With
        ``drain=False`` queued-but-undispatched requests are *rejected*
        (their tickets fail with :class:`ServiceError`); flushes already
        executing still run to completion — a half-done pipeline run
        cannot be safely abandoned — and their tickets resolve normally.
        """
        with self._work:
            if self._state in (_NEW, _STOPPED):
                return
            if drain:
                self._state = _STOPPING  # flusher now force-flushes all
                self._work.notify_all()
                self._await_quiescent(timeout, "stop(drain=True)")
            else:
                self._state = _STOPPING  # flusher stops dispatching new work
                self._reject_pending()
                self._work.notify_all()
                self._await_quiescent(timeout, "stop(drain=False)")
            self._state = _STOPPED
            self._work.notify_all()
            self._idle.notify_all()
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=_JOIN_TIMEOUT)
            if thread.is_alive():
                raise ServiceError(
                    f"backend thread {thread.name!r} did not exit within "
                    f"{_JOIN_TIMEOUT}s of stop(); a flush is likely wedged"
                )

    def drain(self, timeout: "float | None" = None) -> None:
        """Flush everything pending (partials included) and block until
        the service is quiescent: no queued requests, no dispatched
        tasks, no in-flight flushes.  Traffic submitted *while* draining
        is drained too — quiescence is a property of the service, not a
        snapshot.  The backend keeps running afterwards.
        """
        with self._work:
            if self._state != _RUNNING:
                raise ServiceError(
                    "cannot drain a thread backend that is not running"
                )
            self._drain_waiters += 1
            try:
                self._work.notify_all()
                self._await_quiescent(timeout, "drain()")
            finally:
                self._drain_waiters -= 1

    def flush_key(self, key, timeout: "float | None" = None) -> None:
        """Force-flush one key's queue and wait until it is served."""
        with self._work:
            if self._state != _RUNNING:
                raise ServiceError(
                    "cannot flush a thread backend that is not running"
                )
            self._forced.add(key)
            self._work.notify_all()
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            while (
                self.service.batcher.pending(key)
                or key in self._inflight_keys
            ):
                if not self._wait_idle(deadline):
                    raise ServiceError(
                        f"flush of key {key!r} did not complete within "
                        f"{timeout}s"
                    )

    def kick(self) -> None:
        """Wake the flusher so it re-reads the clock and the queues.

        This is how an injected fake clock advances the deadline logic
        deterministically (``service.poll()`` kicks), and how ``submit``
        announces new work.
        """
        with self._work:
            self._work.notify_all()

    # -- quiescence waits ----------------------------------------------------------

    def _pending_work(self) -> bool:
        return bool(
            self.service.batcher.pending()
            or self._tasks
            or self._inflight_keys
        )

    def _wait_idle(self, deadline: "float | None") -> bool:
        if deadline is None:
            self._idle.wait()
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            return False
        return self._idle.wait(timeout=remaining)

    def _await_quiescent(self, timeout: "float | None", what: str) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._pending_work():
            if not self._wait_idle(deadline):
                raise ServiceError(
                    f"{what} did not reach quiescence within {timeout}s "
                    f"({self.service.batcher.pending()} queued, "
                    f"{len(self._inflight_keys)} in flight)"
                )
            # New arrivals during the wait flush too: STOPPING and an
            # active drain waiter both make _dispatch unconditional, so
            # this loop only re-checks the predicate.

    def _reject_pending(self) -> None:
        """Fail every queued-but-undispatched ticket (stop without drain).

        Already-dispatched tasks still execute (``_pending_work`` waits
        on them); only queue residents are rejected, through the same
        service helper the sync backend's non-draining stop uses.
        """
        self.service._reject_all_pending()

    def on_register(self, key, encoder) -> None:
        """Hook: an encoder was (re)registered on the owning service.

        The thread backend shares the service's registry in-process, so
        there is nothing to do; the process backend overrides this to
        ship the bundle to every live worker.
        """

    def _on_worker_death(self, key) -> None:
        """Hook: an *injected* ``kind="death"`` fault fired for ``key``.

        For threads the death is purely simulated (the thread exits and
        a replacement spawns — the generic requeue path below).  The
        process backend overrides this to make the simulation real:
        SIGKILL the worker process currently routed for ``key`` and
        respawn it, so chaos tests exercise genuine process death.
        """

    def consume_abandoned(self, task_id: int) -> bool:
        """Atomically check-and-clear a task's abandoned mark.

        Called by :meth:`EncodingService._execute_flush` (under the
        service lock) right before it would apply a result or fail
        tickets: ``True`` means the flusher already failed this flush's
        tickets and freed its key while the flush was executing, so the
        caller must discard its outcome entirely.
        """
        if task_id in self._abandoned:
            self._abandoned.discard(task_id)
            return True
        return False

    # -- the flusher ---------------------------------------------------------------

    def _flusher_loop(self) -> None:
        with self._work:
            while self._state != _STOPPED:
                now = self.service.clock()
                self._abandon_overdue(now)
                self._dispatch(now)
                if not self._pending_work():
                    self._idle.notify_all()
                # Sleep until the earliest deadline a *dispatchable* key
                # could hit — or the earliest executing flush would
                # become abandonable; blocked keys wake us via the
                # worker's completion notify, new work and lifecycle
                # changes via notify_all.  With no armed deadline this
                # blocks indefinitely — the no-busy-wait guarantee.
                deadline = self.service.batcher.next_deadline(
                    exclude=self._undispatchable_keys()
                )
                candidates = [] if deadline is None else [deadline]
                flush_timeout = self.service.config.flush_timeout
                if flush_timeout is not None and self._running:
                    candidates.append(
                        min(t[3] for t in self._running.values())
                        + flush_timeout
                    )
                timeout = (
                    None
                    if not candidates
                    else max(min(candidates) - now, 0.0)
                )
                self._work.wait(timeout)
                self.flusher_wakeups += 1

    def _abandon_overdue(self, now: float) -> None:
        """Cut loose every flush executing past ``flush_timeout``.

        The worker thread itself cannot be interrupted mid-pipeline, so
        abandonment is bookkeeping-only: fail the flush's unresolved
        requests with :class:`~repro.errors.DeadlineExceededError`,
        release the key/pipeline marks (task-id-guarded) so follow-up
        traffic stops head-of-line-blocking, and mark the task id so the
        zombie worker discards its eventual result.  Caller holds the
        lock (flusher loop).
        """
        flush_timeout = self.service.config.flush_timeout
        if flush_timeout is None or not self._running:
            return
        service = self.service
        abandoned_any = False
        for task_id in list(self._running):
            key, pipeline_id, requests, started_at = self._running[task_id]
            if now - started_at < flush_timeout:
                continue
            del self._running[task_id]
            self._abandoned.add(task_id)
            if self._inflight_keys.get(key) == task_id:
                del self._inflight_keys[key]
            if self._inflight_pipelines.get(pipeline_id) == task_id:
                del self._inflight_pipelines[pipeline_id]
            service._fail(
                requests,
                lambda request: DeadlineExceededError(
                    f"request {request.request_id} abandoned: its "
                    f"flush exceeded the {flush_timeout}s "
                    "flush_timeout budget"
                ),
                expired=True,
            )
            abandoned_any = True
        if abandoned_any:
            # Freed keys may dispatch immediately; flush_key/drain
            # waiters blocked on the wedged key must re-check too.
            self._idle.notify_all()

    def _dispatch(self, now: float) -> None:
        """Hand every triggered, non-busy key's batch to the worker pool."""
        service = self.service
        batcher = service.batcher
        # Busy keys are excluded at the source (same contract as the
        # next_deadline sleep below) instead of collected-then-skipped:
        # an overdue-but-busy key is not "due", it is waiting for its
        # in-flight flush, whose completion re-runs this dispatch.
        undispatchable = self._undispatchable_keys()
        due = set(batcher.due_keys(now, exclude=undispatchable))
        dispatched = False
        for key in list(batcher.pending_keys()):
            if key in self._inflight_keys:
                continue
            # The last clause makes dispatch work-conserving: while a
            # deadline is set, an idle worker takes the key now.
            triggered = (
                batcher.pending(key) >= batcher.max_batch
                or key in due
                or key in self._forced
                or self._drain_waiters > 0
                or self._state == _STOPPING
                or (
                    batcher.max_delay is not None
                    and len(self._running) + len(self._tasks)
                    < self.num_workers
                )
            )
            if not triggered:
                continue
            pipeline_id = self._pipeline_id(key)
            if pipeline_id in self._inflight_pipelines:
                continue  # shares an encoder with a busy key: next round
            # Caps at max_batch live requests; deadline-expired
            # stragglers anywhere in the queue ride along and are
            # failed by the flush's expiry sweep.
            requests = batcher.drain(key, now=now)
            if not requests:
                continue
            task_id = next(self._task_ids)
            self._inflight_keys[key] = task_id
            if pipeline_id is not None:
                self._inflight_pipelines[pipeline_id] = task_id
            if not batcher.pending(key):
                self._forced.discard(key)  # fully served; else next round
            self._tasks.append((task_id, key, requests, pipeline_id))
            dispatched = True
        if dispatched:
            self._work.notify_all()

    def _undispatchable_keys(self) -> set:
        """Keys that cannot dispatch right now: busy, or pipeline-blocked.

        Used as the ``next_deadline`` exclusion.  A key whose *alias*
        (same encoder, different key) has a flush in flight is just as
        undispatchable as an in-flight key — leaving it in would clamp
        the flusher's sleep to an already-elapsed deadline and spin the
        loop at zero timeout until the alias completes; the completion
        notification is what should (and does) wake us instead.
        """
        blocked = set(self._inflight_keys)
        if self._inflight_pipelines:
            for key in self.service.batcher.pending_keys():
                if key in blocked:
                    continue
                if self._pipeline_id(key) in self._inflight_pipelines:
                    blocked.add(key)
        return blocked

    def _pipeline_id(self, key) -> "int | None":
        """Identity of the key's pipeline, or None if unresolvable.

        An unknown key or an unfit encoder still dispatches — the worker
        fails those tickets with the real error instead of the flusher
        silently wedging the queue.
        """
        try:
            return id(self.service.registry.get(key).pipeline)
        except Exception:
            return None

    # -- the workers ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        service = self.service
        while True:
            with self._work:
                while not self._tasks and self._state != _STOPPED:
                    self._work.wait()
                if not self._tasks:
                    return  # stopped and drained
                task_id, key, requests, pipeline_id = self._tasks.popleft()
                # Stamp the start time before releasing the lock so the
                # flusher's flush_timeout sweep sees every executing
                # flush from its first instant — and wake the flusher,
                # whose current sleep was computed before this flush
                # existed and so carries no abandonment deadline for it.
                self._running[task_id] = (
                    key,
                    pipeline_id,
                    requests,
                    service.clock(),
                )
                if service.config.flush_timeout is not None:
                    self._work.notify_all()
            died = False
            try:
                try:
                    # The "worker" fault site models the thread itself
                    # dying *before* the flush body touches the batch.
                    if service.fault_injector is not None:
                        service.fault_injector.fire("worker")
                except WorkerDeath:
                    died = True
                    # Make injected death real under a process fleet:
                    # SIGKILL + respawn of the worker serving this key
                    # (no-op for threads).
                    self._on_worker_death(key)
                except Exception:
                    # Non-death worker-site faults (latency already
                    # slept inside fire) have nothing to poison here;
                    # the flush body has its own sites.  Run normally.
                    pass
                if not died:
                    try:
                        # reraise=False: the flush routes its exception
                        # into the affected tickets; nothing may escape
                        # and kill the pool.
                        service._execute_flush(
                            key, requests, reraise=False, task_id=task_id
                        )
                    except WorkerDeath:
                        # A worker *process* died under this batch
                        # (already marked dead + respawning by
                        # run_pipeline); requeue exactly like a local
                        # death.
                        died = True
            finally:
                with self._work:
                    self._running.pop(task_id, None)
                    if task_id in self._abandoned:
                        # The flusher already failed the tickets and
                        # freed the marks (if _execute_flush didn't
                        # consume the id itself); nothing left to do.
                        self._abandoned.discard(task_id)
                        if died:
                            self._spawn_replacement()
                    elif died:
                        # The batch is untouched: requeue it at the head
                        # with its marks kept, so the key's FIFO order —
                        # and hence its numerics — are unchanged, and
                        # spawn a replacement before this thread exits.
                        self._tasks.appendleft(
                            (task_id, key, requests, pipeline_id)
                        )
                        self._spawn_replacement()
                    else:
                        # Task-id-guarded release: after an abandonment
                        # the key may already be in flight under a new
                        # id, which this late release must not clear.
                        if self._inflight_keys.get(key) == task_id:
                            del self._inflight_keys[key]
                        if self._inflight_pipelines.get(pipeline_id) == task_id:
                            del self._inflight_pipelines[pipeline_id]
                    # The freed key may have queued a follow-up batch,
                    # and quiescence waiters need a look either way.
                    self._work.notify_all()
                    self._idle.notify_all()
            if died:
                return  # the replacement carries on; this thread is dead

    def _spawn_replacement(self) -> None:
        """Start a replacement worker after an injected death.

        Caller holds the lock.  Skipped once fully STOPPED (the pool is
        being torn down; no work remains that the drain/join path does
        not already cover).
        """
        if self._state == _STOPPED:
            return
        self.worker_respawns += 1
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"enqode-worker-r{self.worker_respawns}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def __repr__(self) -> str:
        return (
            f"ThreadBackend(state={self._state!r}, "
            f"workers={self.num_workers}, "
            f"inflight={len(self._inflight_keys)})"
        )


__all__ = ["ThreadBackend"]

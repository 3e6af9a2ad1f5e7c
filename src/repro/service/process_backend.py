"""Process-pool execution backend: a fleet of encoder-replica workers.

The serving step past the single-GIL
:class:`~repro.service.async_service.ThreadBackend`: fine-tuning is
CPU-bound numpy/scipy that holds the GIL, so threaded workers serialize
on compute even when they interleave on I/O.  :class:`ProcessBackend`
keeps the *entire* thread-backend control plane — flusher, worker
threads, micro-batcher, tickets, admission, deadlines, retries,
breakers, flush-timeout abandonment — and moves only the data plane:
the pipeline run inside :meth:`EncodingService._execute_flush` crosses
to a worker process.

Architecture
------------
* **Replicas, sharded routing.**  Every worker process receives *all*
  registered encoder bundles at spawn (the JSON serialization is
  float-exact, so replica numerics are bit-identical to the parent's)
  and rebuilds them once; ``register()``/``load()`` after start ship
  the new bundle to the live fleet.  Each key is *routed* to one worker
  by a stable content hash (``ServiceConfig.shard_strategy``), so a
  key's flushes always execute on the same replica — and because every
  worker holds every bundle, a death just reroutes the key to a
  survivor instantly while the replacement spawns.
* **Wire-format data plane.**  A flush crosses as
  ``("flush", key, request_ids, (B, D) samples)`` and returns as one
  kind-4 :func:`repro.io.wire.dump_encoded_batch` record (thetas +
  packed synthesis + per-sample metadata).  The parent decodes by
  wrapping rows of the reconstructed
  :class:`~repro.transpile.bound.BoundCircuitBatch` through the same
  ``template._wrap_result`` call ``bind_batch`` makes and recomputes
  the (deterministic) target rows locally — responses are float-bit
  identical to ``encode_batch`` on the same samples.
* **Death is real here.**  A worker process dying mid-flush (SIGKILL'd
  by an injected ``kind="death"`` fault, OOM-killed, crashed) surfaces
  as a broken pipe; :meth:`run_pipeline` marks the slot dead, starts a
  respawner, and raises
  :class:`~repro.service.resilience.WorkerDeath` — the shared worker
  loop requeues the batch at the head of the queue (FIFO order, and
  hence numerics, preserved) and the retry re-executes on a live
  replica.  Zero tickets are lost.

One pipe per worker, one lock per pipe: a slot serves one exchange at a
time, so request/response pairs never interleave.  The per-key /
per-pipeline single-flight invariants are enforced upstream by the
flusher exactly as for threads.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import time

import numpy as np

from repro.core.serialization import encoder_from_dict, encoder_to_dict
from repro.errors import RemoteFlushError, ServiceError
from repro.io.wire import dump_encoded_batch, load_encoded_batch
from repro.service.async_service import (
    _RUNNING,
    _STOPPED,
    _STOPPING,
    ThreadBackend,
)
from repro.service.resilience import WorkerDeath

#: The fleet always uses the ``spawn`` start method: ``fork`` would
#: duplicate the parent's threads' locks (the service lock could be
#: held mid-fork -> child deadlock) and its numpy/BLAS state; spawn
#: gives every worker a clean interpreter whose only coupling to the
#: parent is the pipe and the shipped bundles.
_START_METHOD = "spawn"

#: How long run_pipeline waits for *some* worker to be alive before
#: declaring the fleet lost (all workers dead and respawns not landing).
_REROUTE_POLL = 0.05


def _stable_hash(text: str) -> int:
    """64-bit content hash that is stable across processes and runs.

    Python's ``hash()`` is salted per process (PYTHONHASHSEED), which
    would shard keys differently in every parent — useless for
    reasoning about placement and for tests.  md5 is overkill-stable
    and everywhere.
    """
    return int.from_bytes(
        hashlib.md5(text.encode("utf-8")).digest()[:8], "little"
    )


def _describe_error(exc: Exception) -> tuple:
    """Picklable summary of a worker-side failure."""
    return (
        type(exc).__name__,
        str(exc),
        bool(getattr(exc, "transient", False)),
    )


def _worker_main(conn, index: int, bundles) -> None:
    """Entry point of one worker process.

    Rebuilds every shipped bundle into a fitted-encoder replica, then
    serves ``register``/``flush``/``stop`` messages until the pipe
    closes.  All resilience logic (retries, deadlines, breakers, fault
    injection) lives in the parent: the worker is a pure compute
    server, and any exception it hits is reported, never raised.
    """
    registry = {}
    try:
        for key, payload, backend in bundles:
            registry[key] = encoder_from_dict(payload, backend)
    except Exception as exc:  # unreadable bundle: report, don't die
        conn.send(("spawn-error", index, _describe_error(exc)))
        return
    conn.send(("ready", index, None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing to clean up
        kind = message[0]
        if kind == "stop":
            conn.send(("stopped", index, None))
            return
        if kind == "register":
            _, key, payload, backend = message
            try:
                registry[key] = encoder_from_dict(payload, backend)
                conn.send(("registered", key, None))
            except Exception as exc:
                conn.send(("error", key, _describe_error(exc)))
            continue
        if kind == "flush":
            _, key, request_ids, samples = message
            try:
                encoder = registry.get(key)
                if encoder is None:
                    raise ServiceError(
                        f"worker {index} holds no replica for key {key!r} "
                        f"(replicas: {sorted(map(repr, registry))})"
                    )
                # The replica's stages are rebuilt from a float-exact
                # snapshot of the parent's, so this run is bit-identical
                # to the parent running encode_batch on these samples.
                encoded, report = encoder.pipeline.run_reported(
                    np.asarray(samples, dtype=float)
                )
                blob = dump_encoded_batch(
                    encoded, report, include_synthesis=True
                )
                conn.send(("encoded", key, blob))
            except Exception as exc:
                conn.send(("error", key, _describe_error(exc)))
            continue
        conn.send(("error", None, ("ServiceError", f"unknown message kind {kind!r}", False)))


class _WorkerSlot:
    """One worker process + its pipe, guarded by a per-slot lock."""

    __slots__ = ("index", "proc", "conn", "lock", "alive", "generation")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.conn = None
        #: Serializes send/recv exchanges on the pipe (one exchange at
        #: a time; the pipe is not multiplexed).
        self.lock = threading.Lock()
        self.alive = False
        #: Bumped on every successful (re)spawn; lets a late death
        #: report for generation N ignore a slot already respawned as
        #: N+1 instead of killing the healthy replacement.
        self.generation = 0


class ProcessBackend(ThreadBackend):
    """Worker-process fleet behind the shared flusher/worker plumbing.

    Created by ``EncodingService(backend="process", workers=N)``; not
    constructed directly.  Subclasses :class:`ThreadBackend` for the
    whole control plane and overrides only the execution seam
    (:meth:`run_pipeline`), registration shipping, injected-death
    realization, and fleet lifecycle.
    """

    owns_execution = True

    def __init__(self, service, workers: int) -> None:
        super().__init__(service, workers)
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._slots = [_WorkerSlot(i) for i in range(workers)]
        #: Guards slot alive/proc/conn/generation flips and _bundles.
        #: Strictly leaf: never acquired while holding the service lock
        #: order is always fleet-lock -> nothing.
        self._fleet_lock = threading.Lock()
        #: key -> (payload, hardware backend): the current bundle set,
        #: shipped whole to every spawn/respawn.
        self._bundles: dict = {}
        #: Worker *processes* respawned after deaths, and respawns that
        #: failed to come up (the inherited ``worker_respawns`` counts
        #: replacement threads).  ``stats()`` reads all three.
        self.process_respawns = 0
        self.process_respawn_failures = 0
        #: Set by _shutdown_fleet before it starts reaping, cleared by
        #: _spawn_fleet: an in-flight respawner that commits after the
        #: teardown swept its slot would otherwise leak a live process.
        self._fleet_closed = True

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Spawn the process fleet, then the flusher/worker threads.

        The fleet comes up first (slow: each worker is a fresh
        interpreter importing numpy/scipy and rebuilding every bundle)
        so that by the time submissions are accepted every key routes
        to a live replica.  A worker failing its ready handshake within
        ``spawn_timeout`` aborts the start and tears the fleet down.
        """
        if self._state in (_RUNNING, _STOPPING):
            # Mirrors ThreadBackend.start's double-start rejection
            # before paying the fleet spawn.
            raise ServiceError(
                "process backend is already running; stop() it before "
                "starting again"
            )
        with self._fleet_lock:
            for key, encoder in self.service.registry.items():
                self._bundles[key] = (
                    encoder_to_dict(encoder),
                    encoder.backend,
                )
        try:
            self._spawn_fleet()
            super().start()
        except BaseException:
            self._shutdown_fleet()
            raise

    def stop(self, drain: bool = True, timeout: "float | None" = None) -> None:
        """Drain/reject via the shared control plane, then stop the fleet."""
        try:
            super().stop(drain=drain, timeout=timeout)
        finally:
            self._shutdown_fleet()

    def on_register(self, key, encoder) -> None:
        """Record the bundle and ship it to every live worker.

        Called under no lock by the service's ``register``/``load``.
        Serialization happens once here; respawns reuse the recorded
        payload.  Shipping waits ``handshake_timeout`` per worker for
        the acknowledgement (a worker mid-flush acks after it).
        """
        payload = encoder_to_dict(encoder)
        hw_backend = encoder.backend
        with self._fleet_lock:
            self._bundles[key] = (payload, hw_backend)
            slots = [slot for slot in self._slots if slot.alive]
        timeout = self.service.config.handshake_timeout
        for slot in slots:
            with slot.lock:
                if not slot.alive:
                    continue  # died while we waited for the pipe
                try:
                    slot.conn.send(("register", key, payload, hw_backend))
                    if not slot.conn.poll(timeout):
                        raise ServiceError(
                            f"worker {slot.index} did not acknowledge "
                            f"bundle {key!r} within {timeout}s"
                        )
                    kind, _, info = slot.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    self._mark_dead_and_respawn(slot, slot.generation)
                    continue
            if kind == "error":
                etype, msg, _ = info
                raise ServiceError(
                    f"worker {slot.index} rejected bundle {key!r}: "
                    f"{etype}: {msg}"
                )

    # -- sharding ------------------------------------------------------------------

    def shard_of(self, key) -> "_WorkerSlot | None":
        """The alive slot that serves ``key`` right now, or None.

        Rendezvous (default): highest stable hash of ``(key, worker)``
        over the alive fleet — a death moves only the dead worker's
        keys, and a respawn moves them back.  Modulo: hash the key over
        the *full* fleet width and probe forward past dead slots.
        """
        with self._fleet_lock:
            return self._shard_of_locked(key)

    def _shard_of_locked(self, key):
        alive = [slot for slot in self._slots if slot.alive]
        if not alive:
            return None
        if self.service.config.shard_strategy == "modulo":
            start = _stable_hash(repr(key)) % len(self._slots)
            for offset in range(len(self._slots)):
                slot = self._slots[(start + offset) % len(self._slots)]
                if slot.alive:
                    return slot
        return max(
            alive,
            key=lambda slot: _stable_hash(f"{key!r}#{slot.index}"),
        )

    def shard_map(self) -> dict:
        """``key -> worker index`` for every registered key."""
        keys = self.service.registry.keys()
        with self._fleet_lock:
            return {
                key: slot.index
                for key in keys
                for slot in [self._shard_of_locked(key)]
                if slot is not None
            }

    # -- the execution seam --------------------------------------------------------

    def run_pipeline(self, key, request_ids: list, samples: np.ndarray):
        """Execute one flush on the fleet; the process data plane.

        Ships ``(key, request_ids, samples)`` to the routed worker and
        decodes its kind-4 wire response against the parent's template
        — the return value is ``run_reported``'s, float-bit identical
        to running the pipeline here.  A broken pipe (the worker died
        under us) marks the slot dead, kicks off the respawn, and
        raises :class:`WorkerDeath` so the shared worker loop requeues
        the batch in order.
        """
        slot = self._await_routable(key)
        with slot.lock:
            if not slot.alive:
                # Killed between routing and lock acquisition; the
                # requeue path re-routes to a survivor.
                raise WorkerDeath(
                    f"worker process {slot.index} died before flush of "
                    f"key {key!r} was sent"
                )
            try:
                slot.conn.send(("flush", key, list(request_ids), samples))
                kind, _, payload = slot.conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                self._mark_dead_and_respawn(slot, slot.generation)
                raise WorkerDeath(
                    f"worker process {slot.index} died mid-flush of "
                    f"{len(request_ids)} request(s) for key {key!r}"
                ) from None
        if kind == "error":
            etype, msg, transient = payload
            raise RemoteFlushError(
                f"worker {slot.index} flush of {len(request_ids)} "
                f"request(s) for key {key!r} failed: {etype}: {msg}",
                transient=transient,
            )
        if kind != "encoded":
            raise ServiceError(
                f"worker {slot.index} sent unexpected reply {kind!r} "
                f"to a flush"
            )
        encoder = self.service.registry.get(key)
        template = encoder.pipeline.lower.template()
        # Targets never cross the wire; prepare() is deterministic, so
        # recomputing them here reproduces the worker's bit for bit.
        targets = encoder.pipeline.prepare(np.asarray(samples, dtype=float))
        return load_encoded_batch(payload, template=template, targets=targets)

    def _await_routable(self, key) -> _WorkerSlot:
        """Route ``key``, waiting out a window where the whole fleet is
        dead (every worker killed at once, respawns still importing
        numpy).  Gives up after ``spawn_timeout`` — at that point the
        fleet is genuinely lost and the flush fails terminally.
        """
        deadline = time.monotonic() + self.service.config.spawn_timeout
        while True:
            slot = self.shard_of(key)
            if slot is not None:
                return slot
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"no alive worker process to serve key {key!r}: the "
                    f"whole fleet is down and respawns did not land "
                    f"within spawn_timeout="
                    f"{self.service.config.spawn_timeout}s"
                )
            time.sleep(_REROUTE_POLL)

    # -- death & respawn -----------------------------------------------------------

    def _on_worker_death(self, key) -> None:
        """Make an injected ``kind="death"`` real: SIGKILL ``key``'s worker.

        Fired by the shared worker loop when the ``"worker"`` fault
        site raises :class:`WorkerDeath` — under this backend the
        simulation escalates to an actual ``SIGKILL`` of the routed
        process (no cleanup, no goodbye: the hard-failure mode), whose
        respawn + rerouting then runs the same machinery a genuine
        crash would.
        """
        with self._fleet_lock:
            slot = self._shard_of_locked(key)
            if slot is None:
                return
            generation = slot.generation
            proc = slot.proc
        if proc is not None:
            proc.kill()
        self._mark_dead_and_respawn(slot, generation)

    def _mark_dead_and_respawn(self, slot: _WorkerSlot, generation: int) -> None:
        """Flip a slot dead (idempotent per generation) and respawn it.

        The generation guard makes late death reports harmless: if the
        slot already respawned (generation advanced), the report is
        about the *previous* process and must not touch the healthy
        replacement.  The respawner runs on its own daemon thread —
        spawning imports numpy in the child, seconds of work that must
        not block the flusher or a worker thread.
        """
        with self._fleet_lock:
            if slot.generation != generation or not slot.alive:
                return
            slot.alive = False
        threading.Thread(
            target=self._respawn,
            args=(slot, generation),
            name=f"enqode-procspawn-{slot.index}",
            daemon=True,
        ).start()

    def _respawn(self, slot: _WorkerSlot, generation: int) -> None:
        if self._state == _STOPPED:
            return  # torn down while the death was in flight
        try:
            proc, conn = self._start_worker(slot.index)
            deadline = time.monotonic() + self.service.config.spawn_timeout
            self._await_ready(slot.index, proc, conn, deadline)
        except Exception:
            with self._fleet_lock:
                self.process_respawn_failures += 1
            return
        with self._fleet_lock:
            if (
                self._fleet_closed
                or slot.alive
                or slot.generation != generation
            ):
                # Lost a respawn race (only one replacement may win) or
                # the fleet was torn down while we were spawning.
                proc.kill()
                return
            old_conn = slot.conn
            slot.proc = proc
            slot.conn = conn
            slot.generation = generation + 1
            slot.alive = True
            self.process_respawns += 1
        if old_conn is not None:
            try:
                old_conn.close()
            except OSError:
                pass
        # Keys rerouted away during the dead window route back here on
        # their next flush; wake the flusher in case work queued up.
        with self._work:
            self._work.notify_all()

    # -- fleet spawn/teardown ------------------------------------------------------

    def _start_worker(self, index: int):
        """Start one worker process on the current bundle set.

        Returns ``(process, parent end of its pipe)`` without waiting:
        :meth:`_await_ready` completes the handshake, so a fleet can
        start every interpreter before it waits on any of them.
        """
        with self._fleet_lock:
            bundles = [
                (key, payload, hw_backend)
                for key, (payload, hw_backend) in self._bundles.items()
            ]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, index, bundles),
            name=f"enqode-procworker-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _await_ready(self, index: int, proc, conn, deadline: float) -> None:
        """Wait until ``deadline`` for a started worker's ready message.

        Any failure kills the process, closes its pipe and raises
        :class:`ServiceError`.
        """
        timeout = self.service.config.spawn_timeout
        try:
            try:
                ready = conn.poll(max(deadline - time.monotonic(), 0.0))
                message = conn.recv() if ready else None
            except (EOFError, OSError) as exc:
                raise ServiceError(
                    f"worker process {index} died during spawn (a "
                    f"'__main__' script spawning workers at import time "
                    f"must guard service start with "
                    f"`if __name__ == '__main__':`)"
                ) from exc
            if message is None:
                raise ServiceError(
                    f"worker process {index} did not complete its ready "
                    f"handshake within spawn_timeout={timeout}s"
                )
            kind, _, info = message
            if kind != "ready":
                detail = "" if info is None else f": {info[0]}: {info[1]}"
                raise ServiceError(
                    f"worker process {index} failed to come up "
                    f"({kind}{detail})"
                )
        except BaseException:
            proc.kill()
            conn.close()
            raise

    def _spawn_fleet(self) -> None:
        """Bring every slot up; all-or-nothing.

        Processes are started together (their interpreter+import
        startup overlaps) and then each handshake is awaited, so a
        fleet of N costs roughly one worker's startup, not N.
        """
        started = []
        try:
            with self._fleet_lock:
                self._fleet_closed = False
            for slot in self._slots:
                started.append((slot, *self._start_worker(slot.index)))
            deadline = time.monotonic() + self.service.config.spawn_timeout
            for slot, proc, conn in started:
                self._await_ready(slot.index, proc, conn, deadline)
                with self._fleet_lock:
                    slot.proc = proc
                    slot.conn = conn
                    slot.generation += 1
                    slot.alive = True
        except BaseException:
            for _, proc, conn in started:
                proc.kill()
                try:
                    conn.close()
                except OSError:
                    pass
            with self._fleet_lock:
                self._fleet_closed = True
                for slot in self._slots:
                    slot.alive = False
                    slot.proc = None
                    slot.conn = None
            raise

    def _shutdown_fleet(self) -> None:
        """Stop every worker: polite ``stop`` message, then SIGKILL."""
        with self._fleet_lock:
            self._fleet_closed = True
        for slot in self._slots:
            with self._fleet_lock:
                proc, conn = slot.proc, slot.conn
                alive = slot.alive
                slot.alive = False
                slot.proc = None
                slot.conn = None
            if proc is None:
                continue
            if alive and conn is not None:
                with slot.lock:
                    try:
                        conn.send(("stop",))
                        conn.poll(1.0)  # best-effort "stopped" ack
                    except (EOFError, OSError, BrokenPipeError):
                        pass
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass

    def __repr__(self) -> str:
        with self._fleet_lock:
            alive = sum(slot.alive for slot in self._slots)
        return (
            f"ProcessBackend(state={self._state!r}, "
            f"workers={self.num_workers}, alive={alive}, "
            f"respawns={self.process_respawns})"
        )


__all__ = ["ProcessBackend"]

"""Correctness gate run after the timed phase; any failure voids the run."""

from __future__ import annotations

import numpy as np

from repro.quantum.statevector import simulate_statevector
from repro.transpile.metrics import circuit_metrics

#: Simulated fidelity must reproduce the reported one this closely
#: (measured worst case ~6e-15 at 8 qubits).
FIDELITY_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """A served output, or the service ledger, is wrong."""


def _sample(result):
    return getattr(result, "encoded", result)


def check_samples(served, keep) -> list[dict]:
    """Re-simulate the kept samples; return their circuit metrics rows.

    Each hardware circuit, simulated from |0>, must reproduce the
    fidelity the pipeline reported against the physical target, and
    every circuit must have the same physical shape (Fig. 7's zero
    variance).
    """
    fidelity = served.fidelity
    if not np.all(np.isfinite(fidelity)) or np.any(
        (fidelity < 0.0) | (fidelity > 1.0 + FIDELITY_TOLERANCE)
    ):
        raise CheckFailed("a reported fidelity is outside [0, 1]")
    rows = []
    for index in sorted(keep):
        if index not in served.results:
            raise CheckFailed(f"kept request {index} was not served")
        sample = _sample(served.results[index])
        state = simulate_statevector(sample.circuit).data
        target = sample.physical_target()
        simulated = abs(np.vdot(target, state)) ** 2
        if abs(simulated - sample.ideal_fidelity) > FIDELITY_TOLERANCE:
            raise CheckFailed(
                f"request {index}: simulated fidelity {simulated!r} != "
                f"reported {sample.ideal_fidelity!r}"
            )
        rows.append(circuit_metrics(sample.circuit).as_row())
    if any(row != rows[0] for row in rows):
        raise CheckFailed(f"circuit shapes differ across samples: {rows}")
    return rows


def check_ledger(served) -> None:
    """Every submission resolved: submitted = completed + failed + rejected."""
    if served.stats is None:
        return
    stats = served.stats[1]
    resolved = (
        stats.requests_completed + stats.requests_failed + stats.rejected
    )
    if stats.requests_pending or stats.requests_submitted != resolved:
        raise CheckFailed(
            f"ledger does not balance: submitted "
            f"{stats.requests_submitted}, completed "
            f"{stats.requests_completed}, failed {stats.requests_failed}, "
            f"rejected {stats.rejected}, pending {stats.requests_pending}"
        )


def check_replay(state, served, requests, rng, count: int) -> int:
    """Float-bit equality with an ``encode_batch`` replay of each flush.

    Checks ``count`` seeded flush partitions: the rows one flush carried,
    in submission order, re-encoded in this process by the registered
    encoder for the flush's key.  Returns the number of rows compared.
    """
    flushes: dict = {}
    for index in sorted(served.results):
        response = served.results[index]
        flushes.setdefault(response.flush_id, []).append(index)
    chosen = rng.choice(
        sorted(flushes), size=min(count, len(flushes)), replace=False
    )
    compared = 0
    for flush_id in chosen:
        indices = flushes[int(flush_id)]
        key = served.results[indices[0]].key
        replay = state.encoders[key].encode_batch(requests[indices])
        for index, again in zip(indices, replay):
            sample = served.results[index].encoded
            same = (
                np.array_equal(sample.theta, again.theta)
                and sample.ideal_fidelity == again.ideal_fidelity
                and sample.cluster_index == again.cluster_index
            )
            if not same:
                raise CheckFailed(
                    f"request {index} (flush {int(flush_id)}, key {key!r}) "
                    "differs from its encode_batch replay"
                )
            compared += 1
    return compared

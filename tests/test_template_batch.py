"""Tests for batched template binding (``ParametricTemplate.bind_batch``)
and the batched ZYZ resynthesis behind it.

The contract under test is strict: a batched bind must be
**instruction-for-instruction identical** to a Python loop of full
per-sample transpiles (``transpile(ansatz.circuit(theta), backend,
level)``) — same gate names, same qubit tuples, and the *same
floating-point bits* in every Rz angle — and the batched synthesis must
reproduce the scalar ``synthesize_1q`` row for row.  The sweeps
deliberately include angles within 1e-9 of the ±pi Euler branch cut,
where a one-ulp difference between the scalar and vectorized numerics
would flip an emitted Rz sign or a 0/1/2-SX case decision.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.ansatz import EnQodeAnsatz
from repro.errors import TranspilerError
from repro.quantum import gate, random_unitary
from repro.transpile.euler import (
    PACKED_DROPPED,
    PACKED_SPECIAL,
    synthesize_1q,
    synthesize_1q_packed_batch,
)
from repro.transpile.template import ParametricTemplate, transpile_template
from repro.transpile.transpiler import transpile


def transpile_loop(template, thetas):
    """The reference: one full transpile per angle row."""
    return [
        transpile(
            template.ansatz.circuit(theta),
            template.backend,
            optimization_level=template.optimization_level,
        )
        for theta in thetas
    ]


def assert_identical_results(sequential, batched):
    """Bit-exact instruction equality plus layout/SWAP bookkeeping."""
    assert len(sequential) == len(batched)
    for seq, bat in zip(sequential, batched):
        seq_instr = list(seq.circuit)
        bat_instr = list(bat.circuit)
        assert len(seq_instr) == len(bat_instr)
        for a, b in zip(seq_instr, bat_instr):
            assert a.gate.name == b.gate.name
            assert a.qubits == b.qubits
            # Tuple equality on floats is exact — no allclose fuzz.
            assert a.gate.params == b.gate.params
        assert seq.initial_layout == bat.initial_layout
        assert seq.final_layout == bat.final_layout
        assert seq.num_swaps_inserted == bat.num_swaps_inserted


def branch_cut_thetas(num_parameters: int, rng: np.random.Generator):
    """Random batches salted with ±pi-adjacent and degenerate angles."""
    thetas = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, (16, num_parameters))
    cut_values = np.array(
        [
            math.pi,
            -math.pi,
            math.pi - 1e-9,
            math.pi + 1e-9,
            -math.pi + 1e-9,
            -math.pi - 1e-9,
            math.pi - 1e-10,
            -math.pi + 1e-10,
            math.pi / 2.0,
            math.pi / 2.0 + 1e-10,
            0.0,
            1e-10,
            -1e-10,
            2.0 * math.pi,
            -2.0 * math.pi,
            3.0 * math.pi - 1e-9,
        ]
    )
    for row in range(8):
        picks = rng.integers(0, cut_values.size, num_parameters)
        thetas[row] = cut_values[picks]
    # Whole-row degenerate assignments: all-zero (identity runs, which
    # must be *dropped* identically) and all-pi.
    thetas[8] = 0.0
    thetas[9] = math.pi
    thetas[10] = -math.pi
    return thetas


@pytest.mark.parametrize("level", [0, 1])
def test_bind_batch_identical_to_bind_loop(segment4, rng, level):
    """One batched bind == a loop of per-sample full transpiles."""
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, level)
    thetas = branch_cut_thetas(ansatz.num_parameters, rng)
    sequential = transpile_loop(template, thetas)
    batched = template.bind_batch(thetas)
    assert_identical_results(sequential, batched)


@pytest.mark.parametrize("level", [0, 1])
def test_bind_batch_property_sweep(segment4, level):
    """Many independent random batches, fresh RNG streams per seed."""
    ansatz = EnQodeAnsatz(4, 3)
    template = ParametricTemplate(ansatz, segment4, level)
    for seed in range(10):
        sweep_rng = np.random.default_rng(seed)
        thetas = branch_cut_thetas(ansatz.num_parameters, sweep_rng)
        sequential = transpile_loop(template, thetas)
        batched = template.bind_batch(thetas)
        assert_identical_results(sequential, batched)


def test_bind_batch_single_row_matches_bind(segment4, rng):
    """A one-row bind (the ``encode`` lowering) == its full transpile."""
    ansatz = EnQodeAnsatz(4, 4)
    template = transpile_template(ansatz, segment4, 1)
    theta = rng.uniform(-np.pi, np.pi, ansatz.num_parameters)
    assert_identical_results(
        transpile_loop(template, [theta]), template.bind_batch(theta[None, :])
    )


def test_bind_batch_counts_each_row(segment4, rng):
    """num_binds advances by B per bind_batch — per-row semantics."""
    ansatz = EnQodeAnsatz(4, 4)
    template = ParametricTemplate(ansatz, segment4, 1)
    assert template.num_binds == 0  # the build-time verification resets it
    thetas = rng.uniform(-np.pi, np.pi, (5, ansatz.num_parameters))
    template.bind_batch(thetas)
    assert template.num_binds == 5
    template.bind_batch(thetas[:1])
    assert template.num_binds == 6
    template.bind_batch(thetas[:2])
    assert template.num_binds == 8


def test_bind_batch_validates_shape(segment4):
    template = transpile_template(EnQodeAnsatz(4, 4), segment4, 1)
    with pytest.raises(TranspilerError):
        template.bind_batch(np.zeros((3, 5)))
    with pytest.raises(TranspilerError):
        template.bind_batch(np.zeros((2, 2, 2)))


def test_bind_batch_empty_batch(segment4):
    template = transpile_template(EnQodeAnsatz(4, 4), segment4, 1)
    before = template.num_binds
    assert template.bind_batch(np.zeros((0, 16))) == []
    assert template.num_binds == before


def test_bind_batch_results_are_independent(segment4, rng):
    """Each row gets its own circuit and layout copies."""
    ansatz = EnQodeAnsatz(4, 4)
    template = transpile_template(ansatz, segment4, 1)
    thetas = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    results = template.bind_batch(thetas)
    assert len({id(r.circuit) for r in results}) == 3
    assert len({id(r.initial_layout) for r in results}) == 3
    results[0].circuit._instructions.append("sentinel")
    assert results[1].circuit._instructions[-1] != "sentinel"


# -- batched ZYZ synthesis ------------------------------------------------------------


def _unitary_zoo(rng: np.random.Generator) -> list[np.ndarray]:
    mats = [random_unitary(1, seed=int(s)) for s in rng.integers(0, 10_000, 40)]
    mats += [
        np.eye(2, dtype=complex),
        np.exp(0.37j) * np.eye(2),
        gate("x").matrix,
        gate("sx").matrix,
        gate("rz", 0.8).matrix,
        gate("h").matrix,
    ]
    for eps in (0.0, 1e-10, -1e-10, 1e-9, 2e-9, -2e-9):
        mats.append(gate("ry", math.pi + eps).matrix)
        mats.append(gate("ry", math.pi / 2.0 + eps).matrix)
        mats.append(gate("ry", eps).matrix)
        mats.append(
            gate("rz", math.pi + eps).matrix
            @ gate("sx").matrix
            @ gate("rz", -math.pi + eps).matrix
        )
    return mats


def expand_packed(packed) -> list:
    """Each packed row as the op list it stands for (``None`` if dropped)."""
    rows = []
    for row in range(len(packed)):
        kind = packed.kinds[row]
        if kind == PACKED_DROPPED:
            rows.append(None)
        elif kind == PACKED_SPECIAL:
            rows.append(packed.specials[row])
        else:
            ops = []
            w_lam, w_mid, w_phi = packed.angles[row].tolist()
            if w_lam == w_lam:  # NaN marks a skipped Rz slot
                ops.append(("rz", (w_lam,)))
            ops.append(("sx", ()))
            if w_mid == w_mid:
                ops.append(("rz", (w_mid,)))
            ops.append(("sx", ()))
            if w_phi == w_phi:
                ops.append(("rz", (w_phi,)))
            rows.append(ops)
    return rows


def test_synthesize_1q_batch_matches_scalar(rng):
    mats = _unitary_zoo(rng)
    batch = expand_packed(synthesize_1q_packed_batch(np.stack(mats)))
    for ops, matrix in zip(batch, mats):
        assert ops == synthesize_1q(matrix)  # exact, float bits included


def test_synthesize_1q_batch_drop_identity(rng):
    mats = _unitary_zoo(rng)
    batch = expand_packed(
        synthesize_1q_packed_batch(np.stack(mats), drop_identity=True)
    )
    for ops, matrix in zip(batch, mats):
        pivot = matrix[0, 0]
        is_identity = (
            abs(matrix[0, 1]) <= 1e-12
            and abs(matrix[1, 0]) <= 1e-12
            and abs(matrix[1, 1] - pivot) <= 1e-12 + 1e-5 * abs(pivot)
        )
        if is_identity:
            assert ops is None
        else:
            assert ops == synthesize_1q(matrix)


def test_synthesize_1q_batch_rejects_bad_input():
    with pytest.raises(TranspilerError):
        synthesize_1q_packed_batch(np.zeros((3, 3)))
    with pytest.raises(TranspilerError):
        synthesize_1q_packed_batch(np.zeros((2, 2, 2)))  # singular rows
    assert len(synthesize_1q_packed_batch(np.zeros((0, 2, 2)))) == 0

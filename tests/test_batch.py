"""Tests for the batched encoding engine and the parametric template.

Covers the PR-1 acceptance criteria: ``encode_batch`` equivalence with
the sequential path on >= 32 samples (cluster assignments, fidelities to
1e-9, transpiled gate counts), the transpile-once template cache, the
batched objective/optimizer, vectorized ``nearest_centers``, and the
vectorized popcount.
"""

import numpy as np
import pytest

from repro.core import (
    BatchFidelityObjective,
    BatchLBFGSOptimizer,
    EnQodeAnsatz,
    EnQodeConfig,
    EnQodeEncoder,
    FidelityObjective,
    SymbolicState,
    nearest_center,
    nearest_centers,
)
from repro.core.batch import PER_ROW_DRIVE_MIN_SIZE
from repro.errors import OptimizationError, TranspilerError
from repro.quantum import simulate_statevector, state_fidelity
from repro.quantum.gates import Gate, gate
from repro.transpile import (
    GLOBAL_TEMPLATE_CACHE,
    ParametricTemplate,
    template as template_module,
    transpile,
    transpile_template,
)
from repro.utils.linalg import popcount


@pytest.fixture(scope="module")
def cluster_data():
    """Three tight clusters of unit vectors in R^16 (32+ samples)."""
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(3, 16))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    blocks = []
    for center in centers:
        block = center + 0.04 * rng.normal(size=(14, 16))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


@pytest.fixture(scope="module")
def fitted(segment4, cluster_data):
    config = EnQodeConfig(
        num_qubits=4,
        num_layers=6,
        offline_restarts=3,
        offline_max_iterations=500,
        online_max_iterations=60,
        max_clusters=8,
        seed=5,
    )
    encoder = EnQodeEncoder(segment4, config)
    encoder.fit(cluster_data)
    return encoder


# -- the acceptance regression: batch == sequential ---------------------------------


def test_encode_batch_equivalent_to_sequential(fitted, cluster_data):
    """>= 32 samples: same clusters, fidelities (1e-9), and gate counts."""
    samples = cluster_data[:32]
    assert samples.shape[0] >= 32
    sequential = [fitted.encode(x) for x in samples]
    batched = fitted.encode_batch(samples)
    assert len(batched) == len(sequential)
    for seq, bat in zip(sequential, batched):
        assert bat.cluster_index == seq.cluster_index
        assert abs(bat.ideal_fidelity - seq.ideal_fidelity) < 1e-9
        assert bat.circuit.count_ops() == seq.circuit.count_ops()
        assert bat.circuit.depth(physical_only=True) == seq.circuit.depth(
            physical_only=True
        )
        assert (
            bat.transpiled.num_swaps_inserted
            == seq.transpiled.num_swaps_inserted
        )


def test_encode_batch_without_template_matches(fitted, cluster_data):
    """Each template-bound circuit == the full transpile of its theta."""
    for sample in fitted.encode_batch(cluster_data[:4]):
        reference = transpile(
            fitted.ansatz.circuit(sample.theta),
            fitted.backend,
            optimization_level=fitted.config.optimization_level,
        )
        assert list(sample.circuit) == list(reference.circuit)
        assert (
            sample.transpiled.num_swaps_inserted
            == reference.num_swaps_inserted
        )


def test_encode_batch_requires_fit(segment4):
    encoder = EnQodeEncoder(segment4, EnQodeConfig(num_qubits=4))
    with pytest.raises(OptimizationError):
        encoder.encode_batch(np.ones((3, 16)))


def test_encode_batch_validates_width(fitted):
    with pytest.raises(OptimizationError):
        fitted.encode_batch(np.ones((3, 8)))


def test_encode_batch_empty_input(fitted):
    assert fitted.encode_batch(np.empty((0, 16))) == []


def test_encode_rejects_zero_rows(fitted):
    """A zero row must error cleanly, not propagate NaNs (both paths)."""
    bad = np.ones((3, 16))
    bad[1] = 0.0
    with pytest.raises(OptimizationError):
        fitted.encode_batch(bad)
    with pytest.raises(OptimizationError):
        fitted.encode(np.zeros(16))


def test_encode_batch_lazy_logical_circuit(fitted, cluster_data):
    encoded = fitted.encode_batch(cluster_data[:2])[0]
    rebuilt = fitted.ansatz.circuit(encoded.theta)
    assert list(encoded.logical_circuit) == list(rebuilt)


def test_encode_batch_simulates_to_claimed_fidelity(fitted, cluster_data):
    encoded = fitted.encode_batch(cluster_data[:3])[1]
    psi = simulate_statevector(encoded.circuit)
    simulated = state_fidelity(psi, encoded.physical_target())
    assert simulated == pytest.approx(encoded.ideal_fidelity, abs=1e-9)


# -- the template cache: transpile runs once per batch --------------------------------


def test_template_cache_transpiles_once_per_batch(
    fitted, cluster_data, monkeypatch
):
    calls = {"count": 0}
    real_transpile = template_module.transpile

    def counting_transpile(*args, **kwargs):
        calls["count"] += 1
        return real_transpile(*args, **kwargs)

    monkeypatch.setattr(template_module, "transpile", counting_transpile)
    GLOBAL_TEMPLATE_CACHE.clear()
    fitted.encode_batch(cluster_data[:8])
    # One reference transpile inside the template build — nothing per sample.
    assert calls["count"] == 1
    assert GLOBAL_TEMPLATE_CACHE.misses == 1
    assert GLOBAL_TEMPLATE_CACHE.hits == 0
    fitted.encode_batch(cluster_data[8:16])
    assert calls["count"] == 1  # cache hit: no further transpiles
    assert GLOBAL_TEMPLATE_CACHE.hits == 1


def test_template_cache_distinguishes_levels(segment4):
    GLOBAL_TEMPLATE_CACHE.clear()
    ansatz = EnQodeAnsatz(4, 4)
    t1 = transpile_template(ansatz, segment4, 1)
    t0 = transpile_template(ansatz, segment4, 0)
    again = transpile_template(EnQodeAnsatz(4, 4), segment4, 1)
    assert t1 is not t0
    assert again is t1  # structural key, not object identity
    assert GLOBAL_TEMPLATE_CACHE.misses == 2
    assert GLOBAL_TEMPLATE_CACHE.hits == 1


@pytest.mark.parametrize("level", [0, 1])
def test_template_bind_matches_full_transpile(segment4, level):
    ansatz = EnQodeAnsatz(4, 6)
    template = ParametricTemplate(ansatz, segment4, level)
    rng = np.random.default_rng(3)
    thetas = [
        rng.uniform(-np.pi, np.pi, ansatz.num_parameters) for _ in range(5)
    ]
    thetas.append(np.zeros(ansatz.num_parameters))  # degenerate pruning case
    for theta in thetas:
        reference = transpile(
            ansatz.circuit(theta), segment4, optimization_level=level
        )
        bound = template.bind_batch(theta[None, :])[0]
        assert list(bound.circuit) == list(reference.circuit)
        assert (
            bound.circuit.count_ops(physical_only=True)
            == reference.circuit.count_ops(physical_only=True)
        )
        assert bound.final_layout.physical(0) == reference.final_layout.physical(0)


def test_template_bind_validates_theta(segment4):
    template = transpile_template(EnQodeAnsatz(4, 4), segment4, 1)
    with pytest.raises(TranspilerError):
        template.bind_batch(np.zeros((1, 5)))


def test_template_bound_circuit_simulates(segment4):
    """Lazily-built rz matrices must still simulate correctly."""
    ansatz = EnQodeAnsatz(4, 6)
    template = ParametricTemplate(ansatz, segment4, 1)
    theta = np.random.default_rng(9).uniform(-np.pi, np.pi, ansatz.num_parameters)
    bound = template.bind_batch(theta[None, :])[0]
    symbolic = SymbolicState.from_ansatz(ansatz)
    ideal = symbolic.embedded_amplitudes(theta, ansatz)
    psi = simulate_statevector(bound.circuit)
    assert state_fidelity(psi, bound.embed_target(ideal)) == pytest.approx(
        1.0, abs=1e-9
    )


# -- batched objective and optimizer ---------------------------------------------------


def test_batch_objective_matches_per_sample(segment4):
    ansatz = EnQodeAnsatz(4, 6)
    symbolic = SymbolicState.from_ansatz(ansatz)
    rng = np.random.default_rng(2)
    targets = rng.normal(size=(5, 16))
    thetas = rng.uniform(-np.pi, np.pi, (5, ansatz.num_parameters))
    batch = BatchFidelityObjective(symbolic, ansatz, targets)
    losses, grads = batch.value_and_grad(thetas)
    fidelities = batch.fidelities(thetas)
    for b in range(5):
        single = FidelityObjective(symbolic, ansatz, targets[b])
        loss, grad = single.value_and_grad(thetas[b])
        assert losses[b] == pytest.approx(loss, abs=1e-12)
        assert fidelities[b] == pytest.approx(
            single.fidelity(thetas[b]), abs=1e-12
        )
        np.testing.assert_allclose(grads[b], grad, atol=1e-12)


def test_batch_objective_fused_pass_matches_reference(segment4):
    """The fused single-gemm value_and_grad equals the unfused formula.

    Reference: separate cos/sin passes, two independent term matrices,
    and two separate ``@ P/2`` contractions — the textbook expansion of
    the gradient ``-2 (Im(S) Re(T) - Re(S) Im(T))``.
    """
    ansatz = EnQodeAnsatz(4, 6)
    symbolic = SymbolicState.from_ansatz(ansatz)
    rng = np.random.default_rng(17)
    targets = rng.normal(size=(7, 16))
    thetas = rng.uniform(-np.pi, np.pi, (7, ansatz.num_parameters))
    batch = BatchFidelityObjective(symbolic, ansatz, targets)
    losses, grads = batch.value_and_grad(thetas)

    half_p = symbolic.half_phase_matrix
    phases = thetas @ half_p.T
    cos, sin = np.cos(phases), np.sin(phases)
    t_r = batch._coeff_real * cos - batch._coeff_imag * sin
    t_i = batch._coeff_real * sin + batch._coeff_imag * cos
    s_real, s_imag = t_r.sum(axis=1), t_i.sum(axis=1)
    ref_losses = 1.0 - (s_real**2 + s_imag**2)
    ref_grads = -2.0 * (
        s_imag[:, None] * (t_r @ half_p) - s_real[:, None] * (t_i @ half_p)
    )
    np.testing.assert_allclose(losses, ref_losses, atol=1e-12)
    np.testing.assert_allclose(grads, ref_grads, atol=1e-12)
    # Repeated calls are independent (no persistent scratch buffers).
    losses2, grads2 = batch.value_and_grad(thetas)
    np.testing.assert_array_equal(losses, losses2)
    np.testing.assert_array_equal(grads, grads2)


def test_batch_objective_embedded_states(segment4):
    ansatz = EnQodeAnsatz(4, 4)
    symbolic = SymbolicState.from_ansatz(ansatz)
    rng = np.random.default_rng(4)
    targets = rng.normal(size=(3, 16))
    thetas = rng.uniform(-np.pi, np.pi, (3, ansatz.num_parameters))
    batch = BatchFidelityObjective(symbolic, ansatz, targets)
    states = batch.embedded_states(thetas)
    for b in range(3):
        np.testing.assert_allclose(
            states[b],
            symbolic.embedded_amplitudes(thetas[b], ansatz),
            atol=1e-12,
        )


def test_batch_objective_validation():
    ansatz = EnQodeAnsatz(4, 4)
    symbolic = SymbolicState.from_ansatz(ansatz)
    with pytest.raises(OptimizationError):
        BatchFidelityObjective(symbolic, ansatz, np.ones((2, 8)))
    with pytest.raises(OptimizationError):
        BatchFidelityObjective(symbolic, ansatz, np.zeros((2, 16)))
    objective = BatchFidelityObjective(symbolic, ansatz, np.ones((2, 16)))
    with pytest.raises(OptimizationError):
        objective.value_and_grad(np.zeros((3, ansatz.num_parameters)))


def test_batch_optimizer_converges_per_sample(segment4):
    ansatz = EnQodeAnsatz(4, 6)
    symbolic = SymbolicState.from_ansatz(ansatz)
    rng = np.random.default_rng(6)
    targets = rng.normal(size=(4, 16))
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    optimizer = BatchLBFGSOptimizer(max_iterations=300)
    theta0 = rng.uniform(-np.pi, np.pi, (4, ansatz.num_parameters))
    result = optimizer.optimize(objective, theta0)
    assert result.batch_size == 4
    assert result.thetas.shape == theta0.shape
    assert result.fidelities.shape == (4,)
    assert result.num_iterations >= 1
    assert result.converged.dtype == bool
    # Each row should be at least as good as its own warm start.
    start_losses, _ = objective.value_and_grad(theta0)
    assert np.all(result.losses <= start_losses + 1e-12)


def test_transfer_embed_batch_order_and_fields(fitted, cluster_data):
    samples = cluster_data[:6]
    outcomes = fitted._transfer.embed_batch(samples)
    assert len(outcomes) == 6
    for sample, outcome in zip(samples, outcomes):
        index, distance = nearest_center(sample, fitted._transfer.centers)
        assert outcome.cluster_index == index
        assert outcome.cluster_distance == pytest.approx(distance)
        assert 0.0 <= outcome.fidelity <= 1.0 + 1e-12
        # Per-sample attribution, not the whole-batch iteration total.
        assert (
            outcome.result.num_iterations
            <= fitted._transfer._optimizer.max_iterations * 2
        )


def test_encoded_sample_without_ansatz_errors():
    from repro.core.encoder import EncodedSample

    bare = EncodedSample(
        target=np.ones(4),
        theta=np.ones(4),
        cluster_index=0,
        ideal_fidelity=1.0,
        transpiled=None,
        compile_time=0.0,
        optimizer_iterations=1,
    )
    with pytest.raises(OptimizationError):
        bare.logical_circuit


# -- vectorized helpers ----------------------------------------------------------------


def test_nearest_centers_matches_scalar(rng):
    samples = rng.normal(size=(20, 8))
    centers = rng.normal(size=(5, 8))
    indices, distances = nearest_centers(samples, centers)
    for b in range(20):
        index, distance = nearest_center(samples[b], centers)
        assert indices[b] == index
        assert distances[b] == pytest.approx(distance, abs=1e-12)


def test_popcount_matches_python():
    values = np.arange(1 << 12)
    expected = np.array([bin(v).count("1") for v in values])
    np.testing.assert_array_equal(popcount(values), expected)


def test_popcount_fallback_path(monkeypatch):
    values = np.arange(4096, dtype=np.int64)
    expected = popcount(values)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    np.testing.assert_array_equal(popcount(values), expected)


def test_popcount_rejects_negative():
    with pytest.raises(ValueError):
        popcount(np.array([-1, 2]))


def test_symbolic_cached_properties(segment4):
    symbolic = SymbolicState.from_ansatz(EnQodeAnsatz(4, 4))
    half = symbolic.half_phase_matrix
    assert half is symbolic.half_phase_matrix  # cached, not recomputed
    np.testing.assert_array_equal(half, symbolic.phase_matrix.astype(float) / 2.0)
    factors = symbolic.phase_factors
    assert factors is symbolic.phase_factors
    np.testing.assert_array_equal(factors, 1j ** symbolic.k_pow)
    with pytest.raises(ValueError):
        half[0, 0] = 99.0  # read-only: shared across objectives


def test_gate_trusted_lazy_matrix():
    lazy = Gate.trusted("rz", 1, (0.37,))
    eager = gate("rz", 0.37)
    assert lazy == eager
    np.testing.assert_array_equal(lazy.matrix, eager.matrix)


# -- the one online fine-tune entry ---------------------------------------------------


def test_online_batch_engine_equivalence(fitted, cluster_data):
    """Per-row and stacked drives agree on warm-start fine-tunes."""
    pipeline = fitted.pipeline
    samples = pipeline.prepare(cluster_data[:16])
    plan = pipeline.route.run(samples)
    objective = BatchFidelityObjective(fitted.symbolic, fitted.ansatz, samples)
    optimizer = fitted._transfer._optimizer
    rows = optimizer.optimize_rows(objective, plan.theta0)
    stacked = optimizer.optimize(objective, plan.theta0)
    np.testing.assert_allclose(rows.fidelities, stacked.fidelities, atol=1e-9)
    served = fitted.encode_batch(cluster_data[:16])
    assert [s.cluster_index for s in served] == plan.indices.tolist()
    template = pipeline.lower.template()
    for a, b in zip(
        template.bind_batch(rows.thetas), template.bind_batch(stacked.thetas)
    ):
        assert a.circuit.count_ops() == b.circuit.count_ops()


def test_online_batch_engine_dispatch(fitted, cluster_data, monkeypatch):
    """The batch's size picks the drive: one row runs neither batched
    drive, a batch below the threshold the stacked drive, and one at or
    above it the per-row drive."""
    calls = []
    original_rows = BatchLBFGSOptimizer.optimize_rows
    original_stacked = BatchLBFGSOptimizer.optimize

    def spy_rows(self, objective, theta0):
        calls.append("rows")
        return original_rows(self, objective, theta0)

    def spy_stacked(self, objective, theta0):
        calls.append("stacked")
        return original_stacked(self, objective, theta0)

    monkeypatch.setattr(BatchLBFGSOptimizer, "optimize_rows", spy_rows)
    monkeypatch.setattr(BatchLBFGSOptimizer, "optimize", spy_stacked)
    # The smallest batch the per-row drive takes at this geometry.
    boundary = -(-PER_ROW_DRIVE_MIN_SIZE // fitted.ansatz.num_parameters)
    samples = np.resize(cluster_data, (boundary, cluster_data.shape[1]))
    expected = {
        1: [],
        2: ["stacked"],
        boundary - 1: ["stacked"],
        boundary: ["rows"],
    }
    for rows, drive in expected.items():
        calls.clear()
        encoded = fitted.encode_batch(samples[:rows])
        assert len(encoded) == rows
        assert calls == drive, rows
    calls.clear()
    fitted.encode(samples[0])
    assert calls == []


def test_pipeline_records_bind_stage_seconds(fitted, cluster_data):
    """The run report splits route/finetune/bind/lower; batched binds
    land in bind."""
    _, report = fitted.pipeline.run_reported(cluster_data[:6])
    assert report.batch_size == 6
    assert report.bind_seconds > 0.0
    assert report.route_seconds > 0.0
    assert report.finetune_seconds > 0.0

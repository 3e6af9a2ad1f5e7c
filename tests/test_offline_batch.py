"""Tests for the batched offline training engine (stacked multi-restart).

Mirrors ``tests/test_batch.py`` for the offline stage: equivalence of
``EnQodeEncoder.fit`` with a sequential per-cluster reference loop (same
clustering, same RNG-stream restart draws, cluster fidelities to 1e-9),
the multi-restart driver's early-stop/active-masking semantics, the
per-row L-BFGS drive, per-cluster cost attribution into
``OfflineReport``, and the offline zero-vector bugfix.
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
    LBFGSOptimizer,
    SymbolicState,
)
from repro.core.batch import PER_ROW_DRIVE_MIN_SIZE
from repro.core.encoder import ClusterModel
from repro.errors import OptimizationError


class SequentialFitEncoder(EnQodeEncoder):
    """Reference: trains the cluster means one at a time.

    One ``LBFGSOptimizer`` (seeded from the config) runs over every
    center in turn, so its restart draws come from the RNG stream the
    stacked drive reproduces.
    """

    def _train_clusters_batched(self, centers):
        optimizer = LBFGSOptimizer(
            max_iterations=self.config.offline_max_iterations,
            gtol=self.config.gtol,
            ftol=self.config.ftol,
            num_restarts=self.config.offline_restarts,
            target_fidelity=self.config.target_fidelity,
            seed=self.config.seed,
        )
        models = []
        for center in centers:
            unit_center = center / np.linalg.norm(center)
            objective = FidelityObjective(
                self.symbolic, self.ansatz, unit_center
            )
            result = optimizer.optimize(objective)
            models.append(
                ClusterModel(
                    center=unit_center,
                    theta=result.theta,
                    fidelity=result.fidelity,
                    training_time=result.time,
                    result=result,
                )
            )
        return models


@pytest.fixture(scope="module")
def blob_data():
    """Ten tight clusters of smooth image-like unit vectors in R^16.

    Gaussian-bump profiles (paper-style smooth positive amplitudes)
    rather than raw Gaussian directions: smooth targets give the
    benign single-dominant-basin landscapes on which sequential and
    batched training provably coincide; raw random directions are
    multi-basin and any two optimizers may legitimately diverge there.
    """
    rng = np.random.default_rng(21)
    xs = np.arange(16)
    blocks = []
    for _ in range(10):
        center = rng.uniform(0, 16)
        width = rng.uniform(1.5, 4.0)
        offsets = (xs - center) % 16
        base = (
            np.exp(-(offsets**2) / (2 * width * width))
            + np.exp(-((offsets - 16) ** 2) / (2 * width * width))
            + 0.05
        )
        block = np.abs(base + 0.02 * rng.normal(size=(9, 16)))
        blocks.append(block / np.linalg.norm(block, axis=1, keepdims=True))
    return np.concatenate(blocks)


@pytest.fixture(scope="module")
def offline_config():
    return dict(
        num_qubits=4,
        num_layers=6,
        offline_restarts=4,
        offline_max_iterations=600,
        online_max_iterations=50,
        max_clusters=16,
        min_cluster_fidelity=0.98,
        seed=13,
    )


@pytest.fixture(scope="module")
def fitted_pair(segment4, blob_data, offline_config):
    batched = EnQodeEncoder(segment4, EnQodeConfig(**offline_config))
    batched_report = batched.fit(blob_data)
    sequential = SequentialFitEncoder(
        segment4, EnQodeConfig(**offline_config)
    )
    sequential_report = sequential.fit(blob_data)
    return batched, batched_report, sequential, sequential_report


# -- the acceptance regression: batched fit == sequential fit ------------------------


def test_batched_fit_matches_sequential(fitted_pair):
    """Same clustering, same restart draws, fidelities within 1e-9."""
    batched, b_report, sequential, s_report = fitted_pair
    assert b_report.num_clusters == s_report.num_clusters
    assert b_report.num_clusters >= 8
    np.testing.assert_array_equal(
        batched.kmeans.centers_, sequential.kmeans.centers_
    )
    for b_model, s_model in zip(
        batched.cluster_models, sequential.cluster_models
    ):
        np.testing.assert_allclose(b_model.center, s_model.center)
        assert abs(b_model.fidelity - s_model.fidelity) < 1e-9
        # Same RNG stream: both paths attempt the same restart count
        # from the same draws.  (Per-restart *trajectories* may differ —
        # the two optimizers can fall into different basins on a losing
        # restart — but the winning basin and the early-stop bookkeeping
        # must agree.)
        assert b_model.result.restarts_used == s_model.result.restarts_used
        assert len(b_model.result.history) == len(s_model.result.history)
        assert b_model.fidelity == pytest.approx(
            max(b_model.result.history), abs=1e-9
        )


def test_batched_encoders_encode_identically(fitted_pair, blob_data):
    """Downstream online encoding agrees between the two offline paths."""
    batched, _, sequential, _ = fitted_pair
    for sample in blob_data[:3]:
        b = batched.encode(sample)
        s = sequential.encode(sample)
        assert b.cluster_index == s.cluster_index
        assert abs(b.ideal_fidelity - s.ideal_fidelity) < 1e-9


def test_offline_report_populated_on_batched_path(fitted_pair):
    """Regression: total_time/cluster_times stay faithful when batched."""
    _, report, _, _ = fitted_pair
    assert report.total_time > 0.0
    assert report.clustering_time > 0.0
    assert report.training_time > 0.0
    assert report.total_time == pytest.approx(
        report.clustering_time + report.training_time
    )
    assert len(report.cluster_times) == report.num_clusters
    assert all(t > 0.0 for t in report.cluster_times)
    # Attributed per-cluster times sum back to the training wall time.
    assert sum(report.cluster_times) == pytest.approx(
        report.training_time, rel=0.5
    )
    assert len(report.cluster_fidelities) == report.num_clusters
    assert 0.0 < report.mean_cluster_fidelity <= 1.0


def test_fit_rejects_zero_sample_row(segment4, offline_config):
    """A zero row must raise cleanly instead of NaN-poisoning k-means."""
    encoder = EnQodeEncoder(segment4, EnQodeConfig(**offline_config))
    bad = np.ones((12, 16))
    bad[5] = 0.0
    with pytest.raises(OptimizationError):
        encoder.fit(bad)


# -- the multi-restart driver --------------------------------------------------------


@pytest.fixture(scope="module")
def restart_problem():
    # 8 layers at 4 qubits = 32 parameters for 16 amplitudes: the over-
    # parameterized regime where cold-start landscapes have a dominant
    # basin, so different optimizers provably meet at the same optima.
    ansatz = EnQodeAnsatz(4, 8)
    symbolic = SymbolicState.from_ansatz(ansatz)
    rng = np.random.default_rng(3)
    targets = rng.normal(size=(6, 16))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    return ansatz, symbolic, targets


def test_optimize_restarts_matches_sequential_driver(restart_problem):
    """Driver-level equivalence: same draws, same fidelities (1e-9)."""
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    batched = BatchLBFGSOptimizer(
        max_iterations=600, num_restarts=4, target_fidelity=0.995, seed=11
    ).optimize_restarts(objective)
    sequential = LBFGSOptimizer(
        max_iterations=600, num_restarts=4, target_fidelity=0.995, seed=11
    )
    for b in range(targets.shape[0]):
        single = sequential.optimize(
            FidelityObjective(symbolic, ansatz, targets[b])
        )
        assert abs(batched.fidelities[b] - single.fidelity) < 1e-9
        assert batched.restarts_used[b] == single.restarts_used
        assert len(batched.histories[b]) == len(single.history)


def test_optimize_restarts_early_stop_masking(restart_problem):
    """Clusters that hit the target stop consuming restarts."""
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    eager = BatchLBFGSOptimizer(
        max_iterations=600, num_restarts=5, target_fidelity=0.0, seed=1
    ).optimize_restarts(objective)
    assert np.all(eager.restarts_used == 1)
    assert all(len(h) == 1 for h in eager.histories)
    exhaustive = BatchLBFGSOptimizer(
        max_iterations=600, num_restarts=3, target_fidelity=1.1, seed=1
    ).optimize_restarts(objective)
    assert np.all(exhaustive.restarts_used == 3)
    assert all(len(h) == 3 for h in exhaustive.histories)
    # Best-of-restarts can only improve on the single-restart result.
    assert np.all(exhaustive.losses <= eager.losses + 1e-12)


def test_optimize_restarts_attribution_sums(restart_problem):
    """Per-cluster cost attributions sum back to the run totals."""
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    run = BatchLBFGSOptimizer(
        max_iterations=600, num_restarts=3, target_fidelity=1.1, seed=5
    ).optimize_restarts(objective)
    # Each cluster holds its own rows' integer counts, summing exactly.
    assert run.cluster_evaluations.dtype.kind == "i"
    assert run.cluster_iterations.dtype.kind == "i"
    assert run.cluster_evaluations.sum() == run.num_evaluations
    assert run.cluster_times.sum() == pytest.approx(run.time, rel=0.2)
    assert run.cluster_iterations.sum() == run.num_iterations
    assert run.batch_size == targets.shape[0]


def test_restart_driver_validates_configuration():
    with pytest.raises(OptimizationError):
        BatchLBFGSOptimizer(num_restarts=0)


# -- the per-row drive ---------------------------------------------------------------


def test_optimize_rows_converges_per_row(restart_problem):
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    rng = np.random.default_rng(8)
    theta0 = rng.uniform(-np.pi, np.pi, (6, ansatz.num_parameters))
    result = BatchLBFGSOptimizer(max_iterations=600).optimize_rows(
        objective, theta0
    )
    start_losses, _ = objective.value_and_grad(theta0)
    assert np.all(result.losses <= start_losses + 1e-12)
    assert result.iterations.shape == (6,)
    assert np.all(result.iterations >= 1)
    assert np.all(result.evaluations > result.iterations)
    # Converged rows sit at stationary points of their own objective.
    _, grads = objective.value_and_grad(result.thetas)
    grad_norms = np.abs(grads).max(axis=1)
    assert np.all(grad_norms[result.converged] < 1e-6)


def test_optimize_rows_matches_scipy_stacked_from_warm_start(
    restart_problem,
):
    """Started inside the same basin, both drives find the same optimum.

    (From a *cold* start on a hard multi-basin landscape the two drives
    may legitimately diverge to different local optima — equivalence is
    a basin property, which is why this check warm-starts.)
    """
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    optimizer = BatchLBFGSOptimizer(max_iterations=600)
    seed_theta = np.tile(
        LBFGSOptimizer.draw_restart_start(
            np.random.default_rng(11), ansatz.num_parameters
        ),
        (6, 1),
    )
    basin = optimizer.optimize(objective, seed_theta)
    rng = np.random.default_rng(2)
    warm = basin.thetas + 0.01 * rng.normal(size=basin.thetas.shape)
    rows = optimizer.optimize_rows(objective, warm)
    stacked = optimizer.optimize(objective, warm)
    np.testing.assert_allclose(
        rows.fidelities, stacked.fidelities, atol=1e-9
    )


def test_optimize_rows_validates_shape(restart_problem):
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    with pytest.raises(OptimizationError):
        BatchLBFGSOptimizer().optimize_rows(
            objective, np.zeros((2, ansatz.num_parameters))
        )


# -- the subset view ------------------------------------------------------------------


def test_subset_objective_matches_rows(restart_problem):
    ansatz, symbolic, targets = restart_problem
    objective = BatchFidelityObjective(symbolic, ansatz, targets)
    rng = np.random.default_rng(4)
    thetas = rng.uniform(-np.pi, np.pi, (6, ansatz.num_parameters))
    indices = np.array([4, 1, 1, 5])  # repeats: the wave-two tiling case
    sub = objective.subset(indices)
    assert sub.batch_size == 4
    losses, grads = objective.value_and_grad(thetas)
    sub_losses, sub_grads = sub.value_and_grad(thetas[indices])
    np.testing.assert_allclose(sub_losses, losses[indices], atol=1e-12)
    np.testing.assert_allclose(sub_grads, grads[indices], atol=1e-12)


# -- the online per-row account --------------------------------------------------------


@pytest.mark.parametrize("drive", ["one-row", "stacked", "rows"])
def test_embed_batch_per_row_account(
    fitted_pair, blob_data, monkeypatch, drive
):
    """Each row's ``num_evaluations`` is the number of objective
    evaluations that row received, on every drive, and the rows sum to
    the drive's total."""
    encoder = fitted_pair[0]
    size = {
        "one-row": 1,
        "stacked": 7,
        "rows": -(-PER_ROW_DRIVE_MIN_SIZE // encoder.ansatz.num_parameters),
    }[drive]
    rng = np.random.default_rng(3)
    samples = blob_data[np.arange(size) % blob_data.shape[0]]
    samples = samples + 1e-3 * rng.normal(size=samples.shape)  # distinct rows
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    targets = BatchFidelityObjective(
        encoder.symbolic, encoder.ansatz, samples
    ).targets
    row_of = {target.tobytes(): i for i, target in enumerate(targets)}
    received = np.zeros(size, dtype=int)
    batched_passes = []
    captured = {}
    original_pass = BatchFidelityObjective.value_and_grad
    original_row = BatchFidelityObjective.single_value_and_grad
    original_warm = BatchLBFGSOptimizer.optimize_warm

    def counting_pass(self, thetas):
        batched_passes.append(self.batch_size)
        for target in self.targets:
            received[row_of[target.tobytes()]] += 1
        return original_pass(self, thetas)

    def counting_row(self, index):
        closure = original_row(self, index)
        row = row_of[self.targets[index].tobytes()]

        def counted(theta):
            received[row] += 1
            return closure(theta)

        return counted

    def capturing(self, objective, theta0):
        captured["result"] = original_warm(self, objective, theta0)
        return captured["result"]

    monkeypatch.setattr(
        BatchFidelityObjective, "value_and_grad", counting_pass
    )
    monkeypatch.setattr(
        BatchFidelityObjective, "single_value_and_grad", counting_row
    )
    monkeypatch.setattr(BatchLBFGSOptimizer, "optimize_warm", capturing)
    outcomes = encoder._transfer.embed_batch(samples)
    per_row = np.array([o.result.num_evaluations for o in outcomes])
    # A batched drive reads every row twice outside its account: the
    # polish trigger's gradient check and the final loss readout.
    bookkeeping = 0 if drive == "one-row" else 2
    np.testing.assert_array_equal(per_row, received - bookkeeping)
    assert per_row.sum() == captured["result"].num_evaluations
    assert np.all(per_row >= 1)
    if drive == "one-row":
        assert batched_passes == []
    iterations = np.array([o.result.num_iterations for o in outcomes])
    np.testing.assert_array_equal(iterations, captured["result"].iterations)
    assert np.all(iterations <= per_row)

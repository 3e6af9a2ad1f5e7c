"""Batched fidelity objective and optimizer (online *and* offline fast paths).

EnQode's online stage solves one small, smooth, warm-started problem per
sample; its offline stage solves one multi-restart global problem per
cluster mean (Sec. III-C).  Every one of those problems shares the same
``P/2`` phase matrix and ``i^k`` factors, because every target uses the
same fixed-shape ansatz.  This module exploits that structure end to end:

* :class:`BatchFidelityObjective` evaluates loss and exact gradient for
  ``B`` targets in one BLAS pass: the per-sample ``terms`` vector becomes
  a ``(B, 2^n)`` matrix multiplied against the shared ``(2^n, l)`` half
  phase matrix, so the per-iteration cost is two matrix products instead
  of ``B`` Python-level objective calls.
* :meth:`BatchLBFGSOptimizer.optimize_warm` is the online fine-tune, and
  the batch's size picks its drive (:data:`PER_ROW_DRIVE_MIN_SIZE`): one
  row runs one scipy L-BFGS on that row's own closure; a small batch
  runs the **stacked** drive (:meth:`~BatchLBFGSOptimizer.optimize`, one
  scipy L-BFGS over the block-diagonal sum of per-sample losses, whose
  stationary points are exactly the per-sample optima, with ``ftol``
  tightened by ``1/B`` so the sum-scale stopping rule matches the
  per-sample rule); a large batch runs the **per-row** drive
  (:meth:`~BatchLBFGSOptimizer.optimize_rows`, independent curvature and
  step sizes per row).  Either batched drive ends with an individual
  warm-started polish of any row whose own gradient still exceeds the
  trigger, which is why batched results match the per-sample path to
  ~1e-12 in fidelity.
* :meth:`BatchLBFGSOptimizer.optimize_restarts` generalizes the per-row
  drive from single-basin warm starts to the offline stage's
  **multi-restart global training**: restart ``r`` starts every still-
  active cluster from the same draw a sequential
  :class:`~repro.core.optimizer.LBFGSOptimizer` would use (the clusters
  all share one integer seed, so the per-cluster streams coincide), the
  best basin per cluster is kept across restarts, and clusters that
  reach ``target_fidelity`` drop out of later restarts (active-set
  masking — the batched analogue of the sequential early exit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from repro.core.ansatz import EnQodeAnsatz
from repro.core.optimizer import LBFGSOptimizer
from repro.core.symbolic import SymbolicState
from repro.errors import OptimizationError
from repro.utils.rng import as_rng
from repro.utils.timing import Timer

#: The warm-start drive rule of :meth:`BatchLBFGSOptimizer.optimize_warm`:
#: a batch of ``rows * num_parameters`` below this runs the stacked
#: drive, and one at or above it the per-row drive.  The stacked drive's
#: one scipy run costs less per pass, but its shared line search makes
#: every row wait for the hardest one, which costs more as the batch
#: grows.  Swept on warm-started MNIST-PCA rows at 4, 6 and 8 qubits with
#: 8 layers and 2-64 rows (perfbench's and ``bench_batch_throughput.py``'s
#: data; one OpenBLAS thread, 2-vCPU Xeon VM), the stacked drive took
#: 0.46-0.94x the per-row drive's time at every batch below this size,
#: while on the bench's 8-qubit data it took 1.17x at 16 rows (1024) and
#: 1.19-1.9x at 24-64.  ``bench_batch_throughput.py`` re-measures both.
PER_ROW_DRIVE_MIN_SIZE = 1024


class BatchFidelityObjective:
    """Loss ``1 - F`` and exact gradients for ``B`` targets at once.

    The math is :class:`repro.core.objective.FidelityObjective` row-wise:
    with ``C[b] = conj(V^dagger x_b) * i^k / sqrt(2^n)`` precomputed for
    every target (one batched closing-layer pull-back), the overlaps for
    parameter matrix ``theta`` of shape ``(B, l)`` are

        S_b = sum_r C[b, r] * exp(i * (P @ theta_b)_r / 2)

    and both phases and derivative contractions are single ``(B, 2^n) @
    (2^n, l)`` products against the shared cached ``P/2``.
    """

    def __init__(
        self,
        symbolic: SymbolicState,
        ansatz: EnQodeAnsatz,
        targets: np.ndarray,
    ) -> None:
        targets = np.atleast_2d(np.asarray(targets, dtype=complex))
        dim = 2**symbolic.num_qubits
        if targets.ndim != 2 or targets.shape[1] != dim:
            raise OptimizationError(
                f"targets must be (B, {dim}), got {targets.shape}"
            )
        if not np.all(np.isfinite(targets)):
            raise OptimizationError("targets contain non-finite entries")
        norms = np.linalg.norm(targets, axis=1)
        if np.any(norms < 1e-12):
            raise OptimizationError("cannot embed the zero vector")
        targets = targets / norms[:, None]
        self.symbolic = symbolic
        self.ansatz = ansatz
        self.targets = targets
        # Pull all targets back through the closing layer in one pass.
        y = ansatz.pull_back(targets)
        self._coeff = np.conj(y) * symbolic.phase_factors / np.sqrt(dim)
        self._half_p = symbolic.half_phase_matrix
        # Contiguous real/imaginary parts feed the all-real hot path in
        # value_and_grad (complex temporaries and strided .real/.imag
        # views would otherwise dominate the optimizer's inner loop).
        self._coeff_real = np.ascontiguousarray(self._coeff.real)
        self._coeff_imag = np.ascontiguousarray(self._coeff.imag)

    @property
    def batch_size(self) -> int:
        return self._coeff.shape[0]

    @property
    def num_parameters(self) -> int:
        return self._half_p.shape[1]

    def subset(self, indices: np.ndarray) -> "BatchFidelityObjective":
        """A view-like objective over ``targets[indices]`` only.

        Used by the multi-restart driver's active-set masking: clusters
        that already reached the target fidelity drop out of later
        restarts, and the remaining ones are re-stacked without paying
        the closing-layer pull-back again (the precomputed coefficient
        rows are sliced, the shared ``P/2`` matrix is reused).
        """
        indices = np.asarray(indices, dtype=int)
        sub = object.__new__(BatchFidelityObjective)
        sub.symbolic = self.symbolic
        sub.ansatz = self.ansatz
        sub.targets = self.targets[indices]
        sub._coeff = self._coeff[indices]
        sub._half_p = self._half_p
        sub._coeff_real = self._coeff_real[indices]
        sub._coeff_imag = self._coeff_imag[indices]
        return sub

    # -- evaluations -------------------------------------------------------------

    def overlaps(self, thetas: np.ndarray) -> np.ndarray:
        """Complex overlaps ``<x_b| V |psi(theta_b)>`` for all rows."""
        thetas = self._as_matrix(thetas)
        phases = thetas @ self._half_p.T
        return np.sum(self._coeff * np.exp(1j * phases), axis=1)

    def fidelities(self, thetas: np.ndarray) -> np.ndarray:
        return np.abs(self.overlaps(thetas)) ** 2

    def value_and_grad(
        self, thetas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample losses ``(B,)`` and gradients ``(B, l)`` in one pass.

        The whole computation runs in real arithmetic: for real phases
        ``exp(i phi)`` is exactly ``cos phi + i sin phi``, so with
        ``coeff = cr + i ci`` the terms split into ``tr = cr cos - ci
        sin`` and ``ti = cr sin + ci cos``, and the derivative
        contraction becomes two real matrix products (``tr/ti @ P/2``)
        instead of complex-times-real products that would upcast the
        shared ``P/2`` and allocate complex temporaries on every call of
        the optimizer's inner loop.  With ``T = terms @ P/2`` and
        overlap ``S``, the fidelity gradient ``2 Re(conj(S) * i T)``
        expands to ``2 (Im(S) Re(T) - Re(S) Im(T))``.

        The two term matrices live stacked in one ``(2B, 2^n)`` buffer,
        so the overlap reduction is a single row sum and the derivative
        contraction is a single gemm against ``P/2`` instead of two;
        ``sin`` reuses the phase buffer and the returned gradient is
        assembled in place inside the contraction's output.  Every
        buffer is allocated per call (no persistent scratch), keeping
        the objective re-entrant under the service's worker pool.
        """
        thetas = self._as_matrix(thetas)
        batch = self.batch_size
        phases = thetas @ self._half_p.T
        cos = np.cos(phases)
        sin = np.sin(phases, out=phases)
        terms = np.empty((2 * batch, cos.shape[1]))
        t_r = terms[:batch]
        t_i = terms[batch:]
        np.multiply(self._coeff_real, cos, out=t_r)
        t_r -= self._coeff_imag * sin
        np.multiply(self._coeff_real, sin, out=t_i)
        t_i += self._coeff_imag * cos
        sums = terms.sum(axis=1)
        s_real = sums[:batch]
        s_imag = sums[batch:]
        contracted = terms @ self._half_p
        t_r_p = contracted[:batch]
        t_i_p = contracted[batch:]
        # -grad_fidelity = 2 (Re(S) Im(T) - Im(S) Re(T)), built in place.
        t_r_p *= s_imag[:, None]
        t_i_p *= s_real[:, None]
        t_i_p -= t_r_p
        t_i_p *= 2.0
        losses = 1.0 - (s_real * s_real + s_imag * s_imag)
        return losses, t_i_p

    def stacked_value_and_grad(
        self, flat_theta: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Block-diagonal view for scipy: total loss + concatenated grad."""
        thetas = np.asarray(flat_theta, dtype=float).reshape(
            self.batch_size, self.num_parameters
        )
        losses, grads = self.value_and_grad(thetas)
        return float(losses.sum()), grads.ravel()

    def single_value_and_grad(self, index: int):
        """A per-sample closure (used by the convergence polish step)."""
        coeff = self._coeff[index]
        half_p = self._half_p

        def value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
            phases = half_p @ np.asarray(theta, dtype=float)
            terms = coeff * np.exp(1j * phases)
            overlap = terms.sum()
            # Same real-split contraction as the batched value_and_grad.
            grad_fidelity = 2.0 * (
                overlap.imag * (terms.real @ half_p)
                - overlap.real * (terms.imag @ half_p)
            )
            return 1.0 - float(abs(overlap) ** 2), -grad_fidelity

        return value_and_grad

    def embedded_states(self, thetas: np.ndarray) -> np.ndarray:
        """The embedded statevectors ``V |psi(theta_b)>`` as ``(B, 2^n)``."""
        thetas = self._as_matrix(thetas)
        phases = thetas @ self._half_p.T
        dim = 2**self.symbolic.num_qubits
        psi = self.symbolic.phase_factors * np.exp(1j * phases) / np.sqrt(dim)
        return self.ansatz.apply_closing_layer_batch(psi)

    def _as_matrix(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.shape != (self.batch_size, self.num_parameters):
            raise OptimizationError(
                f"thetas must be ({self.batch_size}, {self.num_parameters}), "
                f"got {thetas.shape}"
            )
        return thetas


@dataclass
class BatchOptimizationResult:
    """Outcome of one batched warm-start optimization (any drive).

    ``iterations`` and ``evaluations`` are one per-row account: the
    L-BFGS steps and objective evaluations each row received, its own
    polish run included.  A stacked pass evaluates every row, so the
    stacked drive credits every row with scipy's ``nit``/``nfev``; the
    per-row drive credits each row with its own line-search passes, and
    the one-row drive with scipy's counts.  The totals are their sums,
    so per-sample and per-batch statistics share one unit.
    """

    thetas: np.ndarray
    fidelities: np.ndarray
    losses: np.ndarray
    iterations: np.ndarray
    evaluations: np.ndarray
    time: float
    converged: np.ndarray
    polish_runs: int = 0

    @property
    def batch_size(self) -> int:
        return self.thetas.shape[0]

    @property
    def num_iterations(self) -> int:
        return int(self.iterations.sum())

    @property
    def num_evaluations(self) -> int:
        return int(self.evaluations.sum())


@dataclass
class BatchRestartResult:
    """Outcome of one multi-restart batched optimization (offline training).

    Per-cluster arrays are indexed like the objective's target rows.
    ``num_iterations``/``num_evaluations``/``time`` are whole-run totals;
    ``cluster_iterations``/``cluster_evaluations``/``cluster_times`` are
    the per-cluster attributions: each cluster is credited with the
    iterations and evaluations its own rows received (every restart
    row, polish included), while wall time has no per-row measurement,
    so ``cluster_times`` splits each drive evenly over its rows.  They
    sum back to the totals and feed ``OfflineReport`` faithfully.
    """

    thetas: np.ndarray
    fidelities: np.ndarray
    losses: np.ndarray
    num_iterations: int
    num_evaluations: int
    time: float
    converged: np.ndarray
    restarts_used: np.ndarray
    histories: list[list[float]]
    cluster_iterations: np.ndarray
    cluster_evaluations: np.ndarray
    cluster_times: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.thetas.shape[0]


class BatchLBFGSOptimizer:
    """L-BFGS drives over a :class:`BatchFidelityObjective`.

    Two entry points mirror :class:`repro.core.optimizer.LBFGSOptimizer`:

    * :meth:`optimize_warm` is warm-start mode (one run from a given
      ``theta0`` matrix — the online fine-tune), which picks one of
      three drives by the batch's size: one scipy run for one row, the
      stacked drive (:meth:`optimize`) or the per-row drive
      (:meth:`optimize_rows`);
    * :meth:`optimize_restarts` is multi-restart global-training mode
      (the offline path): ``num_restarts`` per-row runs from the
      sequential optimizer's own restart draws, best-basin tracking per
      cluster, and ``target_fidelity`` early exit via active-set masking.

    ``gtol`` applies per gradient component, so the stacked stopping rule
    is the same test the per-sample runs use; ``ftol`` is divided by the
    batch size because scipy's relative-decrease rule sees the *sum* of
    losses.  Samples left above ``polish_threshold`` by a batched drive
    (early ``ftol`` exit or a hard sample dominating the line search) are
    individually re-polished from their batched solution.

    ``polish_threshold`` trades wasted scipy calls against guaranteed
    convergence depth: a sample whose gradient inf-norm is ``g`` sits
    within ``~g^2 / curvature`` of its optimal fidelity, so at the
    default ``1e-7`` the residual fidelity error is far below the 1e-9
    equivalence budget while near-converged samples (the common case —
    warm starts land in the basin) skip the per-sample scipy overhead.
    """

    def __init__(
        self,
        max_iterations: int = 80,
        gtol: float = 1e-9,
        ftol: float = 1e-12,
        polish_threshold: float = 1e-7,
        num_restarts: int = 3,
        target_fidelity: float = 0.995,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if max_iterations < 1:
            raise OptimizationError("max_iterations must be >= 1")
        if num_restarts < 1:
            raise OptimizationError("num_restarts must be >= 1")
        self.max_iterations = max_iterations
        self.gtol = gtol
        self.ftol = ftol
        self.polish_threshold = polish_threshold
        self.num_restarts = num_restarts
        self.target_fidelity = target_fidelity
        self.seed = seed

    def optimize_warm(
        self,
        objective: BatchFidelityObjective,
        theta0: np.ndarray,
    ) -> BatchOptimizationResult:
        """Fine-tune warm-started rows through the drive their size picks.

        One row runs one scipy L-BFGS on the row's own closure
        (:meth:`BatchFidelityObjective.single_value_and_grad`, the
        polish routine), taking its loss from scipy's result.  Two or
        more rows run the stacked drive while ``rows * num_parameters``
        is below :data:`PER_ROW_DRIVE_MIN_SIZE`, and the per-row drive
        from there on.
        """
        theta0 = self._check_start(objective, theta0)
        batch = objective.batch_size
        if batch == 1:
            with Timer() as timer:
                run = self._minimize_row(objective, 0, theta0[0])
            loss = float(run.fun)
            return BatchOptimizationResult(
                thetas=np.asarray(run.x, dtype=float)[None, :],
                fidelities=np.array([1.0 - loss]),
                losses=np.array([loss]),
                iterations=np.array([int(run.nit)]),
                evaluations=np.array([int(run.nfev)]),
                time=timer.elapsed,
                converged=np.array([bool(run.success)]),
            )
        if batch * objective.num_parameters < PER_ROW_DRIVE_MIN_SIZE:
            return self.optimize(objective, theta0)
        return self.optimize_rows(objective, theta0)

    @staticmethod
    def _check_start(
        objective: BatchFidelityObjective, theta0: np.ndarray
    ) -> np.ndarray:
        theta0 = np.asarray(theta0, dtype=float)
        shape = (objective.batch_size, objective.num_parameters)
        if theta0.shape != shape:
            raise OptimizationError(
                f"theta0 must be {shape}, got {theta0.shape}"
            )
        return theta0

    def optimize(
        self,
        objective: BatchFidelityObjective,
        theta0: np.ndarray,
    ) -> BatchOptimizationResult:
        """Stacked drive: one scipy L-BFGS over the block-diagonal sum."""
        theta0 = self._check_start(objective, theta0)
        batch, num_params = theta0.shape
        with Timer() as timer:
            stacked = minimize(
                objective.stacked_value_and_grad,
                theta0.ravel(),
                jac=True,
                method="L-BFGS-B",
                options={
                    "maxiter": self.max_iterations,
                    "gtol": self.gtol,
                    "ftol": self.ftol / max(batch, 1),
                },
            )
            thetas = np.asarray(stacked.x, dtype=float).reshape(
                batch, num_params
            )
            # Per-sample convergence mask + individual polish for stragglers.
            converged = np.full(batch, bool(stacked.success))
            polish_iterations, polish_evals, polish_runs = self._polish(
                objective, thetas, converged
            )
            losses, _ = objective.value_and_grad(thetas)
        return BatchOptimizationResult(
            thetas=thetas,
            fidelities=1.0 - losses,
            losses=losses,
            iterations=int(stacked.nit) + polish_iterations,
            evaluations=int(stacked.nfev) + polish_evals,
            time=timer.elapsed,
            converged=converged,
            polish_runs=polish_runs,
        )

    def _minimize_row(
        self, objective: BatchFidelityObjective, row: int, theta: np.ndarray
    ):
        """One scipy L-BFGS run on row ``row``'s own objective."""
        return minimize(
            objective.single_value_and_grad(row),
            theta,
            jac=True,
            method="L-BFGS-B",
            options={
                "maxiter": self.max_iterations,
                "gtol": self.gtol,
                "ftol": self.ftol,
            },
        )

    def _polish(
        self,
        objective: BatchFidelityObjective,
        thetas: np.ndarray,
        converged: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Individually re-run rows whose gradient is still above trigger.

        Mutates ``thetas``/``converged`` in place and returns the
        per-row polish iteration counts, per-row extra evaluation
        counts, and the number of polish runs.
        """
        batch = objective.batch_size
        _, grads = objective.value_and_grad(thetas)
        grad_norms = np.abs(grads).max(axis=1)
        polish_iterations = np.zeros(batch, dtype=int)
        polish_evals = np.zeros(batch, dtype=int)
        polish_runs = 0
        trigger = max(self.gtol, self.polish_threshold)
        for b in np.flatnonzero(grad_norms > trigger):
            single = self._minimize_row(objective, int(b), thetas[b])
            thetas[b] = single.x
            converged[b] = bool(single.success)
            polish_iterations[b] = int(single.nit)
            polish_evals[b] = int(single.nfev)
            polish_runs += 1
        return polish_iterations, polish_evals, polish_runs

    def optimize_rows(
        self,
        objective: BatchFidelityObjective,
        theta0: np.ndarray,
    ) -> BatchOptimizationResult:
        """Per-row L-BFGS drive: independent curvature *and* step sizes.

        The scipy stacked drive (:meth:`optimize`) couples all rows
        through one shared L-BFGS memory and one shared line search.
        Warm starts don't care (near an optimum the unit Newton-like
        step is acceptable to every row at once), but on cold multi-
        restart offline training the compromise step length inflates
        everyone's iteration count ~2-3x: measured on MNIST-PCA cluster
        means at 6 qubits, sequential per-cluster runs need ~26
        iterations on average while every row of the stacked run rides
        to ~80.  This drive removes the coupling while keeping the one-
        BLAS-pass-per-iteration evaluation: each row holds its own
        limited-memory history (ring buffers, two-loop recursion
        vectorized over rows) and backtracks its own Armijo step, and
        rows that converge drop out of subsequent passes.  Rows the
        backtracking cannot improve are frozen and left to the same
        per-row scipy polish the stacked drive uses, so final
        convergence quality (``gtol``/``polish_threshold``) is
        identical.
        """
        theta0 = self._check_start(objective, theta0)
        batch, num_params = theta0.shape
        memory = 8  # limited-memory history length
        c1 = 1e-4  # Armijo sufficient-decrease constant
        max_backtracks = 30
        with Timer() as timer:
            thetas = theta0.copy()
            losses, grads = objective.value_and_grad(thetas)
            evaluations = np.ones(batch, dtype=int)
            # Histories live in one global ring buffer: every iteration
            # appends a slot for ALL rows (zeros — i.e. rho = 0 — for
            # rows that didn't advance), so the rows stay aligned and
            # no per-row rolling or gathering is ever needed.  A
            # zero-rho pair contributes exactly nothing to the two-loop
            # recursion, so validity masking is implicit.
            s_hist = np.zeros((memory, batch, num_params))
            y_hist = np.zeros((memory, batch, num_params))
            rho_hist = np.zeros((memory, batch))
            head = 0  # next slot to write
            filled = 0  # number of slots ever written (capped at memory)
            last_s = np.zeros((batch, num_params))
            last_y = np.zeros((batch, num_params))
            has_pair = np.zeros(batch, dtype=bool)
            iterations = np.zeros(batch, dtype=int)
            line_search_failed = np.zeros(batch, dtype=bool)
            flat_streak = np.zeros(batch, dtype=int)
            # Per-row initial step memory: rows whose landscape keeps
            # rejecting the unit step start the next search near their
            # last accepted step instead of re-discovering it (cuts the
            # Armijo pass count to ~1.1 evaluations per iteration).
            step_memory = np.ones(batch)
            trigger = max(self.gtol, self.polish_threshold)
            active = np.abs(grads).max(axis=1) > self.gtol
            act_obj = objective
            act_size = batch
            for _ in range(self.max_iterations):
                idx = np.flatnonzero(active)
                if idx.size == 0:
                    break
                # The active set only shrinks, so a size check detects
                # change; keep a sliced objective for it so the hot
                # first line-search pass skips per-call row slicing.
                if idx.size != act_size:
                    act_obj = objective.subset(idx)
                    act_size = idx.size
                if idx.size * 2 < batch:
                    # Most rows are done: slice the histories down so
                    # the recursion stops paying for inactive rows.
                    directions = self._two_loop(
                        grads[idx], s_hist[:, idx], y_hist[:, idx],
                        rho_hist[:, idx], head, filled,
                        last_s[idx], last_y[idx], has_pair[idx],
                    )
                else:
                    directions = self._two_loop(
                        grads, s_hist, y_hist, rho_hist, head, filled,
                        last_s, last_y, has_pair,
                    )[idx]
                g = grads[idx]
                slopes = np.einsum("bl,bl->b", directions, g)
                # Non-descent direction (stale curvature): reset to
                # steepest descent and drop that row's history.
                bad = slopes >= 0.0
                if np.any(bad):
                    directions[bad] = -g[bad]
                    slopes[bad] = -np.einsum(
                        "bl,bl->b", g[bad], g[bad]
                    )
                    rho_hist[:, idx[bad]] = 0.0
                    has_pair[idx[bad]] = False
                # First step of a fresh history: gradient-scaled, as in
                # scipy; afterwards the two-loop gamma makes alpha=1
                # right for most rows and the per-row step memory covers
                # the rest.
                alphas = np.minimum(2.0 * step_memory[idx], 1.0)
                fresh = ~has_pair[idx]
                if np.any(fresh):
                    grad_scale = np.linalg.norm(directions[fresh], axis=1)
                    alphas[fresh] = np.minimum(
                        1.0, 1.0 / np.maximum(grad_scale, 1e-12)
                    )
                # Per-row Armijo backtracking with quadratic
                # interpolation, evaluating only the rows still
                # searching.
                new_thetas = np.empty((idx.size, num_params))
                new_losses = np.empty(idx.size)
                new_grads = np.empty((idx.size, num_params))
                searching = np.arange(idx.size)
                accepted = np.zeros(idx.size, dtype=bool)
                for _ in range(max_backtracks):
                    rows = idx[searching]
                    trial = (
                        thetas[rows]
                        + alphas[searching, None] * directions[searching]
                    )
                    sub = (
                        act_obj
                        if searching.size == idx.size
                        else objective.subset(rows)
                    )
                    trial_losses, trial_grads = sub.value_and_grad(trial)
                    evaluations[rows] += 1
                    base = losses[rows]
                    ok = trial_losses <= (
                        base + c1 * alphas[searching] * slopes[searching]
                    )
                    if searching.size == idx.size and ok.all():
                        # Common case: every row accepts its first step.
                        new_thetas = trial
                        new_losses = trial_losses
                        new_grads = trial_grads
                        accepted[:] = True
                        searching = searching[:0]
                        break
                    hits = searching[ok]
                    new_thetas[hits] = trial[ok]
                    new_losses[hits] = trial_losses[ok]
                    new_grads[hits] = trial_grads[ok]
                    accepted[hits] = True
                    searching = searching[~ok]
                    if searching.size == 0:
                        break
                    # Minimizer of the quadratic through f(0), f'(0) and
                    # the failed trial, clipped into [0.1a, 0.5a] so the
                    # search always contracts.
                    a = alphas[searching]
                    slope = slopes[searching]
                    overshoot = (
                        trial_losses[~ok] - base[~ok] - slope * a
                    )
                    quad = np.where(
                        overshoot > 0.0,
                        -slope * a * a / np.maximum(2.0 * overshoot, 1e-300),
                        0.5 * a,
                    )
                    alphas[searching] = np.clip(quad, 0.1 * a, 0.5 * a)
                if searching.size:
                    # No acceptable step: freeze; polish will finish them.
                    frozen = idx[searching]
                    line_search_failed[frozen] = True
                    active[frozen] = False
                hit_rows = idx[accepted]
                if hit_rows.size == 0:
                    continue
                step_memory[hit_rows] = alphas[accepted]
                step = new_thetas[accepted] - thetas[hit_rows]
                grad_change = new_grads[accepted] - grads[hit_rows]
                curvature = np.einsum("bl,bl->b", step, grad_change)
                old_losses = losses[hit_rows]
                thetas[hit_rows] = new_thetas[accepted]
                losses[hit_rows] = new_losses[accepted]
                grads[hit_rows] = new_grads[accepted]
                iterations[hit_rows] += 1
                # Store (s, y) pairs with positive curvature (skip rule)
                # by appending one ring slot for everybody — zeros (a
                # no-op pair) for rows that didn't produce one.
                keep = curvature > 1e-10 * np.linalg.norm(
                    step, axis=1
                ) * np.linalg.norm(grad_change, axis=1)
                store = hit_rows[keep]
                if store.size:
                    s_hist[head] = 0.0
                    y_hist[head] = 0.0
                    rho_hist[head] = 0.0
                    s_hist[head, store] = step[keep]
                    y_hist[head, store] = grad_change[keep]
                    rho_hist[head, store] = 1.0 / curvature[keep]
                    last_s[store] = step[keep]
                    last_y[store] = grad_change[keep]
                    has_pair[store] = True
                    head = (head + 1) % memory
                    filled = min(filled + 1, memory)
                # Per-row stopping: scipy's gtol rule, plus an ftol-style
                # flat-decrease rule.  A single flat step with a still-
                # large gradient is usually a backtracked short step, not
                # convergence (stopping there would dump the row on the
                # expensive scipy polish), so flat rows only stop once
                # their gradient is below the polish trigger — or after
                # several flat steps in a row (genuinely stuck; polish
                # inherits them).
                hit_grad_norms = np.abs(grads[hit_rows]).max(axis=1)
                grad_done = hit_grad_norms <= self.gtol
                decrease = old_losses - losses[hit_rows]
                flat = decrease <= self.ftol * np.maximum(
                    np.maximum(np.abs(old_losses), np.abs(losses[hit_rows])),
                    1.0,
                )
                flat_streak[hit_rows] = np.where(
                    flat, flat_streak[hit_rows] + 1, 0
                )
                flat_done = flat & (
                    (hit_grad_norms <= trigger)
                    | (flat_streak[hit_rows] >= 5)
                )
                active[hit_rows[grad_done | flat_done]] = False
            converged = ~line_search_failed & ~active
            polish_iterations, polish_evals, polish_runs = self._polish(
                objective, thetas, converged
            )
            losses, _ = objective.value_and_grad(thetas)
        return BatchOptimizationResult(
            thetas=thetas,
            fidelities=1.0 - losses,
            losses=losses,
            iterations=iterations + polish_iterations,
            evaluations=evaluations + polish_evals,
            time=timer.elapsed,
            converged=converged,
            polish_runs=polish_runs,
        )

    @staticmethod
    def _two_loop(
        grads: np.ndarray,
        s_hist: np.ndarray,
        y_hist: np.ndarray,
        rho_hist: np.ndarray,
        head: int,
        filled: int,
        last_s: np.ndarray,
        last_y: np.ndarray,
        has_pair: np.ndarray,
    ) -> np.ndarray:
        """Vectorized L-BFGS two-loop recursion over independent rows.

        Histories are ``(memory, batch, l)`` slots of one global ring
        (slot ``head - 1`` is newest, ``filled`` slots are in use).
        Rows that skipped an iteration hold zero-``rho`` pairs, which
        contribute exactly nothing to the recursion, so no validity
        masks are needed.  The initial Hessian scale uses each row's
        own most recent real pair (``last_s``/``last_y``).  Returns the
        search directions ``-H_b @ g_b`` for every row.
        """
        memory = s_hist.shape[0]
        q = grads.copy()
        scratch = np.empty_like(q)
        order = [(head - 1 - k) % memory for k in range(filled)]
        alpha = {}
        for j in order:  # newest -> oldest
            a = rho_hist[j] * np.einsum("bl,bl->b", s_hist[j], q)
            np.multiply(y_hist[j], a[:, None], out=scratch)
            q -= scratch
            alpha[j] = a
        if filled:
            # Initial scale gamma = (s.y) / (y.y) of the newest pair.
            y_sq = np.einsum("bl,bl->b", last_y, last_y)
            gamma = np.where(
                has_pair & (y_sq > 0.0),
                np.einsum("bl,bl->b", last_s, last_y)
                / np.maximum(y_sq, 1e-300),
                1.0,
            )
            q *= gamma[:, None]
        for j in reversed(order):  # oldest -> newest
            b = rho_hist[j] * np.einsum("bl,bl->b", y_hist[j], q)
            b -= alpha[j]
            np.multiply(s_hist[j], b[:, None], out=scratch)
            q -= scratch
        return -q

    def optimize_restarts(
        self, objective: BatchFidelityObjective
    ) -> BatchRestartResult:
        """Train all targets through stacked multi-restart L-BFGS.

        Restart ``r`` starts every cluster from
        :meth:`LBFGSOptimizer.draw_restart_start` draw ``r`` — exactly
        where a sequential per-cluster run seeded with the same integer
        would start it (each sequential ``optimize`` call opens a fresh
        stream from that seed, so draw ``r`` is identical across
        clusters; drawing the whole prefix up front consumes the same
        values).

        The schedule runs in two waves over the per-row drive
        (:meth:`optimize_rows` — independent L-BFGS state per row, one
        BLAS pass per iteration).  Wave one is restart 0 for every
        cluster; clusters whose fidelity reaches ``target_fidelity``
        drop out — the active-set form of the sequential early exit,
        which on well-covered data prunes most of the remaining work.
        Wave two runs *all* remaining restarts for *all* surviving
        clusters as one batch (one row per ``(cluster, restart)`` pair —
        the rows are independent, so batching across restarts is as
        exact as batching across clusters), amortizing the per-pass
        overhead across the full restart budget.  Afterwards each
        cluster's result is selected by
        replaying the sequential rule restart by restart — keep the best
        loss so far, stop at the first restart whose own fidelity
        reaches the target — so fidelities, ``restarts_used`` and
        ``history`` match the per-cluster loop draw for draw.
        """
        num_clusters = objective.batch_size
        num_params = objective.num_parameters
        num_restarts = self.num_restarts
        rng = as_rng(self.seed)
        starts = np.asarray(
            [
                LBFGSOptimizer.draw_restart_start(rng, num_params)
                for _ in range(num_restarts)
            ]
        )
        with Timer() as timer:
            # Wave one: restart 0, all clusters in one per-row drive.
            first = self.optimize_rows(
                objective,
                np.broadcast_to(starts[0], (num_clusters, num_params)),
            )
            survivors = np.flatnonzero(
                first.fidelities < self.target_fidelity
            )
            later = None
            if survivors.size and num_restarts > 1:
                # Wave two: every remaining restart of every surviving
                # cluster, one stacked problem of S * (R - 1) rows.
                row_clusters = np.tile(survivors, num_restarts - 1)
                row_restarts = np.repeat(
                    np.arange(1, num_restarts), survivors.size
                )
                later = self.optimize_rows(
                    objective.subset(row_clusters), starts[row_restarts]
                )
        # Per-cluster fidelity/loss tables: row r of ``fids[c]`` is what
        # sequential restart r of cluster c would have produced.
        total_iterations = first.num_iterations
        total_evaluations = first.num_evaluations
        best_thetas = first.thetas.copy()
        best_losses = first.losses.copy()
        best_converged = first.converged.copy()
        restarts_used = np.ones(num_clusters, dtype=int)
        histories: list[list[float]] = [
            [float(f)] for f in first.fidelities
        ]
        # Each cluster is credited with its own rows' counts.  Wall time
        # has no per-row measurement, so it stays an even share.
        cluster_iterations = first.iterations.copy()
        cluster_evaluations = first.evaluations.copy()
        cluster_times = np.full(num_clusters, first.time / num_clusters)
        if later is not None:
            total_iterations += later.num_iterations
            total_evaluations += later.num_evaluations
            np.add.at(cluster_iterations, row_clusters, later.iterations)
            np.add.at(cluster_evaluations, row_clusters, later.evaluations)
            np.add.at(
                cluster_times, row_clusters, later.time / row_clusters.size
            )
            position = {int(c): i for i, c in enumerate(survivors)}
            for cluster in survivors:
                cluster = int(cluster)
                # Replay the sequential selection: restart 0 is already
                # the best so far; walk restarts 1..R-1 in order.
                for r in range(1, num_restarts):
                    row = (r - 1) * survivors.size + position[cluster]
                    fidelity = float(later.fidelities[row])
                    histories[cluster].append(fidelity)
                    restarts_used[cluster] = r + 1
                    if later.losses[row] < best_losses[cluster]:
                        best_losses[cluster] = float(later.losses[row])
                        best_thetas[cluster] = later.thetas[row]
                        best_converged[cluster] = bool(later.converged[row])
                    if fidelity >= self.target_fidelity:
                        break
        return BatchRestartResult(
            thetas=best_thetas,
            fidelities=1.0 - best_losses,
            losses=best_losses,
            num_iterations=total_iterations,
            num_evaluations=total_evaluations,
            time=timer.elapsed,
            converged=best_converged,
            restarts_used=restarts_used,
            histories=histories,
            cluster_iterations=cluster_iterations,
            cluster_evaluations=cluster_evaluations,
            cluster_times=cluster_times,
        )


class VQCObjective:
    """Batched hinge-loss objective for the VQC classifier head.

    The QML counterpart of :class:`BatchFidelityObjective`: where the
    encoder's batched objective exploits *one ansatz, many targets*,
    this one exploits *one circuit, many input states*.  The classifier
    ansatz is compiled once into a cached
    :class:`~repro.transpile.template.ParametricTemplate`; each
    evaluation re-binds a ``(K, P)`` theta matrix through
    :meth:`~repro.transpile.template.ParametricTemplate.bind_batch_ir`
    (zero ``Gate``/``Instruction`` objects) and propagates **all** ``B``
    embedded states through the bound IR in one stacked statevector walk
    (:meth:`~repro.transpile.bound.BoundCircuitBatch.evolve_states_row`
    — the batch rides as a trailing tensor axis through the same
    contraction kernel the per-state simulator uses).  Margins and
    losses therefore match the sequential
    :class:`repro.qml.vqc.VariationalClassifier` reference to ~1e-15,
    well inside the 1e-12 equivalence gate.

    Parameters
    ----------
    template:
        A :class:`~repro.transpile.template.ParametricTemplate` of the
        classifier ansatz (e.g. :class:`repro.qml.vqc.VQCAnsatz`).  Must
        have a trivial layout and bind circuits as wide as the states —
        otherwise the states would need re-indexing and this objective
        refuses rather than silently mis-propagating.
    states:
        ``(B, 2^n)`` complex matrix of embedded statevectors (rows are
        assumed unit-norm, as amplitude embeddings are by construction).
    labels:
        ``(B,)`` array of class labels in {0, 1}.
    margin:
        Hinge threshold: loss is ``mean(max(0, margin - y_i * <Z_0>_i))``
        with ``y_i = +1`` for label 0 and ``-1`` for label 1.
    """

    def __init__(
        self,
        template,
        states: np.ndarray,
        labels: np.ndarray,
        margin: float = 0.4,
    ) -> None:
        states = np.atleast_2d(np.asarray(states, dtype=complex))
        labels = np.asarray(labels)
        num_qubits = template.num_physical_qubits
        if not template.has_trivial_layout:
            raise OptimizationError(
                "VQCObjective needs a template with a trivial layout "
                "(no SWAPs, identity placement); use a nearest-neighbor "
                "classifier ansatz on a linear-chain backend"
            )
        if num_qubits != template.ansatz.num_qubits:
            raise OptimizationError(
                f"template binds {num_qubits}-qubit circuits but its "
                f"ansatz is {template.ansatz.num_qubits}-qubit; embedded "
                "states cannot be propagated through the padded register"
            )
        if states.ndim != 2 or states.shape[1] != 2**num_qubits:
            raise OptimizationError(
                f"states must be (B, {2 ** num_qubits}), got {states.shape}"
            )
        if states.shape[0] == 0:
            raise OptimizationError("VQCObjective needs at least one state")
        if labels.shape != (states.shape[0],):
            raise OptimizationError(
                f"labels must be ({states.shape[0]},), got {labels.shape}"
            )
        if set(np.unique(labels)) - {0, 1}:
            raise OptimizationError("labels must be binary 0/1")
        if margin <= 0.0:
            raise OptimizationError("margin must be > 0")
        self.template = template
        self.states = states
        self.labels = labels.astype(int)
        self.margin = float(margin)
        self.num_qubits = num_qubits
        #: y_i in {+1, -1}: label 0 -> +1, label 1 -> -1.
        self.signs = 1.0 - 2.0 * self.labels.astype(float)
        self.num_evaluations = 0

    @property
    def batch_size(self) -> int:
        return self.states.shape[0]

    @property
    def num_parameters(self) -> int:
        return self.template.ansatz.num_parameters

    def _select(self, indices) -> "tuple[np.ndarray, np.ndarray]":
        if indices is None:
            return self.states, self.signs
        indices = np.asarray(indices, dtype=int)
        return self.states[indices], self.signs[indices]

    def expectations(
        self, thetas: np.ndarray, indices=None
    ) -> np.ndarray:
        """``<Z_0>`` for every (theta row, state) pair as ``(K, B)``.

        One ``bind_batch_ir`` lowers all ``K`` theta rows; each bound
        row then evolves the whole state stack in one array walk.  With
        ``indices`` only that subset of states is propagated (the
        minibatch hook).
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        states, _ = self._select(indices)
        bound = self.template.bind_batch_ir(thetas)
        half = 2 ** (self.num_qubits - 1)
        values = np.empty((thetas.shape[0], states.shape[0]))
        for k in range(thetas.shape[0]):
            evolved = bound.evolve_states_row(k, states)
            probs = np.abs(evolved) ** 2
            # Qubit 0 is the most significant bit: Z_0 = +1 up top.
            values[k] = probs[:, :half].sum(axis=1) - probs[:, half:].sum(
                axis=1
            )
        self.num_evaluations += thetas.shape[0] * states.shape[0]
        return values

    def margins(self, theta: np.ndarray, indices=None) -> np.ndarray:
        """Signed margins ``y_i * <Z_0>_i`` for one theta."""
        _, signs = self._select(indices)
        return signs * self.expectations(theta, indices)[0]

    def losses(self, thetas: np.ndarray, indices=None) -> np.ndarray:
        """Hinge loss of each theta row (one bind for all of them).

        The SPSA driver evaluates its ``theta + c*delta`` /
        ``theta - c*delta`` pair through a single call here, so one
        optimizer step costs one template bind and two stacked
        propagations.
        """
        _, signs = self._select(indices)
        values = self.expectations(thetas, indices)
        hinge = np.maximum(0.0, self.margin - signs[None, :] * values)
        return hinge.mean(axis=1)

    def loss(self, theta: np.ndarray, indices=None) -> float:
        return float(self.losses(theta, indices)[0])

    def predictions(self, theta: np.ndarray, indices=None) -> np.ndarray:
        """Predicted labels in {0, 1} for every state."""
        values = self.expectations(theta, indices)[0]
        return (values < 0.0).astype(int)

    def accuracy(self, theta: np.ndarray) -> float:
        return float(np.mean(self.margins(theta) > 0.0))

    def __repr__(self) -> str:
        return (
            f"VQCObjective(batch={self.batch_size}, "
            f"qubits={self.num_qubits}, params={self.num_parameters}, "
            f"margin={self.margin})"
        )

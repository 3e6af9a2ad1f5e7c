"""Fidelity objective with a closed-form (symbolic) Jacobian (Sec. III-B).

The embedded state is ``V |psi(theta)>`` with ``V`` the fixed closing
layer, so the fidelity against a real target ``x`` is

    F(theta) = |<x| V |psi(theta)>|^2 = |<y | psi(theta)>|^2,
    y := V^dagger x   (precomputed once per target),

and with ``psi_r = c_r * exp(i phi_r)``, ``phi = P @ theta / 2`` the
overlap is ``S = sum_r conj(y_r) c_r e^{i phi_r}``; every partial
derivative is just that sum reweighted by ``i P_rj / 2`` — the "simple
partial derivatives of an exponential composed with a linear function"
the paper exploits for fast L-BFGS.
"""

from __future__ import annotations

import numpy as np

from repro.core.ansatz import EnQodeAnsatz
from repro.core.symbolic import SymbolicState
from repro.errors import OptimizationError


class FidelityObjective:
    """Loss ``1 - F(theta)`` with analytic gradient for one target vector."""

    def __init__(
        self,
        symbolic: SymbolicState,
        ansatz: EnQodeAnsatz,
        target: np.ndarray,
    ) -> None:
        target = np.asarray(target, dtype=complex).ravel()
        dim = 2**symbolic.num_qubits
        if target.size != dim:
            raise OptimizationError(
                f"target has dim {target.size}, ansatz produces {dim}"
            )
        norm = np.linalg.norm(target)
        if norm < 1e-12:
            raise OptimizationError("cannot embed the zero vector")
        target = target / norm
        self.symbolic = symbolic
        self.ansatz = ansatz
        self.target = target
        # Pull the target back through the closing layer once.
        y = ansatz.pull_back(target[None, :])[0]
        # Per-basis-state constant: conj(y_r) * i^{k_r} / sqrt(2^n).
        self._coeff = np.conj(y) * symbolic.phase_factors / np.sqrt(dim)
        # P/2 enters every phase and derivative; shared (cached) with every
        # other objective built on the same SymbolicState, so constructing
        # one objective per sample allocates nothing of size (2^n, l).
        self._half_p = symbolic.half_phase_matrix

    # -- evaluations -------------------------------------------------------------

    def overlap(self, theta: np.ndarray) -> complex:
        """The complex overlap ``<target| V |psi(theta)>``."""
        phases = self._half_p @ np.asarray(theta, dtype=float)
        return complex(np.sum(self._coeff * np.exp(1j * phases)))

    def fidelity(self, theta: np.ndarray) -> float:
        return float(abs(self.overlap(theta)) ** 2)

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss ``1 - F`` and its exact gradient, in one vectorized pass."""
        theta = np.asarray(theta, dtype=float)
        phases = self._half_p @ theta
        terms = self._coeff * np.exp(1j * phases)
        overlap = terms.sum()
        # dS/dtheta_j = sum_r terms_r * i * P_rj / 2; contracting the real
        # and imaginary parts separately keeps the product real @ real
        # (numpy would otherwise upcast P/2 to complex on every call).
        grad_fidelity = 2.0 * (
            overlap.imag * (terms.real @ self._half_p)
            - overlap.real * (terms.imag @ self._half_p)
        )
        loss = 1.0 - float(abs(overlap) ** 2)
        return loss, -grad_fidelity

    def numerical_grad(self, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
        """Finite-difference gradient of the loss (ablation A4 / tests)."""
        theta = np.asarray(theta, dtype=float)
        grad = np.zeros_like(theta)
        for j in range(theta.size):
            forward = theta.copy()
            backward = theta.copy()
            forward[j] += eps
            backward[j] -= eps
            grad[j] = (
                (1.0 - self.fidelity(forward)) - (1.0 - self.fidelity(backward))
            ) / (2.0 * eps)
        return grad

    def embedded_state(self, theta: np.ndarray) -> np.ndarray:
        """The embedded statevector ``V |psi(theta)>``."""
        return self.symbolic.embedded_amplitudes(theta, self.ansatz)

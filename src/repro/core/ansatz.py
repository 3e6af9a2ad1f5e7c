"""EnQode's hardware-efficient ansatz (paper Fig. 2).

Structure, for ``n`` qubits and ``L`` layers:

1. an opening ``Rx(-pi/2)`` on every qubit, rotating |0> to |+i> so the
   register lies in the x-y plane where ``Rz`` rotations act freely;
2. ``L`` layers, each a column of parameterized ``Rz`` gates (one per
   qubit — the only trainable gates, virtual and noiseless on IBM
   hardware) followed by a brick of ``CY`` entanglers on alternating
   nearest-neighbor pairs (even layers couple (0,1),(2,3),...; odd layers
   couple (1,2),(3,4),...), which needs **zero SWAPs** on a linear
   section of the heavy-hex lattice;
3. a closing ``Rx(-pi/2)`` + ``Ry(-pi/2)`` on every qubit, returning to
   the z-x plane so the optimized relative phases become real amplitudes.

``CY`` preserves the x-y-plane alignment (it maps basis states to basis
states with +-i phases), which is exactly what keeps the state in the
symbolic phase form of Eq. 6 — see :mod:`repro.core.symbolic`.

**Orientation alternation (reproduction note).**  The paper's "compact
layout that alternates from layer to layer" is reproduced here with the
control/target orientation of each brick position flipping on every
second repetition.  This detail is load-bearing: with a *fixed*
orientation, the +-i phases the CY gates inject accumulate a quadratic
(non-Walsh-linear) offset that the Rz phase family cannot cancel, capping
ideal embedding fidelity near 0.44 on PCA image data — and even making
|100...0> unreachable.  With alternating orientation the phases telescope
(two same-pair real-CY applications square to CZ, whose +-1 phases cancel
over an even number of brick repetitions), restoring the ~0.9 ideal
fidelity the paper reports.  ``bench_ablation_entangler`` quantifies all
variants.

The telescoping also requires an **even number of layers**: empirically,
odd ``L`` leaves an uncancelled phase residue and fidelity collapses to
the fixed-orientation level (e.g. 0.85 at L=6 vs 0.22 at L=5 on 6-qubit
PCA targets).  The paper's configuration (8 layers) is even; prefer even
``L`` when re-configuring.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from repro.errors import OptimizationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import gate

_HALF_PI = math.pi / 2.0

#: Entangling gates that keep the symbolic phase-state form (they act as
#: generalized permutations with power-of-i phases).  ``"cry"`` is the
#: real controlled-Y (CRy(pi)), which differs from ``"cy"`` only by a
#: virtual S on the control and spans the identical variational family.
SYMBOLIC_ENTANGLERS = ("cy", "cx", "cz", "cry")


class EnQodeAnsatz:
    """The fixed-shape EnQode embedding circuit family.

    Parameters
    ----------
    num_qubits:
        Register width ``n`` (the embedding holds ``2^n`` amplitudes).
    num_layers:
        Number of Rz+CY layers ``L`` (the paper uses 8 for 8 qubits).
    entangler:
        ``"cy"`` (paper default) or ``"cx"``/``"cz"`` for the ablation
        studies; all three preserve the symbolic representation.
    """

    def __init__(
        self,
        num_qubits: int,
        num_layers: int = 8,
        entangler: str = "cy",
        alternate_orientation: bool = True,
    ) -> None:
        if num_qubits < 2:
            raise OptimizationError("EnQode ansatz needs at least 2 qubits")
        if num_layers < 1:
            raise OptimizationError("EnQode ansatz needs at least 1 layer")
        if entangler not in SYMBOLIC_ENTANGLERS:
            raise OptimizationError(
                f"entangler {entangler!r} not in {SYMBOLIC_ENTANGLERS}"
            )
        self.num_qubits = num_qubits
        self.num_layers = num_layers
        self.entangler = entangler
        self.alternate_orientation = alternate_orientation

    # -- structure ------------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        """One Rz angle per qubit per layer."""
        return self.num_qubits * self.num_layers

    def parameter_index(self, layer: int, qubit: int) -> int:
        """Flat index of the Rz parameter on ``qubit`` in ``layer``."""
        if not (0 <= layer < self.num_layers and 0 <= qubit < self.num_qubits):
            raise OptimizationError(
                f"no parameter at layer={layer}, qubit={qubit}"
            )
        return layer * self.num_qubits + qubit

    def entangling_pairs(self, layer: int) -> list[tuple[int, int]]:
        """Oriented (control, target) pairs of ``layer``.

        The brick offset alternates with layer parity; with
        ``alternate_orientation`` the control/target direction flips on
        every second repetition of each brick position (see the module
        docstring for why this matters).
        """
        offset = layer % 2
        pairs = [(q, q + 1) for q in range(offset, self.num_qubits - 1, 2)]
        if self.alternate_orientation and (layer // 2) % 2 == 1:
            pairs = [(target, control) for control, target in pairs]
        return pairs

    # -- circuit construction --------------------------------------------------

    def circuit(self, theta: np.ndarray) -> QuantumCircuit:
        """Instantiate the ansatz with bound parameters ``theta``."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.num_parameters:
            raise OptimizationError(
                f"expected {self.num_parameters} parameters, got {theta.size}"
            )
        return self._build(lambda j: gate("rz", float(theta[j])))

    def parametric_circuit(self) -> "tuple[QuantumCircuit, dict[int, int]]":
        """The ansatz skeleton with *marker* Rz gates for templating.

        Returns ``(circuit, markers)`` where every trainable Rz is a fresh
        ``Gate`` object (angle 0) and ``markers`` maps ``id(gate_obj)`` to
        its flat parameter index.  The structural transpile passes never
        inspect Rz matrices and append gate objects unchanged, so the
        markers survive lowering and routing — this is what lets
        :class:`repro.transpile.template.ParametricTemplate` locate each
        parameter slot in the fully routed circuit.
        """
        markers: dict[int, int] = {}

        def marker_rz(j: int):
            rz = gate("rz", 0.0)
            markers[id(rz)] = j
            return rz

        return self._build(marker_rz), markers

    def _build(self, rz_gate) -> QuantumCircuit:
        """Assemble the fixed ansatz shape, delegating Rz creation."""
        qc = QuantumCircuit(self.num_qubits, name="enqode_ansatz")
        for q in range(self.num_qubits):
            qc.rx(-_HALF_PI, q)
        for layer in range(self.num_layers):
            for q in range(self.num_qubits):
                qc.append(rz_gate(self.parameter_index(layer, q)), (q,))
            for control, target in self.entangling_pairs(layer):
                if self.entangler == "cry":
                    qc.cry(math.pi, control, target)
                else:
                    getattr(qc, self.entangler)(control, target)
        for q in range(self.num_qubits):
            qc.rx(-_HALF_PI, q)
            qc.ry(-_HALF_PI, q)
        return qc

    # -- the closing basis-change layer ----------------------------------------

    def closing_matrix_1q(self) -> np.ndarray:
        """The per-qubit closing unitary ``Ry(-pi/2) @ Rx(-pi/2)``."""
        return gate("ry", -_HALF_PI).matrix @ gate("rx", -_HALF_PI).matrix

    def apply_closing_layer(self, state: np.ndarray) -> np.ndarray:
        """Apply the closing layer ``V = v^(x)n`` to a state vector."""
        return _apply_local(state, self.closing_matrix_1q(), self.num_qubits)

    def apply_closing_layer_batch(self, states: np.ndarray) -> np.ndarray:
        """Apply ``V`` to a ``(B, 2^n)`` batch of states in one pass."""
        return _apply_local_batch(
            states, self.closing_matrix_1q(), self.num_qubits
        )

    def pull_back(self, states: np.ndarray) -> np.ndarray:
        """Apply ``V^dagger`` to every row of a ``(B, 2^n)`` batch.

        The objectives' target pull-back.  ``V^dagger = A (x) B`` over
        the first ``ceil(n/2)`` qubits and the rest, so a row read as a
        matrix ``X`` maps to ``A X B^T``: two 2-D products over the whole
        batch, whose per-row bits do not depend on the batch size (a
        dense ``2^n x 2^n`` product's do).
        """
        high_t, low_t = self._closing_adjoint_factors
        states = np.asarray(states, dtype=complex)
        batch, high, low = states.shape[0], high_t.shape[0], low_t.shape[0]
        half = states.reshape(batch * high, low) @ low_t
        half = half.reshape(batch, high, low).transpose(0, 2, 1)
        out = half.reshape(batch * low, high) @ high_t
        out = out.reshape(batch, low, high).transpose(0, 2, 1)
        return out.reshape(batch, -1)

    @cached_property
    def _closing_adjoint_factors(self) -> "tuple[np.ndarray, np.ndarray]":
        """``(A^T, B^T)`` of :meth:`pull_back`, computed once per ansatz."""
        v_dag = self.closing_matrix_1q().conj().T
        high = reduce(np.kron, [v_dag] * ((self.num_qubits + 1) // 2))
        low = reduce(np.kron, [v_dag] * (self.num_qubits // 2))
        return np.ascontiguousarray(high.T), np.ascontiguousarray(low.T)

    def __repr__(self) -> str:
        return (
            f"EnQodeAnsatz(qubits={self.num_qubits}, layers={self.num_layers}, "
            f"entangler={self.entangler!r}, params={self.num_parameters})"
        )


def _apply_local(state: np.ndarray, matrix_1q: np.ndarray, num_qubits: int):
    """Apply the same 1q matrix to every qubit of ``state``."""
    tensor = np.asarray(state, dtype=complex).reshape((2,) * num_qubits)
    for q in range(num_qubits):
        tensor = np.moveaxis(
            np.tensordot(matrix_1q, tensor, axes=([1], [q])), 0, q
        )
    return tensor.reshape(-1)


def _apply_local_batch(
    states: np.ndarray, matrix_1q: np.ndarray, num_qubits: int
):
    """Apply the same 1q matrix to every qubit of a ``(B, 2^n)`` batch."""
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    batch = states.shape[0]
    tensor = states.reshape((batch,) + (2,) * num_qubits)
    for q in range(num_qubits):
        axis = 1 + q  # axis 0 is the batch dimension
        tensor = np.moveaxis(
            np.tensordot(matrix_1q, tensor, axes=([1], [axis])), 0, axis
        )
    return tensor.reshape(batch, -1)

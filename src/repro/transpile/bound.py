"""The bound-circuit compact IR: array-backed circuits, lazy materialization.

A :class:`repro.transpile.template.ParametricTemplate` already owns every
structural fact about its circuits — the fixed instruction blocks, the
gate skeleton, the layouts.  The only thing that varies per bound sample
is numbers: the ``(P,)`` angle row and, per merged 1q run, the packed
ZYZ synthesis result (three wrapped Rz angles with NaN-marked skips plus
a kind byte — :class:`repro.transpile.euler.PackedSynthesis`).

:class:`BoundCircuitBatch` is exactly that split: one reference to the
shared template plus the packed arrays for a whole ``(B, P)`` bind.  No
``Gate``/``Instruction`` objects are created at bind time.  Consumers
choose their own level of materialization:

* the statevector simulator walks the arrays directly
  (:meth:`BoundCircuitBatch.statevector_row`, surfaced to
  :class:`repro.quantum.simulator.StatevectorSimulator` through the
  ``ir_statevector`` hook on :class:`BoundCircuit`) — bit-identical to
  simulating the materialized circuit, because it applies the same
  matrices (shared fixed-gate matrices, ``_rz_matrix`` for angles) in
  the same order through the same contraction kernel;
* gate counts and histograms come from the template's precomputed
  skeleton plus a per-run array scan — no instruction list needed;
* :meth:`BoundCircuit.materialize` (or any instruction access — the
  instruction list is a lazily-built cached property) expands the
  ``Instruction`` stream on demand, **float-bit identical** to what
  :func:`repro.transpile.transpiler.transpile` emits for the same
  angles.

:class:`BoundCircuit` subclasses :class:`~repro.quantum.circuit.
QuantumCircuit`, so every existing consumer (drawing, metrics, the
density-matrix simulator, ``embed_target`` comparisons) keeps working —
they just pay the materialization cost on first instruction access
instead of at bind time.  A serving flush can therefore return circuits
whose per-sample payload is a few hundred bytes of arrays
(:meth:`BoundCircuit.payload_nbytes`) rather than an object graph of
thousands of instructions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TranspilerError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import VIRTUAL_GATE_NAMES
from repro.quantum.instruction import Instruction
from repro.quantum.statevector import Statevector


class BoundCircuitBatch:
    """Shared compact IR for one ``bind_batch`` call.

    Holds the template reference, the bound ``(B, P)`` angle matrix, and
    one :class:`~repro.transpile.euler.PackedSynthesis` per parametric
    run (row-sliced views of the bind's single batched ZYZ sweep).  All
    per-row views (:meth:`circuit`) share these arrays — nothing is
    copied per sample.
    """

    __slots__ = ("template", "thetas", "packed")

    def __init__(self, template, thetas: np.ndarray, packed: list) -> None:
        self.template = template
        self.thetas = thetas
        self.packed = packed

    @property
    def batch_size(self) -> int:
        return self.thetas.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.template._num_qubits

    @property
    def name(self) -> str:
        return self.template._name

    def circuit(self, row: int) -> "BoundCircuit":
        """A lazy circuit view of one bound sample."""
        return BoundCircuit(self, row)

    def take(self, rows: "list[int]") -> "BoundCircuitBatch":
        """A new batch holding an arbitrary subset/reordering of rows.

        Copies only the per-row numeric payload (fancy indexing); the
        template reference is shared.  This is how the wire format
        (:mod:`repro.io.wire`) exports a scattered selection of bound
        circuits as one compact record.
        """
        rows = [int(row) for row in rows]
        batch = self.thetas.shape[0]
        for row in rows:
            if not 0 <= row < batch:
                raise TranspilerError(
                    f"row {row} out of range for batch of {batch}"
                )
        return BoundCircuitBatch(
            self.template,
            self.thetas[rows],
            [p.take(rows) for p in self.packed],
        )

    # -- materialization ------------------------------------------------------

    def materialize_row(self, row: int) -> list[Instruction]:
        """Expand one row to its instruction stream.

        Walks the template's bind program, reading angles out of the
        packed arrays — the emitted instructions are float-bit identical
        to the full transpile of the row's bound ansatz (fixed blocks
        share the very same ``Instruction`` objects across rows).
        """
        out: list[Instruction] = []
        for step in self.template._program:
            step.emit_ir(self, row, out)
        return out

    # -- direct consumption (no instruction objects) --------------------------

    def statevector_row(self, row: int) -> Statevector:
        """Simulate one row straight off the arrays.

        Applies the same gate matrices in the same order through the
        same tensor-contraction kernel as ``Statevector.evolve`` on the
        materialized circuit, so the result is bitwise identical — with
        zero instruction objects built.
        """
        num_qubits = self.num_qubits
        vec = np.zeros(2**num_qubits, dtype=complex)
        vec[0] = 1.0
        tensor = vec.reshape((2,) * num_qubits)
        for step in self.template._program:
            tensor = step.apply_ir(self, row, tensor, num_qubits)
        return Statevector(tensor.reshape(-1), validate=False)

    def evolve_states_row(
        self, row: int, states: np.ndarray
    ) -> np.ndarray:
        """Evolve a ``(B, 2^n)`` stack of states through one bound row.

        The QML fast path: the contraction kernel
        (:func:`repro.quantum.statevector.apply_gate_to_tensor`) treats
        the first ``num_qubits`` tensor axes as qubit axes and carries
        any trailing axes along untouched, so stacking the batch as one
        trailing axis evolves **all** states through the row's gates in
        one array walk — same matrices, same order, same kernel as
        :meth:`statevector_row` applied to each state individually (the
        per-state results agree to the last bit of each contraction).
        Only meaningful when the template's layout is trivial
        (:attr:`repro.transpile.template.ParametricTemplate.
        has_trivial_layout`) — with SWAPs or a permuted layout the input
        states would need re-indexing, which callers must handle.
        """
        states = np.atleast_2d(np.asarray(states, dtype=complex))
        num_qubits = self.num_qubits
        if states.ndim != 2 or states.shape[1] != 2**num_qubits:
            raise TranspilerError(
                f"states must be (B, {2 ** num_qubits}), got {states.shape}"
            )
        batch = states.shape[0]
        if batch == 0:
            return states.copy()
        # Qubit axes leading, batch trailing: column b of states.T is
        # state b, so tensor[..., b] is exactly state b's qubit tensor.
        tensor = np.ascontiguousarray(states.T).reshape(
            (2,) * num_qubits + (batch,)
        )
        for step in self.template._program:
            tensor = step.apply_ir(self, row, tensor, num_qubits)
        return np.ascontiguousarray(tensor.reshape(2**num_qubits, batch).T)

    def num_gates_row(self, row: int) -> int:
        skeleton = self.template._skeleton_length
        return skeleton + sum(p.ops_in_row(row) for p in self.packed)

    def count_ops_row(self, row: int) -> dict[str, int]:
        counts = dict(self.template._skeleton_counts)
        for p in self.packed:
            p.count_row_into(row, counts)
        return counts

    def num_two_qubit_row(self, row: int) -> int:
        # Parametric runs only ever emit 1q gates; every 2q gate lives
        # in the fixed skeleton.
        return self.template._skeleton_two_qubit

    def payload_nbytes(self) -> int:
        """Bytes of per-sample numeric payload held for the whole batch
        (angles + kinds + bound thetas; excludes the shared template)."""
        return self.thetas.nbytes + sum(
            p.angles.nbytes + p.kinds.nbytes for p in self.packed
        )

    def payload_nbytes_row(self, row: int) -> int:
        per_run = sum(
            3 * p.angles.itemsize + p.kinds.itemsize for p in self.packed
        )
        return self.thetas[row].nbytes + per_run

    def __repr__(self) -> str:
        return (
            f"BoundCircuitBatch(batch={self.batch_size}, "
            f"qubits={self.num_qubits}, runs={len(self.packed)}, "
            f"payload={self.payload_nbytes()}B)"
        )


class BoundCircuit(QuantumCircuit):
    """One bound sample as a lazily-materialized circuit.

    Until something touches the instruction list, the object holds two
    references (the shared batch IR and a row index) and nothing else.
    Structural queries (``len``, ``count_ops``, ``num_gates``,
    ``num_two_qubit_gates``) answer from the template skeleton and the
    packed arrays; simulation goes through :meth:`ir_statevector`.  Any
    other instruction access — iteration, ``depth``, drawing —
    materializes once and caches, after which the object behaves exactly
    like the plain circuit it is float-bit identical to.
    """

    def __init__(self, batch: BoundCircuitBatch, row: int) -> None:
        # Deliberately skips QuantumCircuit.__init__: there is no
        # instruction list to validate or allocate yet.
        self.num_qubits = batch.num_qubits
        self.name = batch.name
        self._batch = batch
        self._row = row
        self._materialized: "list[Instruction] | None" = None

    @property
    def _instructions(self) -> list[Instruction]:
        materialized = self._materialized
        if materialized is None:
            materialized = self._batch.materialize_row(self._row)
            self._materialized = materialized
        return materialized

    @_instructions.setter
    def _instructions(self, value: list[Instruction]) -> None:
        self._materialized = value

    @property
    def is_materialized(self) -> bool:
        """Whether the instruction list has been built yet."""
        return self._materialized is not None

    @property
    def bound_batch(self) -> BoundCircuitBatch:
        """The shared batch IR this circuit is a row view of."""
        return self._batch

    @property
    def bound_row(self) -> int:
        """This circuit's row index inside :attr:`bound_batch`."""
        return self._row

    def materialize(self) -> QuantumCircuit:
        """Expand to a plain :class:`QuantumCircuit`.

        Always performs a fresh program walk (cost: one list build plus
        one lazy Rz instruction per parametric angle — microseconds per
        circuit); the result is float-bit instruction-identical to the
        full transpile for the same angles.
        """
        return QuantumCircuit.trusted(
            self.num_qubits, self.name, self._batch.materialize_row(self._row)
        )

    def ir_statevector(self) -> Statevector:
        """Simulator fast path: evolve |0...0> off the packed arrays."""
        return self._batch.statevector_row(self._row)

    def evolve_states(self, states: np.ndarray) -> np.ndarray:
        """Evolve a ``(B, 2^n)`` state stack through this circuit's gates
        in one array walk (see :meth:`BoundCircuitBatch.evolve_states_row`)."""
        return self._batch.evolve_states_row(self._row, states)

    def payload_nbytes(self) -> int:
        """Bytes of per-sample numeric payload (excludes the template)."""
        return self._batch.payload_nbytes_row(self._row)

    # -- skeleton-backed structural queries -----------------------------------

    def __len__(self) -> int:
        if self._materialized is not None:
            return len(self._materialized)
        return self._batch.num_gates_row(self._row)

    def count_ops(self, physical_only: bool = False) -> dict[str, int]:
        if self._materialized is not None:
            return super().count_ops(physical_only)
        counts = self._batch.count_ops_row(self._row)
        if physical_only:
            return {
                name: count
                for name, count in counts.items()
                if name not in VIRTUAL_GATE_NAMES
            }
        return counts

    def num_gates(self, physical_only: bool = False) -> int:
        if self._materialized is not None:
            return super().num_gates(physical_only)
        if not physical_only:
            return self._batch.num_gates_row(self._row)
        return sum(self.count_ops(physical_only=True).values())

    def num_one_qubit_gates(self, physical_only: bool = False) -> int:
        if self._materialized is not None:
            return super().num_one_qubit_gates(physical_only)
        # Every 2q gate is physical, so subtracting them from the
        # (optionally physical-only) total leaves exactly the 1q gates.
        return self.num_gates(physical_only) - self._batch.num_two_qubit_row(
            self._row
        )

    def num_two_qubit_gates(self) -> int:
        if self._materialized is not None:
            return super().num_two_qubit_gates()
        return self._batch.num_two_qubit_row(self._row)

    def __repr__(self) -> str:
        state = "materialized" if self.is_materialized else "compact"
        return (
            f"BoundCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)}, {state})"
        )

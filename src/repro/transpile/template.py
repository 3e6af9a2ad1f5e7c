"""Parametric transpile templates: compile the ansatz once, bind per sample.

EnQode's online path produces one circuit per sample, but every circuit in
a run shares a single **fixed shape** (identical gate structure — the
paper's Sec. III-A invariant behind the Fig. 9(a) millisecond-latency
claim).  Re-running the full transpile pipeline per sample therefore
re-derives the same decompositions, CX cancellations, routing, and SWAP
expansions over and over; only the ``Rz`` angles change.

:class:`ParametricTemplate` runs the *structural* pipeline stages exactly
once per ``(ansatz, backend, optimization_level)`` and compiles the final
one-qubit lowering stage into a small "bind program".
:meth:`ParametricTemplate.bind_batch_ir` then lowers a whole ``(B, P)``
angle matrix in one vectorized sweep — stacked ``(B, 2, 2)`` run
compositions and a batched packed ZYZ resynthesis
(:func:`repro.transpile.euler.synthesize_1q_packed_batch`) of only the
one-qubit runs that contain a parameter — into the **compact array IR**
(:class:`repro.transpile.bound.BoundCircuitBatch`): per sample, only
packed angle rows and kind bytes, no ``Gate``/``Instruction`` objects at
all.  :meth:`ParametricTemplate.bind_batch` wraps each IR row as a lazy
:class:`repro.transpile.bound.BoundCircuit` (the lowering behind every
online encode); simulation and gate counts answer straight off the
arrays, and materializing on first instruction access yields the
circuit :func:`repro.transpile.transpiler.transpile` would produce for
the same angles, **instruction for instruction and float bit for float
bit** — asserted against a reference transpile when the template is
built.

Why this is exact: the structural passes (:func:`decompose_to_cx`,
:func:`cancel_adjacent_cx`, :func:`route`, :func:`expand_cx`) never
inspect one-qubit gate *matrices* — they match on names and arities and
append gate objects unchanged — so their output is the same for every
angle assignment.  Only ``merge_1q_runs``/``resynthesize_1q`` (and
``translate_1q`` at level 0) look at the numbers, and those are precisely
the steps the bind program replays.

:class:`TemplateCache` memoizes templates; :func:`transpile_template` is
the module-level entry point the online pipeline uses.
"""

from __future__ import annotations

import hashlib
import threading
import weakref

import numpy as np

from repro.errors import TranspilerError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import _rz_matrix, gate
from repro.quantum.instruction import Instruction
from repro.quantum.statevector import apply_gate_to_tensor
from repro.transpile.bound import BoundCircuitBatch
from repro.transpile.decompositions import decompose_to_cx, expand_cx
from repro.transpile.euler import (
    PACKED_DROPPED,
    PACKED_SPECIAL,
    synthesize_1q,
    synthesize_1q_packed_batch,
)
from repro.transpile.passes import cancel_adjacent_cx
from repro.transpile.routing import route
from repro.transpile.transpiler import TranspileResult, transpile

#: merge_1q_runs drops a merged run that is the identity up to global
#: phase; the bind program replicates the check with the same tolerances
#: (``np.allclose`` defaults: rtol=1e-5, atol=1e-12 as passed there).
_IDENTITY_ATOL = 1e-12
_ALLCLOSE_RTOL = 1e-5


def _is_identity_up_to_phase(matrix: np.ndarray) -> bool:
    """Scalar replica of ``np.allclose(m, m[0,0]*I, atol=1e-12)``.

    Same comparison formula (``|a-b| <= atol + rtol*|b|`` entrywise);
    the bind program applies it to every fully fixed run at build time
    (the batched bind applies the vectorized replica in
    :func:`repro.transpile.euler.synthesize_1q_packed_batch`).
    """
    pivot = complex(matrix[0, 0])
    return (
        abs(complex(matrix[0, 1])) <= _IDENTITY_ATOL
        and abs(complex(matrix[1, 0])) <= _IDENTITY_ATOL
        and abs(complex(matrix[1, 1]) - pivot)
        <= _IDENTITY_ATOL + _ALLCLOSE_RTOL * abs(pivot)
    )


def _batched_rz_matrices(thetas: np.ndarray) -> np.ndarray:
    """Rz matrices for a whole ``(B, P)`` angle matrix as ``(P, B, 2, 2)``.

    Parameter-major layout so a run group can gather all its rows for
    one parameter as a single leading-axis index.  Entry ``[p, b]`` is
    bit-identical to the gate library's Rz constructor for
    ``thetas[b, p]`` (same expression, same ufunc kernel — see
    ``_rz_matrix`` in :mod:`repro.quantum.gates`), so compositions using
    these matrices match ``merge_1q_runs`` exactly.
    """
    half = 0.5j * thetas.T
    stack = np.zeros(half.shape + (2, 2), dtype=complex)
    stack[..., 0, 0] = np.exp(-half)
    stack[..., 1, 1] = np.exp(half)
    return stack


#: Parameterless native gates are immutable — share one instance each.
_SX_GATE = gate("sx")
_X_GATE = gate("x")


class _FixedBlock:
    """A maximal stretch of instructions that no parameter can change."""

    __slots__ = ("instructions",)

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []

    def emit_ir(self, bound, row: int, out: list[Instruction]) -> None:
        # Every materialized row extends with the *same* instruction
        # objects: fixed blocks are immutable, so all binds share them.
        out.extend(self.instructions)

    def apply_ir(
        self, bound, row: int, tensor: np.ndarray, num_qubits: int
    ) -> np.ndarray:
        for instr in self.instructions:
            tensor = apply_gate_to_tensor(
                tensor, instr.gate.matrix, instr.qubits, num_qubits
            )
        return tensor


class _ParametricRun:
    """One merged 1q run containing at least one trainable Rz.

    ``elements`` lists the run in circuit order; each element is either a
    fixed 2x2 matrix or an ``int`` parameter index.  Binding multiplies
    the elements together one by one (later gates on the left) — the
    *same sequence of 2x2 products* ``merge_1q_runs`` performs, so the
    accumulated floating-point state is bit-identical and the ZYZ
    resynthesis makes exactly the same 0/1/2-SX and angle-wrap decisions
    as the full pipeline.  (Pre-folding adjacent fixed matrices would
    change the association order; near the +-pi branch cut of the Euler
    angles that 1-ulp difference flips an Rz sign.)

    Runs are not composed separately: every run belongs to a
    :class:`_RunGroup` of runs sharing the same fixed/param chain
    signature, and the group composes all its runs for all ``B`` rows
    at once as stacked ``(G, B, 2, 2)`` matmuls.  numpy's matmul runs
    one inner 2x2 kernel per stack slice — the identical kernel
    ``merge_1q_runs``' 2D products use — so every row's accumulated
    matrix is bit-identical to the full pipeline's, and the batched ZYZ
    (:func:`repro.transpile.euler.synthesize_1q_packed_batch`, one
    sweep over all runs of the bind) stays packed inside the bound IR —
    :meth:`emit_ir` expands a row to exactly the full pipeline's
    instruction stream on demand, and :meth:`apply_ir` simulates it
    without any instruction objects.

    ``index`` is the run's position in the template's
    ``_parametric_runs`` list — the key into the bound IR's per-run
    packed-synthesis slices.
    """

    __slots__ = ("qubit", "qubit_tuple", "elements", "index", "_sx", "_x")

    def __init__(self, qubit: int, elements: list) -> None:
        self.qubit = qubit
        self.qubit_tuple = (qubit,)
        self.elements = elements
        self.index = -1  # assigned by ParametricTemplate
        # Parameterless instructions are immutable: all binds (and all
        # rows of a batched bind) share these two objects.
        self._sx = Instruction.trusted(_SX_GATE, self.qubit_tuple)
        self._x = Instruction.trusted(_X_GATE, self.qubit_tuple)

    def emit_ir(self, bound, row: int, out: list[Instruction]) -> None:
        """Materialize one bound row from its packed synthesis.

        Reads the :class:`repro.transpile.euler.PackedSynthesis` slice
        the bind stored for this run: a dropped row emits nothing, a
        special row replays the scalar-synthesized op list, and the
        generic ZXZXZ row expands its NaN-marked angle triple.
        """
        packed = bound.packed[self.index]
        kind = packed.kinds[row]
        if kind == PACKED_DROPPED:
            return
        qubit_tuple = self.qubit_tuple
        trusted_rz = Instruction.trusted_rz
        if kind == PACKED_SPECIAL:
            for name, params in packed.specials[row]:
                if name == "rz":
                    # Lazy matrix: most bound gates are never simulated.
                    out.append(trusted_rz(params[0], qubit_tuple))
                else:
                    out.append(self._sx if name == "sx" else self._x)
            return
        w_lam, w_mid, w_phi = packed.angles[row].tolist()
        if w_lam == w_lam:  # NaN marks a skipped Rz slot
            out.append(trusted_rz(w_lam, qubit_tuple))
        out.append(self._sx)
        if w_mid == w_mid:
            out.append(trusted_rz(w_mid, qubit_tuple))
        out.append(self._sx)
        if w_phi == w_phi:
            out.append(trusted_rz(w_phi, qubit_tuple))

    def apply_ir(
        self, bound, row: int, tensor: np.ndarray, num_qubits: int
    ) -> np.ndarray:
        """Apply one bound row's gates straight off the packed arrays.

        Builds each Rz matrix with the gate library's ``_rz_matrix`` —
        the same constructor a materialized lazy Rz gate uses — and the
        shared SX/X matrices, so the contraction sequence is bitwise the
        one ``Statevector.evolve`` performs on the materialized row.
        """
        packed = bound.packed[self.index]
        kind = packed.kinds[row]
        if kind == PACKED_DROPPED:
            return tensor
        qubits = self.qubit_tuple
        if kind == PACKED_SPECIAL:
            for name, params in packed.specials[row]:
                if name == "rz":
                    matrix = _rz_matrix(params[0])
                elif name == "sx":
                    matrix = _SX_GATE.matrix
                else:
                    matrix = _X_GATE.matrix
                tensor = apply_gate_to_tensor(tensor, matrix, qubits, num_qubits)
            return tensor
        w_lam, w_mid, w_phi = packed.angles[row].tolist()
        sx_matrix = _SX_GATE.matrix
        if w_lam == w_lam:
            tensor = apply_gate_to_tensor(
                tensor, _rz_matrix(w_lam), qubits, num_qubits
            )
        tensor = apply_gate_to_tensor(tensor, sx_matrix, qubits, num_qubits)
        if w_mid == w_mid:
            tensor = apply_gate_to_tensor(
                tensor, _rz_matrix(w_mid), qubits, num_qubits
            )
        tensor = apply_gate_to_tensor(tensor, sx_matrix, qubits, num_qubits)
        if w_phi == w_phi:
            tensor = apply_gate_to_tensor(
                tensor, _rz_matrix(w_phi), qubits, num_qubits
            )
        return tensor


class _RunGroup:
    """Parametric runs sharing one fixed/param chain signature.

    Runs with the same element pattern (e.g. ``fixed, param, fixed,
    fixed``) perform the same *sequence* of 2x2 products, just with
    different operands — so the whole group composes as one stacked
    ``(G, B, 2, 2)`` matmul chain instead of ``G`` separate ``(B, 2,
    2)`` chains.  Each step is prebuilt at template construction: fixed
    positions stack their ``G`` matrices into a broadcastable ``(G, 1,
    2, 2)`` array once, parameter positions keep a ``(G,)`` index into
    the parameter-major Rz stack.  Per row and run the product sequence
    (operands, association order, matmul kernel) is exactly the one
    ``merge_1q_runs`` computes, so the composed matrices — and
    everything the ZYZ synthesis derives from them — stay bit-identical.
    """

    __slots__ = ("runs", "steps")

    def __init__(self, runs: "list[_ParametricRun]") -> None:
        self.runs = runs
        self.steps: list = []
        for position, element in enumerate(runs[0].elements):
            if isinstance(element, np.ndarray):
                stacked = np.stack(
                    [run.elements[position] for run in runs]
                )[:, None]
                self.steps.append((True, stacked))
            else:
                params = np.asarray(
                    [run.elements[position] for run in runs], dtype=np.intp
                )
                self.steps.append((False, params))

    def compose_batch(self, rz_stack: np.ndarray) -> np.ndarray:
        """All runs' merged matrices for all rows, as ``(G, B, 2, 2)``.

        ``rz_stack`` is the bind's parameter-major ``(P, B, 2, 2)``
        Rz-matrix stack.  Every step stays a full 2x2 matmul:
        shortcutting the diagonal Rz as a row scaling rounds differently
        from the BLAS product ``merge_1q_runs`` computes, and near the
        +-pi Euler branch cut a 1-ulp difference flips an Rz sign.
        """
        matrix = None
        for is_fixed, data in self.steps:
            step = data if is_fixed else rz_stack[data]
            matrix = step if matrix is None else step @ matrix
        return matrix


def _group_parametric_runs(
    runs: "list[_ParametricRun]",
) -> "list[_RunGroup]":
    groups: dict[tuple, list] = {}
    for run in runs:
        signature = tuple(
            isinstance(element, np.ndarray) for element in run.elements
        )
        groups.setdefault(signature, []).append(run)
    return [_RunGroup(members) for members in groups.values()]


class _ParametricRz:
    """A native (virtual) Rz passed through untouched at level 0."""

    __slots__ = ("qubit_tuple", "param")

    def __init__(self, qubit: int, param: int) -> None:
        self.qubit_tuple = (qubit,)
        self.param = param

    def emit_ir(self, bound, row: int, out: list[Instruction]) -> None:
        out.append(
            Instruction.trusted_rz(
                float(bound.thetas[row, self.param]), self.qubit_tuple
            )
        )

    def apply_ir(
        self, bound, row: int, tensor: np.ndarray, num_qubits: int
    ) -> np.ndarray:
        return apply_gate_to_tensor(
            tensor,
            _rz_matrix(float(bound.thetas[row, self.param])),
            self.qubit_tuple,
            num_qubits,
        )


class ParametricTemplate:
    """A fully routed, angle-free compilation of one ansatz on one backend.

    Parameters
    ----------
    ansatz:
        The fixed-shape circuit family (must provide ``parametric_circuit``
        and ``num_parameters`` — see :class:`repro.core.ansatz.EnQodeAnsatz`).
    backend:
        Transpile target.
    optimization_level:
        Same meaning as in :func:`repro.transpile.transpiler.transpile`.

    Building the template costs one structural pipeline run plus one full
    reference transpile (used to verify bind-equality); every subsequent
    :meth:`bind_batch` costs only the parametric 1q resynthesis.
    """

    def __init__(self, ansatz, backend, optimization_level: int = 1) -> None:
        if optimization_level not in (0, 1):
            raise TranspilerError(
                f"optimization_level must be 0 or 1, got {optimization_level}"
            )
        self.ansatz = ansatz
        self.backend = backend
        self.optimization_level = optimization_level
        self.num_binds = 0
        self._fingerprint: "bytes | None" = None

        circuit, markers = ansatz.parametric_circuit()
        if circuit.num_qubits > backend.num_qubits:
            raise TranspilerError(
                f"{circuit.num_qubits}-qubit circuit cannot target "
                f"{backend.num_qubits}-qubit backend {backend.name!r}"
            )
        cx_level = decompose_to_cx(circuit)
        if optimization_level >= 1:
            cx_level = cancel_adjacent_cx(cx_level)
        routing = route(cx_level, backend.coupling_map, None, seed=None)
        entangled = expand_cx(
            decompose_to_cx(routing.circuit),
            backend.native_gates.two_qubit_gate,
        )
        self._initial_layout = routing.initial_layout
        self._final_layout = routing.final_layout
        self._num_swaps = routing.num_swaps_inserted
        self._num_qubits = entangled.num_qubits
        self._name = entangled.name

        if optimization_level >= 1:
            self._program = _compile_merged_program(entangled, markers)
        else:
            self._program = _compile_translate_program(
                entangled,
                markers,
                backend.native_gates.one_qubit_gates
                | backend.native_gates.virtual_gates,
            )
        self._parametric_runs = [
            step for step in self._program if isinstance(step, _ParametricRun)
        ]
        for index, run in enumerate(self._parametric_runs):
            run.index = index
        self._run_groups = _group_parametric_runs(self._parametric_runs)
        self._compute_skeleton_stats()
        self._verify_against_reference()

    def _compute_skeleton_stats(self) -> None:
        """Precompute the angle-independent gate accounting.

        Every bound sample shares the same fixed blocks and emits exactly
        one Rz per native-Rz step, so the skeleton histogram, length, and
        2q count are template facts — the bound IR answers structural
        queries (``count_ops``, ``num_gates``) from these plus a per-run
        array scan, no instruction list required.
        """
        counts: dict[str, int] = {}
        length = 0
        two_qubit = 0
        for step in self._program:
            if isinstance(step, _FixedBlock):
                for instr in step.instructions:
                    counts[instr.name] = counts.get(instr.name, 0) + 1
                    if instr.gate.num_qubits == 2:
                        two_qubit += 1
                length += len(step.instructions)
            elif isinstance(step, _ParametricRz):
                counts["rz"] = counts.get("rz", 0) + 1
                length += 1
        self._skeleton_counts = counts
        self._skeleton_length = length
        self._skeleton_two_qubit = two_qubit

    @property
    def num_physical_qubits(self) -> int:
        """Width of the routed circuits this template binds."""
        return self._num_qubits

    @property
    def fingerprint(self) -> bytes:
        """16-byte structural identity digest of this template.

        Hashes everything that determines the compiled bind program —
        the ansatz's structural signature (the same key
        :class:`TemplateCache` memoizes on), the backend's structure
        (name, width, coupling edges, native gate vocabulary), the
        optimization level, and the parameter count.  Two templates with
        equal fingerprints bind any theta row to float-bit identical
        circuits, which is what lets the wire format
        (:mod:`repro.io.wire`) ship only ``fingerprint + thetas`` and
        rebind on the receiving side.
        """
        cached = self._fingerprint
        if cached is None:
            backend = self.backend
            native = backend.native_gates
            parts = (
                TemplateCache._ansatz_key(self.ansatz),
                backend.name,
                backend.num_qubits,
                tuple(sorted(backend.coupling_map.edges)),
                tuple(sorted(native.one_qubit_gates)),
                native.two_qubit_gate,
                tuple(sorted(native.virtual_gates)),
                self.optimization_level,
                self.ansatz.num_parameters,
            )
            digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
            cached = self._fingerprint = digest[:16]
        return cached

    @property
    def has_trivial_layout(self) -> bool:
        """Whether bound circuits act on logical qubits in place.

        True iff routing inserted no SWAPs and both layouts are the
        identity on every logical qubit — then a bound circuit's qubit
        ``q`` *is* the ansatz's logical qubit ``q``, so state-vector
        inputs prepared in the logical order (e.g. embedded states fed
        to :meth:`repro.transpile.bound.BoundCircuitBatch.
        evolve_states_row`) need no re-indexing.  Nearest-neighbor
        ansaetze on linear-chain backends (the EnQode and VQC families)
        always satisfy this; consumers that rely on it should check
        rather than assume.
        """
        if self._num_swaps:
            return False
        num_logical = self.ansatz.num_qubits
        return all(
            self._initial_layout.physical(q) == q
            and self._final_layout.physical(q) == q
            for q in range(num_logical)
        )

    # -- binding -------------------------------------------------------------

    def bind_batch_ir(self, thetas: np.ndarray) -> BoundCircuitBatch:
        """Lower a whole ``(B, P)`` angle matrix into the compact IR.

        One vectorized sweep — a stacked ``(B, P, 2, 2)`` Rz-matrix
        construction, stacked ``(B, 2, 2)`` run compositions, and a
        single batched ZYZ resynthesis across all runs — whose result
        **stays in array form**: per run, a row-sliced
        :class:`repro.transpile.euler.PackedSynthesis` (three wrapped
        angles + a kind byte per row).  No ``Gate``/``Instruction``
        objects are constructed.  Materializing any row of the returned
        :class:`repro.transpile.bound.BoundCircuitBatch` yields an
        instruction stream float-bit identical to the full transpile of
        that row's bound ansatz (every floating-point kernel in the sweep
        reproduces the scalar pipeline exactly — see
        :func:`repro.transpile.euler.synthesize_1q_packed_batch`).
        :attr:`num_binds` advances by ``B``.
        """
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        if thetas.ndim != 2 or thetas.shape[1] != self.ansatz.num_parameters:
            raise TranspilerError(
                f"thetas must be (B, {self.ansatz.num_parameters}), "
                f"got {thetas.shape}"
            )
        batch = thetas.shape[0]
        packed: list = []
        if batch and self._parametric_runs:
            rz_stack = _batched_rz_matrices(thetas)
            # One ZYZ sweep over every (run, row) pair: each signature
            # group composes all its runs as one stacked (G, B, 2, 2)
            # matmul chain, and a single batched synthesis call
            # amortizes the vectorization overhead across all runs
            # instead of paying it once per run.  The concatenated
            # sweep is group-major, so per-run slices are recovered by
            # walking the groups in the same order.
            sweep = synthesize_1q_packed_batch(
                np.concatenate(
                    [
                        group.compose_batch(rz_stack).reshape(-1, 2, 2)
                        for group in self._run_groups
                    ]
                ),
                drop_identity=True,
                identity_atol=_IDENTITY_ATOL,
                identity_rtol=_ALLCLOSE_RTOL,
            )
            packed = [None] * len(self._parametric_runs)
            offset = 0
            for group in self._run_groups:
                for run in group.runs:
                    packed[run.index] = sweep.sliced(offset, offset + batch)
                    offset += batch
        self.num_binds += batch
        return BoundCircuitBatch(self, thetas, packed)

    def bind_batch(self, thetas: np.ndarray) -> list[TranspileResult]:
        """Instantiate the template for a whole ``(B, P)`` angle matrix.

        Delegates the numeric lowering to :meth:`bind_batch_ir` and
        wraps each row as a :class:`TranspileResult` whose ``circuit``
        is a **lazy** :class:`repro.transpile.bound.BoundCircuit` view:
        structural queries and statevector simulation answer straight
        from the packed arrays, and the instruction list materializes on
        first access — at which point it is
        **instruction-for-instruction identical** to
        ``transpile(ansatz.circuit(t), backend, optimization_level)``
        for each row ``t`` (bit-identical angles included).  This is the
        lowering behind ``encode``, ``encode_batch`` and the serving
        layer's micro-batch flushes.
        """
        bound = self.bind_batch_ir(thetas)
        return [
            self._wrap_result(bound.circuit(row))
            for row in range(bound.batch_size)
        ]

    # -- internals -----------------------------------------------------------

    def _wrap_result(self, circuit: QuantumCircuit) -> TranspileResult:
        return TranspileResult(
            circuit=circuit,
            initial_layout=self._initial_layout.copy(),
            final_layout=self._final_layout.copy(),
            backend=self.backend,
            num_swaps_inserted=self._num_swaps,
        )

    def _verify_against_reference(self) -> None:
        """Assert bind == full transpile on a reference angle assignment.

        Materializes a one-row :meth:`bind_batch` and compares it with
        :func:`repro.transpile.transpiler.transpile` instruction for
        instruction.  Any drift between the bind program and the real
        pipeline (e.g. a future pass reordering) is caught here, at
        template construction, rather than silently corrupting every
        bound circuit.
        """
        num_params = self.ansatz.num_parameters
        theta_ref = np.linspace(0.3, 2.45, num_params)
        reference = transpile(
            self.ansatz.circuit(theta_ref),
            self.backend,
            optimization_level=self.optimization_level,
        )
        bound = self.bind_batch(theta_ref[None, :])[0]
        self.num_binds = 0
        if list(bound.circuit) != list(reference.circuit):
            raise TranspilerError(
                "parametric template deviates from the transpile pipeline "
                f"for {self.ansatz!r} on {self.backend.name!r}"
            )
        if bound.num_swaps_inserted != reference.num_swaps_inserted:
            raise TranspilerError("template SWAP accounting deviates")

    def __repr__(self) -> str:
        runs = sum(1 for s in self._program if not isinstance(s, _FixedBlock))
        return (
            f"ParametricTemplate({self.ansatz!r}, {self.backend.name!r}, "
            f"level={self.optimization_level}, parametric_steps={runs})"
        )


def _compile_merged_program(circuit: QuantumCircuit, markers: dict[int, int]):
    """Bind program replaying ``merge_1q_runs`` + ``resynthesize_1q``.

    Walks the routed native-entangler circuit exactly as the merge pass
    does, but keeps parameter slots symbolic.  Fixed gates inside a
    parametric run stay as *individual* matrices (see
    :class:`_ParametricRun` for why folding them would break
    bit-exactness); fully fixed runs are folded and synthesized once,
    here, into the shared :class:`_FixedBlock` stream.
    """
    program: list = []
    pending: dict[int, list] = {}

    def fixed_block() -> _FixedBlock:
        if not (program and isinstance(program[-1], _FixedBlock)):
            program.append(_FixedBlock())
        return program[-1]

    def flush(qubit: int) -> None:
        elements = pending.pop(qubit, None)
        if elements is None:
            return
        if any(not isinstance(e, np.ndarray) for e in elements):
            program.append(_ParametricRun(qubit, elements))
            return
        matrix = elements[0]
        for extra in elements[1:]:
            matrix = extra @ matrix
        if _is_identity_up_to_phase(matrix):
            return
        block = fixed_block()
        for name, params in synthesize_1q(matrix):
            block.instructions.append(Instruction(gate(name, *params), (qubit,)))

    for instr in circuit:
        if instr.gate.num_qubits == 1:
            qubit = instr.qubits[0]
            param = markers.get(id(instr.gate))
            run = pending.setdefault(qubit, [])
            run.append(instr.gate.matrix if param is None else param)
        else:
            for qubit in instr.qubits:
                flush(qubit)
            fixed_block().instructions.append(instr)
    for qubit in sorted(pending):
        flush(qubit)
    return program


def _compile_translate_program(
    circuit: QuantumCircuit,
    markers: dict[int, int],
    native_names: frozenset[str],
):
    """Bind program replaying ``translate_1q`` (optimization level 0)."""
    program: list = []

    def fixed_block() -> _FixedBlock:
        if not (program and isinstance(program[-1], _FixedBlock)):
            program.append(_FixedBlock())
        return program[-1]

    for instr in circuit:
        param = (
            markers.get(id(instr.gate)) if instr.gate.num_qubits == 1 else None
        )
        if param is not None:
            if "rz" in native_names:
                program.append(_ParametricRz(instr.qubits[0], param))
            else:
                program.append(_ParametricRun(instr.qubits[0], [param]))
            continue
        if instr.gate.num_qubits != 1 or instr.name in native_names:
            fixed_block().instructions.append(instr)
            continue
        block = fixed_block()
        for name, params in synthesize_1q(instr.gate.matrix):
            block.instructions.append(Instruction(gate(name, *params), instr.qubits))
    return program


class TemplateCache:
    """Process-wide memo of :class:`ParametricTemplate` instances.

    Keyed by backend **identity** (weakly, so dropping a backend frees its
    templates) and the ansatz's structural signature — two ansatz objects
    with the same geometry share one template.  ``hits``/``misses``
    counters make cache behaviour testable: a batch encode must build its
    template at most once.

    The cache is thread-safe: concurrent :class:`repro.service`
    worker-pool flushes race to the same key, and the lock guarantees
    exactly one structural transpile per key (the losers of the race
    block on the build and then share it) with exact hit/miss counters.
    """

    def __init__(self) -> None:
        self._per_backend: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _ansatz_key(ansatz) -> tuple:
        return (
            type(ansatz).__name__,
            ansatz.num_qubits,
            ansatz.num_layers,
            ansatz.entangler,
            ansatz.alternate_orientation,
        )

    def get(self, ansatz, backend, optimization_level: int = 1) -> ParametricTemplate:
        return self.get_reported(ansatz, backend, optimization_level)[0]

    def get_reported(
        self, ansatz, backend, optimization_level: int = 1
    ) -> "tuple[ParametricTemplate, bool]":
        """The cached template plus whether this call was a cache hit.

        The flag lets concurrent callers attribute the hit/miss to their
        own flush without diffing the shared counters (which races when
        several flushes are in flight).
        """
        with self._lock:
            templates = self._per_backend.setdefault(backend, {})
            key = (self._ansatz_key(ansatz), optimization_level)
            template = templates.get(key)
            if template is None:
                self.misses += 1
                template = ParametricTemplate(
                    ansatz, backend, optimization_level
                )
                templates[key] = template
                return template, False
            self.hits += 1
            return template, True

    def clear(self) -> None:
        with self._lock:
            self._per_backend = weakref.WeakKeyDictionary()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return sum(len(v) for v in self._per_backend.values())


#: The cache :func:`transpile_template` serves from.
GLOBAL_TEMPLATE_CACHE = TemplateCache()


def transpile_template(
    ansatz, backend, optimization_level: int = 1
) -> ParametricTemplate:
    """Cached parametric template for ``(ansatz, backend, optimization_level)``.

    The first call per key runs the structural transpile stages once;
    later calls are dictionary lookups.  The online pipeline
    (:class:`repro.core.pipeline.LowerStage`) lowers every encode
    through this cache.
    """
    return GLOBAL_TEMPLATE_CACHE.get(ansatz, backend, optimization_level)

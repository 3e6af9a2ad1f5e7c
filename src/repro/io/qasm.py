"""OpenQASM 2/3 text interop for :class:`~repro.quantum.circuit.QuantumCircuit`.

The writer (:func:`to_qasm`) emits standard-conformant OpenQASM — version
2 against the qiskit-extended ``qelib1.inc`` vocabulary, version 3
against ``stdgates.inc`` — and spells every float parameter with
:func:`format_float`, whose ``repr``-roundtrip formatting guarantees the
reader recovers bit-identical values (branch-cut angles like
``pi - 1e-9`` included).  Gates outside the standard vocabulary — the
qiskit sets have no spelling for :func:`~repro.quantum.gates.
unitary_gate` wrappers or generic ``*_dg`` inverses — raise
:class:`~repro.errors.SerializationError` instead of emitting text no
consumer can parse.  The few registry gates beyond the include files
(``iswap``/``ecr`` in QASM 2; ``sxdg``/``iswap``/``ecr``/``rzz`` in
QASM 3) get explicit ``gate`` definitions, each verified numerically
against the registry matrix in ``tests/test_io_qasm.py``.

The reader (:func:`from_qasm`) is a recursive-descent parser over the
interchange subset both versions share: version header (routed through
:func:`repro.core.serialization.check_schema_version` like every other
versioned artifact), ``include`` lines, quantum/classical register
declarations in both syntaxes, user ``gate`` definitions (expanded
inline unless the name is already in the registry — so our own emitted
definitions round-trip to the native gate, not its decomposition),
whole-register broadcast, ``barrier`` (ignored), constant arithmetic
parameter expressions, and the legacy ``u1``/``u2``/``u3``/``cu1``/
``CX``/``U`` aliases.  Classical control (``measure``/``reset``/``if``
and the QASM 3 programming constructs) is out of scope for a pure
state-preparation stack and is rejected loudly.

Round-trip contract: for any exportable circuit ``c``,
``from_qasm(to_qasm(c, version=v))`` is instruction-identical to ``c``
— same gate names, same qubit tuples, and parameter tuples equal to the
last float bit.
"""

from __future__ import annotations

import math
import pathlib
import re

from repro.core.serialization import check_schema_version
from repro.errors import SerializationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import gate as make_gate

#: The exportable gate vocabulary: name -> (arity, num_params), exactly
#: the :data:`repro.quantum.gates.STANDARD_GATES` registry.  Anything
#: else has no OpenQASM-standard spelling and is rejected at export
#: (``tests/test_io_qasm.py`` asserts this table covers the registry).
GATE_SIGNATURES: "dict[str, tuple[int, int]]" = {
    "id": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "sx": (1, 0),
    "sxdg": (1, 0),
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "p": (1, 1),
    "u": (1, 3),
    "cx": (2, 0),
    "cy": (2, 0),
    "cz": (2, 0),
    "ch": (2, 0),
    "cp": (2, 1),
    "crz": (2, 1),
    "cry": (2, 1),
    "swap": (2, 0),
    "iswap": (2, 0),
    "ecr": (2, 0),
    "rzz": (2, 1),
}

#: Legacy / prelude spellings accepted on import (QASM 2 ``qelib1``
#: primitives and QASM 3 ``stdgates`` aliases).  ``u2`` is special-cased
#: in :meth:`_QasmReader._emit` (it *adds* a parameter).
_IMPORT_ALIASES = {
    "CX": "cx",
    "U": "u",
    "u1": "p",
    "u3": "u",
    "phase": "p",
    "cphase": "cp",
    "cu1": "cp",
    "iden": "id",
}

# Registry gates beyond each version's include file, as standard ``gate``
# definitions.  Bodies are numerically verified against the registry
# matrices (ecr and rzz are exact including global phase; the rest agree
# up to a global phase, which QASM gate semantics cannot express anyway).
_QASM2_DEFS = {
    "iswap": "gate iswap a, b { s a; s b; h a; cx a, b; cx b, a; h b; }",
    "ecr": "gate ecr a, b { h a; cx a, b; rz(pi/2) b; cx a, b; h a; x b; }",
}
_QASM3_DEFS = {
    "sxdg": "gate sxdg a { s a; h a; s a; }",
    "iswap": _QASM2_DEFS["iswap"],
    "ecr": _QASM2_DEFS["ecr"],
    "rzz": "gate rzz(theta) a, b { cx a, b; rz(theta) b; cx a, b; }",
}

#: Statement keywords the reader recognises but deliberately rejects: a
#: state-preparation circuit has no classical wires to hold the results.
_UNSUPPORTED = frozenset(
    {
        "measure", "reset", "if", "opaque", "gphase", "delay", "box",
        "for", "while", "def", "defcal", "defcalgrammar", "cal",
        "input", "output", "const", "let", "ctrl", "inv", "pow",
        "extern", "return", "switch",
    }
)

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}


def format_float(value: float) -> str:
    """``repr``-roundtrip-exact QASM real literal (always carries a dot).

    ``repr`` emits the shortest decimal string that parses back to the
    same float, so ``float(format_float(x)) == x`` to the last bit; QASM
    grammars want real literals visually distinct from integers, so a
    ``.0`` is inserted when ``repr`` omits the point (``1e-09`` →
    ``1.0e-09``).
    """
    value = float(value)
    if not math.isfinite(value):
        raise SerializationError(
            f"cannot export non-finite gate parameter {value!r} to OpenQASM"
        )
    text = repr(value)
    if "e" in text:
        mantissa, _, exponent = text.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exponent}"
    if "." not in text:
        text += ".0"
    return text


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

def to_qasm(circuit: QuantumCircuit, version: int = 2) -> str:
    """Serialize ``circuit`` as OpenQASM ``version`` (2 or 3) text."""
    if version not in (2, 3):
        raise SerializationError(
            f"OpenQASM version must be 2 or 3, got {version!r}"
        )
    body: list[str] = []
    used: set[str] = set()
    for instr in circuit:
        name = instr.name
        signature = GATE_SIGNATURES.get(name)
        if signature is None:
            raise SerializationError(
                f"gate {name!r} has no OpenQASM-standard spelling and "
                "cannot be exported (matrix-defined unitary_gate wrappers "
                "and generic *_dg inverses are simulation-only); "
                f"exportable gates: {sorted(GATE_SIGNATURES)}"
            )
        params = instr.gate.params
        if len(instr.qubits) != signature[0] or len(params) != signature[1]:
            raise SerializationError(
                f"gate {name!r} applied with {len(instr.qubits)} qubits / "
                f"{len(params)} params; OpenQASM {name} takes "
                f"{signature[0]} qubits / {signature[1]} params"
            )
        used.add(name)
        head = name
        if params:
            head += f"({', '.join(format_float(p) for p in params)})"
        operands = ", ".join(f"q[{q}]" for q in instr.qubits)
        body.append(f"{head} {operands};")
    if version == 2:
        lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
        defs = _QASM2_DEFS
        register = f"qreg q[{circuit.num_qubits}];"
    else:
        lines = ['OPENQASM 3.0;', 'include "stdgates.inc";']
        defs = _QASM3_DEFS
        register = f"qubit[{circuit.num_qubits}] q;"
    lines.extend(text for name, text in defs.items() if name in used)
    lines.append(register)
    lines.extend(body)
    return "\n".join(lines) + "\n"


def save_qasm(
    circuit: QuantumCircuit, path: "str | pathlib.Path", version: int = 2
) -> None:
    """Write :func:`to_qasm` output to ``path``."""
    pathlib.Path(path).write_text(to_qasm(circuit, version=version))


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
    | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<op>\*\*|->|==|[;,(){}\[\]+\-*/^=<>!@])
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> "list[tuple[str, str]]":
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SerializationError(
                f"QASM source has an unexpected character {text[pos]!r} "
                f"at offset {pos}"
            )
        pos = match.end()
        if match.lastgroup != "skip":
            tokens.append((match.lastgroup, match.group()))
    return tokens


class _QasmReader:
    """Recursive-descent parser over a token list (see module docstring).

    One instance parses one source: registers accumulate into a flat
    qubit index space (declaration order), gate applications into an
    ``(gate, qubits)`` op list, and user ``gate`` definitions into a
    name -> (params, qargs, body-tokens) table expanded lazily at each
    application (the token cursor temporarily jumps into the stored
    body, so nested definitions recurse naturally).
    """

    def __init__(self, text: str) -> None:
        self._tokens = _tokenize(text)
        self._pos = 0
        self._registers: "dict[str, tuple[int, int]]" = {}
        self._num_qubits = 0
        self._defs: "dict[str, tuple[list, list, list]]" = {}
        self._ops: list = []

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> "tuple[str | None, str | None]":
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return (None, None)

    def _advance(self) -> "tuple[str, str]":
        if self._pos >= len(self._tokens):
            raise SerializationError("QASM source ended unexpectedly")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: "str | None" = None) -> str:
        got_kind, got_text = self._advance()
        if got_kind != kind or (text is not None and got_text != text):
            wanted = text if text is not None else kind
            raise SerializationError(
                f"QASM parse error: expected {wanted!r}, got {got_text!r}"
            )
        return got_text

    def _accept(self, kind: str, text: str) -> bool:
        got_kind, got_text = self._peek()
        if got_kind == kind and got_text == text:
            self._pos += 1
            return True
        return False

    def _expect_int(self) -> int:
        kind, text = self._advance()
        if kind != "number" or not text.isdigit():
            raise SerializationError(
                f"QASM parse error: expected an integer, got {text!r}"
            )
        return int(text)

    def _skip_statement(self) -> None:
        while self._advance() != ("op", ";"):
            pass

    # -- grammar -------------------------------------------------------------

    def parse(self) -> QuantumCircuit:
        self._header()
        while self._pos < len(self._tokens):
            self._statement()
        if self._num_qubits == 0:
            raise SerializationError("QASM source declares no qubits")
        circuit = QuantumCircuit(self._num_qubits)
        for gate_obj, qubits in self._ops:
            circuit.append(gate_obj, qubits)
        return circuit

    def _header(self) -> None:
        kind, text = self._peek()
        if kind != "name" or text != "OPENQASM":
            check_schema_version(
                None,
                ("2.0", "3.0"),
                "QASM source",
                field="OPENQASM",
                remedy="export it with a standard version header",
            )
        self._advance()
        kind, version = self._advance()
        if kind != "number":
            raise SerializationError(
                f"QASM parse error: expected a version number after "
                f"OPENQASM, got {version!r}"
            )
        check_schema_version(
            version,
            ("2.0", "3", "3.0", "3.1"),
            "QASM source",
            field="OPENQASM",
            remedy="export it as OpenQASM 2.0 or 3.0",
        )
        self._expect("op", ";")

    def _statement(self) -> None:
        kind, text = self._peek()
        if kind != "name":
            raise SerializationError(
                f"QASM parse error: unexpected token {text!r} at "
                "statement start"
            )
        if text == "include":
            self._advance()
            self._expect("string")
            self._expect("op", ";")
        elif text == "qreg":
            self._advance()
            name = self._expect("name")
            self._expect("op", "[")
            size = self._expect_int()
            self._expect("op", "]")
            self._expect("op", ";")
            self._declare(name, size)
        elif text == "qubit":
            self._advance()
            size = 1
            if self._accept("op", "["):
                size = self._expect_int()
                self._expect("op", "]")
            name = self._expect("name")
            self._expect("op", ";")
            self._declare(name, size)
        elif text in ("creg", "bit"):
            # Classical registers parse but carry nothing: there are no
            # measurements to store.
            self._skip_statement()
        elif text == "gate":
            self._gate_definition()
        elif text == "barrier":
            self._skip_statement()
        elif text in _UNSUPPORTED:
            raise SerializationError(
                f"unsupported QASM statement {text!r}: the reader covers "
                "pure unitary circuits (no classical control or "
                "measurement)"
            )
        else:
            self._application()

    def _declare(self, name: str, size: int) -> None:
        if name in self._registers:
            raise SerializationError(
                f"QASM register {name!r} declared twice"
            )
        if size < 1:
            raise SerializationError(
                f"QASM register {name!r} has illegal size {size}"
            )
        self._registers[name] = (self._num_qubits, size)
        self._num_qubits += size

    def _gate_definition(self) -> None:
        self._expect("name", "gate")
        name = self._expect("name")
        params: list = []
        if self._accept("op", "("):
            while not self._accept("op", ")"):
                params.append(self._expect("name"))
                if not self._accept("op", ","):
                    self._expect("op", ")")
                    break
        qargs = [self._expect("name")]
        while self._accept("op", ","):
            qargs.append(self._expect("name"))
        self._expect("op", "{")
        body: list = []
        while True:
            token = self._advance()
            if token == ("op", "}"):
                break
            if token == ("op", "{"):
                raise SerializationError(
                    f"QASM gate {name!r} body contains a nested block"
                )
            body.append(token)
        self._defs[name] = (params, qargs, body)

    # -- applications --------------------------------------------------------

    def _application(
        self,
        env: "dict[str, float] | None" = None,
        qubit_env: "dict[str, int] | None" = None,
    ) -> None:
        name = self._expect("name")
        params: list[float] = []
        if self._accept("op", "("):
            if not self._accept("op", ")"):
                params.append(self._parameter(env))
                while self._accept("op", ","):
                    params.append(self._parameter(env))
                self._expect("op", ")")
        operands = [self._operand(qubit_env)]
        while self._accept("op", ","):
            operands.append(self._operand(qubit_env))
        self._expect("op", ";")
        for qubits in self._broadcast(name, operands):
            self._emit(name, params, qubits)

    def _operand(self, qubit_env: "dict[str, int] | None"):
        name = self._expect("name")
        if qubit_env is not None:
            # Inside a gate body operands are bare formal qubit names.
            try:
                return ("bit", qubit_env[name])
            except KeyError:
                raise SerializationError(
                    f"QASM gate body references unknown qubit {name!r}"
                ) from None
        index = None
        if self._accept("op", "["):
            index = self._expect_int()
            self._expect("op", "]")
        try:
            offset, size = self._registers[name]
        except KeyError:
            raise SerializationError(
                f"QASM source references undeclared register {name!r}"
            ) from None
        if index is None:
            return ("reg", offset, size)
        if index >= size:
            raise SerializationError(
                f"QASM index {name}[{index}] out of range (size {size})"
            )
        return ("bit", offset + index)

    def _broadcast(self, name, operands) -> "list[list[int]]":
        """Expand whole-register operands to per-qubit applications."""
        lengths = {op[2] for op in operands if op[0] == "reg"}
        if not lengths:
            return [[op[1] for op in operands]]
        if len(lengths) > 1:
            raise SerializationError(
                f"QASM broadcast of {name!r} mixes register lengths "
                f"{sorted(lengths)}"
            )
        length = lengths.pop()
        return [
            [op[1] + i if op[0] == "reg" else op[1] for op in operands]
            for i in range(length)
        ]

    def _emit(self, name: str, params: list, qubits: list) -> None:
        if name == "u2":
            if len(params) != 2:
                raise SerializationError(
                    f"legacy gate u2 takes 2 params, got {len(params)}"
                )
            name, params = "u", [math.pi / 2.0, params[0], params[1]]
        else:
            name = _IMPORT_ALIASES.get(name, name)
        signature = GATE_SIGNATURES.get(name)
        if signature is not None:
            arity, num_params = signature
            if len(qubits) != arity or len(params) != num_params:
                raise SerializationError(
                    f"QASM gate {name!r} takes {arity} qubits / "
                    f"{num_params} params, got {len(qubits)} / {len(params)}"
                )
            if len(set(qubits)) != len(qubits):
                raise SerializationError(
                    f"QASM gate {name!r} applied to duplicate qubits "
                    f"{tuple(qubits)}"
                )
            self._ops.append((make_gate(name, *params), tuple(qubits)))
            return
        definition = self._defs.get(name)
        if definition is None:
            raise SerializationError(
                f"QASM source applies unknown gate {name!r} (neither a "
                "standard gate nor defined in this file)"
            )
        param_names, qarg_names, body = definition
        if len(params) != len(param_names) or len(qubits) != len(qarg_names):
            raise SerializationError(
                f"QASM gate {name!r} takes {len(qarg_names)} qubits / "
                f"{len(param_names)} params, got {len(qubits)} / "
                f"{len(params)}"
            )
        self._expand(body, dict(zip(param_names, params)),
                     dict(zip(qarg_names, qubits)))

    def _expand(self, body, env, qubit_env) -> None:
        """Inline a user gate definition by re-entering the parser on its
        stored body tokens (recursion handles definitions that call
        other definitions)."""
        saved = (self._tokens, self._pos)
        self._tokens, self._pos = body, 0
        try:
            while self._pos < len(self._tokens):
                kind, text = self._peek()
                if kind == "name" and text == "barrier":
                    self._skip_statement()
                else:
                    self._application(env, qubit_env)
        finally:
            self._tokens, self._pos = saved

    # -- constant expressions ------------------------------------------------

    def _parameter(self, env) -> float:
        """One gate parameter: a constant expression that must evaluate
        to a finite angle.  Overflow, division by zero and math-domain
        errors (``1/0``, ``exp(1000)``, ``ln(0)``) and non-finite results
        (``1e999``, ``1e999-1e999``) are malformed input, not angles."""
        try:
            value = self._expression(env)
        except (ArithmeticError, ValueError) as exc:
            raise SerializationError(
                f"QASM gate parameter does not evaluate: {exc}"
            ) from None
        if not math.isfinite(value):
            raise SerializationError(
                f"QASM gate parameter evaluates to {value!r}, not a "
                "finite angle"
            )
        return value

    def _expression(self, env) -> float:
        value = self._term(env)
        while True:
            if self._accept("op", "+"):
                value = value + self._term(env)
            elif self._accept("op", "-"):
                value = value - self._term(env)
            else:
                return value

    def _term(self, env) -> float:
        value = self._factor(env)
        while True:
            if self._accept("op", "*"):
                value = value * self._factor(env)
            elif self._accept("op", "/"):
                value = value / self._factor(env)
            else:
                return value

    def _factor(self, env) -> float:
        if self._accept("op", "-"):
            return -self._factor(env)
        if self._accept("op", "+"):
            return self._factor(env)
        return self._power(env)

    def _power(self, env) -> float:
        value = self._atom(env)
        if self._accept("op", "^") or self._accept("op", "**"):
            # math.pow stays real: a negative base to a fractional
            # power raises instead of returning a complex number.
            return math.pow(value, self._factor(env))
        return value

    def _atom(self, env) -> float:
        kind, text = self._advance()
        if kind == "number":
            return float(text)
        if kind == "op" and text == "(":
            value = self._expression(env)
            self._expect("op", ")")
            return value
        if kind == "name":
            if text == "pi":
                return math.pi
            if text == "tau":
                return math.tau
            if text == "euler":
                return math.e
            function = _FUNCTIONS.get(text)
            if function is not None:
                self._expect("op", "(")
                value = self._expression(env)
                self._expect("op", ")")
                return function(value)
            if env is not None and text in env:
                return env[text]
        raise SerializationError(
            f"QASM parse error: unexpected token {text!r} in a parameter "
            "expression"
        )


def from_qasm(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2 or 3 text back into a :class:`QuantumCircuit`."""
    return _QasmReader(text).parse()


def load_qasm(path: "str | pathlib.Path") -> QuantumCircuit:
    """Read a circuit from an OpenQASM text file."""
    return from_qasm(pathlib.Path(path).read_text())

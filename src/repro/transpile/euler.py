"""Optimal single-qubit synthesis into the IBM native basis {Rz, SX, X}.

Any 2x2 unitary factors as ``U = exp(i*phase) Rz(phi) Ry(theta) Rz(lam)``
with ``theta in [0, pi]``.  Because ``Rz`` is virtual (free), the physical
cost is set by ``theta`` alone:

* ``theta ~ 0``      -> pure ``Rz``      (0 physical gates)
* ``theta ~ pi``     -> ``Rz-X-Rz``      (1 physical gate)
* ``theta ~ pi/2``   -> ``Rz-SX-Rz``     (1 physical gate)
* otherwise          -> ``Rz-SX-Rz-SX-Rz`` (2 physical gates, ZXZXZ)

This is the same 0/1/2-SX strategy qiskit's
``Optimize1qGatesDecomposition`` applies, verified here against dense
matrices in the test suite.

:func:`synthesize_1q` handles one matrix;
:func:`synthesize_1q_packed_batch` synthesizes a whole ``(B, 2, 2)``
stack in one sweep into packed arrays, bit-identical per row to the
scalar function (the parametric template's batched bind hot path).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.errors import TranspilerError

TWO_PI = 2.0 * math.pi

#: A synthesized native op: (gate name, params tuple) in circuit order.
NativeOp = tuple[str, tuple[float, ...]]


def _zyz_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """The ``(theta, phi, lam)`` ZYZ Euler angles of a 2x2 unitary.

    Shared by :func:`zyz_decompose` (which additionally recovers the
    global phase) and :func:`synthesize_1q` (which does not need it —
    skipping the reconstruction roughly halves the cost of the template
    bind hot loop).  Works on plain Python complex scalars.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise TranspilerError(f"expected a 2x2 matrix, got shape {u.shape}")
    u00, u01 = complex(u[0, 0]), complex(u[0, 1])
    u10, u11 = complex(u[1, 0]), complex(u[1, 1])
    det = u00 * u11 - u01 * u10
    if abs(abs(det) - 1.0) > 1e-6:
        raise TranspilerError("matrix is not unitary (|det| != 1)")
    # Project into SU(2).
    root = cmath.sqrt(det)
    su00, su10, su11 = u00 / root, u10 / root, u11 / root
    theta = 2.0 * math.atan2(abs(su10), abs(su00))
    if abs(su00) > 1e-9 and abs(su10) > 1e-9:
        phi_plus_lam = 2.0 * cmath.phase(su11)
        phi_minus_lam = 2.0 * cmath.phase(su10)
        phi = 0.5 * (phi_plus_lam + phi_minus_lam)
        lam = 0.5 * (phi_plus_lam - phi_minus_lam)
    elif abs(su10) <= 1e-9:  # theta ~ 0: only phi+lam is defined
        phi = 2.0 * cmath.phase(su11)
        lam = 0.0
    else:  # theta ~ pi: only phi-lam is defined
        phi = 2.0 * cmath.phase(su10)
        lam = 0.0
    return theta, phi, lam


def zyz_decompose(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(theta, phi, lam, phase)`` with
    ``U = exp(i*phase) * Rz(phi) @ Ry(theta) @ Rz(lam)`` and theta in [0, pi].
    """
    u = np.asarray(matrix, dtype=complex)
    theta, phi, lam = _zyz_angles(u)
    # Recover the global phase by comparing one reliable entry.
    rec = _zyz_matrix(theta, phi, lam)
    idx = np.unravel_index(int(np.argmax(np.abs(rec))), rec.shape)
    phase = cmath.phase(u[idx] / rec[idx])
    return theta, phi, lam, phase


def _zyz_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [
                cmath.exp(-0.5j * (phi + lam)) * cos,
                -cmath.exp(-0.5j * (phi - lam)) * sin,
            ],
            [
                cmath.exp(0.5j * (phi - lam)) * sin,
                cmath.exp(0.5j * (phi + lam)) * cos,
            ],
        ]
    )


def _wrap_angle(angle: float) -> float:
    """Map ``angle`` into (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def _is_zero_angle(angle: float, atol: float) -> bool:
    return abs(_wrap_angle(angle)) <= atol


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_wrap_angle`: map each entry into (-pi, pi].

    Same operation sequence (``fmod``, non-positive shift, subtraction)
    as the scalar helper, so each entry is bit-identical to
    ``_wrap_angle`` of the same float — the batched synthesis below
    relies on that to reproduce the scalar branch-cut behaviour exactly.
    """
    wrapped = np.fmod(angles + math.pi, TWO_PI)
    return np.where(wrapped <= 0.0, wrapped + TWO_PI, wrapped) - math.pi


def synthesize_1q(matrix: np.ndarray, atol: float = 1e-9) -> list[NativeOp]:
    """Minimal {rz, sx, x} sequence (circuit order) implementing ``matrix``
    up to global phase."""
    theta, phi, lam = _zyz_angles(matrix)
    ops: list[NativeOp] = []

    def rz(angle: float) -> None:
        wrapped = _wrap_angle(angle)
        if abs(wrapped) > atol:
            ops.append(("rz", (wrapped,)))

    if _is_zero_angle(theta, atol):
        rz(phi + lam)
    elif _is_zero_angle(theta - math.pi, atol):
        # Ry(pi) == X @ Z exactly, so U = Rz(phi) X Z Rz(lam).
        rz(lam + math.pi)
        ops.append(("x", ()))
        rz(phi)
    elif _is_zero_angle(theta - math.pi / 2.0, atol):
        # Ry(pi/2) == phase * Rz(pi/2) SX Rz(-pi/2).
        rz(lam - math.pi / 2.0)
        ops.append(("sx", ()))
        rz(phi + math.pi / 2.0)
    else:
        # ZXZXZ: U = phase * Rz(phi+pi) SX Rz(theta+pi) SX Rz(lam).
        rz(lam)
        ops.append(("sx", ()))
        rz(theta + math.pi)
        ops.append(("sx", ()))
        rz(phi + math.pi)
    return ops


#: Row kinds in a :class:`PackedSynthesis`.
PACKED_GENERIC = 0  # generic ZXZXZ row: angles carry (w_lam, w_mid, w_phi)
PACKED_DROPPED = 1  # identity up to phase: the row emits nothing
PACKED_SPECIAL = 2  # 0/1-SX special case: ops live in ``specials``


class PackedSynthesis:
    """Array-backed result of a batched ZYZ synthesis — the compact IR.

    For ``B`` synthesized unitaries this stores

    * ``angles`` — ``(B, 3)`` float64, the generic ZXZXZ pattern per row
      read as ``rz(angles[0]) sx rz(angles[1]) sx rz(angles[2])``, with
      ``NaN`` marking an Rz whose wrapped angle fell below ``atol``
      (``NaN`` cannot be a legitimate wrapped angle);
    * ``kinds`` — ``(B,)`` uint8 of ``PACKED_GENERIC`` /
      ``PACKED_DROPPED`` / ``PACKED_SPECIAL`` row discriminators;
    * ``specials`` — ``{row: list[NativeOp]}`` for the (masked minority
      of) rows synthesized by the scalar 0/1-SX fallback.

    This is the per-sample payload of the bound-circuit IR: three
    doubles and one byte per merged run instead of an instruction-object
    graph.
    """

    __slots__ = ("angles", "kinds", "specials")

    def __init__(
        self,
        angles: np.ndarray,
        kinds: np.ndarray,
        specials: "dict[int, list[NativeOp]]",
    ) -> None:
        self.angles = angles
        self.kinds = kinds
        self.specials = specials

    def __len__(self) -> int:
        return self.kinds.shape[0]

    def sliced(self, start: int, stop: int) -> "PackedSynthesis":
        """Row-range view (array slices share memory with the parent)."""
        specials = {
            row - start: ops
            for row, ops in self.specials.items()
            if start <= row < stop
        }
        return PackedSynthesis(
            self.angles[start:stop], self.kinds[start:stop], specials
        )

    def take(self, rows: "list[int]") -> "PackedSynthesis":
        """Arbitrary-row-subset copy (fancy indexing, so arrays are new).

        The wire-format export path (:mod:`repro.io.wire`) uses this to
        ship a scattered subset of a batch — e.g. the rows of the
        responses a service caller actually wants to export.
        """
        index_of = {row: i for i, row in enumerate(rows)}
        specials = {
            index_of[row]: ops
            for row, ops in self.specials.items()
            if row in index_of
        }
        return PackedSynthesis(self.angles[rows], self.kinds[rows], specials)

    def ops_in_row(self, row: int) -> int:
        """Number of native ops the row expands to."""
        kind = self.kinds[row]
        if kind == PACKED_DROPPED:
            return 0
        if kind == PACKED_SPECIAL:
            return len(self.specials[row])
        angles = self.angles[row]
        # NaN != NaN marks the skipped Rz slots; the two SX are fixed.
        return 2 + int(np.count_nonzero(angles == angles))

    def count_row_into(self, row: int, counts: "dict[str, int]") -> None:
        """Accumulate the row's gate-name histogram into ``counts``."""
        kind = self.kinds[row]
        if kind == PACKED_DROPPED:
            return
        if kind == PACKED_SPECIAL:
            for name, _ in self.specials[row]:
                counts[name] = counts.get(name, 0) + 1
            return
        counts["sx"] = counts.get("sx", 0) + 2
        angles = self.angles[row]
        num_rz = int(np.count_nonzero(angles == angles))
        if num_rz:
            counts["rz"] = counts.get("rz", 0) + num_rz


def synthesize_1q_packed_batch(
    matrices: np.ndarray,
    atol: float = 1e-9,
    *,
    drop_identity: bool = False,
    identity_atol: float = 1e-12,
    identity_rtol: float = 1e-5,
) -> PackedSynthesis:
    """Batched :func:`synthesize_1q` over a ``(B, 2, 2)`` unitary stack.

    The result stays in array form — per-row wrapped angles with
    NaN-marked skipped Rz slots plus a ``kinds`` discriminator (see
    :class:`PackedSynthesis`) — which is exactly the payload the
    bound-circuit IR (:class:`repro.transpile.bound.BoundCircuitBatch`)
    keeps per sample: no per-gate Python objects are built here at all.

    Each row expands to the op list :func:`synthesize_1q` returns for
    that slice, **bit for bit**.  Bit-identity would not survive naive
    vectorization — numpy's complex multiply/divide and ``arctan2``
    kernels round differently from CPython's in the last ulp, and near
    the ±pi Euler branch cut one ulp flips an emitted Rz sign — so the
    angle extraction *replicates the scalar operation sequence* with
    exact real-arithmetic kernels instead: the determinant uses
    CPython's complex-product expansion componentwise, its square root
    is CPython's ``cmath.sqrt`` algorithm rebuilt from real
    ``sqrt``/``hypot``/``copysign``, the SU(2) projection is CPython's
    Smith-algorithm complex division with the branch select vectorized,
    and ``|z|`` is ``hypot`` in both worlds.  Only the ``atan2``-class
    calls (theta and the two ``cmath.phase`` values) stay scalar, in
    tight ``math.atan2`` loops.  Downstream of the angles, the
    (-pi, pi] wraps, the 0/1/2-SX case masks and the dominant ZXZXZ
    emission are vectorized with kernels that are bitwise-identical to
    the scalar ones (``fmod``, elementwise add/abs, comparisons).  Rows
    that hit a 0- or 1-SX special case (a masked minority) fall back to
    the scalar :func:`synthesize_1q` wholesale.

    With ``drop_identity``, rows that are the identity up to global
    phase — the same entrywise ``allclose`` replica the template's
    merged-run binding applies (``identity_atol``/``identity_rtol``) —
    become ``PACKED_DROPPED`` rows that expand to nothing, mirroring how
    ``merge_1q_runs`` drops such runs entirely; the thresholds agree
    bit for bit because ``|z|`` is ``hypot`` in both worlds.
    """
    u = np.asarray(matrices, dtype=complex)
    if u.ndim != 3 or u.shape[1:] != (2, 2):
        raise TranspilerError(
            f"expected a (B, 2, 2) matrix stack, got shape {u.shape}"
        )
    num_rows = u.shape[0]
    all_kinds = np.zeros(num_rows, dtype=np.uint8)
    all_angles = np.full((num_rows, 3), np.nan)
    if num_rows == 0:
        return PackedSynthesis(all_angles, all_kinds, {})
    u00, u01 = u[:, 0, 0], u[:, 0, 1]
    u10, u11 = u[:, 1, 0], u[:, 1, 1]
    if drop_identity:
        # merge_1q_runs' identity-up-to-phase replica; |z| is hypot in
        # both CPython's abs() and np.hypot, so the thresholds agree.
        diff = u11 - u00
        dropped = (
            (np.hypot(u01.real, u01.imag) <= identity_atol)
            & (np.hypot(u10.real, u10.imag) <= identity_atol)
            & (
                np.hypot(diff.real, diff.imag)
                <= identity_atol
                + identity_rtol * np.hypot(u00.real, u00.imag)
            )
        )
        if dropped.any():
            all_kinds[dropped] = PACKED_DROPPED
            kept = np.flatnonzero(~dropped)
            if kept.size == 0:
                return PackedSynthesis(all_angles, all_kinds, {})
            u00, u01 = u00[kept], u01[kept]
            u10, u11 = u10[kept], u11[kept]
        else:
            kept = None
    else:
        kept = None
    rows = np.arange(num_rows) if kept is None else kept
    u00r, u00i = np.ascontiguousarray(u00.real), np.ascontiguousarray(u00.imag)
    u01r, u01i = np.ascontiguousarray(u01.real), np.ascontiguousarray(u01.imag)
    u10r, u10i = np.ascontiguousarray(u10.real), np.ascontiguousarray(u10.imag)
    u11r, u11i = np.ascontiguousarray(u11.real), np.ascontiguousarray(u11.imag)
    # det = u00*u11 - u01*u10 with CPython's complex-product expansion
    # (two products then a componentwise subtraction, no fusing).
    det_r = (u00r * u11r - u00i * u11i) - (u01r * u10r - u01i * u10i)
    det_i = (u00r * u11i + u00i * u11r) - (u01r * u10i + u01i * u10r)
    if np.any(np.abs(np.hypot(det_r, det_i) - 1.0) > 1e-6):
        raise TranspilerError("matrix is not unitary (|det| != 1)")
    # root = cmath.sqrt(det): CPython's c_sqrt algorithm vectorized
    # (the subnormal/zero branches are unreachable for |det| ~ 1).
    ax = np.abs(det_r) / 8.0
    ay = np.abs(det_i)
    s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
    d = ay / (2.0 * s)
    nonneg = det_r >= 0.0
    root_r = np.where(nonneg, s, d)
    root_i = np.copysign(np.where(nonneg, d, s), det_i)
    # su = u / root: CPython's _Py_c_quot (Smith's algorithm), the
    # shared-denominator work hoisted across the three quotients.
    cond = np.abs(root_r) >= np.abs(root_i)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cond, root_i / root_r, root_r / root_i)
        denom = np.where(cond, root_r + root_i * ratio, root_r * ratio + root_i)

        def quotient(numer_r: np.ndarray, numer_i: np.ndarray):
            real = np.where(
                cond, numer_r + numer_i * ratio, numer_r * ratio + numer_i
            )
            imag = np.where(
                cond, numer_i - numer_r * ratio, numer_i * ratio - numer_r
            )
            return real / denom, imag / denom

        su00_r, su00_i = quotient(u00r, u00i)
        su10_r, su10_i = quotient(u10r, u10i)
        su11_r, su11_i = quotient(u11r, u11i)
    a00 = np.hypot(su00_r, su00_i)
    a10 = np.hypot(su10_r, su10_i)
    # The only remaining scalar work: numpy's arctan2 kernel rounds
    # differently from libm's atan2 in the last ulp, so the three
    # atan2-class calls per row (theta and the two cmath.phase values,
    # which are atan2(imag, real) for finite entries) run through
    # math.atan2 via map + np.fromiter, the cheapest scalar loop that
    # keeps libm rounding.
    atan2 = math.atan2
    count = a00.shape[0]
    theta = 2.0 * np.fromiter(
        map(atan2, a10.tolist(), a00.tolist()), np.float64, count=count
    )
    phase10 = np.fromiter(
        map(atan2, su10_i.tolist(), su10_r.tolist()), np.float64, count=count
    )
    phase11 = np.fromiter(
        map(atan2, su11_i.tolist(), su11_r.tolist()), np.float64, count=count
    )
    phi_plus_lam = 2.0 * phase11
    phi_minus_lam = 2.0 * phase10
    generic = (a00 > 1e-9) & (a10 > 1e-9)
    phi = np.where(
        generic,
        0.5 * (phi_plus_lam + phi_minus_lam),
        np.where(a10 <= 1e-9, phi_plus_lam, phi_minus_lam),
    )
    lam = np.where(generic, 0.5 * (phi_plus_lam - phi_minus_lam), 0.0)
    # Case masks, replicating the scalar _is_zero_angle cascade.
    special = (
        (np.abs(_wrap_angles(theta)) <= atol)
        | (np.abs(_wrap_angles(theta - math.pi)) <= atol)
        | (np.abs(_wrap_angles(theta - math.pi / 2.0)) <= atol)
    )
    # Vectorized ZXZXZ assembly for the general rows: below-atol Rz
    # slots become NaN markers, scattered into the packed angle array in
    # three C-speed passes instead of per-row Python branches.
    wrapped_lam = _wrap_angles(lam)
    wrapped_mid = _wrap_angles(theta + math.pi)
    wrapped_phi = _wrap_angles(phi + math.pi)
    marked = np.stack(
        (
            np.where(np.abs(wrapped_lam) > atol, wrapped_lam, np.nan),
            np.where(np.abs(wrapped_mid) > atol, wrapped_mid, np.nan),
            np.where(np.abs(wrapped_phi) > atol, wrapped_phi, np.nan),
        ),
        axis=1,
    )
    if kept is None:
        all_angles = marked
    else:
        all_angles[kept] = marked
    specials: "dict[int, list[NativeOp]]" = {}
    if special.any():
        rows_list = rows.tolist()
        for j in np.flatnonzero(special).tolist():
            row = rows_list[j]
            all_kinds[row] = PACKED_SPECIAL
            specials[row] = synthesize_1q(u[row], atol)
    return PackedSynthesis(all_angles, all_kinds, specials)


def physical_1q_cost(matrix: np.ndarray, atol: float = 1e-9) -> int:
    """Number of physical (non-Rz) gates :func:`synthesize_1q` would emit."""
    return sum(1 for name, _ in synthesize_1q(matrix, atol) if name != "rz")

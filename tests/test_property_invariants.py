"""Property-based tests (hypothesis) for core physical invariants,
plus seeded randomized sweeps of the online pipeline-stage equivalences
(``encode`` == ``encode_batch[i]`` == service submit/flush) across
qubit counts, batch sizes, optimization levels, and degenerate inputs
(duplicate rows, near-zero-norm rows, batch size 1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baseline import mottonen_circuit
from repro.core import (
    EnQodeAnsatz,
    EnQodeConfig,
    EnQodeEncoder,
    FidelityObjective,
    build_symbolic,
)
from repro.errors import OptimizationError
from repro.hardware import brisbane_linear_segment
from repro.service import EncodingService
from repro.transpile import transpile
from repro.quantum import (
    DensityMatrix,
    QuantumCircuit,
    amplitude_damping_channel,
    depolarizing_channel,
    phase_damping_channel,
    simulate_statevector,
    state_fidelity,
)

finite_angle = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_angle, min_size=3, max_size=3), st.integers(0, 2))
def test_rotations_preserve_norm(angles, qubit):
    qc = QuantumCircuit(3)
    qc.rx(angles[0], qubit).ry(angles[1], (qubit + 1) % 3).rz(angles[2], qubit)
    qc.cy(qubit, (qubit + 1) % 3)
    psi = simulate_statevector(qc)
    assert abs(np.linalg.norm(psi.data) - 1.0) < 1e-10


@given(
    st.floats(0.0, 1.0),
    st.sampled_from(
        [depolarizing_channel, amplitude_damping_channel, phase_damping_channel]
    ),
    st.integers(0, 2**31 - 1),
)
def test_channels_preserve_trace_and_positivity(p, factory, seed):
    channel = factory(p)
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = DensityMatrix(
        (mat @ mat.conj().T) / np.trace(mat @ mat.conj().T).real,
        validate=False,
    )
    rho.apply_channel(channel, (0,))
    assert abs(rho.trace() - 1.0) < 1e-9
    eigenvalues = np.linalg.eigvalsh(rho.data)
    assert eigenvalues.min() > -1e-9


@given(st.integers(0, 2**31 - 1))
def test_channels_never_increase_purity_under_depolarizing(seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    vec /= np.linalg.norm(vec)
    rho = DensityMatrix.from_statevector(vec)
    before = rho.purity()
    rho.apply_channel(depolarizing_channel(0.3, 1), (1,))
    assert rho.purity() <= before + 1e-10


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
def test_mottonen_exact_for_random_real_vectors(seed, num_qubits):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=2**num_qubits)
    target /= np.linalg.norm(target)
    psi = simulate_statevector(mottonen_circuit(target))
    assert abs(np.vdot(psi.data, target)) ** 2 > 1.0 - 1e-9


@given(st.integers(0, 2**31 - 1))
def test_symbolic_state_flat_and_normalized(seed):
    ansatz = EnQodeAnsatz(4, 3)
    symbolic = build_symbolic(ansatz)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, 12)
    amplitudes = symbolic.amplitudes(theta)
    assert np.allclose(np.abs(amplitudes), 0.25)
    assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-10


@given(st.integers(0, 2**31 - 1))
def test_objective_gradient_property(seed):
    rng = np.random.default_rng(seed)
    ansatz = EnQodeAnsatz(3, 2)
    symbolic = build_symbolic(ansatz)
    target = rng.normal(size=8)
    target /= np.linalg.norm(target)
    objective = FidelityObjective(symbolic, ansatz, target)
    theta = rng.uniform(-np.pi, np.pi, 6)
    loss, grad = objective.value_and_grad(theta)
    assert 0.0 <= loss <= 1.0
    assert np.allclose(grad, objective.numerical_grad(theta), atol=1e-5)


@given(st.integers(0, 2**31 - 1))
def test_fidelity_bounds_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    a /= np.linalg.norm(a)
    mat = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sigma = mat @ mat.conj().T
    sigma /= np.trace(sigma).real
    f = state_fidelity(a, sigma)
    assert 0.0 <= f <= 1.0


# -- online pipeline-stage equivalence sweeps ------------------------------------------
#
# One fitted encoder per (num_qubits, optimization_level) variant,
# trained once per module; hypothesis then sweeps seeds, batch sizes,
# and variants over them.  The invariants mirror the serving-layer
# guarantees: a sync-service submit-then-flush is *instruction-
# identical* to encode_batch on the same rows, template and full
# lowering agree gate for gate, and the one-row path degrades to the
# historical `encode` numerics.

_VARIANTS = [(3, 1), (4, 1), (4, 0)]


@pytest.fixture(scope="module")
def online_encoders():
    built = {}
    for num_qubits, level in _VARIANTS:
        dim = 2**num_qubits
        rng = np.random.default_rng(60 + 7 * num_qubits + level)
        centers = rng.normal(size=(2, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        blocks = [
            center + 0.05 * rng.normal(size=(20, dim)) for center in centers
        ]
        data = np.concatenate(
            [b / np.linalg.norm(b, axis=1, keepdims=True) for b in blocks]
        )
        config = EnQodeConfig(
            num_qubits=num_qubits,
            num_layers=4,
            offline_restarts=2,
            offline_max_iterations=300,
            online_max_iterations=50,
            max_clusters=4,
            optimization_level=level,
            seed=11,
        )
        encoder = EnQodeEncoder(brisbane_linear_segment(num_qubits), config)
        encoder.fit(data)
        built[(num_qubits, level)] = (encoder, data)
    return built


def _draw_rows(data, rng, batch_size):
    return data[rng.integers(len(data), size=batch_size)]


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(_VARIANTS),
    st.integers(2, 6),
)
def test_encode_batch_rows_match_per_sample_encode(
    online_encoders, seed, variant, batch_size
):
    """encode_batch[i] == encode(row_i): same routing, fidelity to 1e-9.

    The batched fine-tune engine and the sequential scipy engine share
    warm starts and tolerances, so they agree to optimizer precision
    (exact bit-identity is only promised within one engine).
    """
    encoder, data = online_encoders[variant]
    rows = _draw_rows(data, np.random.default_rng(seed), batch_size)
    batched = encoder.encode_batch(rows)
    for row, sample in zip(rows, batched):
        one = encoder.encode(row)
        assert sample.cluster_index == one.cluster_index
        assert abs(sample.ideal_fidelity - one.ideal_fidelity) < 1e-9


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(_VARIANTS),
    st.integers(1, 6),
)
def test_service_flush_instruction_identical_to_encode_batch(
    online_encoders, seed, variant, batch_size
):
    """Sync-service submit-then-flush == encode_batch, float bits included."""
    encoder, data = online_encoders[variant]
    rows = _draw_rows(data, np.random.default_rng(seed), batch_size)
    reference = encoder.encode_batch(rows)
    service = EncodingService(max_batch=batch_size)
    service.register("k", encoder)
    tickets = [service.submit(row, key="k") for row in rows]
    for ticket, ref in zip(tickets, reference):
        response = ticket.result()
        assert response.cluster_index == ref.cluster_index
        assert np.array_equal(response.encoded.theta, ref.theta)
        assert response.encoded.ideal_fidelity == ref.ideal_fidelity
        assert list(response.circuit) == list(ref.circuit)


@pytest.mark.timeout(300)
@pytest.mark.parametrize(
    "backend",
    [
        "sync",
        "thread",
        pytest.param("process", marks=pytest.mark.process_backend),
    ],
)
@pytest.mark.parametrize("seed", [7, 1234])
def test_every_backend_agrees_with_encode_batch(
    online_encoders, backend, seed
):
    """Seeded sweep of the cross-backend equivalence: sync, thread, and
    process serving all produce responses float-bit identical to an
    ``encode_batch`` replay of the same per-key flush partition.  Plain
    parametrize, not hypothesis: the process fleet pays a real spawn
    per example."""
    encoder, data = online_encoders[(4, 1)]
    rows = _draw_rows(data, np.random.default_rng(seed), 6)
    service = EncodingService(max_batch=4, backend=backend, workers=2)
    service.register("k", encoder)
    if backend != "sync":
        service.start()
    try:
        tickets = [service.submit(row, key="k") for row in rows]
        responses = [t.result(timeout=120.0) for t in tickets]
    finally:
        if backend != "sync":
            service.stop()
    groups: dict = {}
    for ticket, response in zip(tickets, responses):
        groups.setdefault(response.flush_id, []).append(
            (response, ticket.request.sample)
        )
    for _fid, group in groups.items():
        reference = encoder.encode_batch(
            np.stack([sample for _, sample in group])
        )
        for (response, _), ref in zip(group, reference):
            assert response.cluster_index == ref.cluster_index
            assert np.array_equal(response.encoded.theta, ref.theta)
            assert response.encoded.ideal_fidelity == ref.ideal_fidelity
            assert list(response.circuit) == list(ref.circuit)


@given(st.integers(0, 2**31 - 1), st.sampled_from(_VARIANTS))
def test_duplicate_rows_encode_identically(online_encoders, seed, variant):
    """Degenerate batch: duplicated rows get bit-identical embeddings."""
    encoder, data = online_encoders[variant]
    rng = np.random.default_rng(seed)
    row = data[int(rng.integers(len(data)))]
    rows = np.stack([row, data[int(rng.integers(len(data)))], row])
    first, other, duplicate = encoder.encode_batch(rows)
    assert first.cluster_index == duplicate.cluster_index
    assert np.array_equal(first.theta, duplicate.theta)
    assert first.ideal_fidelity == duplicate.ideal_fidelity
    assert list(first.circuit) == list(duplicate.circuit)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(_VARIANTS),
    st.integers(3, 8),
)
def test_near_zero_norm_rows_are_normalized(
    online_encoders, seed, variant, exponent
):
    """Rows scaled down to ~1e-8 route and embed like their unit versions."""
    encoder, data = online_encoders[variant]
    rows = _draw_rows(data, np.random.default_rng(seed), 3)
    scaled = rows * 10.0**-exponent
    for small, reference in zip(
        encoder.encode_batch(scaled), encoder.encode_batch(rows)
    ):
        assert small.cluster_index == reference.cluster_index
        # Normalizing the scaled row reproduces the unit row only to
        # rounding, so the fine-tune may wander a few ulps differently.
        assert abs(small.ideal_fidelity - reference.ideal_fidelity) < 1e-6


@given(st.integers(0, 2**31 - 1), st.sampled_from(_VARIANTS))
def test_batch_size_one_matches_encode(online_encoders, seed, variant):
    """B == 1 runs the sequential engine: the service equals `encode`."""
    encoder, data = online_encoders[variant]
    rng = np.random.default_rng(seed)
    row = data[int(rng.integers(len(data)))]
    reference = encoder.encode(row)
    service = EncodingService(max_batch=1)
    service.register("k", encoder)
    response = service.submit(row, key="k").result(flush=False)
    assert response.cluster_index == reference.cluster_index
    assert abs(response.fidelity - reference.ideal_fidelity) < 1e-12
    assert list(response.circuit) == list(reference.circuit)


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(_VARIANTS),
    st.integers(2, 5),
)
def test_template_and_full_lowering_agree(
    online_encoders, seed, variant, batch_size
):
    """Template lowering == full per-sample transpile, gate for gate."""
    encoder, data = online_encoders[variant]
    rows = _draw_rows(data, np.random.default_rng(seed), batch_size)
    for sample in encoder.encode_batch(rows):
        full = transpile(
            encoder.ansatz.circuit(sample.theta),
            encoder.backend,
            optimization_level=encoder.config.optimization_level,
        )
        assert list(sample.circuit) == list(full.circuit)


def test_zero_norm_row_rejected(online_encoders):
    """Below the normalization floor the pipeline refuses, batched or not;
    so does every other malformed row, at every online entry point."""
    encoder, data = online_encoders[(4, 1)]
    rows = data[:3].copy()
    rows[1] = 0.0
    with pytest.raises(OptimizationError, match="zero sample row"):
        encoder.encode_batch(rows)
    with pytest.raises(OptimizationError):
        encoder.encode_batch(data[:2] * 1e-13)  # under the 1e-12 floor
    good = data[0]
    hostile = {
        "nan": np.full(16, np.nan),
        "nan entry": np.where(np.arange(16) == 3, np.nan, good),
        "+inf": np.where(np.arange(16) == 0, np.inf, good),
        "-inf": np.where(np.arange(16) == 5, -np.inf, good),
        "norm overflow": np.full(16, 1e200),
        "string": np.array(["x"] * 16),
        "imaginary": good + 1j * good,
        "zero": np.zeros(16),
        "wrong width": np.ones(8),
    }
    pipeline = encoder.pipeline
    entry_points = {
        "encode": encoder.encode,
        "encode_batch B=1": lambda row: encoder.encode_batch(
            np.atleast_2d(row)
        ),
        "encode_batch B=2": lambda row: encoder.encode_batch(
            [good, row] if row.size == good.size else [row, row]
        ),
        "run_reported": lambda row: pipeline.run_reported(row[None, :]),
        "run_degraded_reported": lambda row: pipeline.run_degraded_reported(
            row[None, :]
        ),
        "project": encoder.project,
    }
    for name, row in hostile.items():
        for entry, call in entry_points.items():
            with pytest.raises(OptimizationError):
                call(row)
                pytest.fail(f"{entry} accepted a {name} row")
    # A complex row whose imaginary parts are all zero is just real.
    as_complex = encoder.encode(good.astype(complex))
    assert as_complex.ideal_fidelity == encoder.encode(good).ideal_fidelity

"""Unit tests for EnQode model persistence."""

import json

import numpy as np
import pytest

from repro.core import (
    EnQodeConfig,
    EnQodeEncoder,
    encoder_from_dict,
    encoder_to_dict,
    load_encoder,
    save_encoder,
)
from repro.errors import OptimizationError, SerializationError


@pytest.fixture(scope="module")
def fitted(segment4):
    rng = np.random.default_rng(0)
    center = rng.normal(size=16)
    center /= np.linalg.norm(center)
    samples = center + 0.03 * rng.normal(size=(30, 16))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    encoder = EnQodeEncoder(
        segment4,
        EnQodeConfig(
            num_qubits=4,
            num_layers=4,
            offline_restarts=3,
            offline_max_iterations=400,
            seed=1,
        ),
    )
    encoder.fit(samples)
    return encoder, samples


def test_unfitted_encoder_not_serializable(segment4):
    with pytest.raises(OptimizationError):
        encoder_to_dict(EnQodeEncoder(segment4, EnQodeConfig(num_qubits=4)))


def test_roundtrip_preserves_models(fitted, segment4):
    encoder, _ = fitted
    restored = encoder_from_dict(encoder_to_dict(encoder), segment4)
    assert len(restored.cluster_models) == len(encoder.cluster_models)
    for a, b in zip(restored.cluster_models, encoder.cluster_models):
        assert np.allclose(a.theta, b.theta)
        assert np.allclose(a.center, b.center)
        assert a.fidelity == pytest.approx(b.fidelity)


def test_restored_encoder_encodes_identically(fitted, segment4):
    encoder, samples = fitted
    restored = encoder_from_dict(encoder_to_dict(encoder), segment4)
    original = encoder.encode(samples[3])
    reloaded = restored.encode(samples[3])
    assert np.allclose(original.theta, reloaded.theta)
    assert original.ideal_fidelity == pytest.approx(reloaded.ideal_fidelity)


def test_file_roundtrip(fitted, segment4, tmp_path):
    encoder, samples = fitted
    path = tmp_path / "model.json"
    save_encoder(encoder, path)
    restored = load_encoder(path, segment4)
    assert restored.is_fitted
    assert restored.encode(samples[0]).ideal_fidelity == pytest.approx(
        encoder.encode(samples[0]).ideal_fidelity
    )


def test_json_is_plain_and_versioned(fitted, tmp_path):
    encoder, _ = fitted
    path = tmp_path / "model.json"
    save_encoder(encoder, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    assert "clusters" in payload and "config" in payload


def test_version_mismatch_rejected(fitted, segment4):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    payload["format_version"] = 99
    with pytest.raises(OptimizationError):
        encoder_from_dict(payload, segment4)


def test_schema_version_written_and_enforced(fitted, segment4):
    """Bundles carry schema_version; a mismatch names found/expected."""
    from repro.core.serialization import SCHEMA_VERSION
    from repro.errors import SerializationError

    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    assert payload["schema_version"] == SCHEMA_VERSION
    payload["schema_version"] = 99
    with pytest.raises(SerializationError) as err:
        encoder_from_dict(payload, segment4)
    assert "99" in str(err.value)
    assert str(SCHEMA_VERSION) in str(err.value)


def test_missing_version_rejected(fitted, segment4):
    from repro.errors import SerializationError

    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    del payload["schema_version"]
    del payload["format_version"]
    with pytest.raises(SerializationError, match="schema_version"):
        encoder_from_dict(payload, segment4)


def test_missing_sections_raise_serialization_error(fitted, segment4):
    """A truncated bundle fails with a named section, not a KeyError."""
    from repro.errors import SerializationError

    encoder, _ = fitted
    for key in ("config", "clusters"):
        payload = encoder_to_dict(encoder)
        del payload[key]
        with pytest.raises(SerializationError, match=key):
            encoder_from_dict(payload, segment4)


def test_non_bundle_file_rejected(segment4, tmp_path):
    from repro.errors import SerializationError

    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(SerializationError):
        load_encoder(path, segment4)


def test_serialization_error_is_backward_compatible(fitted, segment4):
    """SerializationError still lands in pre-existing except clauses."""
    from repro.errors import OptimizationError as OptErr
    from repro.errors import ReproError, SerializationError

    assert issubclass(SerializationError, OptErr)
    assert issubclass(SerializationError, ReproError)


def test_dimension_mismatch_rejected(fitted, segment4):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    payload["clusters"][0]["center"] = [1.0, 0.0]
    with pytest.raises(OptimizationError):
        encoder_from_dict(payload, segment4)


def test_empty_clusters_rejected(fitted, segment4):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    payload["clusters"] = []
    with pytest.raises(OptimizationError):
        encoder_from_dict(payload, segment4)


#: Malformed ``config`` sections: each must fail the load with a
#: SerializationError (never a TypeError or a bare OptimizationError).
MALFORMED_CONFIGS = {
    "unknown-field": lambda config: {**config, "bogus_knob": 1},
    "string-for-int": lambda config: {**config, "num_qubits": "four"},
    "float-for-int": lambda config: {**config, "num_qubits": 4.5},
    "bool-for-int": lambda config: {**config, "num_layers": True},
    "string-for-bool": lambda config: {
        **config,
        "alternate_orientation": "no",
    },
    "out-of-range": lambda config: {**config, "num_layers": 0},
    "list": lambda config: list(config.items()),
    "null": lambda config: None,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_raises_serialization_error(fitted, segment4, case):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    payload["config"] = MALFORMED_CONFIGS[case](payload["config"])
    with pytest.raises(SerializationError):
        encoder_from_dict(payload, segment4)


def _set(key: str, value, index=None):
    """Corrupt cluster 0's ``key`` (or its entry ``index``) to ``value``."""

    def corrupt(cluster: dict) -> None:
        if index is None:
            cluster[key] = value
        else:
            cluster[key][index] = value

    return corrupt


#: Malformed stored numbers in a cluster entry: each must fail the load
#: with a SerializationError (never load, and never leak a ValueError).
MALFORMED_CLUSTERS = {
    "center-nan": _set("center", float("nan"), 3),
    "center-inf": _set("center", float("inf"), 3),
    "center-zero": _set("center", [0.0] * 16),
    "center-huge": _set("center", [1e308] * 16),
    "center-string": _set("center", "unit"),
    "center-string-entry": _set("center", "0.5", 3),
    "center-nested": _set("center", [[0.25] * 4] * 4),
    "theta-nan": _set("theta", float("nan"), 0),
    "theta-inf": _set("theta", float("-inf"), 0),
    "theta-string": _set("theta", "zeros"),
    "fidelity-string": _set("fidelity", "high"),
    "fidelity-nan": _set("fidelity", float("nan")),
    "fidelity-bool": _set("fidelity", True),
    "training-time-inf": _set("training_time", float("inf")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CLUSTERS))
def test_malformed_cluster_raises_serialization_error(fitted, segment4, case):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    MALFORMED_CLUSTERS[case](payload["clusters"][0])
    with pytest.raises(SerializationError):
        encoder_from_dict(payload, segment4)


@pytest.mark.parametrize(
    "clusters", [5, {"center": [1.0]}, [[0.5, 0.5]], ["cluster"]], ids=repr
)
def test_malformed_clusters_section_raises_serialization_error(
    fitted, segment4, clusters
):
    encoder, _ = fitted
    payload = encoder_to_dict(encoder)
    payload["clusters"] = clusters
    with pytest.raises(SerializationError):
        encoder_from_dict(payload, segment4)


@pytest.mark.parametrize(
    "content", ["{not json", "", '{"clusters": [1, 2,]}'], ids=repr
)
def test_non_json_file_raises_serialization_error(segment4, tmp_path, content):
    path = tmp_path / "model.json"
    path.write_text(content)
    with pytest.raises(SerializationError):
        load_encoder(path, segment4)
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(SerializationError):
        load_encoder(path, segment4)


def test_missing_bundle_file_raises_file_not_found(segment4, tmp_path):
    with pytest.raises(FileNotFoundError):
        load_encoder(tmp_path / "absent.json", segment4)


#: A value each retired ``EnQodeConfig`` field was stored with, mapped
#: to that field.
RETIRED_VALUES = {
    False: "offline_batch",
    True: "offline_batch",
    "rows": "online_batch_engine",
    "stacked": "online_batch_engine",
}


@pytest.mark.parametrize("value", list(RETIRED_VALUES))
def test_bundle_with_retired_field_serves_identically(fitted, segment4, value):
    """Bundles written while ``offline_batch`` or ``online_batch_engine``
    existed still load, and the reloaded encoder serves bit for bit what
    a current bundle does."""
    encoder, samples = fitted
    field = RETIRED_VALUES[value]
    payload = encoder_to_dict(encoder)
    assert field not in payload["config"]
    legacy = json.loads(json.dumps(payload))
    legacy["config"][field] = value
    current = encoder_from_dict(payload, segment4)
    restored = encoder_from_dict(legacy, segment4)
    assert restored.config == encoder.config
    expected = current.encode_batch(samples[:4]) + [current.encode(samples[5])]
    served = restored.encode_batch(samples[:4]) + [restored.encode(samples[5])]
    for want, got in zip(expected, served):
        assert got.cluster_index == want.cluster_index
        np.testing.assert_array_equal(got.theta, want.theta)
        assert got.ideal_fidelity == want.ideal_fidelity
        assert list(got.circuit) == list(want.circuit)

"""Trainable classical embedding: an NQE-style learned map before encoding.

Neural Quantum Embedding (Hur et al., arXiv:2311.11412) shows that a
small *trainable* classical preprocessing network in front of the
quantum embedding can dramatically improve downstream classifier
accuracy: instead of amplitude-encoding raw features, one first learns a
map that pulls same-class samples together and pushes different-class
samples apart *in the embedded geometry*.

:class:`TrainableEmbedding` is the linear instantiation of that idea
matched to amplitude embedding: a learned ``(out, in)`` matrix ``W``
applied before row renormalization,

    ``x  ->  W x / || W x ||``.

Because amplitude embedding is itself linear-then-normalize, the
composite is still an amplitude embedding of a learned feature space —
so everything downstream (clustering, template binding, the service) is
untouched.  The map slots into :class:`repro.core.pipeline.
EncodePipeline` as an optional preprocessing stage ahead of routing, so
``fit``/``encode``/``encode_batch`` and the serving layer all see it
transparently (the encoder's *input* width becomes ``W.shape[1]`` while
its circuits stay ``W.shape[0]``-amplitude wide).

Training maximizes the fidelity contrast between class pairs — the
separation ``mean same-class overlap - mean cross-class overlap`` of the
normalized embedded vectors, a trace-distance surrogate of NQE's
loss — via the same SPSA schedule the VQC head uses.  It can be trained
standalone (frozen thereafter) or jointly refreshed between classifier
epochs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, SerializationError
from repro.utils.rng import as_rng


class TrainableEmbedding:
    """A learned linear map + renormalization in front of amplitude encoding.

    Parameters
    ----------
    input_size:
        Width of raw feature vectors.
    output_size:
        Width after the map — must equal the encoder's
        ``num_amplitudes`` (``2**num_qubits``) when used as a pipeline
        preprocessor.  Defaults to ``input_size`` (a square map
        initialized to the identity, i.e. a no-op until trained).
    seed:
        RNG for initialization and SPSA perturbations.
    """

    def __init__(
        self,
        input_size: int,
        output_size: "int | None" = None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        if input_size < 1:
            raise DataError("input_size must be >= 1")
        output_size = input_size if output_size is None else output_size
        if output_size < 1:
            raise DataError("output_size must be >= 1")
        self.input_size = int(input_size)
        self.output_size = int(output_size)
        self._rng = as_rng(seed)
        if output_size == input_size:
            # Identity start: an untrained square embedding is a no-op,
            # so wiring it into a pipeline changes nothing until fit.
            self.weights = np.eye(output_size)
        else:
            # Orthonormal rows/columns: preserves as much input geometry
            # as the rectangular shape allows (norms are renormalized
            # away downstream anyway).
            gaussian = self._rng.normal(
                size=(max(input_size, output_size), min(input_size, output_size))
            )
            q, _ = np.linalg.qr(gaussian)
            self.weights = (
                q[:output_size, :] if output_size <= q.shape[0] else q.T
            )
            if self.weights.shape != (output_size, input_size):
                self.weights = q.T[:output_size, :input_size]

    # -- forward --------------------------------------------------------------------

    def transform(self, samples: np.ndarray) -> np.ndarray:
        """Map raw feature rows to normalized embedded rows.

        Returns a ``(B, output_size)`` matrix of unit rows; rejects
        rows the map annihilates (they have no amplitude embedding).
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        if samples.ndim != 2 or samples.shape[1] != self.input_size:
            raise DataError(
                f"samples must be (B, {self.input_size}), "
                f"got {samples.shape}"
            )
        mapped = samples @ self.weights.T
        norms = np.linalg.norm(mapped, axis=1, keepdims=True)
        if np.any(norms <= 1e-12):
            raise DataError(
                "embedding maps some sample(s) to (near-)zero vectors; "
                "cannot renormalize for amplitude encoding"
            )
        return mapped / norms

    # -- objective ------------------------------------------------------------------

    def separation(self, samples: np.ndarray, labels: np.ndarray) -> float:
        """Mean same-class minus mean cross-class embedded overlap.

        Overlap is the squared inner product of normalized embedded
        rows — exactly the statevector fidelity their amplitude
        embeddings will have.  Larger is better for a downstream
        classifier; ``fit`` maximizes this.
        """
        embedded = self.transform(samples)
        labels = np.asarray(labels)
        overlaps = (embedded @ embedded.T) ** 2
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(labels.size, dtype=bool)
        same_pairs = same & off_diag
        cross_pairs = ~same
        if not same_pairs.any() or not cross_pairs.any():
            raise DataError(
                "separation needs at least two samples in some class and "
                "at least two distinct classes"
            )
        return float(
            overlaps[same_pairs].mean() - overlaps[cross_pairs].mean()
        )

    # -- training -------------------------------------------------------------------

    def fit(
        self,
        samples: np.ndarray,
        labels: np.ndarray,
        num_steps: int = 60,
        a: float = 0.08,
        c: float = 0.06,
    ) -> list[float]:
        """SPSA ascent on :meth:`separation`; returns the trace.

        The same Spall gain schedule as the VQC trainer; two
        ``separation`` evaluations per step regardless of the matrix
        size.  The map is renormalized per-sample downstream, so no
        weight regularization is needed.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        labels = np.asarray(labels)
        if samples.shape[0] != labels.size:
            raise DataError(
                f"samples/labels length mismatch: {samples.shape[0]} vs "
                f"{labels.size}"
            )
        trace = [self.separation(samples, labels)]
        shape = self.weights.shape
        for step in range(1, num_steps + 1):
            a_k = a / step**0.602
            c_k = c / step**0.101
            delta = self._rng.choice([-1.0, 1.0], size=shape)
            saved = self.weights
            self.weights = saved + c_k * delta
            sep_plus = self.separation(samples, labels)
            self.weights = saved - c_k * delta
            sep_minus = self.separation(samples, labels)
            gradient = (sep_plus - sep_minus) / (2.0 * c_k) * delta
            self.weights = saved + a_k * gradient  # ascent
            trace.append(self.separation(samples, labels))
        return trace

    # -- serialization --------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "output_size": self.output_size,
            "weights": self.weights.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainableEmbedding":
        from repro.core.serialization import stored_floats

        for key in ("input_size", "output_size", "weights"):
            if key not in payload:
                raise SerializationError(
                    f"preprocessor payload missing {key!r}"
                )
        sizes = []
        for key in ("input_size", "output_size"):
            what = f"preprocessor {key}"
            size = float(stored_floats(payload[key], (), what))
            if size < 1 or size != int(size):
                raise SerializationError(
                    f"{what} must be a positive integer, got {size}"
                )
            sizes.append(int(size))
        input_size, output_size = sizes
        # Read the weights before sizing anything by the stored sizes.
        weights = stored_floats(
            payload["weights"],
            (output_size, input_size),
            "preprocessor weights",
        )
        embedding = cls(input_size, output_size)
        embedding.weights = weights
        return embedding

    def __repr__(self) -> str:
        return (
            f"TrainableEmbedding({self.input_size} -> {self.output_size})"
        )

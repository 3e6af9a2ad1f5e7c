"""Preprocessing pipeline: images -> PCA features -> unit amplitude vectors.

Mirrors Sec. IV-B: reduce each dataset with PCA to ``2^n`` features, then
normalize every feature vector for amplitude embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.pca import PCA
from repro.errors import DataError


def as_real_rows(samples, error: type, *, single: bool = False) -> np.ndarray:
    """``samples`` as a float matrix, or ``error`` if they are not real.

    Rejects anything numpy cannot read as one rectangular array, any
    dtype that is not bool/int/float/complex (strings, objects), and
    complex input with a nonzero imaginary part; a complex array whose
    imaginary parts are all zero passes as its real part.  ``single``
    flattens the input into one row (a one-sample entry point);
    otherwise 1-d input becomes a one-row matrix.
    """
    try:
        rows = np.asarray(samples)
    except (TypeError, ValueError) as exc:
        raise error(f"samples must be a numeric array ({exc})") from None
    if rows.dtype.kind == "c":
        if rows.imag.any():
            raise error(
                "samples must be real; some entries have a nonzero "
                "imaginary part"
            )
        rows = rows.real
    elif rows.dtype.kind not in "biuf":
        raise error(f"samples must be numeric, got dtype {rows.dtype}")
    rows = rows.astype(float, copy=False)
    return rows.reshape(1, -1) if single else np.atleast_2d(rows)


def validate_samples(
    samples, width: "int | None", error: type, *, single: bool = False
) -> np.ndarray:
    """The input check of every online entry point.

    :meth:`repro.core.pipeline.EncodePipeline.prepare`,
    :meth:`repro.core.encoder.EnQodeEncoder.project` and the service's
    ``submit``/``predict`` all call this, each passing the
    :class:`~repro.errors.ReproError` subclass it raises.  Returns the
    samples as a ``(B, width)`` float matrix (see :func:`as_real_rows`
    for ``single``) after rejecting rows that are non-numeric, complex
    with a nonzero imaginary part, the wrong width (skipped when
    ``width`` is ``None``), non-finite, of a norm that overflows, or of
    norm below 1e-12.
    """
    rows = as_real_rows(samples, error, single=single)
    if width is not None and (rows.ndim != 2 or rows.shape[1] != width):
        raise error(f"samples must be (B, {width}), got {rows.shape}")
    # einsum raises no floating-point warning, so NaN or inf entries and
    # a norm that overflows all reach this one finiteness check.
    norms = np.sqrt(np.einsum("...i,...i->...", rows, rows))
    if not np.isfinite(norms).all():
        if not np.isfinite(rows).all():
            raise error("samples contain non-finite entries (NaN or inf)")
        raise error(
            "a sample row's norm overflows (entries too large to embed)"
        )
    if (norms < 1e-12).any():
        raise error(
            "cannot embed a zero sample row (amplitude embedding is "
            "undefined for the zero vector)"
        )
    return rows


def normalize_rows(features: np.ndarray, min_norm: float = 1e-12) -> np.ndarray:
    """Scale every row to unit Euclidean norm (AE compatibility)."""
    features = np.asarray(features, dtype=float)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    if np.any(norms < min_norm):
        raise DataError("a sample has (near-)zero norm and cannot be embedded")
    return features / norms


def prepare_amplitudes(
    features: np.ndarray,
    num_amplitudes: int,
    *,
    normalize: bool = True,
    pad_with: "float | None" = None,
    min_norm: float = 1e-12,
) -> np.ndarray:
    """Feature rows -> a ``(B, num_amplitudes)`` amplitude matrix.

    The input conveniences of PennyLane's ``AmplitudeEmbedding``:

    * ``pad_with`` — rows shorter than ``num_amplitudes`` are
      right-padded with this constant (without it, any length mismatch
      is an error); rows can never be *longer* than ``num_amplitudes``.
    * ``normalize`` — scale every (padded) row to unit norm.  With
      ``normalize=False`` rows must already be unit-norm (to 1e-6), as
      amplitude embedding is undefined otherwise.

    Accepts a single 1-d feature vector or a 2-d batch; always returns
    the 2-d form.  Raises :class:`~repro.errors.DataError` on any
    mismatch, so callers can tell input problems from optimization
    failures.
    """
    features = as_real_rows(features, DataError)
    if features.ndim != 2:
        raise DataError(
            f"features must be 1-d or 2-d, got shape {features.shape}"
        )
    width = features.shape[1]
    if width > num_amplitudes:
        raise DataError(
            f"feature rows of length {width} exceed the {num_amplitudes} "
            f"available amplitudes"
        )
    if width < num_amplitudes:
        if pad_with is None:
            raise DataError(
                f"feature rows of length {width} need {num_amplitudes} "
                f"amplitudes; pass pad_with= to right-pad them"
            )
        padded = np.full(
            (features.shape[0], num_amplitudes), float(pad_with)
        )
        padded[:, :width] = features
        features = padded
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    if np.any(norms < min_norm):
        raise DataError("a sample has (near-)zero norm and cannot be embedded")
    if normalize:
        return features / norms
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise DataError(
            "features are not unit-norm; pass normalize=True to scale them"
        )
    return features


@dataclass
class EmbeddingDataset:
    """A dataset ready for amplitude embedding."""

    name: str
    amplitudes: np.ndarray  # (N, 2^n) unit rows
    labels: np.ndarray  # (N,)
    pca: PCA
    raw_dim: int

    @property
    def num_samples(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def num_features(self) -> int:
        return self.amplitudes.shape[1]

    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def class_slice(self, label: int) -> np.ndarray:
        """Amplitude rows of one class."""
        return self.amplitudes[self.labels == label]


def prepare_embedding_dataset(
    name: str,
    images: np.ndarray,
    labels: np.ndarray,
    num_features: int = 256,
) -> EmbeddingDataset:
    """PCA-reduce and normalize a raw image dataset (paper Sec. IV-B)."""
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels)
    if images.ndim != 2 or images.shape[0] != labels.shape[0]:
        raise DataError(
            f"inconsistent dataset shapes {images.shape} / {labels.shape}"
        )
    if num_features & (num_features - 1):
        raise DataError(f"num_features={num_features} is not a power of two")
    pca = PCA(num_features)
    features = pca.fit_transform(images)
    return EmbeddingDataset(
        name=name,
        amplitudes=normalize_rows(features),
        labels=labels,
        pca=pca,
        raw_dim=images.shape[1],
    )

"""k-means clustering and the paper's cluster-count selection rule.

EnQode partitions each dataset with k-means (Sec. III-C) and trains one
ansatz per cluster mean.  The number of clusters follows Sec. IV-A: "The
number of clusters is chosen such that the state fidelity between any
datapoint and its nearest cluster is at least 0.95" — implemented by
:func:`select_num_clusters`, which grows ``k`` until
:func:`min_nearest_fidelity` crosses the threshold.

Implemented from scratch (no scikit-learn offline): k-means++ seeding and
Lloyd iterations with several restarts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusteringError
from repro.utils.rng import as_rng


def dot_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared normalized overlap |<a|b>|^2 of two real vectors.

    This is the state fidelity of the two exactly-embedded pure states,
    the quantity the Sec. IV-A cluster rule thresholds at 0.95.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom < 1e-300:
        raise ClusteringError("fidelity of a zero vector is undefined")
    return float((a @ b) / denom) ** 2


class KMeans:
    """Lloyd's algorithm with k-means++ seeding.

    Attributes after :meth:`fit`: ``centers_`` (k, d), ``labels_`` (N,),
    ``inertia_`` (sum of squared distances), ``n_iter_``.
    """

    def __init__(
        self,
        num_clusters: int,
        max_iterations: int = 300,
        tol: float = 1e-10,
        num_init: int = 4,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if num_clusters < 1:
            raise ClusteringError("num_clusters must be >= 1")
        if max_iterations < 1:
            # Lloyd's loop body must run at least once, otherwise the
            # iteration counter is never bound and centers never update.
            raise ClusteringError("max_iterations must be >= 1")
        if num_init < 1:
            raise ClusteringError("num_init must be >= 1")
        self.num_clusters = num_clusters
        self.max_iterations = max_iterations
        self.tol = tol
        self.num_init = num_init
        self.seed = seed
        self.centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _distances_sq(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """(N, k) squared Euclidean distances (clipped: the expanded form
        can dip infinitesimally below zero in floating point)."""
        dist_sq = (
            np.sum(data**2, axis=1)[:, None]
            - 2.0 * data @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        return np.clip(dist_sq, 0.0, None)

    def _init_centers(
        self,
        data: np.ndarray,
        rng: np.random.Generator,
        initial: np.ndarray | None = None,
    ) -> np.ndarray:
        """k-means++ seeding, optionally extending ``initial`` centers.

        With ``initial`` given (the warm-start path of
        :func:`select_num_clusters`), those centers are kept and only the
        missing ``num_clusters - len(initial)`` seeds are drawn with the
        k-means++ rule — distances to the existing centers already steer
        the draws toward uncovered regions.
        """
        n_samples = data.shape[0]
        if initial is not None:
            centers = [np.asarray(c, dtype=float) for c in initial]
        else:
            centers = [data[rng.integers(n_samples)]]
        while len(centers) < self.num_clusters:
            dist_sq = self._distances_sq(data, np.asarray(centers)).min(axis=1)
            total = dist_sq.sum()
            if total <= 0.0:  # all points identical to centers: pick any
                centers.append(data[rng.integers(n_samples)])
                continue
            probabilities = dist_sq / total
            centers.append(data[rng.choice(n_samples, p=probabilities)])
        return np.asarray(centers)

    def _lloyd(
        self, data: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        labels = np.zeros(data.shape[0], dtype=int)
        inertia = np.inf
        for iteration in range(1, self.max_iterations + 1):
            dist_sq = self._distances_sq(data, centers)
            labels = np.argmin(dist_sq, axis=1)
            new_inertia = float(dist_sq[np.arange(data.shape[0]), labels].sum())
            # Vectorized center update: scatter-add member sums through a
            # one-hot indicator product (one BLAS call instead of a
            # Python loop over clusters); empty clusters keep their
            # previous center, as before.
            counts = np.bincount(labels, minlength=self.num_clusters)
            one_hot = np.zeros(
                (self.num_clusters, data.shape[0]), dtype=data.dtype
            )
            one_hot[labels, np.arange(data.shape[0])] = 1.0
            sums = one_hot @ data
            new_centers = centers.copy()
            occupied = counts > 0
            new_centers[occupied] = (
                sums[occupied] / counts[occupied][:, None]
            )
            shift = float(np.linalg.norm(new_centers - centers))
            centers = new_centers
            if abs(inertia - new_inertia) <= self.tol or shift <= self.tol:
                inertia = new_inertia
                break
            inertia = new_inertia
        return centers, labels, inertia, iteration

    # -- API --------------------------------------------------------------------

    def fit(
        self, data: np.ndarray, init_centers: np.ndarray | None = None
    ) -> "KMeans":
        """Fit ``num_clusters`` centers to ``data``.

        ``init_centers`` (shape ``(m, d)`` with ``m <= num_clusters``)
        switches from ``num_init`` independent k-means++ restarts to a
        single warm-started Lloyd run seeded from those centers (extended
        to ``num_clusters`` with k-means++ draws) — the incremental mode
        :func:`select_num_clusters` uses while growing ``k``.
        """
        data = np.asarray(data, dtype=float)
        if data.ndim != 2:
            raise ClusteringError(f"expected 2-D data, got shape {data.shape}")
        if data.shape[0] < self.num_clusters:
            raise ClusteringError(
                f"cannot form {self.num_clusters} clusters from "
                f"{data.shape[0]} samples"
            )
        rng = as_rng(self.seed)
        if init_centers is not None:
            init_centers = np.asarray(init_centers, dtype=float)
            if (
                init_centers.ndim != 2
                or init_centers.shape[1] != data.shape[1]
                or not 1 <= init_centers.shape[0] <= self.num_clusters
            ):
                raise ClusteringError(
                    f"init_centers must be (1 <= m <= {self.num_clusters}, "
                    f"{data.shape[1]}), got {init_centers.shape}"
                )
        best = None
        num_runs = 1 if init_centers is not None else self.num_init
        for _ in range(num_runs):
            centers = self._init_centers(data, rng, initial=init_centers)
            centers, labels, inertia, n_iter = self._lloyd(data, centers)
            if best is None or inertia < best[2]:
                best = (centers, labels, inertia, n_iter)
        self.centers_, self.labels_, self.inertia_, self.n_iter_ = best
        return self

    def predict(self, data: np.ndarray) -> np.ndarray:
        if self.centers_ is None:
            raise ClusteringError("KMeans.predict called before fit")
        data = np.atleast_2d(np.asarray(data, dtype=float))
        return np.argmin(self._distances_sq(data, self.centers_), axis=1)


def nearest_center(
    sample: np.ndarray, centers: np.ndarray
) -> tuple[int, float]:
    """Index of and Euclidean distance to the closest center (Sec. III-D)."""
    sample = np.asarray(sample, dtype=float).ravel()
    indices, distances = nearest_centers(sample[None, :], centers)
    return int(indices[0]), float(distances[0])


def nearest_centers(
    samples: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`nearest_center` over a ``(B, d)`` sample matrix.

    Returns ``(indices, distances)`` of shapes ``(B,)``; the first
    minimum wins a tie.
    """
    distances = center_distances(samples, centers)
    indices = np.argmin(distances, axis=1)
    return indices, distances[np.arange(distances.shape[0]), indices]


def center_distances(samples: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(B, K)`` distances, the arithmetic of every nearest-center rule.

    Differences first, then the norm, so an entry depends only on its
    own sample and center, whatever is stacked beside them (the
    expanded ``|a|^2 - 2ab + |b|^2`` form can flip ties).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    centers = np.asarray(centers, dtype=float)
    return np.linalg.norm(samples[:, None, :] - centers[None, :, :], axis=2)


def min_nearest_fidelity(data: np.ndarray, centers: np.ndarray) -> float:
    """min over samples of max over centers of |<x, c>|^2 (normalized).

    Zero-norm centers have no direction and are excluded from the max;
    if *every* center is zero the quantity is undefined and a
    :class:`ClusteringError` is raised (rather than an opaque numpy
    reduction error on an empty axis).  A zero-norm data row is always
    an error: its fidelity is undefined and would otherwise propagate
    as a silent NaN through the cluster-count search.
    """
    data = np.asarray(data, dtype=float)
    centers = np.asarray(centers, dtype=float)
    data_norms = np.linalg.norm(data, axis=1, keepdims=True)
    if np.any(data_norms < 1e-300):
        raise ClusteringError(
            "min_nearest_fidelity is undefined for zero-norm data rows"
        )
    data_unit = data / data_norms
    norms = np.linalg.norm(centers, axis=1)
    safe = norms > 1e-300
    if not np.any(safe):
        raise ClusteringError(
            "min_nearest_fidelity is undefined: all cluster centers have "
            "zero norm"
        )
    centers_unit = centers[safe] / norms[safe][:, None]
    overlaps = (data_unit @ centers_unit.T) ** 2
    return float(overlaps.max(axis=1).min())


def select_num_clusters(
    data: np.ndarray,
    min_fidelity: float = 0.95,
    max_clusters: int = 64,
    seed: "int | np.random.Generator | None" = None,
    num_init: int = 4,
    warm_start: bool = True,
) -> KMeans:
    """Grow ``k`` until every sample's nearest-center fidelity >= threshold.

    Returns the fitted :class:`KMeans` for the smallest satisfying ``k``
    (or for ``max_clusters`` if the threshold is never met, with the
    shortfall left to the caller to inspect via
    :func:`min_nearest_fidelity`).

    With ``warm_start`` (the default) each step seeds the ``k'``-means
    init from the previous step's ``k`` centers — one Lloyd run that
    only has to place the ``k' - k`` new centers — instead of
    ``num_init`` full k-means++ restarts per step, which made the
    growing search quadratic-ish in the final ``k``.  ``warm_start=
    False`` restores the independent-restart search.
    """
    data = np.asarray(data, dtype=float)
    rng = as_rng(seed)
    k = 1
    best = None
    previous_centers = None
    while k <= min(max_clusters, data.shape[0]):
        model = KMeans(k, num_init=num_init, seed=rng).fit(
            data, init_centers=previous_centers if warm_start else None
        )
        best = model
        if min_nearest_fidelity(data, model.centers_) >= min_fidelity:
            return model
        previous_centers = model.centers_
        # Grow geometrically-ish to keep the search cheap for large k.
        k += max(1, k // 3)
    return best

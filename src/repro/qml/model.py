"""QML classification model combining an embedder with a VQC head.

Trains the VQC with SPSA (simultaneous-perturbation stochastic
approximation) on pre-embedded states; SPSA needs only two circuit
evaluations per step regardless of parameter count, which is why it is
the de-facto optimizer for NISQ-era classifiers.

The classifier ansatz is compiled **once** into a cached
:class:`~repro.transpile.template.ParametricTemplate`; each SPSA step
binds the ``theta + c*delta`` / ``theta - c*delta`` pair through one
:meth:`~repro.transpile.template.ParametricTemplate.bind_batch_ir` call
and propagates *all* embedded states through the bound IR in one stacked
statevector walk (:class:`repro.core.batch.VQCObjective`).  No
``Gate``/``Instruction`` objects exist anywhere on the training path.

Density-matrix states (the noisy-embedding study) cannot ride that walk;
they take the sequential per-state
:class:`~repro.qml.vqc.VariationalClassifier` path instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.batch import VQCObjective
from repro.core.config import QMLConfig
from repro.errors import DataError
from repro.hardware.backend import brisbane_linear_segment
from repro.qml.vqc import VariationalClassifier
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.statevector import Statevector
from repro.transpile.template import transpile_template
from repro.utils.rng import as_rng


@dataclass
class TrainingHistory:
    """Loss and accuracy trace of one training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


class _ReferenceObjective:
    """Sequential per-state objective with the :class:`repro.core.batch.
    VQCObjective` evaluation API, so one SPSA loop drives either; used
    for density-matrix states."""

    def __init__(self, vqc, states, labels, margin: float) -> None:
        self.vqc = vqc
        self.states = list(states)
        self.labels = np.asarray(labels).astype(int)
        self.margin = float(margin)
        self.signs = 1.0 - 2.0 * self.labels.astype(float)

    def _select(self, indices):
        if indices is None:
            return self.states, self.signs
        indices = np.asarray(indices, dtype=int)
        return [self.states[i] for i in indices], self.signs[indices]

    def expectations(self, thetas, indices=None) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        states, _ = self._select(indices)
        return np.stack(
            [self.vqc.expectations_z0(states, theta) for theta in thetas]
        )

    def margins(self, theta, indices=None) -> np.ndarray:
        _, signs = self._select(indices)
        return signs * self.expectations(theta, indices)[0]

    def losses(self, thetas, indices=None) -> np.ndarray:
        _, signs = self._select(indices)
        values = self.expectations(thetas, indices)
        hinge = np.maximum(0.0, self.margin - signs[None, :] * values)
        return hinge.mean(axis=1)

    def loss(self, theta, indices=None) -> float:
        return float(self.losses(theta, indices)[0])

    def predictions(self, theta, indices=None) -> np.ndarray:
        return (self.expectations(theta, indices)[0] < 0.0).astype(int)

    def accuracy(self, theta) -> float:
        return float(np.mean(self.margins(theta) > 0.0))


def _state_matrix(states) -> "np.ndarray | None":
    """Stack states into a ``(B, 2^n)`` matrix, or ``None`` if any state
    is a density matrix (which only the per-state path can evolve)."""
    if isinstance(states, np.ndarray):
        return np.atleast_2d(np.asarray(states, dtype=complex))
    rows = []
    for state in states:
        if isinstance(state, Statevector):
            rows.append(state.data)
        elif isinstance(state, DensityMatrix):
            return None
        else:
            rows.append(np.asarray(state, dtype=complex))
    return np.stack(rows) if rows else np.empty((0, 0), dtype=complex)


class QMLClassifier:
    """Binary classifier over embedded quantum states.

    The model is agnostic to how states were prepared: pass ideal
    statevectors for clean training or noisy density matrices to study
    noise effects (the Fig. 1 motivation for uniform embedding noise).

    Parameters
    ----------
    num_qubits, num_layers, seed:
        Shorthand for the common knobs (defaults 8, 2 and 0), for use
        without ``config``; passing one beside ``config`` raises
        :class:`~repro.errors.DataError`.  ``seed`` also accepts a
        ``numpy`` Generator to share a stream with the caller.
    config:
        Full :class:`~repro.core.config.QMLConfig`; controls the SPSA
        schedule, minibatching, margin and seed.
    backend:
        Hardware target the classifier template is compiled against
        (default: a ``num_qubits``-wide linear Brisbane segment,
        matching the embedding circuits).  Must route the VQC's
        nearest-neighbor CX cascade without SWAPs.
    """

    def __init__(
        self,
        num_qubits: "int | None" = None,
        num_layers: "int | None" = None,
        seed: "int | np.random.Generator | None" = None,
        *,
        config: "QMLConfig | None" = None,
        backend=None,
    ) -> None:
        if config is None:
            config = QMLConfig(
                num_qubits=8 if num_qubits is None else num_qubits,
                num_layers=2 if num_layers is None else num_layers,
                seed=seed if isinstance(seed, (int, np.integer)) else 0,
            )
        elif any(knob is not None for knob in (num_qubits, num_layers, seed)):
            raise DataError(
                "pass either config= or the num_qubits/num_layers/seed "
                "shorthand, not both"
            )
        self.config = config
        self.vqc = VariationalClassifier(config.num_qubits, config.num_layers)
        self.backend = (
            brisbane_linear_segment(config.num_qubits)
            if backend is None
            else backend
        )
        self._rng = as_rng(config.seed if seed is None else seed)
        self.theta = self._rng.uniform(-0.3, 0.3, self.vqc.num_parameters)
        self.history = TrainingHistory()

    @property
    def num_qubits(self) -> int:
        return self.config.num_qubits

    def template(self):
        """The cached parametric template of the classifier ansatz."""
        return transpile_template(
            self.vqc.ansatz(), self.backend, self.config.optimization_level
        )

    # -- validation -----------------------------------------------------------------

    @staticmethod
    def _validate(states, labels: np.ndarray) -> None:
        if len(states) == 0:
            raise DataError("states must be non-empty")
        if labels.ndim != 1 or len(states) != labels.size:
            raise DataError(
                f"states/labels length mismatch: {len(states)} states vs "
                f"labels of shape {labels.shape}"
            )
        if labels.size and set(np.unique(labels)) - {0, 1}:
            raise DataError(
                f"labels must be binary 0/1, got values "
                f"{sorted(set(np.unique(labels)) - {0, 1})}"
            )

    def _objective(self, states, labels: np.ndarray):
        """The training objective over this dataset.

        A pure statevector stack gets the template-bound
        :class:`~repro.core.batch.VQCObjective`; density-matrix inputs
        fall back to the per-state path.
        """
        matrix = _state_matrix(states)
        if matrix is None:
            return _ReferenceObjective(
                self.vqc, states, labels, self.config.margin
            )
        return VQCObjective(self.template(), matrix, labels, self.config.margin)

    # -- loss -----------------------------------------------------------------------

    def _margins(self, states, labels: np.ndarray, theta) -> np.ndarray:
        """Signed margins y_i * <Z_0>_i with y in {+1, -1}."""
        return self._objective(states, np.asarray(labels)).margins(theta)

    def loss(self, states, labels: np.ndarray, theta=None) -> float:
        """Hinge loss max(0, margin - y_i * <Z_0>_i), averaged."""
        theta = self.theta if theta is None else theta
        self._validate(states, np.asarray(labels))
        return self._objective(states, np.asarray(labels)).loss(theta)

    def accuracy(self, states, labels: np.ndarray) -> float:
        self._validate(states, np.asarray(labels))
        return self._objective(states, np.asarray(labels)).accuracy(self.theta)

    # -- SPSA training ----------------------------------------------------------------

    def fit(
        self,
        states,
        labels: np.ndarray,
        num_steps: "int | None" = None,
        a: "float | None" = None,
        c: "float | None" = None,
    ) -> TrainingHistory:
        """SPSA minimization of the hinge loss.

        Each step evaluates the loss at ``theta + c_k * delta`` and
        ``theta - c_k * delta`` — one template bind and two stacked
        propagations, however large the dataset.  ``num_steps``/``a``/
        ``c`` default to the config's schedule.  Perturbations and
        minibatch indices come from one RNG stream in a fixed order.
        """
        labels = np.asarray(labels)
        self._validate(states, labels)
        cfg = self.config
        num_steps = cfg.num_steps if num_steps is None else num_steps
        a = cfg.spsa_a if a is None else a
        c = cfg.spsa_c if c is None else c
        objective = self._objective(states, labels)
        num_samples = len(states)
        theta = self.theta
        for step in range(1, num_steps + 1):
            a_k = a / step**0.602
            c_k = c / step**0.101
            delta = self._rng.choice([-1.0, 1.0], size=theta.size)
            indices = None
            if (
                cfg.minibatch_size is not None
                and cfg.minibatch_size < num_samples
            ):
                indices = self._rng.choice(
                    num_samples, size=cfg.minibatch_size, replace=False
                )
            pair = np.stack([theta + c_k * delta, theta - c_k * delta])
            loss_plus, loss_minus = objective.losses(pair, indices)
            gradient = (loss_plus - loss_minus) / (2.0 * c_k) * delta
            theta = theta - a_k * gradient
            if step % cfg.eval_every == 0 or step == num_steps:
                self.history.losses.append(objective.loss(theta))
                self.history.accuracies.append(objective.accuracy(theta))
        self.theta = theta
        return self.history

    # -- inference ------------------------------------------------------------------

    def decision_values(self, states) -> np.ndarray:
        """<Z_0> for each state under the trained theta (sign = class)."""
        matrix = _state_matrix(states)
        if matrix is None or not matrix.size:
            return self.vqc.expectations_z0(states, self.theta)
        bound = self.template().bind_batch_ir(np.atleast_2d(self.theta))
        probs = np.abs(bound.evolve_states_row(0, matrix)) ** 2
        half = probs.shape[1] // 2
        return probs[:, :half].sum(axis=1) - probs[:, half:].sum(axis=1)

    def predict(self, states) -> np.ndarray:
        """Predicted labels in {0, 1}."""
        if len(states) == 0:
            return np.empty(0, dtype=int)
        return (self.decision_values(states) < 0.0).astype(int)

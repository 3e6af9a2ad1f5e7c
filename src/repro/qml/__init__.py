"""Downstream QML: batch-native variational classification over embeddings.

The layer mirrors the encoder's architecture one level up the Fig. 1
stack:

* :class:`~repro.qml.vqc.VQCAnsatz` / :class:`~repro.qml.vqc.
  VariationalClassifier` — the classifier circuit family in its
  template-compatible (Rz-only-parameters) and eager reference forms;
* :class:`~repro.qml.model.QMLClassifier` — SPSA training, one cached
  :class:`~repro.transpile.template.ParametricTemplate` bind per step
  with all states propagated in one stacked walk via
  :class:`repro.core.batch.VQCObjective` (density-matrix states take
  the per-state path);
* :class:`~repro.qml.serving.QMLModel` — a versioned embed+classify
  bundle (encoder + optional trainable preprocessing map + trained
  head) that registers into the service layer for batched prediction.
"""

from repro.data.trainable import TrainableEmbedding
from repro.qml.model import QMLClassifier, TrainingHistory
from repro.qml.serving import QMLModel, load_qml_model, save_qml_model
from repro.qml.vqc import VariationalClassifier, VQCAnsatz

__all__ = [
    "QMLClassifier",
    "QMLModel",
    "TrainableEmbedding",
    "TrainingHistory",
    "VariationalClassifier",
    "VQCAnsatz",
    "load_qml_model",
    "save_qml_model",
]

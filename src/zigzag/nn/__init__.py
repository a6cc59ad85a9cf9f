"""Tiny feedforward/recurrent detector built on numpy.

The package is split by concern: kernels.py holds the hot compute
(count-matrix mean pooling, the recurrent encoder and its
embedding-gradient scatter), model.py the parameter container and
serialization, losses.py the training objectives, optim.py the Adam
update rule.
"""
from .kernels import active_backend
from .losses import EPS, bce_loss, discrepancy_loss
from .model import DetectorModel, init_params, load_model, model_fingerprint, save_model
from .optim import Adam, TrainingDiverged

__all__ = [
    "Adam",
    "DetectorModel",
    "EPS",
    "TrainingDiverged",
    "active_backend",
    "bce_loss",
    "discrepancy_loss",
    "init_params",
    "load_model",
    "model_fingerprint",
    "save_model",
]

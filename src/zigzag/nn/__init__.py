"""Tiny feedforward/recurrent detector built on numpy.

The package is split by concern: kernels.py holds the hot compute
(token pooling, the recurrent encoder, the embedding-gradient
scatter), model.py the parameter container and serialization,
losses.py the training objectives, optim.py the update rules.
"""
from .kernels import active_backend
from .losses import EPS, bce_loss, discrepancy_loss
from .model import DetectorModel, init_params, load_model, model_fingerprint, save_model
from .optim import Adam, Sgd, TrainingDiverged

__all__ = [
    "Adam",
    "DetectorModel",
    "EPS",
    "Sgd",
    "TrainingDiverged",
    "active_backend",
    "bce_loss",
    "discrepancy_loss",
    "init_params",
    "load_model",
    "model_fingerprint",
    "save_model",
]

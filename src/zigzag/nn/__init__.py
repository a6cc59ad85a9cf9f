"""Tiny feedforward/recurrent detector built on numpy.

The package is split by concern: kernels.py holds the hot compute
(count-matrix mean pooling, the recurrent encoder and its
embedding-gradient scatter), model.py the parameter container, the
passes of the feature stack and of the two heads c1 and c2 (which run
as one stacked pair, heads_forward and heads_backward, whose backward
returns only the gradients a step asks for), the threshold rule and
serialization, losses.py the training objectives, each over one head's
probabilities or the pair's (2, N) stack, optim.py the Adam update rule,
which keeps the parameters, once it first steps them, in one flat
buffer that the named tensors are views of, and updates it in place.
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

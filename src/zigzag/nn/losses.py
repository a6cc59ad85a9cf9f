"""Training objectives, each returning (scalar loss, dL/dp), and their
gradients alone (bce_grad, discrepancy_grad) for a training step, which
uses no loss value.  The cross entropy takes one head's (N,)
probabilities or the head pair's (2, N) stack; the discrepancy takes the
pair's stack.

Probabilities are clamped to [EPS, 1-EPS] inside the cross entropy;
where the clamp is active the derivative of the clip is zero, so the
gradient is zeroed rather than evaluated at the boundary.  The
discrepancy loss |p1 - p2| uses the sign subgradient with 0 at ties.
"""
from __future__ import annotations

import numpy as np

EPS = 1e-7


def _clamped(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    if y.ndim != 1 or p.shape[-1:] != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    # np.clip's bytes at a fraction of its per-call cost
    return np.minimum(np.maximum(p, EPS), 1.0 - EPS)


def bce_grad(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """bce_loss's dL/dp alone, for a training step, which needs no loss."""
    pc = _clamped(p, y)
    inside = (p > EPS) & (p < 1.0 - EPS)
    return np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0) / max(len(y), 1)


def bce_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy of p against the labels y (N,), with dL/dp.  p
    is one head's (N,) or the head pair's (2, N); the pair's loss is the
    sum of the two heads' means, and its gradient is one row per head."""
    pc = _clamped(p, y)
    loss = float(np.sum(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean(axis=-1))) if len(y) else 0.0
    return loss, bce_grad(p, y)


def _pair_diff(P: np.ndarray) -> np.ndarray:
    if P.ndim != 2 or len(P) != 2:
        raise ValueError(f"expected the head pair's (2, N) probabilities, got shape {P.shape}")
    return P[0] - P[1]


def discrepancy_grad(P: np.ndarray) -> np.ndarray:
    """discrepancy_loss's dL/dP alone, for a training step."""
    d1 = np.sign(_pair_diff(P)) / max(P.shape[1], 1)
    return np.array((d1, -d1))


def discrepancy_loss(P: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean |p1 - p2| over the head pair's P = (p1, p2), (2, N), with dL/dP."""
    diff = _pair_diff(P)
    loss = float(np.abs(diff).mean()) if len(diff) else 0.0
    return loss, discrepancy_grad(P)

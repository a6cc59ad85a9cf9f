"""Hot compute kernels: token pooling, the recurrent encoder, and the
embedding-gradient scatter, in numpy.  Results are deterministic run to
run.

Token id 0 is padding and never contributes to pooling or recurrence.
The kernels do not check that ids lie in [0, emb rows): numpy would
raise a bare IndexError or read a negative id from the end of emb.  The
range is checked once at the model boundary (features_forward), which
raises ModelError.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the compute backend, for environment records."""
    return "numpy"


def embed_mean_forward(emb: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = X != 0
    counts = mask.sum(axis=1)
    denom = np.maximum(counts, 1).astype(np.float64)
    gathered = emb[X] * mask[:, :, None]
    pooled = gathered.sum(axis=1) / denom[:, None]
    return pooled, denom


def rnn_forward(
    emb: np.ndarray, X: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    B, L = X.shape
    H = wh.shape[0]
    hs = np.zeros((B, L + 1, H), dtype=np.float64)
    E = emb[X]
    mask = (X != 0).astype(np.float64)
    h = np.zeros((B, H), dtype=np.float64)
    for t in range(L):
        pre = E[:, t, :] @ wx + h @ wh + b
        new = np.tanh(pre)
        m = mask[:, t][:, None]
        h = m * new + (1.0 - m) * h
        hs[:, t + 1, :] = h
    return hs, E


def rnn_backward(
    dh_last: np.ndarray,
    hs: np.ndarray,
    E: np.ndarray,
    X: np.ndarray,
    wx: np.ndarray,
    wh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    B, L = X.shape
    mask = (X != 0).astype(np.float64)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(wh.shape[0], dtype=np.float64)
    dE = np.zeros_like(E)
    dh = dh_last.copy()
    for t in range(L - 1, -1, -1):
        m = mask[:, t][:, None]
        new = hs[:, t + 1, :]
        dnew = dh * m
        dpre = dnew * (1.0 - new * new)
        dwx += E[:, t, :].T @ dpre
        dwh += hs[:, t, :].T @ dpre
        db += dpre.sum(axis=0)
        dE[:, t, :] = dpre @ wx.T
        dh = dh * (1.0 - m) + dpre @ wh.T
    return dE, dwx, dwh, db


def scatter_embedding(dE: np.ndarray, X: np.ndarray, vocab_size: int) -> np.ndarray:
    demb = np.zeros((vocab_size, dE.shape[2]), dtype=np.float64)
    mask = X != 0
    np.add.at(demb, X[mask], dE[mask])
    return demb

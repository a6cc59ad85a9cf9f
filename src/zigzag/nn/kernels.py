"""Hot compute kernels: token pooling, the recurrent encoder, and the
RNN's embedding-gradient scatter, in numpy.  Results are deterministic
run to run.

Masked mean pooling is a matmul with a token-count matrix: C (N, V)
holds each row's count of every unpadded token id, built by one
bincount over row-offset ids (token_counts), so the pooled rows are
(C @ emb) / n and the embedding gradient is C.T @ (dpooled / n).  C
depends on the ids alone, never on the parameters, so it is built once
per fixed set of rows and a batch's C is a row gather of its set's; its
entries are small integers, exact in float64, so a gathered C is the
array a per-batch count would build.  No (N, L, D) gathered tensor is
built; the summation order differs from gather-and-sum by a few ulps
(tests pin the two within 1e-12 of the largest |emb|).  The scatter
(np.add.at over gathered positions) serves the RNN only.

Token id 0 is padding and never contributes to pooling or recurrence.
The RNN kernels step through every column of the X they are given;
features_forward gives them X cut after the batch's last column that
holds a token, since a column of padding in every row leaves h as it is
and adds exact zeros to every gradient.
The kernels do not check that ids lie in [0, emb rows): numpy would
raise a bare IndexError, read a negative id from the end of emb, or
(in token_counts) count an id >= V in the next row.  The range is
checked once per set of ids, when nn.model.prepare_ids prepares it,
which raises ModelError before any kernel reads an id.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the compute backend, for environment records."""
    return "numpy"


def token_counts(X: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The count matrix C (N, vocab_size) of X's unpadded ids and each
    row's unpadded token count n, at least 1, so an all-padding row pools
    to zeros."""
    N = X.shape[0]
    mask = X != 0
    ids = (X + np.arange(N, dtype=np.int64)[:, None] * vocab_size).ravel()
    C = np.bincount(ids, weights=mask.ravel(), minlength=N * vocab_size).reshape(N, vocab_size)
    denom = np.maximum(mask.sum(axis=1), 1).astype(np.float64)
    return C, denom


def embed_mean_forward(emb: np.ndarray, C: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Pooled rows (C @ emb) / n of token_counts' C and n."""
    return (C @ emb) / denom[:, None]


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

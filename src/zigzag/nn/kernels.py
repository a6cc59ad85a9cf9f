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
(tests pin the two within 1e-12 of the largest |emb|).

The recurrence runs time-major: rnn_forward gathers E = emb[X.T]
(L, B, D) and fills hs (L+1, B, H), so each step reads and writes one
contiguous (B, ...) block, and both RNN kernels hand out and take
(B, ...) transposed views of these arrays.  The token mask is built
once per call, and so is a (B, H) copy of b: numpy adds a broadcast
(H,) row one short row at a time, at over twice the cost of adding a
whole block.  A step's turn of a time loop runs only what needs the step
before it: + h @ wh, + b, tanh and the carry forward; dpre_t =
dh * dt_t, kept in one (L, B, H) array, dpre_t @ wh.T and the carry
backward.  The rest runs once per call, outside the loop: the input
projection E @ wx, written into hs[1:] before the forward loop, and
dwx, dwh and dE after the backward loop, each one stacked np.matmul
over the L steps.  numpy hands each item of a stacked matmul to BLAS
as a product of its own, and item t is step t's product, with step t's
shapes, so it has the bytes a per-step matmul gives.  Every matmul is
one step's, with the (M, K, N) of a batch-major step: (B, D) @ (D, H)
and (B, H) @ (H, H) forward; (D, B) @ (B, H), (H, B) @ (B, H),
(B, H) @ (H, D) and (B, H) @ (H, H) backward, so no result depends on
how BLAS blocks a larger product.

A padded position keeps h.  The forward applies + b and tanh in place
and then copies h over the step's new state where the mask is 0 (the
in-place form of np.where(mask, new, h)).  The backward folds the mask
into dt = (1 - h**2) * mask once per call, so dpre_t = dh * dt_t is a
zero at a padded row, and copies dh over dpre_t @ wh.T at padded rows in
the same way.  Where a step has no padded row, the copy is skipped.
With m in {0, 1} a blend such as m * new + (1 - m) * h, which the copies
replace, adds a product 0 * x, which is +0 or -0, to the kept value, so
the two can differ only in the sign of a zero.  The folded mask is the
one other place a zero's sign can move: 1 - h**2 >= +0, so dt is +0 at a
padded row, and dh * (+0) is -0 where dh's sign bit is set, where a
per-step loop's masked dh gave +0 * dt = +0.  That zero sits in a padded
row of dpre and reaches nothing that is kept.  A row of dE or of dpre_t
@ wh.T is made from the same row of dpre alone; a padded row of dE is
never scattered, and the copy puts dh back in a padded row of dpre_t @
wh.T.  In step t's item of dwx, dwh or db a padded row adds zeros, which
leave a nonzero partial sum as it is and change a zero one at most in
its sign.  The items are summed last step first, from +0, as a per-step
loop of += adds them (np.add.reduce over the leading axis of a reversed
view adds its items one at a time in the view's order).  Every gradient
sum (dwx, dwh, db, the embedding rows) starts at +0 and so never holds
-0 (x + -x is +0 under round to nearest): adding a zero of either sign
to it changes no bit.
scatter_embedding is one bincount over the flat offsets id * D + j of
the unpadded positions, in X's row-major order: it adds each bin's
rows in that order from 0, as np.add.at does.

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
    """The states hs (B, L+1, H), h0 = 0 first, and the gathered token
    vectors E (B, L, D) of ids X (B, L), as (B, ...) views of time-major
    arrays: step t reads E[:, t] and writes hs[:, t + 1], one contiguous
    block each."""
    B, L = X.shape
    hs = np.zeros((L + 1, B, wh.shape[0]), dtype=np.float64)
    E = emb[X.T]
    pad = (X.T == 0)[:, :, None]
    padded = pad.any(axis=(1, 2)).tolist()
    bias = np.broadcast_to(b, hs.shape[1:]).copy()
    np.matmul(E, wx, out=hs[1:])
    steps = list(hs)
    for t, p in enumerate(pad):
        h, new = steps[t], steps[t + 1]
        new += h @ wh
        new += bias
        np.tanh(new, out=new)
        if padded[t]:
            np.copyto(new, h, where=p)
    return hs.transpose(1, 0, 2), E.transpose(1, 0, 2)


def rnn_backward(
    dh_last: np.ndarray,
    hs: np.ndarray,
    E: np.ndarray,
    X: np.ndarray,
    wx: np.ndarray,
    wh: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """dE (B, L, D), a (B, ...) view of a time-major array, and dwx, dwh
    and db, from the gradient dh_last of the last state and
    rnn_forward's hs and E.

    The loop runs the steps last first and does only what the next step
    needs: dpre_t = dh * dt_t into the kept dpre, then dh = dpre_t @ wh.T,
    with dh copied back at padded rows.  After it, dwx, dwh and dE are
    stacked matmuls over dpre whose item t is step t's E_t.T @ dpre_t,
    h_t.T @ dpre_t or dpre_t @ wx.T, and db's item t is step t's sum of
    dpre_t over its rows.  The items of dwx, dwh and db are summed last
    step first, from +0.  The mask folded into dt can leave -0 in a
    padded row of dpre where a per-step loop had +0; the module
    docstring says why no kept output can tell.
    """
    hs, E = hs.transpose(1, 0, 2), E.transpose(1, 0, 2)
    pad = (X.T == 0)[:, :, None]
    padded = pad.any(axis=(1, 2)).tolist()
    dt = hs[1:] * hs[1:]
    np.subtract(1.0, dt, out=dt)
    dt *= ~pad
    whT = wh.T
    dpre = np.empty_like(dt)
    dh = dh_last
    for t in reversed(range(X.shape[1])):
        np.multiply(dh, dt[t], out=dpre[t])
        carried = dpre[t] @ whT
        if padded[t]:
            np.copyto(carried, dh, where=pad[t])
        dh = carried
    dwx = _last_step_first(np.matmul(E.transpose(0, 2, 1), dpre))
    dwh = _last_step_first(np.matmul(hs[:-1].transpose(0, 2, 1), dpre))
    db = _last_step_first(np.add.reduce(dpre, axis=1))
    dE = np.matmul(dpre, wx.T)
    return dE.transpose(1, 0, 2), dwx, dwh, db


def _last_step_first(items: np.ndarray) -> np.ndarray:
    """The sum of per-step items (L, ...), added one at a time from +0,
    the last step's first."""
    return np.add.reduce(items[::-1], axis=0, initial=0.0)


def scatter_embedding(dE: np.ndarray, X: np.ndarray, vocab_size: int) -> np.ndarray:
    """The embedding gradient (vocab_size, D): each unpadded position's
    row of dE added to its id's row, in X's row-major order from 0."""
    D = dE.shape[2]
    mask = X != 0
    offsets = (X[mask][:, None] * D + np.arange(D)).ravel()
    demb = np.bincount(offsets, weights=dE[mask].ravel(), minlength=vocab_size * D)
    return demb.reshape(vocab_size, D)

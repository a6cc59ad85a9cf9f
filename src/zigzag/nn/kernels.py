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
contiguous (B, ...) block; it hands out (B, ...) transposed views of
these arrays, and rnn_backward takes them.  The token mask is built
once per call, and so is a (B, H) copy of b: numpy adds a broadcast
(H,) row one short row at a time, at over twice the cost of adding a
whole block.  A step's turn of a time loop runs only what needs the step
before it: + h @ wh, + b, tanh and the carry forward (written once, in
_steps, which both forward kernels run); dpre_t = dh * dt_t, kept in one
(L, B, H) array, dpre_t @ wh.T and the carry backward.  The rest runs
once per call, outside the loop: the input projection E @ wx, written
into hs[1:] before the forward loop, and dwx, dwh and dE after the
backward loop, each one stacked np.matmul over the L steps.  numpy hands
each item of a stacked matmul to BLAS as a product of its own, and item
t is step t's product, with step t's shapes, so it has the bytes a
per-step matmul gives.  Every matmul is one step's, with the (M, K, N)
of a batch-major step: (B, D) @ (D, H) and (B, H) @ (H, H) forward;
(D, B) @ (B, H), (H, B) @ (B, H), (B, H) @ (H, D) and (B, H) @ (H, H)
backward, so no result depends on how BLAS blocks a larger product.
dE is written row-major, (B, L, D), item t into column t with its rows
L * D apart, so scatter_embedding reads it in X's order as one block.

A pass that takes no gradient needs only the last state.
rnn_last_state runs the steps in blocks of k, gathering and projecting
one block's token vectors at a time, and carries the last state of a
block into the next; item j of a block's projection is step t0 + j's
E_t @ wx, the product rnn_forward's stacked projection has as its item.
k is as many steps as keep a block's (k, B, D) token vectors and
(k+1, B, H) states within BLOCK_FLOATS floats, and at least 1: a small
set runs in a few blocks, with few numpy calls per step, and a whole
training set one step at a time, in two (B, H) state arrays.  A step
at a time keeps (4H + D) * B floats (two states, one step's token
vectors, the product h @ wh and b's rows), where rnn_forward keeps
(L+1) * B * H for hs and L * B * D for E.

rnn_forward, rnn_backward and scatter_embedding take their arrays of
more than a few rows from alloc(name, shape, dtype): fresh, a new array
per call, by default, or a Buffers, which keeps one flat array per name
for as long as it lives, so a run of training steps allocates them once.
An array taken from a Buffers is overwritten by the next call that asks
for its name: the hs, E and dE a kernel returns are valid until the
kernel runs again on the same Buffers.  The forward's arrays and the
backward's have different names, so a backward pass leaves its forward
pass's arrays as they are.  Every other array the kernels make is
small, (B, H) or (L, B) at most, and no ufunc of theirs broadcasts or
casts an operand of more than a few rows: numpy runs such a ufunc
through buffers of its own, of 8192 items an operand.

A padded position keeps h.  The forward applies + b and tanh in place
and then copies h over the step's new state where the mask is 0 (the
in-place form of np.where(mask, new, h)).  The backward sets
dt = 1 - h**2 to +0 at padded rows once per call (the value
(1 - h**2) * mask has there), so dpre_t = dh * dt_t is a zero at a
padded row, and copies dh over dpre_t @ wh.T at padded rows in
the same way.  Where a step has no padded row, the copy is skipped.
With m in {0, 1} a blend such as m * new + (1 - m) * h, which the copies
replace, adds a product 0 * x, which is +0 or -0, to the kept value, so
the two can differ only in the sign of a zero.  The zeroed dt is the
one other place a zero's sign can move: dt is +0 at a padded row, and
dh * (+0) is -0 where dh's sign bit is set, where a
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
nn.model gives them X cut after the batch's last column that holds a
token, since a column of padding in every row leaves h as it is
and adds exact zeros to every gradient.
The kernels do not check that ids lie in [0, emb rows): numpy would
raise a bare IndexError, read a negative id from the end of emb, or
(in token_counts) count an id >= V in the next row.  The range is
checked once per set of ids, when nn.model.prepare_ids prepares it,
which raises ModelError before any kernel reads an id.
"""
from __future__ import annotations

import math

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


def fresh(name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A new array on every call: where the kernels' arrays come from when
    the caller keeps no Buffers."""
    return np.empty(shape, dtype)


class Buffers:
    """Named arrays that live as long as this object, for the RNN's
    per-batch arrays over a run of batches: a batch's ids and the
    kernels' arrays.  Called as buffers(name, shape, dtype), it returns
    the first prod(shape) items of the flat array it keeps under name, as
    shape, and replaces that array with one of the asked size and dtype
    when it is too small or of another dtype; the next call under the
    same name overwrites what the last handed out.  stamp counts the
    forward passes run on them (nn.model.features_forward moves it)."""

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}
        self.stamp = 0

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _padding(X: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """The time-major padding mask (L, B, 1) of ids X (B, L), and for each
    step whether any row is padded there."""
    pad = (X.T == 0)[:, :, None]
    return pad, pad.any(axis=(1, 2)).tolist()


def _bias_rows(b: np.ndarray, B: int, alloc=fresh) -> np.ndarray:
    """b repeated over B rows: adding a whole block is over twice as fast
    as numpy's one-short-row-at-a-time add of a broadcast (H,) row."""
    bias = alloc("bias", (B, b.shape[0]))
    bias[...] = b
    return bias


def _steps(
    emb: np.ndarray, X: np.ndarray, wx: np.ndarray, wh: np.ndarray, bias: np.ndarray, hwh: np.ndarray,
    pad: np.ndarray, padded: list[bool], states: np.ndarray, E: np.ndarray, t0: int,
) -> None:
    """Steps t0 .. t0 + n - 1 of the recurrence, n = len(E), in place:
    states[0] holds the state before step t0, and step t0 + j writes
    states[j + 1].  E takes the steps' token vectors and states[1:]
    their input projection, one stacked matmul whose item j is step
    t0 + j's E_t @ wx; each step then adds h @ wh (computed into hwh)
    and b, applies tanh, and keeps h at padded rows."""
    n = len(E)
    # every id was range-checked when it was prepared; "clip" lets take
    # write into E directly, where the default mode buffers its output
    np.take(emb, X[:, t0 : t0 + n].T, axis=0, out=E, mode="clip")
    np.matmul(E, wx, out=states[1:])
    steps = list(states)
    for j in range(n):
        h, new = steps[j], steps[j + 1]
        np.matmul(h, wh, out=hwh)
        new += hwh
        new += bias
        np.tanh(new, out=new)
        if padded[t0 + j]:
            np.copyto(new, h, where=pad[t0 + j])


def rnn_forward(
    emb: np.ndarray, X: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray, alloc=fresh
) -> tuple[np.ndarray, np.ndarray]:
    """The states hs (B, L+1, H), h0 = 0 first, and the gathered token
    vectors E (B, L, D) of ids X (B, L), as (B, ...) views of time-major
    arrays taken from alloc: step t reads E[:, t] and writes hs[:, t + 1],
    one contiguous block each."""
    B, L = X.shape
    D, H = wx.shape
    hs = alloc("hs", (L + 1, B, H))
    hs[0] = 0.0
    E = alloc("E", (L, B, D))
    pad, padded = _padding(X)
    _steps(emb, X, wx, wh, _bias_rows(b, B, alloc), alloc("hwh", (B, H)), pad, padded, hs, E, 0)
    return hs.transpose(1, 0, 2), E.transpose(1, 0, 2)


# the most floats a block of rnn_last_state's steps keeps in its token
# vectors and states: at most a few hundred KB, however many rows
BLOCK_FLOATS = 2**15


def rnn_last_state(emb: np.ndarray, X: np.ndarray, wx: np.ndarray, wh: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rnn_forward's last state, hs[:, -1] (B, H), keeping only a block of
    k steps' token vectors and states, k as many as BLOCK_FLOATS allows
    (at least 1): the steps run block by block through rnn_forward's
    code, each block starting from the state the last one ended on."""
    B, L = X.shape
    D, H = wx.shape
    k = max(1, min(L, BLOCK_FLOATS // max(1, B * (D + H))))
    states = np.zeros((k + 1, B, H))
    E = np.empty((k, B, D))
    pad, padded = _padding(X)
    bias, hwh = _bias_rows(b, B), np.empty((B, H))
    for t0 in range(0, L, k):
        n = min(k, L - t0)
        _steps(emb, X, wx, wh, bias, hwh, pad, padded, states[: n + 1], E[:n], t0)
        states[0] = states[n]
    return states[0]


def rnn_backward(
    dh_last: np.ndarray,
    hs: np.ndarray,
    E: np.ndarray,
    X: np.ndarray,
    wx: np.ndarray,
    wh: np.ndarray,
    alloc=fresh,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """dE (B, L, D), row-major, and dwx, dwh and db, from the gradient
    dh_last of the last state and rnn_forward's hs and E; dE and the
    step-major arrays behind the sums come from alloc.

    The loop runs the steps last first and does only what the next step
    needs: dpre_t = dh * dt_t into the kept dpre, then dh = dpre_t @ wh.T,
    with dh copied back at padded rows.  After it, dwx, dwh and dE are
    stacked matmuls over dpre whose item t is step t's E_t.T @ dpre_t,
    h_t.T @ dpre_t or dpre_t @ wx.T, and db's item t is step t's sum of
    dpre_t over its rows.  The items of dwx, dwh and db are summed last
    step first, from +0.  The zeroed padded rows of dt can leave -0 in a
    padded row of dpre where a per-step loop had +0; the module
    docstring says why no kept output can tell.
    """
    hs, E = hs.transpose(1, 0, 2), E.transpose(1, 0, 2)
    B, L = X.shape
    H, D = wh.shape[0], wx.shape[0]
    pad, padded = _padding(X)
    dt = alloc("dt", (L, B, H))
    np.multiply(hs[1:], hs[1:], out=dt)
    np.subtract(1.0, dt, out=dt)
    np.copyto(dt, 0.0, where=pad)
    whT = wh.T
    dpre = alloc("dpre", (L, B, H))
    dh = dh_last
    for t in reversed(range(L)):
        np.multiply(dh, dt[t], out=dpre[t])
        carried = dpre[t] @ whT
        if padded[t]:
            np.copyto(carried, dh, where=pad[t])
        dh = carried
    dwx = _last_step_first(np.matmul(E.transpose(0, 2, 1), dpre, out=alloc("dwx_items", (L, D, H))))
    dwh = _last_step_first(np.matmul(hs[:-1].transpose(0, 2, 1), dpre, out=alloc("dwh_items", (L, H, H))))
    db = _last_step_first(np.add.reduce(dpre, axis=1))
    # item t writes column t of the row-major dE, with its rows L * D apart
    dE = alloc("dE", (B, L, D))
    np.matmul(dpre, wx.T, out=dE.transpose(1, 0, 2))
    return dE, dwx, dwh, db


def _last_step_first(items: np.ndarray) -> np.ndarray:
    """The sum of per-step items (L, ...), added one at a time from +0,
    the last step's first."""
    return np.add.reduce(items[::-1], axis=0, initial=0.0)


def scatter_embedding(dE: np.ndarray, X: np.ndarray, vocab_size: int, alloc=fresh) -> np.ndarray:
    """The embedding gradient (vocab_size, D): each unpadded position's
    row of dE (B, L, D) added to its id's row, in X's row-major order from
    0.  The flat offsets and the gathered rows come from alloc; a dE whose
    (B * L, D) reshape is no view, as a time-major one, is copied first."""
    B, L, D = dE.shape
    mask = X != 0
    at = np.flatnonzero(mask)
    # id * D + j, added as two whole (n, D) blocks: a ufunc that broadcasts
    # an operand or casts one runs through buffers of its own
    offsets = alloc("offsets", (at.size, D), np.int64)
    np.copyto(offsets, X[mask].astype(np.int64)[:, None] * D)
    columns = alloc("columns", (at.size, D), np.int64)
    np.copyto(columns, np.arange(D))
    offsets += columns
    rows = alloc("rows", (at.size, D))
    np.take(dE.reshape(B * L, D), at, axis=0, out=rows, mode="clip")
    demb = np.bincount(offsets.ravel(), weights=rows.ravel(), minlength=vocab_size * D)
    return demb.reshape(vocab_size, D)

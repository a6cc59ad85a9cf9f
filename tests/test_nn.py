"""Numeric checks for the model: gradients, determinism, losses, serialization."""
from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

import zigzag.nn
import zigzag.nn.model
import zigzag.training
from zigzag.corpus import augment_corpus, generate_synthetic
from zigzag.encoding import build_vocab, encode_fragments
from zigzag.fragments import extract_fragments
from zigzag.nn.kernels import embed_mean_forward, rnn_backward, rnn_forward, scatter_embedding, token_counts
from zigzag.nn.losses import EPS, bce_grad, bce_loss, discrepancy_grad, discrepancy_loss
from zigzag.nn.model import (
    DetectorModel,
    ModelError,
    features_backward,
    features_forward,
    head_backward,
    head_forward,
    heads_backward,
    heads_forward,
    heads_keys,
    init_params,
    load_model,
    make_config,
    model_fingerprint,
    prepare_ids,
    save_model,
)
from zigzag.nn.optim import Adam, TrainingDiverged
from zigzag.seeds import derive_rng
from zigzag.training import TrainConfig, train_original, train_zigzag

VOCAB = 12
TINY_VOCAB = {f"t{i}": i for i in range(2, VOCAB)}  # ids 2..11, one per emb row past PAD/UNK
BATCH = 3
LENGTH = 7


def tiny_setup(encoder: str, seed: int = 5, pad_from: int = LENGTH):
    """A tiny model and batch; rows 0 and 2 end in padding, and every row
    is padding from column `pad_from` on."""
    config = make_config(
        encoder=encoder, emb_dim=4, feature_dim=6, head_hidden=5, rnn_hidden=5, length=LENGTH
    )
    params = init_params(config, VOCAB, seed)
    rng = derive_rng(seed, "tiny-data")
    X = rng.integers(1, VOCAB, size=(BATCH, LENGTH)).astype(np.int32)
    X[0, 4:] = 0  # padded tail
    X[2, 6:] = 0
    X[:, pad_from:] = 0
    y = rng.integers(0, 2, size=BATCH).astype(np.float64)
    return config, params, X, y


# the loss helpers go through the head pair, so finite differences pin
# heads_forward and heads_backward as well as the feature stack


def total_bce(params, config, X, y) -> float:
    F, _ = features_forward(params, config, X)
    return bce_loss(heads_forward(params, F)[0], y)[0]


def grads_bce(params, config, X, y) -> dict:
    F, fc = features_forward(params, config, X)
    P, hc = heads_forward(params, F)
    grads, dF = heads_backward(hc, bce_loss(P, y)[1])
    return {**grads, **features_backward(params, config, fc, dF)}


def total_disc(params, config, X) -> float:
    F, _ = features_forward(params, config, X)
    return discrepancy_loss(heads_forward(params, F)[0])[0]


def grads_disc(params, config, X) -> dict:
    F, fc = features_forward(params, config, X)
    P, hc = heads_forward(params, F)
    grads, dF = heads_backward(hc, discrepancy_loss(P)[1])
    return {**grads, **features_backward(params, config, fc, dF)}


def fd_worst_rel(params, loss_fn, grads, h=1e-4) -> float:
    worst = 0.0
    for key, g in grads.items():
        tensor = params[key]
        it = np.nditer(g, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = tensor[idx]
            tensor[idx] = saved + h
            hi = loss_fn()
            tensor[idx] = saved - h
            lo = loss_fn()
            tensor[idx] = saved
            fd = (hi - lo) / (2.0 * h)
            rel = abs(g[idx] - fd) / max(abs(g[idx]) + abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


# padded-tail: every row ends in padding, so the RNN cuts the batch's tail
FD_CASES = pytest.mark.parametrize("encoder,pad_from", [
    pytest.param("mean", LENGTH, id="mean"),
    pytest.param("rnn", LENGTH, id="rnn"),
    pytest.param("mean", 5, id="mean-padded-tail"),
    pytest.param("rnn", 5, id="rnn-padded-tail"),
])


@FD_CASES
def test_bce_gradients_match_finite_differences(encoder, pad_from):
    config, params, X, y = tiny_setup(encoder, pad_from=pad_from)
    grads = grads_bce(params, config, X, y)
    worst = fd_worst_rel(params, lambda: total_bce(params, config, X, y), grads)
    assert worst <= 1e-4


@FD_CASES
def test_discrepancy_gradients_match_finite_differences(encoder, pad_from):
    config, params, X, y = tiny_setup(encoder, pad_from=pad_from)
    F, _ = features_forward(params, config, X)
    p1, p2 = heads_forward(params, F)[0]
    # keep well away from the |p1 - p2| kink so central differences are valid
    assert np.abs(p1 - p2).min() > 1e-3
    grads = grads_disc(params, config, X)
    worst = fd_worst_rel(params, lambda: total_disc(params, config, X), grads)
    assert worst <= 1e-4


def sigmoid_reference(z):
    """The logistic function by a masked exp per sign of z."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def head_forward_reference(params, head, F):
    """One head's forward pass, as it ran before the pair was stacked."""
    h1 = np.tanh(F @ params[f"{head}_w1"] + params[f"{head}_b1"])
    z = h1 @ params[f"{head}_w2"] + params[f"{head}_b2"]
    p = sigmoid_reference(z).ravel()
    return p, {"F": F, "h1": h1, "p": p}


def head_backward_reference(params, head, cache, dp):
    """Back through head_forward_reference."""
    p = cache["p"]
    h1 = cache["h1"]
    F = cache["F"]
    dz = (dp * p * (1.0 - p))[:, None]
    grads = {
        f"{head}_w2": h1.T @ dz,
        f"{head}_b2": dz.sum(axis=0),
    }
    dh1 = dz @ params[f"{head}_w2"].T
    dpre1 = dh1 * (1.0 - h1 * h1)
    grads[f"{head}_w1"] = F.T @ dpre1
    grads[f"{head}_b1"] = dpre1.sum(axis=0)
    dF = dpre1 @ params[f"{head}_w1"].T
    return grads, dF


def heads_forward_reference(params, F):
    """heads_forward's contract, one head at a time."""
    (p1, c1), (p2, c2) = (head_forward_reference(params, head, F) for head in ("c1", "c2"))
    return np.array((p1, p2)), {"params": params, "pair": (c1, c2)}


def heads_backward_reference(cache, dP, *, head_grads=True, feature_grad=True):
    """heads_backward's contract, one head at a time."""
    (g1, dF1), (g2, dF2) = (
        head_backward_reference(cache["params"], head, c, dp) for head, c, dp in zip(("c1", "c2"), cache["pair"], dP)
    )
    return ({**g1, **g2} if head_grads else None), (dF1 + dF2 if feature_grad else None)


def bce_loss_reference(p, y):
    """One head's cross entropy, as it ran before the pair was stacked."""
    n = max(len(p), 1)
    pc = np.clip(p, EPS, 1.0 - EPS)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean()) if len(p) else 0.0
    inside = (p > EPS) & (p < 1.0 - EPS)
    dp = np.where(inside, (pc - y) / (pc * (1.0 - pc)), 0.0) / n
    return loss, dp


def pair_bce_loss_reference(P, y):
    (l1, d1), (l2, d2) = (bce_loss_reference(p, y) for p in P)
    return l1 + l2, np.array((d1, d2))


def pair_discrepancy_loss_reference(P):
    p1, p2 = P
    n = max(len(p1), 1)
    diff = p1 - p2
    loss = float(np.abs(diff).mean()) if len(p1) else 0.0
    sign = np.sign(diff)
    return loss, np.array((sign / n, -sign / n))


def assert_pair_equals_reference(params, F, y):
    """heads_forward and heads_backward, in each of their three asks, and
    the one-head calls give the reference's bytes, for the dP of a joint,
    a classifier and a feature step."""
    P, pair = heads_forward(params, F)
    want_P, want_pair = heads_forward_reference(params, F)
    assert P.shape == want_P.shape and P.tobytes() == want_P.tobytes()
    _, dD = discrepancy_loss(P)
    for dP in (bce_loss(P, y)[1], -dD, dD):
        want, want_dF = heads_backward_reference(want_pair, dP)
        grads, dF = heads_backward(pair, dP)
        assert list(grads) == heads_keys()
        assert all(grads[k].shape == want[k].shape and grads[k].tobytes() == want[k].tobytes() for k in want)
        assert dF.tobytes() == want_dF.tobytes()
        only_grads, none = heads_backward(pair, dP, feature_grad=False)
        none_too, only_dF = heads_backward(pair, dP, head_grads=False)
        assert none is None and none_too is None
        assert all(only_grads[k].tobytes() == grads[k].tobytes() for k in grads)
        assert only_dF.tobytes() == dF.tobytes()
        for k, head in enumerate(("c1", "c2")):
            p, cache = head_forward(params, head, F)
            g, dF_head = head_backward(params, head, cache, dP[k])
            want_g, want_dF_head = head_backward_reference(params, head, want_pair["pair"][k], dP[k])
            assert p.tobytes() == want_P[k].tobytes()
            assert sorted(g) == sorted(want_g) and all(g[n].tobytes() == want_g[n].tobytes() for n in g)
            assert dF_head.tobytes() == want_dF_head.tobytes()


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_head_pair_equals_two_single_head_calls(encoder):
    config, params, X, y = tiny_setup(encoder)
    F, _ = features_forward(params, config, X)
    assert_pair_equals_reference(params, F, y)
    # a classifier step's gradient: clean CE plus the negated discrepancy,
    # merged once, against the reference's per-head accumulation
    P, pair = heads_forward(params, F)
    clean_g, hard_g = (heads_backward(pair, dP)[0] for dP in (bce_loss(P, y)[1], -discrepancy_loss(P)[1]))
    want_pair = heads_forward_reference(params, F)[1]
    merged: dict = {}
    for dP in (bce_loss(P, y)[1], -discrepancy_loss(P)[1]):
        for k, g in heads_backward_reference(want_pair, dP)[0].items():
            merged[k] = merged.get(k, 0.0) + g
    assert sorted(merged) == sorted(clean_g)
    assert all((clean_g[k] + hard_g[k]).tobytes() == merged[k].tobytes() for k in merged)


def test_sigmoid_byte_equals_the_masked_reference_and_never_overflows():
    z = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf],
        derive_rng(4, "sigmoid").normal(scale=30.0, size=997),
    ])[:, None]
    with np.errstate(over="raise"):
        got = zigzag.nn.model._sigmoid(z)
        want = sigmoid_reference(z)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 900])
@pytest.mark.parametrize("head_hidden", [1, 16])
def test_stacked_head_pair_byte_equals_the_per_head_reference(rows, head_hidden):
    params = init_params(make_config(head_hidden=head_hidden), VOCAB, 11)
    rng = derive_rng(11, "head-pair", rows, head_hidden)
    F = np.tanh(rng.normal(scale=1.5, size=(rows, params["f_w"].shape[1])))
    y = rng.integers(0, 2, size=rows).astype(np.float64)
    assert_pair_equals_reference(params, F, y)


def test_pair_losses_equal_the_per_head_losses():
    rng = derive_rng(3, "pair-losses")
    P = rng.uniform(size=(2, 33))
    P[0, :3] = (0.0, 1.0, 0.5)  # clamped on both sides, and an exact half
    P[1, 4] = P[0, 4]  # a tie
    y = rng.integers(0, 2, size=33).astype(np.float64)
    for k in (0, 1):
        loss, dp = bce_loss(P[k], y)
        want_loss, want_dp = bce_loss_reference(P[k], y)
        assert loss == want_loss and dp.tobytes() == want_dp.tobytes() == bce_grad(P[k], y).tobytes()
    for got, want in ((bce_loss(P, y), pair_bce_loss_reference(P, y)),
                      (discrepancy_loss(P), pair_discrepancy_loss_reference(P))):
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    assert bce_grad(P, y).tobytes() == pair_bce_loss_reference(P, y)[1].tobytes()
    assert discrepancy_grad(P).tobytes() == pair_discrepancy_loss_reference(P)[1].tobytes()
    with pytest.raises(ValueError):
        bce_loss(P, y[:-1])
    with pytest.raises(ValueError):
        discrepancy_loss(P[0])


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_features_forward_accepts_exactly_ids_below_emb_rows(encoder):
    config, params, X, _ = tiny_setup(encoder)
    X[1, 0] = VOCAB - 1
    F, _ = features_forward(params, config, X)
    assert F.shape == (BATCH, config["feature_dim"])
    F0, _ = features_forward(params, config, X[:0])
    assert F0.shape == (0, config["feature_dim"])
    for bad in (VOCAB, -1):
        X[1, 0] = bad
        with pytest.raises(ModelError, match=f"token id {bad} "):
            features_forward(params, config, X)


# ---- RNN cut at the last filled column ------------------------------------------


def uncut_rnn_pass(params: dict, X: np.ndarray, dF: np.ndarray) -> tuple[np.ndarray, dict]:
    """F and the feature gradients of the RNN stack, stepping the kernels
    through every column of X."""
    hs, E = rnn_forward(params["emb"], X, params["r_wx"], params["r_wh"], params["r_b"])
    enc = hs[:, -1, :]
    F = np.tanh(enc @ params["f_w"] + params["f_b"])
    dpre = dF * (1.0 - F * F)
    dE, dwx, dwh, db = rnn_backward(dpre @ params["f_w"].T, hs, E, X, params["r_wx"], params["r_wh"])
    grads = {"f_w": enc.T @ dpre, "f_b": dpre.sum(axis=0), "r_wx": dwx, "r_wh": dwh, "r_b": db}
    grads["emb"] = scatter_embedding(dE, X, params["emb"].shape[0])
    return F, grads


def slice_rnn_setup(length: int = 64):
    """An RNN model and the encoded slice fragments of a small corpus: at
    least the 32 rows that RNN_CUT_BATCHES cut with X[:32]."""
    fragments = [f for item in generate_synthetic(16, 0.5, seed=3) for f in extract_fragments(item, "slice")]
    vocab = build_vocab(f for f in fragments if f.split == "train")
    X, _ = encode_fragments(fragments, vocab, length)
    assert X.shape[0] >= 32
    config = make_config(encoder="rnn", granularity="slice", length=length)
    params = init_params(config, max(vocab.values()) + 1, 7)
    rng = derive_rng(7, "rnn-cut")
    for key in ("r_b", "f_b"):  # nonzero biases, so a masked step would show
        params[key] = rng.uniform(-0.5, 0.5, size=params[key].shape)
    return config, params, X


def _gap_batch(X):
    """Rows whose tokens sit in columns 0-2 and 4-5; column 3 is padding."""
    gap = X[:6, :6].copy()
    gap[:, 3] = 0
    gap[:, :3] = np.maximum(gap[:, :3], 2)
    gap[:, 5] = 2
    return gap


def _full_set_batch(X):
    """320 rows by 48 columns of X's token ids, each row padding after a
    drawn length (0 to 48): the size of a whole set the trainer measures."""
    rng = derive_rng(7, "rnn-full-set")
    batch = rng.choice(X[X != 0], size=(320, 48))
    batch[np.arange(48) >= rng.integers(0, 49, size=(320, 1))] = 0
    return batch


RNN_CUT_BATCHES = {
    "encoded": lambda X: X[:32],
    "full-set": _full_set_batch,
    "one-row": lambda X: X[:1],
    "five-extra-pad-columns": lambda X: np.pad(X[:32], ((0, 0), (0, 5))),
    "all-padding": lambda X: np.zeros_like(X[:4]),
    "empty": lambda X: X[:0],
    "tokens-in-column-0-only": lambda X: np.pad(X[:8, :1], ((0, 0), (0, X.shape[1] - 1))),
    "pad-column-between-tokens": lambda X: np.pad(_gap_batch(X), ((0, 0), (0, X.shape[1] - 6))),
    # every token is id 2, so its embedding row sums hundreds of dE rows
    "one-id-repeated": lambda X: np.where(X[:32] != 0, 2, 0),
}


@pytest.mark.parametrize("batch", RNN_CUT_BATCHES)
def test_rnn_cut_at_last_filled_column_changes_no_byte(batch):
    config, params, encoded = slice_rnn_setup()
    X = RNN_CUT_BATCHES[batch](encoded)
    filled = np.flatnonzero((X != 0).any(axis=0))
    last = int(filled[-1]) if filled.size else -1
    if batch == "encoded":
        assert 0 < last < X.shape[1] - 1, "the encoded batch ends in padding columns"
    dF = derive_rng(7, "rnn-cut-dF").uniform(-1.0, 1.0, size=(X.shape[0], config["feature_dim"]))
    F, cache = features_forward(params, config, X)
    grads = features_backward(params, config, cache, dF)
    want_F, want_grads = uncut_rnn_pass(params, X, dF)
    assert cache["hs"].shape[1] == last + 2  # h0, then one step per column up to the last filled
    assert F.tobytes() == want_F.tobytes()
    assert sorted(grads) == sorted(want_grads)
    for key, g in want_grads.items():
        assert grads[key].tobytes() == g.tobytes(), key
    if batch == "all-padding":
        assert F.tobytes() == np.broadcast_to(np.tanh(params["f_b"]), F.shape).tobytes()


# ---- RNN kernels against the per-step reference ---------------------------------


def rnn_forward_reference(emb, X, wx, wh, b):
    """The recurrence batch-major, blending each step's new state into h
    by the token mask."""
    B, L = X.shape
    hs = np.zeros((B, L + 1, wh.shape[0]), dtype=np.float64)
    E = emb[X]
    mask = (X != 0).astype(np.float64)
    h = np.zeros((B, wh.shape[0]), dtype=np.float64)
    for t in range(L):
        new = np.tanh(E[:, t, :] @ wx + h @ wh + b)
        m = mask[:, t][:, None]
        h = m * new + (1.0 - m) * h
        hs[:, t + 1, :] = h
    return hs, E


def rnn_backward_reference(dh_last, hs, E, X, wx, wh):
    """Backpropagation through rnn_forward_reference, one step at a time."""
    B, L = X.shape
    mask = (X != 0).astype(np.float64)
    dwx, dwh = np.zeros_like(wx), np.zeros_like(wh)
    db = np.zeros(wh.shape[0], dtype=np.float64)
    dE = np.zeros_like(E)
    dh = dh_last.copy()
    for t in range(L - 1, -1, -1):
        m = mask[:, t][:, None]
        new = hs[:, t + 1, :]
        dpre = dh * m * (1.0 - new * new)
        dwx += E[:, t, :].T @ dpre
        dwh += hs[:, t, :].T @ dpre
        db += dpre.sum(axis=0)
        dE[:, t, :] = dpre @ wx.T
        dh = dh * (1.0 - m) + dpre @ wh.T
    return dE, dwx, dwh, db


def scatter_embedding_reference(dE, X, vocab_size):
    """Each unpadded position's dE row added to its id's row by np.add.at."""
    demb = np.zeros((vocab_size, dE.shape[2]), dtype=np.float64)
    mask = X != 0
    np.add.at(demb, X[mask], dE[mask])
    return demb


@pytest.mark.parametrize("batch", RNN_CUT_BATCHES)
def test_rnn_kernels_byte_equal_the_per_step_reference(batch):
    _, params, encoded = slice_rnn_setup()
    X = RNN_CUT_BATCHES[batch](encoded)
    if batch == "one-id-repeated":
        assert np.count_nonzero(X == 2) >= 300
    emb, wx, wh, b = params["emb"], params["r_wx"], params["r_wh"], params["r_b"]
    mask = X != 0
    hs, E = rnn_forward(emb, X, wx, wh, b)
    want_hs, want_E = rnn_forward_reference(emb, X, wx, wh, b)
    assert hs.shape == want_hs.shape and E.shape == want_E.shape
    assert hs.tobytes() == want_hs.tobytes()
    assert E[mask].tobytes() == want_E[mask].tobytes()
    dh = derive_rng(7, "rnn-reference-dh").uniform(-1.0, 1.0, size=(X.shape[0], wh.shape[0]))
    got = rnn_backward(dh, hs, E, X, wx, wh)
    want = rnn_backward_reference(dh, want_hs, want_E, X, wx, wh)
    assert got[0].shape == want[0].shape
    assert got[0][mask].tobytes() == want[0][mask].tobytes()
    for name, g, w in zip(("dwx", "dwh", "db"), got[1:], want[1:]):
        assert g.tobytes() == w.tobytes(), name
    V = emb.shape[0]
    assert scatter_embedding(got[0], X, V).tobytes() == scatter_embedding_reference(want[0], X, V).tobytes()
    # the same dE, row-major or a time-major view, scatters to the same bytes
    dE = np.ascontiguousarray(got[0])
    assert scatter_embedding(dE, X, V).tobytes() == scatter_embedding_reference(dE, X, V).tobytes()


def test_slice_rnn_zigzag_run_byte_equals_one_on_the_per_step_reference(tmp_path, monkeypatch):
    corpus = generate_synthetic(12, seed=3)
    pairs = [(c, c.program()) for c in corpus if c.split == "train"]
    clean = [f for item, program in pairs for f in extract_fragments(item, "slice", program)]
    varied = [f for item in augment_corpus(pairs, ("ct2", "ct7"), seed=5) if item.kind
              for f in extract_fragments(item, "slice")]
    model_config = {"encoder": "rnn", "granularity": "slice"}
    train_config = TrainConfig(e1=3, beta=2, e2=2, e3=2, seed=7)

    def run(name):
        outcome = train_zigzag(clean, varied, model_config, train_config)
        save_model(outcome.model, tmp_path / name)
        return (tmp_path / name).read_bytes(), [asdict(rec) for rec in outcome.trace]

    got = run("kernels.zzm")
    monkeypatch.setattr(zigzag.nn.model, "rnn_forward", rnn_forward_reference)
    monkeypatch.setattr(zigzag.nn.model, "rnn_backward", rnn_backward_reference)
    monkeypatch.setattr(zigzag.nn.model, "scatter_embedding", scatter_embedding_reference)
    want = run("reference.zzm")
    assert {rec["round"] for rec in got[1]} == {0, 1, 2}  # the warm-up, then both rounds
    assert got[0] == want[0]
    assert got[1] == want[1]


# ---- count-matrix mean pooling ------------------------------------------------


def gather_mean_reference(emb: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Masked mean by gathering each token's row and summing over the length."""
    mask = X != 0
    denom = np.maximum(mask.sum(axis=1), 1).astype(np.float64)
    return (emb[X] * mask[:, :, None]).sum(axis=1) / denom[:, None]


# (rows N, length L, vocab rows V, emb_dim D); the fixed shapes cover an
# empty batch, length 0, one vocab row, emb_dim 1 and a full-length batch
POOL_SHAPES = [(0, 7, 5, 3), (0, 0, 4, 2), (4, 0, 5, 3), (3, 5, 1, 4), (6, 9, 8, 1), (32, 128, 60, 16)]
POOL_SHAPES += [
    tuple(int(v) for v in derive_rng(trial, "pool-shape").integers((1, 1, 1, 1), (50, 140, 300, 20)))
    for trial in range(12)
]


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_count_matrix_pooling_matches_gather_and_sum(shape):
    N, L, V, D = shape
    rng = derive_rng(N * 7 + L, "pool-data", V, D)
    emb = rng.uniform(-1.0, 1.0, size=(V, D))
    emb[0] = rng.uniform(-1.0, 1.0, size=D)  # a nonzero padding row must still be masked
    X = rng.integers(0, V, size=(N, L)).astype(np.int32)
    X[rng.uniform(size=(N, L)) < 0.3] = 0
    if N:
        X[0] = 0  # an all-padding row
    C, denom = token_counts(X, V)
    pooled = embed_mean_forward(emb, C, denom)
    assert pooled.shape == (N, D)
    # C counts each row's unpadded ids exactly; n is the unpadded length, at least 1
    for i in range(N):
        expected = np.bincount(X[i][X[i] != 0], minlength=V)
        assert C[i].tolist() == expected.tolist()
    assert denom.tolist() == np.maximum((X != 0).sum(axis=1), 1).tolist()
    if N:
        assert pooled[0].tolist() == [0.0] * D
    # only the summation order differs: a few ulps of the largest |emb|
    scale = np.abs(emb).max()
    assert np.abs(pooled - gather_mean_reference(emb, X)).max(initial=0.0) <= 1e-12 * scale


# ---- prepared sets -------------------------------------------------------------


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_prepared_rows_forward_and_backward_byte_equal_the_plain_rows(encoder):
    config, params, _, _ = tiny_setup(encoder)
    rng = derive_rng(11, "prepared-data", encoder)
    X = rng.integers(1, VOCAB, size=(9, LENGTH)).astype(np.int32)
    X[rng.uniform(size=X.shape) < 0.3] = 0
    X[[2, 5]] = 0  # all-padding rows
    prepared = prepare_ids(params, config, X)
    assert len(prepared) == len(X)
    mask = np.isin(np.arange(len(X)), [1, 2, 7])
    # the whole set, a shuffled batch, a mask (as X'' is mined), a slice,
    # no rows, and the all-padding rows alone
    for rows in (np.arange(len(X)), rng.permutation(len(X))[:4], mask, slice(3, 8),
                 np.array([], dtype=np.int64), np.array([2, 5])):
        F, cache = features_forward(params, config, prepared[rows])
        F_plain, cache_plain = features_forward(params, config, X[rows])
        assert F.shape == F_plain.shape and F.tobytes() == F_plain.tobytes()
        dF = derive_rng(12, "prepared-grad").normal(size=F.shape)
        grads = features_backward(params, config, cache, dF)
        grads_plain = features_backward(params, config, cache_plain, dF)
        assert list(grads) == list(grads_plain)
        assert all(grads[k].tobytes() == grads_plain[k].tobytes() for k in grads)


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
@pytest.mark.parametrize("bad", [VOCAB, -1], ids=["emb-rows", "negative"])
def test_preparing_ids_out_of_range_raises_before_any_kernel(encoder, bad, monkeypatch):
    config, params, X, _ = tiny_setup(encoder)
    X[1, 0] = bad

    def kernel(*args):
        raise AssertionError("a kernel read ids before their range was checked")

    for name in ("token_counts", "embed_mean_forward", "rnn_forward"):
        monkeypatch.setattr(zigzag.nn.model, name, kernel)
    for prepare in (prepare_ids, features_forward):
        with pytest.raises(ModelError, match=f"token id {bad} "):
            prepare(params, config, X)


def test_a_set_prepared_for_another_embedding_or_encoder_raises():
    config, params, X, _ = tiny_setup("mean")
    prepared = prepare_ids(params, config, X)
    wider = dict(params, emb=np.zeros((VOCAB + 1, config["emb_dim"])))
    rnn_config, rnn_params, _, _ = tiny_setup("rnn")
    for other_params, other_config in ((wider, config), (rnn_params, rnn_config)):
        with pytest.raises(ModelError, match=f"prepared for {VOCAB} embedding rows"):
            features_forward(other_params, other_config, prepared)


# ---- backend -----------------------------------------------------------------


def test_each_backend_is_deterministic():
    # environment records of the benchmark name the backend through this call
    assert zigzag.nn.active_backend() == "numpy"
    config, params, X, _ = tiny_setup("mean")
    a, _ = features_forward(params, config, X)
    b, _ = features_forward(params, config, X)
    assert a.tobytes() == b.tobytes()


# ---- losses ------------------------------------------------------------------


def test_bce_golden_at_half():
    loss, dp = bce_loss(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(np.log(2.0))
    assert dp[0] == pytest.approx(-2.0)


def test_bce_clamps_and_zeroes_gradient_outside():
    loss, dp = bce_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert loss == pytest.approx(-2.0 * np.log(EPS) / 2.0, rel=1e-6)
    assert dp.tolist() == [0.0, 0.0]


def test_discrepancy_golden():
    loss, dP = discrepancy_loss(np.array([[0.8, 0.2], [0.6, 0.2]]))
    assert loss == pytest.approx(0.1)
    assert dP[0].tolist() == [0.5, 0.0]  # sign / n; ties get subgradient zero
    assert dP[1].tolist() == [-0.5, 0.0]


# ---- optimizer -----------------------------------------------------------------


def test_adam_updates_only_given_keys():
    # both training phases freeze tensors by leaving them out of the gradients
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    opt = Adam(0.5)
    opt.step(params, {"a": np.array([0.5, -0.5])})
    assert params["a"].tolist() == pytest.approx([0.5, 2.5])
    assert params["b"].tolist() == [3.0]
    # b's moments and step count did not move: its first step is a signed lr
    opt.step(params, {"b": np.array([-0.25])})
    assert params["b"].tolist() == pytest.approx([3.5])
    assert params["a"].tolist() == pytest.approx([0.5, 2.5])


def test_adam_first_step_is_signed_lr():
    params = {"a": np.array([1.0, 1.0])}
    Adam(0.1).step(params, {"a": np.array([0.5, -0.25])})
    np.testing.assert_allclose(params["a"], [0.9, 1.1], atol=1e-6)


def test_adam_rejects_a_second_params_dict():
    opt = Adam(0.1)
    opt.step({"a": np.array([1.0])}, {"a": np.array([0.5])})
    with pytest.raises(ValueError):
        opt.step({"a": np.array([1.0])}, {"a": np.array([0.5])})


def test_optimizers_reject_non_finite_gradients():
    params = {"a": np.array([1.0])}
    with pytest.raises(TrainingDiverged):
        Adam(0.1).step(params, {"a": np.array([np.inf])})


def test_non_finite_gradient_moves_no_tensor_and_names_the_first_in_buffer_order():
    params = init_params(make_config(emb_dim=4), VOCAB, 0)
    before = {k: v.tobytes() for k, v in params.items()}
    grads = {k: np.full(v.shape, 0.5) for k, v in params.items()}
    grads["c2_b2"] = np.array([np.nan])
    grads["f_b"][1] = np.inf
    grads = {k: grads[k] for k in reversed(params)}  # heads first, as the trainer builds them
    opt = Adam(0.1)
    with pytest.raises(TrainingDiverged, match="^non-finite gradient in 'f_b'$"):
        opt.step(params, grads)
    assert {k: v.tobytes() for k, v in params.items()} == before
    # nor did any moment or step count: the next step is a first step
    opt.step(params, {"emb": np.full(params["emb"].shape, -0.5)})
    emb_before = np.frombuffer(before["emb"]).reshape(params["emb"].shape)
    np.testing.assert_allclose(params["emb"], emb_before + 0.1, atol=1e-6)


def test_non_finite_parameter_names_the_first_tensor_in_buffer_order():
    params = {"a": np.array([1.0]), "b": np.array([1.0, 2.0])}
    with pytest.raises(TrainingDiverged, match="^non-finite parameter in 'a'$"):
        Adam(np.inf).step(params, {"b": np.array([0.5, 0.5]), "a": np.array([0.5])})


class _PerTensorAdam:
    """The per-tensor Adam loop the flat buffer replaced, kept as the reference."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float) -> None:
        self.lr = float(lr)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
                self.t[name] = 0
            self.t[name] += 1
            t = self.t[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            mhat = self.m[name] / (1.0 - self.beta1**t)
            vhat = self.v[name] / (1.0 - self.beta2**t)
            params[name] -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_flat_adam_is_byte_identical_to_the_per_tensor_loop(encoder):
    config = make_config(encoder=encoder, emb_dim=4, feature_dim=6, head_hidden=5, rnn_hidden=5)
    params = init_params(config, VOCAB, 3)
    reference = {k: v.copy() for k, v in params.items()}
    heads = [f"{h}_{p}" for h in ("c1", "c2") for p in ("w2", "b2", "w1", "b1")]  # the reference's order
    features = [k for k in reversed(params) if not k.startswith("c")]
    # per-tensor step counts diverge, and the last joint step spans tensors
    # whose counts differ (heads 6, features 5)
    steps = [heads + features] * 3 + [heads] * 2 + [features] * 2 + [heads] + [heads + features]
    opt, ref = Adam(0.05), _PerTensorAdam(0.05)
    rng = derive_rng(0, "test", "adam")
    for keys in steps:
        grads = {k: rng.normal(scale=0.3, size=params[k].shape) for k in keys}
        opt.step(params, grads)
        ref.step(reference, grads)
        for k in params:
            assert params[k].tobytes() == reference[k].tobytes(), k


@pytest.mark.parametrize("mode", ["conventional", "zigzag"])
def test_function_mean_run_byte_equals_one_on_the_per_head_reference(tmp_path, monkeypatch, mode):
    corpus = generate_synthetic(12, seed=3)
    pairs = [(c, c.program()) for c in corpus if c.split == "train"]
    clean = [f for item, program in pairs for f in extract_fragments(item, "function", program)]
    varied = [f for item in augment_corpus(pairs, ("ct2", "ct7"), seed=5) if item.kind
              for f in extract_fragments(item, "function")]
    train_config = TrainConfig(e1=3, beta=2, e2=2, e3=2, seed=7)

    def run(name):
        if mode == "zigzag":
            outcome = train_zigzag(clean, varied, None, train_config)
        else:
            outcome = train_original([*clean, *varied], None, train_config)
        save_model(outcome.model, tmp_path / name)
        return (tmp_path / name).read_bytes(), [asdict(rec) for rec in outcome.trace]

    got = run("stacked.zzm")
    monkeypatch.setattr(zigzag.training, "heads_forward", heads_forward_reference)
    monkeypatch.setattr(zigzag.training, "heads_backward", heads_backward_reference)
    monkeypatch.setattr(zigzag.training, "Adam", _PerTensorAdam)
    # each head's loss on its own, and the loss value computed with each gradient
    monkeypatch.setattr(zigzag.training, "bce_loss", pair_bce_loss_reference)
    monkeypatch.setattr(zigzag.training, "bce_grad", lambda P, y: pair_bce_loss_reference(P, y)[1])
    monkeypatch.setattr(zigzag.training, "discrepancy_loss", pair_discrepancy_loss_reference)
    monkeypatch.setattr(zigzag.training, "discrepancy_grad", lambda P: pair_discrepancy_loss_reference(P)[1])
    want = run("reference.zzm")
    if mode == "zigzag":
        assert {rec["round"] for rec in got[1]} == {0, 1, 2}  # the warm-up, then both rounds
        assert all(0.0 < rec["gamma"] for rec in got[1] if rec["round"])  # every round has a hard set
    assert got[0] == want[0]
    assert got[1] == want[1]


# ---- model container ------------------------------------------------------------


def test_init_embedding_pad_row_is_zero():
    config = make_config(emb_dim=4)
    params = init_params(config, VOCAB, 0)
    assert params["emb"][0].tolist() == [0.0] * 4
    assert params["f_b"].tolist() == [0.0] * config["feature_dim"]


def test_padding_does_not_change_pooled_features():
    config, params, _, _ = tiny_setup("mean")
    row = np.array([[3, 4, 5, 0, 0, 0, 0]], dtype=np.int32)
    trimmed = np.array([[3, 4, 5]], dtype=np.int32)
    full, _ = features_forward(params, config, row)
    short, _ = features_forward(params, config, trimmed)
    np.testing.assert_allclose(full, short, rtol=1e-12)


def test_fused_prediction_goldens(monkeypatch):
    _, params, _, _ = tiny_setup("mean")
    model = DetectorModel(config=make_config(fusion="mean", delta=0.4), vocab={"t": 2}, params=params)
    monkeypatch.setattr(
        DetectorModel, "predict_proba", lambda self, X: (np.array([0.8, 0.5]), np.array([0.6, 0.3]))
    )
    np.testing.assert_allclose(model.fused_proba(None), [0.7, 0.4])
    pred = model.predict(None)
    assert pred.dtype == np.int64
    assert pred.tolist() == [1, 0]  # 0.7 > 0.4; 0.4 is not strictly greater


def test_first_head_fusion_ignores_second_head(monkeypatch):
    _, params, _, _ = tiny_setup("mean")
    model = DetectorModel(config=make_config(fusion="c1", delta=0.4), vocab={"t": 2}, params=params)
    monkeypatch.setattr(
        DetectorModel, "predict_proba", lambda self, X: (np.array([0.45]), np.array([0.0]))
    )
    assert model.predict(None).tolist() == [1]


def test_save_load_round_trip(tmp_path):
    config, params, X, _ = tiny_setup("mean")
    model = DetectorModel(config=config, vocab=TINY_VOCAB, params=params)
    path = tmp_path / "model.zzm"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    for key in params:
        assert loaded.params[key].tobytes() == params[key].tobytes()
    assert model_fingerprint(loaded) == model_fingerprint(model)
    again = tmp_path / "model2.zzm"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "bogus.zzm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ModelError):
        load_model(path)


def test_load_rejects_trailing_garbage(tmp_path):
    config, params, _, _ = tiny_setup("mean")
    model = DetectorModel(config=config, vocab=TINY_VOCAB, params=params)
    path = tmp_path / "model.zzm"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ModelError, match="trailing bytes"):
        load_model(path)


def test_make_config_validation():
    with pytest.raises(ModelError):
        make_config(hidden_layers=3)
    with pytest.raises(ModelError):
        make_config(encoder="transformer")
    with pytest.raises(ModelError):
        make_config(fusion="max")


def test_make_config_length_defaults_by_granularity():
    assert make_config()["length"] == 128
    assert make_config(granularity="function")["length"] == 128
    assert make_config(granularity="slice")["length"] == 64
    assert make_config(granularity="slice", length=7)["length"] == 7

"""Numeric checks for the model: gradients, determinism, losses, serialization."""
from __future__ import annotations

import numpy as np
import pytest

import zigzag.nn
from zigzag.corpus import generate_synthetic
from zigzag.encoding import build_vocab, encode_fragments
from zigzag.fragments import extract_fragments
from zigzag.nn.kernels import embed_mean_forward, rnn_backward, rnn_forward, scatter_embedding
from zigzag.nn.losses import EPS, bce_loss, discrepancy_loss
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
    save_model,
)
from zigzag.nn.optim import Adam, TrainingDiverged
from zigzag.seeds import derive_rng

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
    p1, p2, _ = heads_forward(params, F)
    return bce_loss(p1, y)[0] + bce_loss(p2, y)[0]


def grads_bce(params, config, X, y) -> dict:
    F, fc = features_forward(params, config, X)
    p1, p2, hc = heads_forward(params, F)
    grads, dF = heads_backward(params, hc, bce_loss(p1, y)[1], bce_loss(p2, y)[1])
    return {**grads, **features_backward(params, config, fc, dF)}


def total_disc(params, config, X) -> float:
    F, _ = features_forward(params, config, X)
    p1, p2, _ = heads_forward(params, F)
    return discrepancy_loss(p1, p2)[0]


def grads_disc(params, config, X) -> dict:
    F, fc = features_forward(params, config, X)
    p1, p2, hc = heads_forward(params, F)
    _, d1, d2 = discrepancy_loss(p1, p2)
    grads, dF = heads_backward(params, hc, d1, d2)
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
    p1, _ = head_forward(params, "c1", F)
    p2, _ = head_forward(params, "c2", F)
    # keep well away from the |p1 - p2| kink so central differences are valid
    assert np.abs(p1 - p2).min() > 1e-3
    grads = grads_disc(params, config, X)
    worst = fd_worst_rel(params, lambda: total_disc(params, config, X), grads)
    assert worst <= 1e-4


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_head_pair_equals_two_single_head_calls(encoder):
    config, params, X, y = tiny_setup(encoder)
    F, _ = features_forward(params, config, X)
    p1, p2, pair = heads_forward(params, F)
    q1, h1 = head_forward(params, "c1", F)
    q2, h2 = head_forward(params, "c2", F)
    assert (p1.tobytes(), p2.tobytes()) == (q1.tobytes(), q2.tobytes())

    def single(dp1, dp2):
        g1, dF1 = head_backward(params, "c1", h1, dp1)
        g2, dF2 = head_backward(params, "c2", h2, dp2)
        return {**g1, **g2}, dF1 + dF2

    _, d1, d2 = discrepancy_loss(p1, p2)
    clean = (bce_loss(p1, y)[1], bce_loss(p2, y)[1])
    for dp1, dp2 in (clean, (-d1, -d2)):
        grads, dF = heads_backward(params, pair, dp1, dp2)
        want, want_dF = single(dp1, dp2)
        assert list(grads) == list(want) and set(grads) == set(heads_keys())
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)
        assert dF.tobytes() == want_dF.tobytes()
    # a classifier step's gradient: clean CE plus the negated discrepancy,
    # merged once, against the per-head accumulation it replaced
    clean_g, hard_g = (heads_backward(params, pair, *dp)[0] for dp in (clean, (-d1, -d2)))
    merged: dict = {}
    for k, g in (*single(*clean)[0].items(), *single(-d1, -d2)[0].items()):
        merged[k] = merged.get(k, 0.0) + g
    assert list(merged) == list(clean_g)
    assert all((clean_g[k] + hard_g[k]).tobytes() == merged[k].tobytes() for k in merged)


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
    """An RNN model and the encoded slice fragments of a small corpus."""
    fragments = [f for item in generate_synthetic(8, 0.5, seed=3) for f in extract_fragments(item, "slice")]
    vocab = build_vocab(f for f in fragments if f.split == "train")
    X, _ = encode_fragments(fragments, vocab, length)
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


RNN_CUT_BATCHES = {
    "encoded": lambda X: X[:32],
    "five-extra-pad-columns": lambda X: np.pad(X[:32], ((0, 0), (0, 5))),
    "all-padding": lambda X: np.zeros_like(X[:4]),
    "empty": lambda X: X[:0],
    "tokens-in-column-0-only": lambda X: np.pad(X[:8, :1], ((0, 0), (0, X.shape[1] - 1))),
    "pad-column-between-tokens": lambda X: np.pad(_gap_batch(X), ((0, 0), (0, X.shape[1] - 6))),
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
    pooled, C, denom = embed_mean_forward(emb, X)
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
    loss, d1, d2 = discrepancy_loss(np.array([0.8, 0.2]), np.array([0.6, 0.2]))
    assert loss == pytest.approx(0.1)
    assert d1.tolist() == [0.5, 0.0]  # sign / n; ties get subgradient zero
    assert d2.tolist() == [-0.5, 0.0]


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

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
        self.lr, self.beta1, self.beta2, self.eps = float(lr), beta1, beta2, eps
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
    heads = [f"{h}_{p}" for h in ("c1", "c2") for p in ("w2", "b2", "w1", "b1")]  # head_backward's order
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

"""Numeric checks for the model: gradients, determinism, losses, serialization."""
from __future__ import annotations

import numpy as np
import pytest

import zigzag.nn
from zigzag.nn.kernels import embed_mean_forward
from zigzag.nn.losses import EPS, bce_loss, discrepancy_loss
from zigzag.nn.model import (
    DetectorModel,
    ModelError,
    features_backward,
    features_forward,
    head_backward,
    head_forward,
    init_params,
    load_model,
    make_config,
    model_fingerprint,
    save_model,
)
from zigzag.nn.optim import Adam, Sgd, TrainingDiverged
from zigzag.seeds import derive_rng

VOCAB = 12
TINY_VOCAB = {f"t{i}": i for i in range(2, VOCAB)}  # ids 2..11, one per emb row past PAD/UNK
BATCH = 3
LENGTH = 7


def tiny_setup(encoder: str, seed: int = 5):
    config = make_config(
        encoder=encoder, emb_dim=4, feature_dim=6, head_hidden=5, rnn_hidden=5, length=LENGTH
    )
    params = init_params(config, VOCAB, seed)
    rng = derive_rng(seed, "tiny-data")
    X = rng.integers(1, VOCAB, size=(BATCH, LENGTH)).astype(np.int32)
    X[0, 4:] = 0  # padded tail
    X[2, 6:] = 0
    y = rng.integers(0, 2, size=BATCH).astype(np.float64)
    return config, params, X, y


def total_bce(params, config, X, y) -> float:
    F, _ = features_forward(params, config, X)
    p1, _ = head_forward(params, "c1", F)
    p2, _ = head_forward(params, "c2", F)
    return bce_loss(p1, y)[0] + bce_loss(p2, y)[0]


def grads_bce(params, config, X, y) -> dict:
    F, fc = features_forward(params, config, X)
    p1, h1 = head_forward(params, "c1", F)
    p2, h2 = head_forward(params, "c2", F)
    _, dp1 = bce_loss(p1, y)
    _, dp2 = bce_loss(p2, y)
    g1, dF1 = head_backward(params, "c1", h1, dp1)
    g2, dF2 = head_backward(params, "c2", h2, dp2)
    return {**g1, **g2, **features_backward(params, config, fc, dF1 + dF2)}


def total_disc(params, config, X) -> float:
    F, _ = features_forward(params, config, X)
    p1, _ = head_forward(params, "c1", F)
    p2, _ = head_forward(params, "c2", F)
    return discrepancy_loss(p1, p2)[0]


def grads_disc(params, config, X) -> dict:
    F, fc = features_forward(params, config, X)
    p1, h1 = head_forward(params, "c1", F)
    p2, h2 = head_forward(params, "c2", F)
    _, d1, d2 = discrepancy_loss(p1, p2)
    g1, dF1 = head_backward(params, "c1", h1, d1)
    g2, dF2 = head_backward(params, "c2", h2, d2)
    return {**g1, **g2, **features_backward(params, config, fc, dF1 + dF2)}


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


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_bce_gradients_match_finite_differences(encoder):
    config, params, X, y = tiny_setup(encoder)
    grads = grads_bce(params, config, X, y)
    worst = fd_worst_rel(params, lambda: total_bce(params, config, X, y), grads)
    assert worst <= 1e-4


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_discrepancy_gradients_match_finite_differences(encoder):
    config, params, X, y = tiny_setup(encoder)
    F, _ = features_forward(params, config, X)
    p1, _ = head_forward(params, "c1", F)
    p2, _ = head_forward(params, "c2", F)
    # keep well away from the |p1 - p2| kink so central differences are valid
    assert np.abs(p1 - p2).min() > 1e-3
    grads = grads_disc(params, config, X)
    worst = fd_worst_rel(params, lambda: total_disc(params, config, X), grads)
    assert worst <= 1e-4


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


# ---- optimizers ----------------------------------------------------------------


def test_sgd_updates_only_given_keys():
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0])}
    Sgd(1.0).step(params, {"a": np.array([0.5, 0.5])})
    assert params["a"].tolist() == [0.5, 1.5]
    assert params["b"].tolist() == [3.0]


def test_adam_first_step_is_signed_lr():
    params = {"a": np.array([1.0, 1.0])}
    Adam(0.1).step(params, {"a": np.array([0.5, -0.25])})
    np.testing.assert_allclose(params["a"], [0.9, 1.1], atol=1e-6)


def test_optimizers_reject_non_finite_gradients():
    params = {"a": np.array([1.0])}
    with pytest.raises(TrainingDiverged):
        Sgd(0.1).step(params, {"a": np.array([np.nan])})
    with pytest.raises(TrainingDiverged):
        Adam(0.1).step(params, {"a": np.array([np.inf])})


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

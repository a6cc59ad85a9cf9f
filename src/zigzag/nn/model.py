"""Detector model: shared feature stack and two classifier heads.

The feature stack embeds token ids, pools them (masked mean, or a
masked tanh recurrence when config["encoder"] is "rnn"), and applies a
tanh affine layer.  The mean is a matmul with the batch's token-count
matrix C, (C @ emb) / n, and its embedding gradient is C.T @ (denc / n);
only the RNN scatters per-token gradients into the embedding.  The
recurrence runs to the batch's last column that holds a token; the
all-padding columns after it would leave h as it is.  Each head is a
small tanh MLP ending in a sigmoid.  The two heads c1 and c2 always run
as a pair on one F: heads_forward and heads_backward are the only way
training and prediction reach them, and heads_backward sums the two
heads' feature gradients.  binary_prediction is the one threshold rule.
Everything is float64 and functional: forward passes return caches,
backward passes return gradient dicts keyed like the parameter dict, so
freezing a subsystem means not asking for its gradients.

Serialization is a fixed binary layout (magic, length-prefixed
canonical JSON header, raw little-endian float64 tensors in sorted name
order) so that equal models produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import hashlib

import numpy as np

from ..fragments import FUNCTION_GRANULARITY, GRANULARITIES, SLICE_GRANULARITY
from ..seeds import derive_rng
from .kernels import embed_mean_forward, rnn_backward, rnn_forward, scatter_embedding

MAGIC = b"ZZM1"
FORMAT_VERSION = 1

DEFAULT_CONFIG = {
    "encoder": "mean",
    "emb_dim": 16,
    "feature_dim": 32,
    "head_hidden": 16,
    "rnn_hidden": 24,
    "granularity": FUNCTION_GRANULARITY,
    "delta": 0.4,
    "fusion": "c1",
}

# tokens kept per fragment when the config names no length; a slice is a
# few statements of one function
DEFAULT_LENGTH = {FUNCTION_GRANULARITY: 128, SLICE_GRANULARITY: 64}

_REQUIRED_KEYS = (*DEFAULT_CONFIG, "length")

# the two classifier heads on one feature stack
HEADS = ("c1", "c2")


class ModelError(Exception):
    pass


def make_config(**overrides) -> dict:
    config = dict(DEFAULT_CONFIG)
    for key, value in overrides.items():
        if key not in _REQUIRED_KEYS:
            raise ModelError(f"unknown config key {key!r}")
        config[key] = value
    if config["encoder"] not in ("mean", "rnn"):
        raise ModelError(f"unknown encoder {config['encoder']!r}")
    if config["fusion"] not in ("c1", "mean"):
        raise ModelError(f"unknown fusion {config['fusion']!r}")
    if config["granularity"] not in GRANULARITIES:
        raise ModelError(f"unknown granularity {config['granularity']!r}")
    config.setdefault("length", DEFAULT_LENGTH[config["granularity"]])
    for key in ("emb_dim", "feature_dim", "head_hidden", "rnn_hidden", "length"):
        if type(config[key]) is not int or config[key] < 1:
            raise ModelError(f"{key} must be an integer >= 1, got {config[key]!r}")
    if not isinstance(config["delta"], float) or not 0.0 < config["delta"] < 1.0:
        raise ModelError(f"delta must be a float in (0, 1), got {config['delta']!r}")
    return config


def feature_keys(config: dict) -> list[str]:
    if config["encoder"] == "rnn":
        return ["emb", "r_wx", "r_wh", "r_b", "f_w", "f_b"]
    return ["emb", "f_w", "f_b"]


def head_keys(head: str) -> list[str]:
    return [f"{head}_w1", f"{head}_b1", f"{head}_w2", f"{head}_b2"]


def heads_keys() -> list[str]:
    """The tensors of both heads, c1's first."""
    return [key for head in HEADS for key in head_keys(head)]


def param_shapes(config: dict, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor the config and vocabulary call for."""
    D = config["emb_dim"]
    Fd = config["feature_dim"]
    Hh = config["head_hidden"]
    shapes = {"emb": (vocab_size, D)}
    enc_out = D
    if config["encoder"] == "rnn":
        H = enc_out = config["rnn_hidden"]
        shapes.update(r_wx=(D, H), r_wh=(H, H), r_b=(H,))
    shapes.update(f_w=(enc_out, Fd), f_b=(Fd,))
    for head in HEADS:
        shapes.update({f"{head}_w1": (Fd, Hh), f"{head}_b1": (Hh,), f"{head}_w2": (Hh, 1), f"{head}_b2": (1,)})
    return shapes


def init_params(config: dict, vocab_size: int, seed: int) -> dict[str, np.ndarray]:
    """The embedding uniform in +-0.1, matrices Glorot-uniform over their
    (fan_in, fan_out) shape, biases zero."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config, vocab_size).items():
        if name == "emb":
            params[name] = derive_rng(seed, "init", name).uniform(-0.1, 0.1, size=shape)
            params[name][0] = 0.0  # padding row, never reached by masked kernels
        elif len(shape) == 2:
            lim = np.sqrt(6.0 / sum(shape))
            params[name] = derive_rng(seed, "init", name).uniform(-lim, lim, size=shape)
        else:
            params[name] = np.zeros(shape, dtype=np.float64)
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_token_ids(X: np.ndarray, rows: int) -> None:
    if X.size == 0:
        return
    lo = int(X.min())
    hi = int(X.max())
    if lo < 0:
        raise ModelError(f"token id {lo} is negative; ids must lie in [0, {rows})")
    if hi >= rows:
        raise ModelError(f"token id {hi} is out of range for an embedding of {rows} rows")


def features_forward(params: dict, config: dict, X: np.ndarray) -> tuple[np.ndarray, dict]:
    """Feature vectors F (N, feature_dim) and the cache for the backward pass.

    X holds (N, L) token ids encoded with the model's own vocabulary, so
    every id lies in [0, emb rows).  This is the one entry point to the
    embedding kernels for training, mining and prediction; an id outside
    that range raises ModelError here, before any kernel reads it (the
    count matrix of the mean encoder would count an id >= emb rows in the
    next row's columns).
    """
    _check_token_ids(X, params["emb"].shape[0])
    if config["encoder"] == "mean":
        enc, C, denom = embed_mean_forward(params["emb"], X)
        cache: dict = {"C": C, "denom": denom}
    else:
        # the recurrence stops at the last column that holds a token in any
        # row: past it every step carries h unchanged and adds exact zeros
        # to every gradient, so the cut is byte-identical
        filled = np.flatnonzero((X != 0).any(axis=0))
        X = X[:, : filled[-1] + 1 if filled.size else 0]
        hs, E = rnn_forward(params["emb"], X, params["r_wx"], params["r_wh"], params["r_b"])
        enc = hs[:, -1, :]
        cache = {"X": X, "hs": hs, "E": E}
    F = np.tanh(enc @ params["f_w"] + params["f_b"])
    cache["enc"] = enc
    cache["F"] = F
    return F, cache


def features_backward(params: dict, config: dict, cache: dict, dF: np.ndarray) -> dict[str, np.ndarray]:
    F = cache["F"]
    dpre = dF * (1.0 - F * F)
    grads = {"f_w": cache["enc"].T @ dpre, "f_b": dpre.sum(axis=0)}
    denc = dpre @ params["f_w"].T
    if config["encoder"] == "mean":
        # every unpadded token of a row gets that row's pooled gradient / count
        grads["emb"] = cache["C"].T @ (denc / cache["denom"][:, None])
    else:
        X = cache["X"]
        dE, dwx, dwh, db = rnn_backward(denc, cache["hs"], cache["E"], X, params["r_wx"], params["r_wh"])
        grads["r_wx"] = dwx
        grads["r_wh"] = dwh
        grads["r_b"] = db
        grads["emb"] = scatter_embedding(dE, X, params["emb"].shape[0])
    return grads


def head_forward(params: dict, head: str, F: np.ndarray) -> tuple[np.ndarray, dict]:
    h1 = np.tanh(F @ params[f"{head}_w1"] + params[f"{head}_b1"])
    z = h1 @ params[f"{head}_w2"] + params[f"{head}_b2"]
    p = _sigmoid(z).ravel()
    return p, {"F": F, "h1": h1, "p": p}


def head_backward(
    params: dict, head: str, cache: dict, dp: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
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


def heads_forward(params: dict, F: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[dict, dict]]:
    """Both heads on the same features: p1, p2 and the pair's cache."""
    p1, h1 = head_forward(params, "c1", F)
    p2, h2 = head_forward(params, "c2", F)
    return p1, p2, (h1, h2)


def heads_backward(
    params: dict, cache: tuple[dict, dict], dp1: np.ndarray, dp2: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Both heads' gradients in one dict, c1's first, and dF1 + dF2."""
    g1, dF1 = head_backward(params, "c1", cache[0], dp1)
    g2, dF2 = head_backward(params, "c2", cache[1], dp2)
    return {**g1, **g2}, dF1 + dF2


def binary_prediction(p: np.ndarray, delta: float) -> np.ndarray:
    """Strictly greater than the threshold; p == delta is negative."""
    return (p > delta).astype(np.int64)


# --------------------------------------------------------------------------
# container

@dataclass(slots=True)
class DetectorModel:
    config: dict
    vocab: dict[str, int]
    params: dict[str, np.ndarray]

    @property
    def vocab_size(self) -> int:
        return max(self.vocab.values(), default=1) + 1

    def predict_proba(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        F, _ = features_forward(self.params, self.config, X)
        p1, p2, _ = heads_forward(self.params, F)
        return p1, p2

    def fused_proba(self, X: np.ndarray) -> np.ndarray:
        p1, p2 = self.predict_proba(X)
        if self.config["fusion"] == "mean":
            return (p1 + p2) / 2.0
        return p1

    def predict(self, X: np.ndarray) -> np.ndarray:
        return binary_prediction(self.fused_proba(X), self.config["delta"])


# --------------------------------------------------------------------------
# serialization

def _serialize(model: DetectorModel) -> bytes:
    names = sorted(model.params)
    header = {
        "format": FORMAT_VERSION,
        "config": model.config,
        "vocab": model.vocab,
        "tensors": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, len(blob).to_bytes(8, "little"), blob]
    for n in names:
        parts.append(np.ascontiguousarray(model.params[n], dtype="<f8").tobytes())
    return b"".join(parts)


def save_model(model: DetectorModel, path: str | Path) -> None:
    Path(path).write_bytes(_serialize(model))


def load_model(path: str | Path) -> DetectorModel:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ModelError(f"{path}: not a model file")
    size = int.from_bytes(raw[4:12], "little")
    if len(raw) < 12 + size:
        raise ModelError(f"{path}: file ends inside the {size}-byte header")
    try:
        header = json.loads(raw[12 : 12 + size].decode("utf-8"))
        version = header.get("format")
        config = dict(header["config"])
        layout = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
        vocab = dict(header["vocab"])
    except (ValueError, RecursionError, KeyError, AttributeError, TypeError) as exc:
        raise ModelError(f"{path}: malformed header ({exc!r})") from None
    if version != FORMAT_VERSION:
        raise ModelError(f"{path}: unsupported format {version}")
    missing = [k for k in _REQUIRED_KEYS if k not in config]
    if missing:
        raise ModelError(f"{path}: config missing keys {missing}")
    # build_vocab's ids; checked before the embedding's row count is read from them
    if sorted(v for v in vocab.values() if type(v) is int) != list(range(2, len(vocab) + 2)):
        raise ModelError(f"{path}: vocabulary ids are not the integers 2..{len(vocab) + 1}")
    model = DetectorModel(config=config, vocab=vocab, params={})
    try:
        make_config(**config)
    except (ModelError, TypeError) as exc:
        raise ModelError(f"{path}: bad model config ({exc})") from None
    # the tensors the config and vocabulary call for, in the order saved;
    # nothing is allocated until the file is known to hold them
    want = sorted(param_shapes(config, model.vocab_size).items())
    if layout != want:
        raise ModelError(f"{path}: tensors {layout} do not fit the config and vocabulary, which call for {want}")
    offset = 12 + size
    for name, shape in layout:
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise ModelError(f"{path}: file ends inside tensor {name!r} of shape {shape}")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").reshape(shape)
        model.params[name] = arr.astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise ModelError(f"{path}: trailing bytes after tensors")
    return model


def model_fingerprint(model: DetectorModel) -> str:
    return hashlib.sha256(_serialize(model)).hexdigest()

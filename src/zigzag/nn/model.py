"""Detector model: shared feature stack and two classifier heads.

The feature stack embeds token ids, pools them (masked mean, or a
masked tanh recurrence when config["encoder"] is "rnn"), and applies a
tanh affine layer.  The mean is a matmul with the batch's token-count
matrix C, (C @ emb) / n, and its embedding gradient is C.T @ (denc / n);
only the RNN scatters per-token gradients into the embedding.  Each head
is a small tanh MLP ending in a sigmoid.
Everything is float64 and functional: forward passes return caches,
backward passes return gradient dicts keyed like the parameter dict, so
freezing a subsystem means not asking for its gradients.

Serialization is a fixed binary layout (magic, length-prefixed
canonical JSON header, raw little-endian float64 tensors in sorted name
order) so that equal models produce byte-identical files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import hashlib

import numpy as np

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
    "length": 128,
    "granularity": "function",
    "delta": 0.4,
    "fusion": "c1",
}

_REQUIRED_KEYS = tuple(DEFAULT_CONFIG)


class ModelError(Exception):
    pass


def make_config(**overrides) -> dict:
    config = dict(DEFAULT_CONFIG)
    for key, value in overrides.items():
        if key not in DEFAULT_CONFIG:
            raise ModelError(f"unknown config key {key!r}")
        config[key] = value
    if config["encoder"] not in ("mean", "rnn"):
        raise ModelError(f"unknown encoder {config['encoder']!r}")
    if config["fusion"] not in ("c1", "mean"):
        raise ModelError(f"unknown fusion {config['fusion']!r}")
    return config


def feature_keys(config: dict) -> list[str]:
    if config["encoder"] == "rnn":
        return ["emb", "r_wx", "r_wh", "r_b", "f_w", "f_b"]
    return ["emb", "f_w", "f_b"]


def head_keys(head: str) -> list[str]:
    return [f"{head}_w1", f"{head}_b1", f"{head}_w2", f"{head}_b2"]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape)


def init_params(config: dict, vocab_size: int, seed: int) -> dict[str, np.ndarray]:
    D = config["emb_dim"]
    Fd = config["feature_dim"]
    Hh = config["head_hidden"]
    enc_out = config["rnn_hidden"] if config["encoder"] == "rnn" else D

    params: dict[str, np.ndarray] = {}
    emb = derive_rng(seed, "init", "emb").uniform(-0.1, 0.1, size=(vocab_size, D))
    emb[0] = 0.0  # padding row, never reached by masked kernels
    params["emb"] = emb
    if config["encoder"] == "rnn":
        H = config["rnn_hidden"]
        params["r_wx"] = _glorot(derive_rng(seed, "init", "r_wx"), D, H, (D, H))
        params["r_wh"] = _glorot(derive_rng(seed, "init", "r_wh"), H, H, (H, H))
        params["r_b"] = np.zeros(H, dtype=np.float64)
    params["f_w"] = _glorot(derive_rng(seed, "init", "f_w"), enc_out, Fd, (enc_out, Fd))
    params["f_b"] = np.zeros(Fd, dtype=np.float64)
    for head in ("c1", "c2"):
        params[f"{head}_w1"] = _glorot(derive_rng(seed, "init", f"{head}_w1"), Fd, Hh, (Fd, Hh))
        params[f"{head}_b1"] = np.zeros(Hh, dtype=np.float64)
        params[f"{head}_w2"] = _glorot(derive_rng(seed, "init", f"{head}_w2"), Hh, 1, (Hh, 1))
        params[f"{head}_b2"] = np.zeros(1, dtype=np.float64)
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
        p1, _ = head_forward(self.params, "c1", F)
        p2, _ = head_forward(self.params, "c2", F)
        return p1, p2

    def fused_proba(self, X: np.ndarray) -> np.ndarray:
        p1, p2 = self.predict_proba(X)
        if self.config["fusion"] == "mean":
            return (p1 + p2) / 2.0
        return p1

    def predict(self, X: np.ndarray) -> np.ndarray:
        # strictly greater: a probability equal to delta stays negative
        return (self.fused_proba(X) > self.config["delta"]).astype(np.int64)


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
        config = header["config"]
        layout = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
        vocab = {k: int(v) for k, v in header["vocab"].items()}
    except (ValueError, KeyError, AttributeError, TypeError) as exc:
        raise ModelError(f"{path}: malformed header ({exc!r})") from None
    if version != FORMAT_VERSION:
        raise ModelError(f"{path}: unsupported format {version}")
    missing = [k for k in _REQUIRED_KEYS if k not in config]
    if missing:
        raise ModelError(f"{path}: config missing keys {missing}")
    model = DetectorModel(config=config, vocab=vocab, params={})
    try:
        make_config(**config)
        expected = init_params(config, model.vocab_size, 0)
    except (ModelError, TypeError, ValueError) as exc:
        raise ModelError(f"{path}: bad model config ({exc})") from None
    # the tensors the config and vocabulary call for, in the order saved
    want = [(name, expected[name].shape) for name in sorted(expected)]
    if layout != want:
        raise ModelError(f"{path}: tensors {layout} do not fit the config and vocabulary, which call for {want}")
    offset = 12 + size
    for name, shape in layout:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
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

"""Detector model: shared feature stack and two classifier heads.

The feature stack embeds token ids, pools them (masked mean, or a
masked tanh recurrence when config["encoder"] is "rnn"), and applies a
tanh affine layer.  The mean is a matmul with the batch's token-count
matrix C, (C @ emb) / n, and its embedding gradient is C.T @ (denc / n);
only the RNN scatters per-token gradients into the embedding.  The
recurrence runs to the batch's last column that holds a token; the
all-padding columns after it would leave h as it is.  prepare_ids
readies a set of id rows once: it checks the ids against the
embedding's rows and, for the mean encoder, builds C and n.  A training
set is prepared once per run and its batches are row gathers of it; an
id array given to features_forward is prepared there, on every call.
Each head is a small tanh MLP ending in a sigmoid.  The two heads c1
and c2 always run as a pair on one F, in one stacked pass:
heads_forward stacks each layer's two tensors per call, so one matmul
per layer, one tanh and one sigmoid serve both heads, and its P holds
the two heads' probabilities as rows.  Item k of a stacked matmul is
head k's product with head k's shapes, so the pair has the bytes of two
per-head passes.  heads_forward and heads_backward are the only way
training and prediction reach the heads.  heads_backward sums the two
heads' feature gradients, and computes only what its caller asks for:
a feature step takes dF alone, a classifier step the head gradients
alone.  head_forward and head_backward run one head as a stack of one,
through the same code.  binary_prediction is the one threshold rule.
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
from .kernels import embed_mean_forward, rnn_backward, rnn_forward, scatter_embedding, token_counts

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

# the config's sizes, each an integer >= 1
SIZE_KEYS = ("emb_dim", "feature_dim", "head_hidden", "rnn_hidden", "length")

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
    for key in SIZE_KEYS:
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
    """1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere, so no
    exp overflows: e = e^-|z| is e^-z or e^z exactly."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_token_ids(X: np.ndarray, rows: int) -> None:
    if X.size == 0:
        return
    lo = int(X.min())
    hi = int(X.max())
    if lo < 0:
        raise ModelError(f"token id {lo} is negative; ids must lie in [0, {rows})")
    if hi >= rows:
        raise ModelError(f"token id {hi} is out of range for an embedding of {rows} rows")


@dataclass(frozen=True, slots=True)
class PreparedIds:
    """(N, L) token ids as prepare_ids readies them: X checked against an
    embedding of emb_rows rows and, for the mean encoder, its count
    matrix C and per-row token counts denom (None for the RNN).  Indexing
    gathers rows of all three, so a batch or subset needs no new count."""

    X: np.ndarray
    emb_rows: int
    C: np.ndarray | None = None
    denom: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.X)

    def __getitem__(self, rows) -> "PreparedIds":
        if self.C is None:
            return PreparedIds(self.X[rows], self.emb_rows)
        return PreparedIds(self.X[rows], self.emb_rows, self.C[rows], self.denom[rows])


def prepare_ids(params: dict, config: dict, X: np.ndarray) -> PreparedIds:
    """X ready for features_forward under any parameters with the same
    embedding rows and encoder.  The id range is checked here, before any
    kernel reads an id: an id outside [0, emb rows) raises ModelError (the
    count matrix would count an id >= emb rows in the next row's columns).
    The mean encoder's counts are built here, once for all of X."""
    rows = params["emb"].shape[0]
    _check_token_ids(X, rows)
    if config["encoder"] == "mean":
        return PreparedIds(X, rows, *token_counts(X, rows))
    return PreparedIds(X, rows)


def features_forward(params: dict, config: dict, X: np.ndarray | PreparedIds) -> tuple[np.ndarray, dict]:
    """Feature vectors F (N, feature_dim) and the cache for the backward pass.

    X holds (N, L) token ids encoded with the model's own vocabulary, so
    every id lies in [0, emb rows), either as an array, which is prepared
    here (prepare_ids checks its range), or as a set prepare_ids readied
    for parameters of the same embedding rows and encoder.  This is the
    one entry point to the embedding kernels for training, mining and
    prediction.
    """
    ids = X if isinstance(X, PreparedIds) else prepare_ids(params, config, X)
    if ids.emb_rows != params["emb"].shape[0] or (ids.C is None) != (config["encoder"] == "rnn"):
        raise ModelError(
            f"ids prepared for {ids.emb_rows} embedding rows and the {'rnn' if ids.C is None else 'mean'} "
            f"encoder do not fit {params['emb'].shape[0]} rows and the {config['encoder']} encoder"
        )
    if config["encoder"] == "mean":
        enc = embed_mean_forward(params["emb"], ids.C, ids.denom)
        cache: dict = {"C": ids.C, "denom": ids.denom}
    else:
        # the recurrence stops at the last column that holds a token in any
        # row: past it every step carries h unchanged and adds exact zeros
        # to every gradient, so the cut is byte-identical
        filled = np.flatnonzero((ids.X != 0).any(axis=0))
        X = ids.X[:, : filled[-1] + 1 if filled.size else 0]
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


def heads_forward(params: dict, F: np.ndarray, heads: tuple[str, ...] = HEADS) -> tuple[np.ndarray, dict]:
    """The heads on the same features F (N, feature_dim), as one stacked
    pass: P (len(heads), N), row k head k's probability, and the cache.

    Each layer's tensors are stacked per call, (2, ...) for the pair, so
    one tanh, one sigmoid and one matmul per layer serve both heads.  Item
    k of a stacked matmul has head k's own (M, K, N), and numpy hands each
    item to BLAS as a product of its own, so the result has the bytes of a
    per-head pass; every other step is elementwise or sums along N.
    """
    W1, B1, W2, B2 = (np.array([params[f"{head}_{name}"] for head in heads]) for name in ("w1", "b1", "w2", "b2"))
    # + b and tanh in place: over a full set, a fresh (2, N, hidden)
    # temporary per step costs more than the step
    h1 = F @ W1
    h1 += B1[:, None, :]
    np.tanh(h1, out=h1)
    z = h1 @ W2
    z += B2[:, None, :]
    P = _sigmoid(z)[:, :, 0]
    return P, {"heads": heads, "F": F, "h1": h1, "P": P, "W1": W1, "W2": W2}


def heads_backward(
    cache: dict, dP: np.ndarray, *, head_grads: bool = True, feature_grad: bool = True
) -> tuple[dict[str, np.ndarray] | None, np.ndarray | None]:
    """Back through heads_forward, given dP = dL/dP of P's shape: the
    heads' weight gradients, keyed like the parameters (c1's first), and
    dF, the sum of the heads' feature gradients.  A step that updates
    only the features asks for dF only (head_grads=False), one that
    updates only the heads for the weight gradients only
    (feature_grad=False); what is not asked for is None."""
    P, h1, W2 = cache["P"], cache["h1"], cache["W2"]
    dz = (dP * P * (1.0 - P))[:, :, None]
    dpre1 = (dz @ W2.transpose(0, 2, 1)) * (1.0 - h1 * h1)
    grads = dF = None
    if head_grads:
        dW1 = cache["F"].T @ dpre1
        db1 = dpre1.sum(axis=1)
        dW2 = h1.transpose(0, 2, 1) @ dz
        db2 = dz.sum(axis=1)
        grads = {}
        for k, head in enumerate(cache["heads"]):
            grads.update({f"{head}_w1": dW1[k], f"{head}_b1": db1[k], f"{head}_w2": dW2[k], f"{head}_b2": db2[k]})
    if feature_grad:
        dFs = dpre1 @ cache["W1"].transpose(0, 2, 1)
        dF = dFs[0] if len(dFs) == 1 else dFs[0] + dFs[1]
    return grads, dF


def head_forward(params: dict, head: str, F: np.ndarray) -> tuple[np.ndarray, dict]:
    """One head alone: heads_forward over a stack of one."""
    P, cache = heads_forward(params, F, (head,))
    return P[0], cache


def head_backward(
    params: dict, head: str, cache: dict, dp: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """One head alone: heads_backward over the stack of one that
    head_forward cached, which holds the weights it ran with, so params
    is not read; the signature is the one perfbench's sweep calls."""
    if cache["heads"] != (head,):
        raise ModelError(f"a cache of heads {cache['heads']} is not head {head!r}'s")
    return heads_backward(cache, dp[None])


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
        p1, p2 = heads_forward(self.params, F)[0]
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

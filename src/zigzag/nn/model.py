"""Detector model: shared feature stack and two classifier heads.

The feature stack embeds token ids, pools them (masked mean, or a
masked tanh recurrence when config["encoder"] is "rnn"), and applies a
tanh affine layer.  The mean is a matmul with the batch's token-count
matrix C, (C @ emb) / n, and its embedding gradient is C.T @ (denc / n);
only the RNN scatters per-token gradients into the embedding.  The
recurrence runs to the batch's last column that holds a token; the
all-padding columns after it would leave h as it is.  PreparedIds is
the one form of a set of id rows that reaches the kernels: prepare_ids
finds the set's distinct rows and each row's index into them, checks
their ids against the embedding's rows and, for the mean encoder, builds
their C and n.  A training set, and each bucket of an evaluation corpus
(evaluation.encode_corpus), is prepared once, and its batches are
gathers through its row index; an id array given to features or
features_forward is prepared there, on every call.
The feature stack has two entry points.  features(params, config, X)
returns F alone, for passes that take no gradient (trace measurement,
mining, DetectorModel.predict_proba): it forwards each distinct row
once and gathers F back to every row, and the RNN keeps only its last
state there.  features_forward returns F and the cache that
features_backward needs, for training steps, and forwards every row of
its batch, repeats included.  Both give the same bytes, by the premise
features states.
A training step may hand features_forward a kernels.Buffers that lives
for the whole run, so the RNN's per-batch arrays, the batch's ids among
them, are allocated once; its cache then holds views of those buffers,
which the next forward pass on them overwrites, so each forward pass
moves the buffers' stamp, the cache records it, and features_backward
raises ModelError on a cache whose stamp is no longer the buffers'.
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

A config is a dict of ModelConfig's fields; make_config and load_model
read it through corpus.typed_record, then check names and ranges.
load_model reads a file's header the same way, as a ModelHeader whose
tensor specs are TensorSpecs, and checks by hand only the format
version, the vocabulary's ids and the tensor layout.

Serialization is a fixed binary layout (magic, length-prefixed
canonical JSON header, raw little-endian float64 tensors in sorted name
order) so that equal models produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, make_dataclass
from pathlib import Path

import hashlib

import numpy as np

from ..corpus import decode_json, field_types, typed_record
from ..encoding import embedding_rows
from ..fragments import FUNCTION_GRANULARITY, GRANULARITIES, SLICE_GRANULARITY
from ..seeds import derive_rng
from .kernels import (
    Buffers,
    embed_mean_forward,
    fresh,
    rnn_backward,
    rnn_forward,
    rnn_last_state,
    scatter_embedding,
    token_counts,
)

MAGIC = b"ZZM1"
FORMAT_VERSION = 1


# what make_config takes for a field the call leaves out, but the length
_DEFAULTS = {"encoder": "mean", "emb_dim": 16, "feature_dim": 32, "head_hidden": 16, "rnn_hidden": 24,
             "granularity": FUNCTION_GRANULARITY, "delta": 0.4, "fusion": "c1"}
# a model's config: a field of its default's type per default, and the
# length; every field required of a saved config, each int a size >= 1,
# or >= 2 where _LEAST_SIZE says so
ModelConfig = make_dataclass(
    "ModelConfig", [*((key, type(value)) for key, value in _DEFAULTS.items()), ("length", int)], slots=True)
# the sizes that are a feature-stack product's output columns: at 1,
# numpy hands the product to the matrix-vector kernel and the premise
# features states fails
_LEAST_SIZE = {"emb_dim": 2, "rnn_hidden": 2, "feature_dim": 2}

# tokens kept per fragment when the config names no length; a slice is a
# few statements of one function
DEFAULT_LENGTH = {FUNCTION_GRANULARITY: 128, SLICE_GRANULARITY: 64}

# the two classifier heads on one feature stack
HEADS = ("c1", "c2")


class ModelError(Exception):
    pass


def make_config(**overrides) -> dict:
    """_DEFAULTS, the granularity's DEFAULT_LENGTH and `overrides`,
    checked as a saved config is; a granularity that names none takes the
    function length here and fails its own check."""
    slices = overrides.get("granularity") == SLICE_GRANULARITY
    length = DEFAULT_LENGTH[SLICE_GRANULARITY if slices else FUNCTION_GRANULARITY]
    return _checked_config({**_DEFAULTS, "length": length, **overrides}, "model config")


def _checked_config(rec: dict, where: str) -> dict:
    """`rec` read by typed_record as a ModelConfig, as a dict; its names
    must be known, its sizes >= 1 (>= 2 for _LEAST_SIZE's) and its delta
    in (0, 1)."""
    config = typed_record(ModelConfig, rec, ModelError, where)
    for key, names in (("encoder", ("mean", "rnn")), ("fusion", ("c1", "mean")), ("granularity", GRANULARITIES)):
        if getattr(config, key) not in names:
            raise ModelError(f"{where}: unknown {key} {getattr(config, key)!r}")
    for key, annotation in field_types(ModelConfig).items():
        least = _LEAST_SIZE.get(key, 1)
        if annotation is int and getattr(config, key) < least:
            raise ModelError(f"{where}: {key} must be an integer >= {least}, got {getattr(config, key)!r}")
    if not 0.0 < config.delta < 1.0:
        raise ModelError(f"{where}: delta must be a float in (0, 1), got {config.delta!r}")
    return asdict(config)


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


@dataclass(frozen=True, slots=True)
class PreparedIds:
    """(N, L) token ids as prepare_ids readies them: their distinct rows,
    in the order of first appearance, and each row's index into them (row
    i is distinct[index[i]]), checked against an embedding of emb_rows
    rows and, for the mean encoder, the count matrix C and per-row token
    counts denom of the distinct rows (None for the RNN).  Indexing
    gathers the index alone and shares distinct, C and denom, so a batch
    or subset needs no new count and copies no row.  Each distinct row is
    kept once, by the premise features states."""

    distinct: np.ndarray
    index: np.ndarray
    emb_rows: int
    C: np.ndarray | None = None
    denom: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows) -> "PreparedIds":
        return PreparedIds(self.distinct, self.index[rows], self.emb_rows, self.C, self.denom)


def prepare_ids(params: dict, config: dict, X: np.ndarray) -> PreparedIds:
    """X ready for features and features_forward under any parameters with
    the same embedding rows and encoder.  Its distinct rows are found by
    one dict over the rows' bytes; neither this nor features sorts:
    numpy's first sort in a process maps its sort kernels' code, about
    half a megabyte of resident memory.  This is the one place ids are
    checked and counted, once per distinct row: an id outside
    [0, emb rows) raises ModelError before any kernel reads one (the
    count matrix would count an id >= emb rows in the next row's
    columns), and the mean encoder's count matrix C and token counts
    denom follow."""
    seen: dict[bytes, int] = {}  # a row's bytes -> its distinct row
    first: list[int] = []  # where each distinct row first appears
    index = []
    for i, row in enumerate(X):
        j = seen.setdefault(row.tobytes(), len(first))
        if j == len(first):
            first.append(i)
        index.append(j)
    emb_rows, distinct = params["emb"].shape[0], X[np.array(first, dtype=np.intp)]
    if distinct.size:
        lo, hi = int(distinct.min()), int(distinct.max())
        if lo < 0:
            raise ModelError(f"token id {lo} is negative; ids must lie in [0, {emb_rows})")
        if hi >= emb_rows:
            raise ModelError(f"token id {hi} is out of range for an embedding of {emb_rows} rows")
    counts = token_counts(distinct, emb_rows) if config["encoder"] == "mean" else ()
    return PreparedIds(distinct, np.array(index, dtype=np.intp), emb_rows, *counts)


def _ready(params: dict, config: dict, X: np.ndarray | PreparedIds) -> PreparedIds:
    """X prepared for params and config: an array is prepared here, a
    prepared set is checked to fit them."""
    ids = X if isinstance(X, PreparedIds) else prepare_ids(params, config, X)
    if ids.emb_rows != params["emb"].shape[0] or (ids.C is None) != (config["encoder"] == "rnn"):
        raise ModelError(
            f"ids prepared for {ids.emb_rows} embedding rows and the {'rnn' if ids.C is None else 'mean'} "
            f"encoder do not fit {params['emb'].shape[0]} rows and the {config['encoder']} encoder"
        )
    return ids


def _filled(X: np.ndarray) -> np.ndarray:
    """X cut after the last column that holds a token in any row: past it
    every step of the recurrence carries h unchanged and adds exact zeros
    to every gradient, so the cut is byte-identical."""
    filled = np.flatnonzero((X != 0).any(axis=0))
    return X[:, : filled[-1] + 1 if filled.size else 0]


def _feature_layer(params: dict, enc: np.ndarray) -> np.ndarray:
    return np.tanh(enc @ params["f_w"] + params["f_b"])


def features(params: dict, config: dict, X: np.ndarray | PreparedIds) -> np.ndarray:
    """Feature vectors F (N, feature_dim), with no cache: the entry point
    of passes that take no gradient (trace measurement, mining and
    prediction).  X is as for features_forward.

    Every distinct row of X's set is forwarded once, and F is gathered
    back to every row through X's index.  This rests on a premise: a
    row's features do not depend on which other rows share its pass, so
    F has the bytes features_forward gives over every row.  A one-row
    product, or one with a single output column, goes to BLAS's
    matrix-vector kernel, whose bytes differ from a matrix product's and
    can depend on a row's neighbours: so a config's emb_dim, rnn_hidden
    and feature_dim must be at least 2, a set of many copies of one row
    forwards two, and the heads, whose last layer has one output column,
    always run over every row.  Past that the premise is one of the BLAS
    matrix product's, not of the sizes alone: under OpenBLAS 0.3.31's
    Haswell kernels, at 1 and 2 threads, a product whose output columns
    number 1, 2 or 3 mod 8 gives a row bytes that depend on the pass's
    row count, so sizes such as 2, 3, 9 or 17 break it there; the
    default sizes keep it.  tests/test_nn.py's
    test_features_of_distinct_rows_byte_equal_a_pass_over_every_row
    pins the premise at the default sizes.  The RNN keeps only its last
    state (kernels.rnn_last_state), where features_forward keeps every
    step's state and token vectors for the backward pass."""
    ids = _ready(params, config, X)
    # numpy hands a one-row product to BLAS's matrix-vector kernel, whose
    # bytes differ from a row of a matrix product
    used = [0, 0] if len(ids.distinct) == 1 < len(ids) else slice(None)
    if config["encoder"] == "mean":
        enc = embed_mean_forward(params["emb"], ids.C[used], ids.denom[used])
    else:
        X = _filled(ids.distinct[used])
        enc = rnn_last_state(params["emb"], X, params["r_wx"], params["r_wh"], params["r_b"])
    return _feature_layer(params, enc)[ids.index]


def features_forward(
    params: dict, config: dict, X: np.ndarray | PreparedIds, buffers: Buffers | None = None
) -> tuple[np.ndarray, dict]:
    """Feature vectors F (N, feature_dim) and the cache for the backward
    pass: the entry point of training steps.

    X holds (N, L) token ids encoded with the model's own vocabulary, so
    every id lies in [0, emb rows), either as an array, which is prepared
    here (prepare_ids checks its range), or as a set prepare_ids readied
    for parameters of the same embedding rows and encoder.  Every row is
    forwarded, repeated rows too, gathered through the set's index, so
    each gradient sums the rows of the batch in their order.  The RNN
    gathers the batch's ids into buffers, when given, and takes its other
    per-batch arrays from them too, and fresh ones otherwise; the cache
    then holds views of those buffers, valid until the next forward pass
    on them (features_backward checks the stamp).  The mean encoder takes
    no buffers.
    """
    ids = _ready(params, config, X)
    rows = ids.index
    if config["encoder"] == "mean":
        C, denom = ids.C[rows], ids.denom[rows]
        enc = embed_mean_forward(params["emb"], C, denom)
        cache: dict = {"C": C, "denom": denom}
    else:
        alloc = buffers or fresh
        X = alloc("ids", (len(rows), ids.distinct.shape[1]), ids.distinct.dtype)
        # rows index distinct by construction; "clip" lets take write into X directly
        np.take(ids.distinct, rows, axis=0, out=X, mode="clip")
        X = _filled(X)
        hs, E = rnn_forward(params["emb"], X, params["r_wx"], params["r_wh"], params["r_b"], alloc)
        enc = hs[:, -1, :]
        cache = {"X": X, "hs": hs, "E": E, "buffers": buffers}
        if buffers is not None:
            buffers.stamp += 1
            cache["stamp"] = buffers.stamp
    F = _feature_layer(params, enc)
    cache["enc"] = enc
    cache["F"] = F
    return F, cache


def features_backward(params: dict, config: dict, cache: dict, dF: np.ndarray) -> dict[str, np.ndarray]:
    """The feature stack's gradients from dF and features_forward's cache.
    The RNN's arrays come from the cache's buffers, when it has them, and
    a cache whose buffers a later forward pass has reused raises
    ModelError."""
    buffers = cache.get("buffers")
    if buffers is not None and buffers.stamp != cache["stamp"]:
        raise ModelError(
            f"a forward cache of stamp {cache['stamp']} is stale: forward pass {buffers.stamp} has reused its buffers"
        )
    F = cache["F"]
    dpre = dF * (1.0 - F * F)
    grads = {"f_w": cache["enc"].T @ dpre, "f_b": dpre.sum(axis=0)}
    denc = dpre @ params["f_w"].T
    if config["encoder"] == "mean":
        # every unpadded token of a row gets that row's pooled gradient / count
        grads["emb"] = cache["C"].T @ (denc / cache["denom"][:, None])
    else:
        X = cache["X"]
        alloc = buffers or fresh
        dE, dwx, dwh, db = rnn_backward(denc, cache["hs"], cache["E"], X, params["r_wx"], params["r_wh"], alloc)
        grads["r_wx"] = dwx
        grads["r_wh"] = dwh
        grads["r_b"] = db
        grads["emb"] = scatter_embedding(dE, X, params["emb"].shape[0], alloc)
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
        return embedding_rows(self.vocab)

    def predict_proba(self, X: np.ndarray | PreparedIds) -> tuple[np.ndarray, np.ndarray]:
        p1, p2 = heads_forward(self.params, features(self.params, self.config, X))[0]
        return p1, p2

    def fused_proba(self, X: np.ndarray | PreparedIds) -> np.ndarray:
        p1, p2 = self.predict_proba(X)
        if self.config["fusion"] == "mean":
            return (p1 + p2) / 2.0
        return p1

    def predict(self, X: np.ndarray | PreparedIds) -> np.ndarray:
        return binary_prediction(self.fused_proba(X), self.config["delta"])


# --------------------------------------------------------------------------
# serialization

@dataclass(slots=True)
class TensorSpec:
    name: str
    shape: list[int]


@dataclass(slots=True)
class ModelHeader:
    """A model file's header; its config is read as a ModelConfig after it."""

    format: int
    config: dict
    vocab: dict[str, int]
    tensors: list[dict]


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
    """A saved model: the magic, then the header of this format, decoded
    by corpus.decode_json and read by typed_record as a ModelHeader with
    its config (_checked_config) and tensor specs, then the tensors the
    layout names.  Anything else raises ModelError naming the file."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ModelError(f"{path}: not a model file")
    size = int.from_bytes(raw[4:12], "little")
    if len(raw) < 12 + size:
        raise ModelError(f"{path}: file ends inside the {size}-byte header")
    rec = decode_json(raw[12 : 12 + size], ModelError, f"{path}: header")
    if not isinstance(rec, dict):
        raise ModelError(f"{path}: header is not a JSON object")
    # what format this file is, before what its header holds
    if rec.get("format") != FORMAT_VERSION:
        raise ModelError(f"{path}: unsupported format {rec.get('format')}")
    header = typed_record(ModelHeader, rec, ModelError, f"{path}: header")
    config = _checked_config(header.config, f"{path}: model config")
    vocab = header.vocab
    # build_vocab's ids; checked before the embedding's row count is read from them
    if sorted(vocab.values()) != list(range(2, len(vocab) + 2)):
        raise ModelError(f"{path}: vocabulary ids are not the integers 2..{len(vocab) + 1}")
    model = DetectorModel(config=config, vocab=vocab, params={})
    # the tensors the config and vocabulary call for, in the order saved;
    # nothing is allocated until the file is known to hold them
    specs = [typed_record(TensorSpec, spec, ModelError, f"{path}: tensor {i}") for i, spec in enumerate(header.tensors)]
    layout = [(spec.name, tuple(spec.shape)) for spec in specs]
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

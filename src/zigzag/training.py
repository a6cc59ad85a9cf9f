"""Training schemes for the detector.

Two entry points share one trainer: one setup, one joint warm-up, one
Adam optimizer, which updates the parameters in place.  The detector's
two heads c1 and c2 run as one stacked pair on one F, through
nn.model.heads_forward and heads_backward, so no phase here names a
head: each loss is one call over the pair's (2, N) probabilities, and
each step asks heads_backward for what it updates (a joint step for
the head gradients and dF, a classifier step for the head gradients, a
feature step for dF).  A step takes its loss's gradient alone
(bce_grad, discrepancy_grad); only the records compute loss values.
The threshold rule is nn.model.binary_prediction, which this module
re-exports.

* train_original: one feature stack and two heads fit jointly by summed
  cross entropy on whatever fragments it is given.  Adversarial
  (augmented) training is the same call on an augmented fragment pool.
  It is the warm-up alone, with an empty variant pool X'.

* train_zigzag: decoupled robust training.  After the joint warm-up on
  the clean set X, it alternates two phases for up to beta rounds:

    classifier phase - features frozen bit for bit; the phase's pass
        over X' also mines the hard set X'' under the parameters at the
        start of the round; the heads then minimize L_c(X) - L_h(X''),
        i.e. stay right on clean data while driving their disagreement
        up on hard examples;
    feature phase - heads frozen bit for bit; the feature stack
        minimizes mean |c1 - c2| over all of X'.

  An example is hard when either head's thresholded prediction
  (binary_prediction: strictly greater than delta) disagrees with its
  label.  Training stops early when a round changes neither the mean
  discrepancy on X' nor the clean loss by more than the tolerances.

Training runs with numpy float overflow raised: an overflow, or a
non-finite loss, gradient or parameter, ends the run with
TrainingDiverged.

Each epoch appends a trace record; traces serialize to JSONL for
inspection and for the phase-dynamics checks.  A record holds, after its
epoch, L_c (summed head CE on X), L_h (mean |c1 - c2| on X''),
mean_disc (the same on X'; 0 when X' is empty) and val_f1: the Total-row
F1 that eval would report for the model on train --val-data, None
without it or where that F1 is undefined.  Its passes:

    warm-up record - one forward pass each over X and X';
    classifier record - none: the phase's features are frozen, so the
        features of X and X' that the round's previous record (the last
        warm-up or feature record) measured under the same parameters,
        and one pass per round over X'', mine X'' and serve every epoch
        and record of the phase, which runs the heads only;
    feature record - one forward pass each over X, X' and X''.

X and X' are prepared once per run, right after the parameters are
initialized (nn.model.prepare_ids: one id range check per set and, for
the mean encoder, one token-count matrix per set); every batch, X'' and
every pass above gathers rows of them and counts no token again.
"""
from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import CorpusProgram, read_json_lines, write_json_lines
from .encoding import build_vocab, encode_fragments
from .evaluation import encode_corpus
from .fragments import Fragment
from .lang.nodes import Program
from .nn.losses import bce_grad, bce_loss, discrepancy_grad, discrepancy_loss
from .nn.model import (
    DetectorModel,
    PreparedIds,
    binary_prediction,
    feature_keys,
    features_backward,
    features_forward,
    heads_backward,
    heads_forward,
    heads_keys,
    init_params,
    make_config,
    prepare_ids,
)
from .nn.optim import Adam, TrainingDiverged
from .seeds import derive_rng


class TrainingError(Exception):
    pass


@dataclass(slots=True)
class TrainConfig:
    delta: float = 0.4
    beta: int = 8
    e1: int = 30
    e2: int = 4
    e3: int = 4
    batch_size: int = 32
    lr: float = 0.002
    seed: int = 0
    tau_disc: float = 1e-3
    tau_loss: float = 1e-3

    def validate(self) -> None:
        # each field's type is its default's: an integer, or a real that is not a bool
        for field in fields(self):
            value = getattr(self, field.name)
            if type(field.default) is int and type(value) is not int:
                raise TrainingError(f"{field.name} must be an integer, got {value!r}")
            if type(field.default) is float and (not isinstance(value, numbers.Real) or isinstance(value, bool)):
                raise TrainingError(f"{field.name} must be a real number, got {value!r}")
        if not 0.0 < self.delta < 1.0:
            raise TrainingError("delta must be in (0, 1)")
        for name in ("beta", "e1", "e2", "e3", "batch_size"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")
        # an lr too large for the data, inf included, is a divergence (exit 4)
        if not self.lr > 0.0:
            raise TrainingError(f"lr must be > 0, got {self.lr}")
        for name in ("tau_disc", "tau_loss"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise TrainingError(f"{name} must be finite and >= 0, got {getattr(self, name)}")


@dataclass(slots=True)
class TrainRecord:
    round: int
    phase: str
    epoch: int
    L_c: float
    L_h: float
    mean_disc: float
    gamma: float
    val_f1: Optional[float]


@dataclass(slots=True)
class TrainOutcome:
    model: DetectorModel
    trace: list[TrainRecord]
    rounds_run: int
    stopped_early: bool


def save_trace(path: str | Path, trace: Sequence[TrainRecord]) -> None:
    write_json_lines(path, (asdict(rec) for rec in trace))


_PHASES = ("joint", "classifier", "feature")


def _record_fault(rec: TrainRecord) -> Optional[str]:
    """What is wrong with a loaded record's field types or ranges, or None."""
    for name in ("round", "epoch"):
        value = getattr(rec, name)
        if type(value) is not int or value < 0:
            return f"{name} must be a non-negative integer, got {value!r}"
    if rec.phase not in _PHASES:
        return f"phase must be one of {', '.join(_PHASES)}, got {rec.phase!r}"
    for name in ("L_c", "L_h", "mean_disc", "gamma"):
        value = getattr(rec, name)
        if type(value) is not float or not 0.0 <= value < math.inf:
            return f"{name} must be a finite non-negative float, got {value!r}"
    if rec.gamma > 1.0:
        return f"gamma must be a share of at most 1, got {rec.gamma!r}"
    if rec.val_f1 is not None and (type(rec.val_f1) is not float or not 0.0 <= rec.val_f1 <= 1.0):
        return f"val_f1 must be a float in [0, 1] or null, got {rec.val_f1!r}"
    return None


def load_trace(path: str | Path) -> list[TrainRecord]:
    out = []
    for number, rec in enumerate(read_json_lines(path, TrainingError), 1):
        try:
            record = TrainRecord(**rec)
        except TypeError as exc:  # a missing or unknown key
            raise TrainingError(f"{path}: trace record {number}: {exc}") from None
        fault = _record_fault(record)
        if fault:
            raise TrainingError(f"{path}: trace record {number}: {fault}")
        out.append(record)
    return out


def _require_train_split(fragments: Sequence[Fragment], what: str) -> None:
    for frag in fragments:
        if frag.split != "train":
            raise TrainingError(f"{what} contains non-training fragment {frag.id}")


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite {what}")
    return value


@contextmanager
def _frozen(params: dict[str, np.ndarray], keys: Sequence[str], what: str):
    """Raise TrainingError if the block changes any of the given tensors."""
    before = {k: params[k].copy() for k in keys}
    yield
    for k, value in before.items():
        if not np.array_equal(value, params[k]):
            raise TrainingError(f"{what} moved frozen tensor {k!r}")


def hard_mask(p1: np.ndarray, p2: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    """An example is hard when either head's thresholded prediction is wrong."""
    wrong1 = binary_prediction(p1, delta) != y.astype(np.int64)
    wrong2 = binary_prediction(p2, delta) != y.astype(np.int64)
    return wrong1 | wrong2


class _Trainer:
    """One run: the prepared sets X and X', the validation corpus as eval
    encodes it, the parameters and one Adam. On the first step the Adam
    moves the parameters into one flat buffer, features first and then
    the heads, so a joint, classifier or feature step updates one slice
    of it. Its moment history and per-tensor step counts carry across
    phase switches and damp the discrepancy tug-of-war."""

    def __init__(
        self,
        clean_fragments: Sequence[Fragment],
        variant_fragments: Sequence[Fragment],
        model_config: dict | None,
        train_config: TrainConfig | None,
        val_programs: Optional[Iterable[tuple[CorpusProgram, Program]]],
        fusion: str,
        val_source: str = "validation corpus",
    ) -> None:
        tc = train_config or TrainConfig()
        tc.validate()
        if not clean_fragments:
            raise TrainingError("training set is empty")
        _require_train_split(clean_fragments, "training set")
        _require_train_split(variant_fragments, "variant pool")
        if {f.label for f in clean_fragments} != {0, 1}:
            raise TrainingError("training set must contain both classes")
        model_config = model_config or {}
        for key in ("delta", "fusion"):
            if key in model_config:
                raise TrainingError(
                    f"model_config may not set {key!r}: the threshold is TrainConfig.delta "
                    "and the fusion follows the training mode"
                )
        self.tc = tc
        self.mc = make_config(**model_config, fusion=fusion, delta=tc.delta)
        self.vocab = vocab = build_vocab([*clean_fragments, *variant_fragments])
        length = self.mc["length"]
        Xc, self.yc = encode_fragments(clean_fragments, vocab, length)
        Xv, self.yv = encode_fragments(variant_fragments, vocab, length)
        self.val = None
        if val_programs is not None:
            self.val = encode_corpus(val_programs, self.mc["granularity"], vocab, length)
            if not self.val.transformed:
                raise TrainingError(f"{val_source} holds no transformed programs: its Total row is empty")
        self.params = init_params(self.mc, max(vocab.values(), default=1) + 1, tc.seed)
        self.Xc = prepare_ids(self.params, self.mc, Xc)
        self.Xv = prepare_ids(self.params, self.mc, Xv)
        self.opt = Adam(tc.lr)
        self.trace: list[TrainRecord] = []
        self.measured: Optional[tuple[np.ndarray, np.ndarray]] = None

    # ---- measurement helpers -------------------------------------------

    def features(self, X: PreparedIds) -> np.ndarray:
        """F of X under the current feature stack; the forward cache is
        dropped at once, so no full-pool cache outlives the call."""
        return features_forward(self.params, self.mc, X)[0]

    def measure(self) -> tuple[np.ndarray, np.ndarray]:
        """F of X and X' under the current parameters, kept as
        self.measured for the classifier phase that may follow."""
        self.measured = self.features(self.Xc), self.features(self.Xv)
        return self.measured

    def clean_loss(self, F_clean: np.ndarray) -> float:
        """Summed CE of both heads on the clean set, given its features."""
        return bce_loss(heads_forward(self.params, F_clean)[0], self.yc)[0]

    def discrepancy_on(self, F: np.ndarray) -> float:
        """Mean |c1 - c2| over the rows of the features F; 0 when empty."""
        if len(F) == 0:
            return 0.0
        return discrepancy_loss(heads_forward(self.params, F)[0])[0]

    def val_f1(self) -> Optional[float]:
        if self.val is None:
            return None
        f1 = self.val.score(DetectorModel(self.mc, self.vocab, self.params))[-1].confusion.f1  # the Total row's
        return None if f1 is None else float(f1)

    def record(self, rnd: int, phase: str, epoch: int, L_c: float, L_h: float, disc: float, gamma: float) -> None:
        self.trace.append(
            TrainRecord(
                round=rnd,
                phase=phase,
                epoch=epoch,
                L_c=_require_finite(L_c, "L_c"),
                L_h=_require_finite(L_h, "L_h"),
                mean_disc=_require_finite(disc, "mean_disc"),
                gamma=gamma,
                val_f1=self.val_f1(),
            )
        )

    # ---- phases ---------------------------------------------------------

    def _batches(self, n: int, *tags) -> list[np.ndarray]:
        order = derive_rng(self.tc.seed, "batches", *tags).permutation(n)
        count = max(1, math.ceil(n / self.tc.batch_size))
        return [chunk for chunk in np.array_split(order, count) if len(chunk)]

    def joint_epoch(self, epoch: int) -> None:
        for batch in self._batches(len(self.Xc), "joint", 0, epoch):
            Xb, yb = self.Xc[batch], self.yc[batch]
            F, fc = features_forward(self.params, self.mc, Xb)
            P, hc = heads_forward(self.params, F)
            grads, dF = heads_backward(hc, bce_grad(P, yb))
            grads.update(features_backward(self.params, self.mc, fc, dF))
            self.opt.step(self.params, grads)

    def warm_up(self) -> None:
        """Joint CE on X for up to e1 epochs, until L_c moves by at most tau_loss."""
        prev = None
        for epoch in range(self.tc.e1):
            self.joint_epoch(epoch)
            F_clean, F_var = self.measure()
            L_c = self.clean_loss(F_clean)
            self.record(0, "joint", epoch, L_c, 0.0, self.discrepancy_on(F_var), 0.0)
            if prev is not None and abs(prev - L_c) <= self.tc.tau_loss:
                break
            prev = L_c

    def classifier_epoch(self, F_clean: np.ndarray, F_hard: np.ndarray, rnd: int, epoch: int) -> None:
        """Heads only, on the frozen features of the clean and hard sets."""
        clean_batches = self._batches(len(self.Xc), "classifier", rnd, epoch)
        hard_order = derive_rng(self.tc.seed, "hard", rnd, epoch).permutation(len(F_hard))
        hard_chunks = np.array_split(hard_order, len(clean_batches))
        for batch, hard in zip(clean_batches, hard_chunks):
            P, hc = heads_forward(self.params, F_clean[batch])
            grads, _ = heads_backward(hc, bce_grad(P, self.yc[batch]), feature_grad=False)
            if len(hard):
                Q, hc = heads_forward(self.params, F_hard[hard])
                # maximize the discrepancy on hard examples
                hard_grads, _ = heads_backward(hc, -discrepancy_grad(Q), feature_grad=False)
                grads = {k: g + hard_grads[k] for k, g in grads.items()}
            self.opt.step(self.params, grads)

    def classifier_phase(self, rnd: int) -> tuple[PreparedIds, float]:
        """Mine X'' and run the e2 classifier epochs and their records, on
        the features of X and X' that the last record measured under the
        parameters the round starts from, and one forward pass over X''
        (the features stay frozen through the phase); returns X'' and its
        share gamma of X'.

        X'' is a row gather of the prepared X', forwarded itself, not cut
        from the features of X', so its rows get the features a pass over
        X'' alone gives.  The features go out of scope when the phase ends.
        """
        (F_clean, F_var), self.measured = self.measured, None
        p1, p2 = heads_forward(self.params, F_var)[0]
        mask = hard_mask(p1, p2, self.yv, self.tc.delta)
        Xh = self.Xv[mask]
        gamma = float(mask.sum()) / len(self.Xv)
        F_hard = self.features(Xh)
        for epoch in range(self.tc.e2):
            self.classifier_epoch(F_clean, F_hard, rnd, epoch)
            L_h = self.discrepancy_on(F_hard)
            self.record(rnd, "classifier", epoch, self.clean_loss(F_clean), L_h, self.discrepancy_on(F_var), gamma)
        return Xh, gamma

    def feature_epoch(self, rnd: int, epoch: int) -> None:
        """Feature stack only, on X'; head parameters are never updated."""
        for batch in self._batches(len(self.Xv), "feature", rnd, epoch):
            F, fc = features_forward(self.params, self.mc, self.Xv[batch])
            P, hc = heads_forward(self.params, F)
            _, dF = heads_backward(hc, discrepancy_grad(P), head_grads=False)
            self.opt.step(self.params, features_backward(self.params, self.mc, fc, dF))

    def feature_phase(self, Xh: PreparedIds, rnd: int, gamma: float) -> None:
        for epoch in range(self.tc.e3):
            self.feature_epoch(rnd, epoch)
            # the features of X'' are dropped once measured
            L_h = self.discrepancy_on(self.features(Xh))
            F_clean, F_var = self.measure()
            self.record(rnd, "feature", epoch, self.clean_loss(F_clean), L_h, self.discrepancy_on(F_var), gamma)

    def run(self, rounds: int) -> TrainOutcome:
        """The warm-up, then up to `rounds` zigzag rounds."""
        try:
            with np.errstate(over="raise"):
                self.warm_up()
                rounds_run, stopped_early = self.zigzag_rounds(rounds)
        except FloatingPointError as exc:
            # a saturated model (tanh at +-1 on huge weights) keeps its
            # losses and gradients finite; the overflow on the way is the sign
            raise TrainingDiverged(str(exc)) from None
        model = DetectorModel(config=self.mc, vocab=self.vocab, params=self.params)
        return TrainOutcome(model=model, trace=self.trace, rounds_run=rounds_run, stopped_early=stopped_early)

    def zigzag_rounds(self, rounds: int) -> tuple[int, bool]:
        """Rounds run and whether the stop rule ended them before `rounds`."""
        # the last record was measured with the current parameters
        prev_disc, prev_loss = self.trace[-1].mean_disc, self.trace[-1].L_c
        for rnd in range(1, rounds + 1):
            with _frozen(self.params, feature_keys(self.mc), "classifier phase"):
                Xh, gamma = self.classifier_phase(rnd)
            with _frozen(self.params, heads_keys(), "feature phase"):
                self.feature_phase(Xh, rnd, gamma)
            disc, loss = self.trace[-1].mean_disc, self.trace[-1].L_c
            if abs(prev_disc - disc) <= self.tc.tau_disc and abs(prev_loss - loss) <= self.tc.tau_loss:
                return rnd, rnd < rounds
            prev_disc, prev_loss = disc, loss
        return rounds, False


def train_original(
    fragments: Sequence[Fragment],
    model_config: dict | None = None,
    train_config: TrainConfig | None = None,
    val_programs: Optional[Iterable[tuple[CorpusProgram, Program]]] = None,
    val_source: str = "validation corpus",
) -> TrainOutcome:
    """Joint CE fit of features and both heads on the given fragments;
    val_source names val_programs in errors."""
    return _Trainer(
        fragments, [], model_config, train_config, val_programs, fusion="c1", val_source=val_source
    ).run(0)


def train_zigzag(
    clean_fragments: Sequence[Fragment],
    variant_fragments: Sequence[Fragment],
    model_config: dict | None = None,
    train_config: TrainConfig | None = None,
    val_programs: Optional[Iterable[tuple[CorpusProgram, Program]]] = None,
    val_source: str = "validation corpus",
) -> TrainOutcome:
    """Decoupled robust training; see the module docstring for the loop.
    val_source names val_programs in errors."""
    if not variant_fragments:
        raise TrainingError(
            "variant pool is empty; without transformed programs there is "
            "nothing to harden against - use train_original instead"
        )
    trainer = _Trainer(
        clean_fragments, variant_fragments, model_config, train_config, val_programs,
        fusion="mean", val_source=val_source,
    )
    return trainer.run(trainer.tc.beta)

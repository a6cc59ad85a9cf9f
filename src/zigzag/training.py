"""Training schemes for the detector.

Two entry points:

* train_original: one feature stack and two heads fit jointly by summed
  cross entropy on whatever fragments it is given.  Adversarial
  (augmented) training is the same call on an augmented fragment pool.

* train_zigzag: decoupled robust training.  After a joint warm-up on
  the clean set X, it alternates two phases for up to beta rounds,
  re-mining the hard set X'' from the variant pool X' at the start of
  every round:

    classifier phase - features frozen bit for bit; heads minimize
        L_c(X) - L_h(X''), i.e. stay right on clean data while driving
        their disagreement up on hard examples;
    feature phase - heads frozen bit for bit; the feature stack
        minimizes mean |c1 - c2| over all of X'.

  An example is hard when either head's thresholded prediction (strictly
  greater than delta) disagrees with its label.  Training stops early
  when a round changes neither the mean discrepancy on X' nor the clean
  loss by more than the tolerances.

Each epoch appends a trace record; traces serialize to JSONL for
inspection and for the phase-dynamics checks.  A record holds, after its
epoch, L_c (summed head CE on X), L_h (mean |c1 - c2| on X'') and
mean_disc (the same on X').  Its passes:

    warm-up record - one forward pass over X (and X' for zigzag);
    classifier record - none: the phase's features are frozen, so the one
        pass per round over X, X' and X'' that its epochs train on also
        serves every record of the phase, which runs the heads only;
    feature record - one forward pass each over X, X' and X''.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .corpus import read_json_lines
from .encoding import build_vocab, encode_fragments
from .evaluation import confusion_from, f1_score
from .fragments import Fragment
from .nn.losses import bce_loss, discrepancy_loss
from .nn.model import (
    DetectorModel,
    feature_keys,
    features_backward,
    features_forward,
    head_backward,
    head_forward,
    head_keys,
    init_params,
    make_config,
)
from .nn.optim import Adam, Sgd, TrainingDiverged
from .seeds import derive_rng

log = logging.getLogger(__name__)


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
    optimizer: str = "adam"
    mine_with: str = "current"  # "current" or "pretrained" feature stack

    def validate(self) -> None:
        if self.optimizer not in ("adam", "sgd"):
            raise TrainingError(f"unknown optimizer {self.optimizer!r}")
        if self.mine_with not in ("current", "pretrained"):
            raise TrainingError(f"mine_with must be 'current' or 'pretrained'")
        if not 0.0 < self.delta < 1.0:
            raise TrainingError("delta must be in (0, 1)")
        for name in ("beta", "e1", "e2", "e3", "batch_size"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1")


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
    with open(path, "w", encoding="utf-8") as fh:
        for rec in trace:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def load_trace(path: str | Path) -> list[TrainRecord]:
    out = []
    for number, rec in enumerate(read_json_lines(path, TrainingError), 1):
        try:
            out.append(TrainRecord(**rec))
        except TypeError as exc:  # a missing or unknown key
            raise TrainingError(f"{path}: trace record {number}: {exc}") from None
    return out


def _require_train_split(fragments: Sequence[Fragment], what: str) -> None:
    for frag in fragments:
        if frag.split != "train":
            raise TrainingError(f"{what} contains non-training fragment {frag.id}")


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite {what}")
    return value


def binary_prediction(p: np.ndarray, delta: float) -> np.ndarray:
    """Strictly greater than the threshold; p == delta is negative."""
    return (p > delta).astype(np.int64)


def hard_mask(p1: np.ndarray, p2: np.ndarray, y: np.ndarray, delta: float) -> np.ndarray:
    """An example is hard when either head's thresholded prediction is wrong."""
    wrong1 = binary_prediction(p1, delta) != y.astype(np.int64)
    wrong2 = binary_prediction(p2, delta) != y.astype(np.int64)
    return wrong1 | wrong2


def mine_hard_examples(
    params: dict,
    model_config: dict,
    X: np.ndarray,
    y: np.ndarray,
    delta: float,
    feature_params: dict | None = None,
) -> np.ndarray:
    """Boolean mask over X': either head's thresholded prediction is wrong.

    X is encoded with the model's own vocabulary (ids in [0, emb rows));
    an id outside that range raises ModelError from features_forward.
    feature_params optionally substitutes a different (e.g. pretrained)
    feature stack while the heads stay current.
    """
    merged = dict(params)
    if feature_params is not None:
        merged.update(feature_params)
    F, _ = features_forward(merged, model_config, X)
    p1, _ = head_forward(params, "c1", F)
    p2, _ = head_forward(params, "c2", F)
    return hard_mask(p1, p2, y, delta)


class _Trainer:
    def __init__(
        self,
        model_config: dict,
        train_config: TrainConfig,
        vocab: dict[str, int],
        Xc: np.ndarray,
        yc: np.ndarray,
        val: Optional[tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self.mc = model_config
        self.tc = train_config
        self.vocab = vocab
        self.Xc = Xc
        self.yc = yc
        self.val = val
        vocab_size = max(vocab.values(), default=1) + 1
        self.params = init_params(model_config, vocab_size, train_config.seed)
        # one optimizer for the whole run: its per-tensor moment history
        # carries across phase switches and damps the discrepancy tug-of-war
        if train_config.optimizer == "adam":
            self.opt = Adam(train_config.lr)
        else:
            self.opt = Sgd(train_config.lr)
        self.trace: list[TrainRecord] = []

    # ---- measurement helpers -------------------------------------------

    def features(self, X: np.ndarray) -> np.ndarray:
        """F of X under the current feature stack; the forward cache is
        dropped at once, so no full-pool cache outlives the call."""
        return features_forward(self.params, self.mc, X)[0]

    def clean_loss(self, F_clean: np.ndarray) -> float:
        """Summed CE of both heads on the clean set, given its features."""
        p1, _ = head_forward(self.params, "c1", F_clean)
        p2, _ = head_forward(self.params, "c2", F_clean)
        return bce_loss(p1, self.yc)[0] + bce_loss(p2, self.yc)[0]

    def discrepancy_on(self, F: np.ndarray) -> float:
        """Mean |c1 - c2| over the rows of the features F; 0 when empty."""
        if len(F) == 0:
            return 0.0
        p1, _ = head_forward(self.params, "c1", F)
        p2, _ = head_forward(self.params, "c2", F)
        return discrepancy_loss(p1, p2)[0]

    def val_f1(self) -> Optional[float]:
        if self.val is None:
            return None
        Xv, yv = self.val
        pred = DetectorModel(self.mc, self.vocab, self.params).predict(Xv)
        f1 = f1_score(confusion_from(yv.tolist(), pred.tolist()))
        return 0.0 if f1 is None else float(f1)

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

    def joint_epoch(self, rnd: int, phase: str, epoch: int) -> None:
        for batch in self._batches(len(self.Xc), phase, rnd, epoch):
            Xb, yb = self.Xc[batch], self.yc[batch]
            F, fc = features_forward(self.params, self.mc, Xb)
            p1, h1 = head_forward(self.params, "c1", F)
            p2, h2 = head_forward(self.params, "c2", F)
            _, dp1 = bce_loss(p1, yb)
            _, dp2 = bce_loss(p2, yb)
            g1, dF1 = head_backward(self.params, "c1", h1, dp1)
            g2, dF2 = head_backward(self.params, "c2", h2, dp2)
            fg = features_backward(self.params, self.mc, fc, dF1 + dF2)
            self.opt.step(self.params, {**g1, **g2, **fg})

    def classifier_epoch(self, F_clean: np.ndarray, F_hard: np.ndarray, rnd: int, epoch: int) -> None:
        """Heads only, on the frozen features of the clean and hard sets."""
        clean_batches = self._batches(len(self.Xc), "classifier", rnd, epoch)
        hard_order = derive_rng(self.tc.seed, "hard", rnd, epoch).permutation(len(F_hard))
        hard_chunks = np.array_split(hard_order, len(clean_batches))
        for batch, hard in zip(clean_batches, hard_chunks):
            grads: dict[str, np.ndarray] = {}
            p1, h1 = head_forward(self.params, "c1", F_clean[batch])
            p2, h2 = head_forward(self.params, "c2", F_clean[batch])
            _, dp1 = bce_loss(p1, self.yc[batch])
            _, dp2 = bce_loss(p2, self.yc[batch])
            g1, _ = head_backward(self.params, "c1", h1, dp1)
            g2, _ = head_backward(self.params, "c2", h2, dp2)
            for k, v in (*g1.items(), *g2.items()):
                grads[k] = grads.get(k, 0.0) + v
            if len(hard):
                q1, hh1 = head_forward(self.params, "c1", F_hard[hard])
                q2, hh2 = head_forward(self.params, "c2", F_hard[hard])
                _, dq1, dq2 = discrepancy_loss(q1, q2)
                # maximize the discrepancy on hard examples
                hg1, _ = head_backward(self.params, "c1", hh1, -dq1)
                hg2, _ = head_backward(self.params, "c2", hh2, -dq2)
                for k, v in (*hg1.items(), *hg2.items()):
                    grads[k] = grads.get(k, 0.0) + v
            self.opt.step(self.params, grads)

    def classifier_phase(self, Xv: np.ndarray, Xh: np.ndarray, rnd: int, gamma: float) -> None:
        """e2 classifier epochs and their records on one forward pass each
        over X', X and X'' (the features stay frozen through the phase).

        X'' is forwarded itself, not cut from the features of X', so its
        rows get the features a pass over X'' alone gives.  The features
        go out of scope when the phase ends.
        """
        F_var, F_clean, F_hard = (self.features(X) for X in (Xv, self.Xc, Xh))
        for epoch in range(self.tc.e2):
            self.classifier_epoch(F_clean, F_hard, rnd, epoch)
            L_h = self.discrepancy_on(F_hard)
            self.record(rnd, "classifier", epoch, self.clean_loss(F_clean), L_h, self.discrepancy_on(F_var), gamma)

    def feature_epoch(self, Xv: np.ndarray, rnd: int, epoch: int) -> None:
        """Feature stack only; head parameters are never updated."""
        fkeys = set(feature_keys(self.mc))
        for batch in self._batches(len(Xv), "feature", rnd, epoch):
            Xb = Xv[batch]
            F, fc = features_forward(self.params, self.mc, Xb)
            p1, h1 = head_forward(self.params, "c1", F)
            p2, h2 = head_forward(self.params, "c2", F)
            _, dp1, dp2 = discrepancy_loss(p1, p2)
            _, dF1 = head_backward(self.params, "c1", h1, dp1)
            _, dF2 = head_backward(self.params, "c2", h2, dp2)
            fg = features_backward(self.params, self.mc, fc, dF1 + dF2)
            self.opt.step(self.params, {k: v for k, v in fg.items() if k in fkeys})


def _prepare(
    fragments: Sequence[Fragment],
    model_config: dict | None,
    what: str,
) -> tuple[dict, Sequence[Fragment]]:
    if not fragments:
        raise TrainingError(f"{what} is empty")
    _require_train_split(fragments, what)
    config = make_config(**(model_config or {}))
    return config, fragments


def _encode_val(
    val_fragments: Optional[Sequence[Fragment]], vocab: dict[str, int], length: int
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    if not val_fragments:
        return None
    return encode_fragments(val_fragments, vocab, length)


def train_original(
    fragments: Sequence[Fragment],
    model_config: dict | None = None,
    train_config: TrainConfig | None = None,
    val_fragments: Optional[Sequence[Fragment]] = None,
) -> TrainOutcome:
    """Joint CE fit of features and both heads on the given fragments."""
    tc = train_config or TrainConfig()
    tc.validate()
    mc, fragments = _prepare(fragments, model_config, "training set")
    labels = {f.label for f in fragments}
    if labels != {0, 1}:
        raise TrainingError("training set must contain both classes")
    vocab = build_vocab(fragments)
    Xc, yc = encode_fragments(fragments, vocab, mc["length"])
    trainer = _Trainer(mc, tc, vocab, Xc, yc, _encode_val(val_fragments, vocab, mc["length"]))

    prev = None
    for epoch in range(tc.e1):
        trainer.joint_epoch(0, "joint", epoch)
        L_c = trainer.clean_loss(trainer.features(Xc))
        trainer.record(0, "joint", epoch, L_c, 0.0, 0.0, 0.0)
        if prev is not None and abs(prev - L_c) <= tc.tau_loss:
            break
        prev = L_c
    model = DetectorModel(config=mc, vocab=vocab, params=trainer.params)
    return TrainOutcome(model=model, trace=trainer.trace, rounds_run=0, stopped_early=False)


def train_zigzag(
    clean_fragments: Sequence[Fragment],
    variant_fragments: Sequence[Fragment],
    model_config: dict | None = None,
    train_config: TrainConfig | None = None,
    val_fragments: Optional[Sequence[Fragment]] = None,
) -> TrainOutcome:
    """Decoupled robust training; see the module docstring for the loop."""
    tc = train_config or TrainConfig()
    tc.validate()
    if not variant_fragments:
        raise TrainingError(
            "variant pool is empty; without transformed programs there is "
            "nothing to harden against - use train_original instead"
        )
    overrides = dict(model_config or {})
    overrides.setdefault("fusion", "mean")
    overrides.setdefault("delta", tc.delta)
    mc, clean_fragments = _prepare(clean_fragments, overrides, "clean set")
    _require_train_split(variant_fragments, "variant pool")
    labels = {f.label for f in clean_fragments}
    if labels != {0, 1}:
        raise TrainingError("clean set must contain both classes")

    vocab = build_vocab(list(clean_fragments) + list(variant_fragments))
    Xc, yc = encode_fragments(clean_fragments, vocab, mc["length"])
    Xv, yv = encode_fragments(variant_fragments, vocab, mc["length"])
    trainer = _Trainer(mc, tc, vocab, Xc, yc, _encode_val(val_fragments, vocab, mc["length"]))

    # warm-up: joint CE on the clean set
    prev = None
    for epoch in range(tc.e1):
        trainer.joint_epoch(0, "joint", epoch)
        L_c = trainer.clean_loss(trainer.features(Xc))
        trainer.record(0, "joint", epoch, L_c, 0.0, trainer.discrepancy_on(trainer.features(Xv)), 0.0)
        if prev is not None and abs(prev - L_c) <= tc.tau_loss:
            break
        prev = L_c

    pretrained_features = {k: trainer.params[k].copy() for k in feature_keys(mc)}
    head_key_set = set(head_keys("c1")) | set(head_keys("c2"))
    feature_key_set = set(feature_keys(mc))

    # the last record was measured with the current parameters
    prev_disc, prev_loss = trainer.trace[-1].mean_disc, trainer.trace[-1].L_c
    rounds_run = 0
    stopped_early = False
    for rnd in range(1, tc.beta + 1):
        mask = mine_hard_examples(
            trainer.params,
            mc,
            Xv,
            yv,
            tc.delta,
            feature_params=pretrained_features if tc.mine_with == "pretrained" else None,
        )
        Xh = Xv[mask]
        gamma = float(mask.sum()) / len(Xv)

        frozen_features = {k: trainer.params[k].copy() for k in feature_key_set}
        trainer.classifier_phase(Xv, Xh, rnd, gamma)
        for k in feature_key_set:
            if not np.array_equal(frozen_features[k], trainer.params[k]):
                raise TrainingError(f"classifier phase moved frozen feature tensor {k!r}")

        frozen_heads = {k: trainer.params[k].copy() for k in head_key_set}
        for epoch in range(tc.e3):
            trainer.feature_epoch(Xv, rnd, epoch)
            # each set's features are dropped once measured
            L_h = trainer.discrepancy_on(trainer.features(Xh))
            L_c = trainer.clean_loss(trainer.features(Xc))
            trainer.record(rnd, "feature", epoch, L_c, L_h, trainer.discrepancy_on(trainer.features(Xv)), gamma)
        for k in head_key_set:
            if not np.array_equal(frozen_heads[k], trainer.params[k]):
                raise TrainingError(f"feature phase moved frozen head tensor {k!r}")

        rounds_run = rnd
        disc, loss = trainer.trace[-1].mean_disc, trainer.trace[-1].L_c
        if abs(prev_disc - disc) <= tc.tau_disc and abs(prev_loss - loss) <= tc.tau_loss:
            stopped_early = rnd < tc.beta
            break
        prev_disc, prev_loss = disc, loss

    model = DetectorModel(config=mc, vocab=vocab, params=trainer.params)
    return TrainOutcome(model=model, trace=trainer.trace, rounds_run=rounds_run, stopped_early=stopped_early)

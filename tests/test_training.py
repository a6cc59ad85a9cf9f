"""Tests for the two training schemes and their phase contracts."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, fields

import numpy as np
import pytest

import zigzag.nn.model
import zigzag.training
from zigzag.corpus import augment_corpus, generate_synthetic
from zigzag.encoding import build_vocab, encode_fragments
from zigzag.evaluation import encode_corpus
from zigzag.fragments import extract_fragments
from zigzag.nn.kernels import embed_mean_forward, rnn_forward, token_counts
from zigzag.nn.losses import bce_loss, discrepancy_loss
from zigzag.nn.model import (
    DetectorModel,
    ModelError,
    feature_keys,
    features_forward,
    head_forward,
    head_keys,
    init_params,
    make_config,
    model_fingerprint,
)
from zigzag.seeds import derive_rng
from zigzag.training import (
    TrainConfig,
    TrainRecord,
    TrainingError,
    _Trainer,
    binary_prediction,
    hard_mask,
    load_trace,
    save_trace,
    train_original,
    train_zigzag,
)

TRACE_FIELDS = {"round", "phase", "epoch", "L_c", "L_h", "mean_disc", "gamma", "val_f1"}


@pytest.fixture(scope="module")
def pools():
    corpus = generate_synthetic(40, seed=3)
    train_pairs = [(c, c.program()) for c in corpus if c.split == "train"]
    augmented = augment_corpus(train_pairs, ("ct2", "ct7"), seed=5)
    clean = [f for item, program in train_pairs for f in extract_fragments(item, "function", program)]
    varied = [f for item in augmented if item.kind for f in extract_fragments(item, "function")]
    test_pairs = [(c, c.program()) for c in corpus if c.split == "test"]
    val = [(p, p.program()) for p in augment_corpus(test_pairs, ("ct2", "ct7"), seed=5)]
    return clean, varied, val


def quick_config(**overrides) -> TrainConfig:
    base = dict(e1=8, beta=2, e2=2, e3=2, batch_size=32, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


# ---- hard-example predicate ------------------------------------------------


def test_hard_when_second_head_misses_positive():
    mask = hard_mask(np.array([0.7]), np.array([0.3]), np.array([1.0]), 0.4)
    assert mask.tolist() == [True]


def test_not_hard_when_both_heads_agree_with_negative():
    mask = hard_mask(np.array([0.1]), np.array([0.2]), np.array([0.0]), 0.4)
    assert mask.tolist() == [False]


def test_threshold_is_strict():
    # p == delta counts as a negative prediction
    assert binary_prediction(np.array([0.4]), 0.4).tolist() == [0]
    assert hard_mask(np.array([0.4]), np.array([0.4]), np.array([0.0]), 0.4).tolist() == [False]
    assert hard_mask(np.array([0.4]), np.array([0.4]), np.array([1.0]), 0.4).tolist() == [True]


def test_hard_mask_matches_bruteforce():
    rng = derive_rng(0, "hard-tables")
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        p1 = rng.uniform(size=n)
        p2 = rng.uniform(size=n)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        delta = float(rng.uniform(0.05, 0.95))
        expected = [
            (1 if a > delta else 0) != int(t) or (1 if b > delta else 0) != int(t)
            for a, b, t in zip(p1, p2, y)
        ]
        assert hard_mask(p1, p2, y, delta).tolist() == expected


def test_each_round_mines_the_hard_set_from_x_prime_at_the_round_start(pools, monkeypatch):
    clean, varied, _ = pools
    rounds = []  # (parameters at the start of the round, trainer, X'', gamma)

    def spying_phase(self, rnd):
        start = {k: v.copy() for k, v in self.params.items()}
        Xh, gamma = classifier_phase(self, rnd)
        rounds.append((start, self, Xh, gamma))
        return Xh, gamma

    classifier_phase = _Trainer.classifier_phase
    monkeypatch.setattr(_Trainer, "classifier_phase", spying_phase)
    tc = quick_config(e1=3, beta=2, tau_disc=0.0, tau_loss=0.0)
    out = train_zigzag(clean, varied, train_config=tc)
    assert out.rounds_run == len(rounds) == 2
    masks = []
    for params, trainer, Xh, gamma in rounds:
        F, _ = features_forward(params, trainer.mc, trainer.Xv)
        p1, _ = head_forward(params, "c1", F)
        p2, _ = head_forward(params, "c2", F)
        mask = hard_mask(p1, p2, trainer.yv, tc.delta)
        assert np.array_equal(Xh.X, trainer.Xv.X[mask])
        assert gamma == mask.sum() / len(mask)
        masks.append(mask)
    # neither all-hard nor all-easy, so the agreement is not vacuous
    assert any(mask.any() and not mask.all() for mask in masks)


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_token_ids_outside_the_model_vocab_raise_model_error(pools, encoder):
    clean, varied, _ = pools
    mc = make_config(encoder=encoder)
    own = build_vocab(clean)
    model = DetectorModel(config=mc, vocab=own, params=init_params(mc, max(own.values()) + 1, 7))
    rows = model.params["emb"].shape[0]
    # ids from a clean+variant vocabulary given to a model sized for clean only
    X_foreign, _ = encode_fragments(varied, build_vocab(clean + varied), mc["length"])
    assert X_foreign.max() >= rows
    X, _ = encode_fragments(varied, own, mc["length"])
    X_negative = X.copy()
    X_negative[0, 0] = -1
    entry_points = (lambda X: features_forward(model.params, mc, X), model.predict)
    for call in entry_points:
        with pytest.raises(ModelError, match=f"token id {X_foreign.max()} .* {rows} rows"):
            call(X_foreign)
        with pytest.raises(ModelError, match="token id -1 is negative"):
            call(X_negative)

    # ids in range: F is exactly the kernel's encoding through the tanh layer
    F, _ = features_forward(model.params, mc, X)
    if encoder == "mean":
        enc = embed_mean_forward(model.params["emb"], *token_counts(X, rows))
    else:
        hs, _ = rnn_forward(
            model.params["emb"], X, model.params["r_wx"], model.params["r_wh"], model.params["r_b"]
        )
        enc = hs[:, -1, :]
    assert F.tobytes() == np.tanh(enc @ model.params["f_w"] + model.params["f_b"]).tobytes()


# ---- phase freezing ---------------------------------------------------------


def make_trainer(pools, **cfg) -> _Trainer:
    clean, varied, _ = pools
    return _Trainer(clean, varied, None, quick_config(**cfg), None, fusion="mean")


def test_classifier_epoch_keeps_features_frozen(pools):
    trainer = make_trainer(pools)
    before = {k: trainer.params[k].tobytes() for k in feature_keys(trainer.mc)}
    heads_before = {k: trainer.params[k].tobytes() for k in (*head_keys("c1"), *head_keys("c2"))}
    trainer.classifier_epoch(trainer.features(trainer.Xc), trainer.features(trainer.Xv[:16]), 1, 0)
    for k, raw in before.items():
        assert trainer.params[k].tobytes() == raw
    assert any(trainer.params[k].tobytes() != raw for k, raw in heads_before.items())


def test_classifier_epoch_accepts_empty_hard_set(pools):
    trainer = make_trainer(pools)
    empty = trainer.features(trainer.Xv[:0])
    assert empty.shape == (0, trainer.mc["feature_dim"])
    before = {k: trainer.params[k].tobytes() for k in feature_keys(trainer.mc)}
    heads_before = {k: trainer.params[k].tobytes() for k in (*head_keys("c1"), *head_keys("c2"))}
    trainer.classifier_epoch(trainer.features(trainer.Xc), empty, 1, 0)
    for k, raw in before.items():
        assert trainer.params[k].tobytes() == raw
    # the clean CE still trains the heads
    assert any(trainer.params[k].tobytes() != raw for k, raw in heads_before.items())


def test_feature_epoch_keeps_heads_frozen(pools):
    trainer = make_trainer(pools)
    before = {k: trainer.params[k].tobytes() for k in (*head_keys("c1"), *head_keys("c2"))}
    features_before = {k: trainer.params[k].tobytes() for k in feature_keys(trainer.mc)}
    trainer.feature_epoch(1, 0)
    for k, raw in before.items():
        assert trainer.params[k].tobytes() == raw
    assert any(trainer.params[k].tobytes() != raw for k, raw in features_before.items())


# ---- joint warm-up ----------------------------------------------------------


def test_warmup_loss_decreases_over_first_five_epochs(pools):
    clean, _, _ = pools
    out = train_original(clean, train_config=quick_config(e1=6, tau_loss=1e-9))
    losses = [rec.L_c for rec in out.trace[:5]]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_warmup_plateau_stops_before_cap(pools):
    clean, _, _ = pools
    out = train_original(clean, train_config=quick_config(e1=50, tau_loss=0.5))
    # a huge tolerance plateaus immediately after the second epoch
    assert len(out.trace) == 2


# ---- zigzag loop ------------------------------------------------------------


def test_zigzag_trace_schema_and_dynamics(pools):
    clean, varied, val = pools
    out = train_zigzag(clean, varied, train_config=quick_config(), val_programs=val)
    assert out.rounds_run >= 1
    phases = {rec.phase for rec in out.trace}
    assert phases == {"joint", "classifier", "feature"}
    seen = set()
    for rec in out.trace:
        row = asdict(rec)
        assert set(row) == TRACE_FIELDS
        for name in ("L_c", "L_h", "mean_disc", "gamma"):
            assert math.isfinite(row[name])
        assert 0.0 <= rec.gamma <= 1.0
        assert rec.val_f1 is not None and 0.0 <= rec.val_f1 <= 1.0
        seen.add((rec.round, rec.phase, rec.epoch))
    assert len(seen) == len(out.trace)
    for rnd in range(1, out.rounds_run + 1):
        for phase, cap in (("classifier", 2), ("feature", 2)):
            epochs = [rec.epoch for rec in out.trace if rec.round == rnd and rec.phase == phase]
            assert epochs == list(range(cap))
        gammas = {rec.gamma for rec in out.trace if rec.round == rnd}
        assert len(gammas) == 1


@pytest.mark.parametrize("encoder", ["mean", "rnn"])
def test_zigzag_forwards_frozen_features_once_per_classifier_phase(pools, encoder, monkeypatch):
    clean, varied, _ = pools
    events: list = []  # rows given to features_forward, and each record as a marker

    def counting_forward(params, config, X):
        events.append(len(X))
        return features_forward(params, config, X)

    def marking_record(self, rnd, phase, epoch, *values):
        events.append((rnd, phase))
        record(self, rnd, phase, epoch, *values)

    record = _Trainer.record
    monkeypatch.setattr(zigzag.training, "features_forward", counting_forward)
    monkeypatch.setattr(_Trainer, "record", marking_record)
    tc = quick_config(e1=2, beta=2, e2=3, e3=2, tau_disc=0.0, tau_loss=0.0)
    out = train_zigzag(clean, varied, model_config={"encoder": encoder}, train_config=tc)
    assert out.rounds_run == 2
    n_c, n_v = len(clean), len(varied)

    # rows forwarded before each record, keyed by the record's (round, phase)
    per_record, rows = [], 0
    for event in events:
        if isinstance(event, tuple):
            per_record.append((event, rows))
            rows = 0
        else:
            rows += event
    assert rows == 0
    # each warm-up epoch trains on X and is measured on X and X'
    assert [rows for (rnd, _), rows in per_record if rnd == 0] == [2 * n_c + n_v] * tc.e1
    for rnd in (1, 2):
        n_h = round(next(rec.gamma for rec in out.trace if rec.round == rnd) * n_v)
        got = [rows for (r, _), rows in per_record if r == rnd]
        # one pass over X'' for the whole classifier phase, which reads X
        # and X' from the round's previous record; its later epochs and
        # records forward nothing
        assert got[: tc.e2] == [n_h] + [0] * (tc.e2 - 1)
        # each feature epoch trains on X' and is measured on X, X' and X''
        assert got[tc.e2 :] == [n_v + n_c + n_v + n_h] * tc.e3


def test_a_zigzag_round_forwards_13_full_sets(pools, monkeypatch):
    clean, varied, _ = pools
    events: list = []  # each full-set forward, and each record as (round, phase)

    def counting_features(self, X):
        events.append(len(X))
        return features(self, X)

    def marking_record(self, rnd, phase, epoch, *values):
        events.append((rnd, phase))
        record(self, rnd, phase, epoch, *values)

    features, record = _Trainer.features, _Trainer.record
    monkeypatch.setattr(_Trainer, "features", counting_features)
    monkeypatch.setattr(_Trainer, "record", marking_record)
    tc = quick_config(e1=2, beta=2, e2=4, e3=4, tau_disc=0.0, tau_loss=0.0)
    out = train_zigzag(clean, varied, train_config=tc)
    assert out.rounds_run == 2
    per_round, pending = {0: 0, 1: 0, 2: 0}, 0  # a forward counts for the next record's round
    for event in events:
        if isinstance(event, tuple):
            per_round[event[0]] += pending
            pending = 0
        else:
            pending += 1
    assert pending == 0
    # X and X' each warm-up epoch; X'' once per classifier phase, then X'',
    # X and X' each feature epoch; the classifier phase reuses the X and X'
    # of the round's previous record
    assert per_round == {0: 2 * tc.e1, 1: 1 + 3 * tc.e3, 2: 1 + 3 * tc.e3} == {0: 4, 1: 13, 2: 13}


@pytest.mark.parametrize("with_val", [False, True], ids=["no-val", "val"])
def test_zigzag_counts_the_tokens_of_x_and_x_prime_once(pools, with_val, monkeypatch):
    clean, varied, val = pools
    counted = []  # rows of each token-count matrix built

    def counting(X, vocab_size):
        counted.append(len(X))
        return token_counts(X, vocab_size)

    monkeypatch.setattr(zigzag.nn.model, "token_counts", counting)
    tc = quick_config(e1=2, beta=2, e2=2, e3=2, tau_disc=0.0, tau_loss=0.0)
    out = train_zigzag(clean, varied, train_config=tc, val_programs=val if with_val else None)
    assert out.rounds_run == 2 and len(out.trace) == 2 + 2 * (2 + 2)
    # X, then X': once per run, not per pass; the validation buckets are
    # counted where each record scores them
    expected = [len(clean), len(varied)]
    if with_val:
        buckets = encode_corpus(val, "function", out.model.vocab, out.model.config["length"]).buckets
        expected += [len(X) for _, X, _ in buckets] * len(out.trace)
        assert len(buckets) == 3
    assert counted == expected


def test_final_trace_record_equals_the_returned_model_on_x_and_x_prime(pools):
    clean, varied, _ = pools
    out = train_zigzag(clean, varied, train_config=quick_config())
    model = out.model
    Xc, yc = encode_fragments(clean, model.vocab, model.config["length"])
    Xv, _ = encode_fragments(varied, model.vocab, model.config["length"])
    p1, p2 = model.predict_proba(Xc)
    q1, q2 = model.predict_proba(Xv)
    last = out.trace[-1]
    assert last.phase == "feature"
    assert last.L_c == bce_loss(p1, yc)[0] + bce_loss(p2, yc)[0]
    assert last.mean_disc == discrepancy_loss(np.array((q1, q2)))[0]


def test_validation_corpus_without_transformed_programs_raises(pools):
    clean, _, val = pools
    originals = [(item, program) for item, program in val if item.kind is None]
    with pytest.raises(TrainingError, match="no transformed programs"):
        train_original(clean, train_config=quick_config(e1=1), val_programs=originals)


def test_zigzag_without_validation_records_none(pools):
    clean, varied, _ = pools
    out = train_zigzag(clean, varied, train_config=quick_config(beta=1))
    assert all(rec.val_f1 is None for rec in out.trace)


def test_zigzag_model_uses_mean_fusion_and_delta(pools):
    clean, varied, _ = pools
    out = train_zigzag(clean, varied, train_config=quick_config(beta=1, delta=0.45))
    assert out.model.config["fusion"] == "mean"
    assert out.model.config["delta"] == 0.45


@pytest.mark.parametrize("key, value", [("delta", 0.3), ("fusion", "c1"), ("fusion", "mean")])
@pytest.mark.parametrize("mode", ["original", "zigzag"])
def test_model_config_may_not_set_delta_or_fusion(mode, key, value, pools):
    # the threshold must be the one X'' is mined at, and the fusion is the mode's
    clean, varied, _ = pools
    tc = quick_config(beta=1)
    with pytest.raises(TrainingError, match=f"model_config may not set '{key}'"):
        if mode == "original":
            train_original(clean, model_config={key: value}, train_config=tc)
        else:
            train_zigzag(clean, varied, model_config={key: value}, train_config=tc)


def test_original_model_uses_first_head(pools):
    clean, _, _ = pools
    out = train_original(clean, train_config=quick_config(e1=2))
    assert out.model.config["fusion"] == "c1"


def test_zigzag_requires_variant_pool(pools):
    clean, _, _ = pools
    with pytest.raises(TrainingError, match="train_original"):
        train_zigzag(clean, [], train_config=quick_config())


def test_zigzag_early_stops_when_nothing_moves(pools):
    clean, varied, _ = pools
    out = train_zigzag(clean, varied, train_config=quick_config(lr=1e-12, beta=6, e1=2))
    assert out.stopped_early
    assert out.rounds_run == 1


def test_zigzag_runs_all_rounds_with_tight_tolerances(pools):
    clean, varied, _ = pools
    out = train_zigzag(
        clean, varied, train_config=quick_config(beta=2, tau_disc=1e-12, tau_loss=1e-12)
    )
    assert out.rounds_run == 2
    assert not out.stopped_early


# ---- determinism ------------------------------------------------------------


def test_same_seed_reproduces_model_bytes(pools):
    clean, varied, _ = pools
    a = train_zigzag(clean, varied, train_config=quick_config())
    b = train_zigzag(clean, varied, train_config=quick_config())
    assert model_fingerprint(a.model) == model_fingerprint(b.model)
    assert [asdict(r) for r in a.trace] == [asdict(r) for r in b.trace]


def test_different_seed_changes_model_bytes(pools):
    clean, varied, _ = pools
    a = train_zigzag(clean, varied, train_config=quick_config(seed=7, beta=1))
    b = train_zigzag(clean, varied, train_config=quick_config(seed=8, beta=1))
    assert model_fingerprint(a.model) != model_fingerprint(b.model)


# ---- validation and serialization -------------------------------------------


def test_rejects_single_class_training_set(pools):
    clean, _, _ = pools
    benign = [f for f in clean if f.label == 0]
    with pytest.raises(TrainingError, match="both classes"):
        train_original(benign, train_config=quick_config())


def test_rejects_empty_training_set():
    with pytest.raises(TrainingError, match="empty"):
        train_original([], train_config=quick_config())


def test_rejects_non_training_fragments(pools):
    clean, _, _ = pools
    tampered = [*clean]
    tampered[0] = type(clean[0])(
        id=clean[0].id,
        function=clean[0].function,
        tokens=clean[0].tokens,
        label=clean[0].label,
        split="test",
    )
    with pytest.raises(TrainingError, match="non-training"):
        train_original(tampered, train_config=quick_config())


@pytest.mark.parametrize(
    "overrides",
    [
        dict(delta=0.0), dict(e2=0), dict(beta=0), dict(e1=0), dict(batch_size=0),
        # wrongly typed: a fraction of an epoch or a batch, a bool, a number as text
        dict(e1=2.5), dict(batch_size=1.5), dict(beta=True), dict(e3=4.0), dict(seed=1.0),
        dict(seed=False), dict(delta="0.4"), dict(lr="0.002"), dict(tau_disc=None), dict(tau_loss=True),
    ],
)
def test_config_validation_rejects(overrides):
    with pytest.raises(TrainingError):
        quick_config(**overrides).validate()


@pytest.mark.parametrize("name", [field.name for field in fields(TrainConfig)])
@pytest.mark.parametrize("value", [None, True, "1", 1.5j], ids=["none", "bool", "text", "complex"])
def test_config_validation_names_each_wrongly_typed_field(name, value):
    with pytest.raises(TrainingError, match=f"^{name} must be an? (integer|real number), got "):
        quick_config(**{name: value}).validate()


def test_config_validation_accepts_zero_stop_thresholds():
    quick_config(tau_disc=0.0, tau_loss=0.0).validate()


def test_trace_round_trip(tmp_path, pools):
    clean, varied, _ = pools
    out = train_zigzag(clean, varied, train_config=quick_config(beta=1))
    path = tmp_path / "trace.jsonl"
    save_trace(path, out.trace)
    loaded = load_trace(path)
    assert [asdict(r) for r in loaded] == [asdict(r) for r in out.trace]


# one field of a record set to a value of the wrong type, or not finite
FIELD_DAMAGE = {
    "round-string": ("round", "x"),
    "round-bool": ("round", True),
    "round-negative": ("round", -4),
    "epoch-float": ("epoch", 1.0),
    "epoch-negative": ("epoch", -1),
    "phase-int": ("phase", 3),
    "phase-unknown": ("phase", "warm-up"),
    "L_c-string": ("L_c", "nan"),
    "L_c-nan": ("L_c", math.nan),
    "L_c-negative": ("L_c", -1.0),
    "L_h-infinite": ("L_h", math.inf),
    "mean_disc-null": ("mean_disc", None),
    "L_h-negative": ("L_h", -0.5),
    "mean_disc-int": ("mean_disc", 0),
    "mean_disc-negative": ("mean_disc", -3.0),
    "gamma-bool": ("gamma", True),
    "gamma-above-one": ("gamma", 7.0),
    "gamma-negative": ("gamma", -0.25),
    "val_f1-string": ("val_f1", "0.5"),
    "val_f1-bool": ("val_f1", False),
    "val_f1-nan": ("val_f1", math.nan),
    "val_f1-infinite": ("val_f1", math.inf),
    "val_f1-above-one": ("val_f1", 2.5),
    "val_f1-negative": ("val_f1", -1.0),
}


@pytest.mark.parametrize(
    "damage, message",
    [
        ("truncated-line", ":2: not valid JSON"),
        ("deep-line", ":2: not valid JSON"),
        ("missing-key", ": trace record 2: "),
        ("unknown-key", ": trace record 2: "),
        *((damage, f": trace record 2: {key} must ") for damage, (key, _) in FIELD_DAMAGE.items()),
    ],
)
def test_damaged_trace_raises_training_error(damage, message, tmp_path):
    path = tmp_path / "trace.jsonl"
    record = TrainRecord(0, "joint", 0, 0.5, 0.0, 0.1, 0.0, None)
    save_trace(path, [record, record])
    first, second = path.read_text().splitlines()
    rec = json.loads(second)
    if damage == "truncated-line":
        second = second[:-10]
    elif damage == "deep-line":
        second = "[" * 200_000
    elif damage == "missing-key":
        del rec["L_c"]
        second = json.dumps(rec)
    elif damage == "unknown-key":
        rec["L_x"] = 1.0
        second = json.dumps(rec)
    else:
        key, value = FIELD_DAMAGE[damage]
        rec[key] = value
        second = json.dumps(rec)
    path.write_text(first + "\n" + second + "\n")
    with pytest.raises(TrainingError) as exc:
        load_trace(path)
    assert str(exc.value).startswith(f"{path}{message}")

"""Metric, report, and comparison tests."""
from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

import zigzag.nn.model
from zigzag.corpus import augment_corpus, generate_synthetic
from zigzag.evaluation import (
    Confusion,
    EvalReport,
    EvalRow,
    EvaluationError,
    ORIGINAL_ROW,
    SavedRow,
    TOTAL_ROW,
    compare_reports,
    confusion_from,
    corpus_digest,
    encode_corpus,
    evaluate_detector,
    format_metric,
    load_report,
    total_row,
)
from zigzag.encoding import build_vocab, embedding_rows, encode_fragments
from zigzag.fragments import GRANULARITIES, extract_fragments
from zigzag.nn.kernels import token_counts
from zigzag.nn.model import DetectorModel, ModelError, init_params, make_config

KINDS = ("ct2", "ct3")


@pytest.fixture(scope="module")
def eval_pairs():
    """Originals and their variants, each with its parse."""
    originals = [(p, p.program()) for p in generate_synthetic(16, seed=2)]
    return [(p, p.program()) for p in augment_corpus(originals, KINDS, seed=9)]


@pytest.fixture(scope="module")
def eval_corpus(eval_pairs):
    """Originals, and variants by kind."""
    items = [item for item, _ in eval_pairs]
    originals = [p for p in items if p.kind is None]
    return originals, {k: [p for p in items if p.kind == k] for k in KINDS}


def stub_model(granularity="function") -> DetectorModel:
    config = make_config(emb_dim=4, feature_dim=6, head_hidden=5, granularity=granularity)
    return DetectorModel(config=config, vocab={"func": 2}, params=init_params(config, 3, 0))


def all_ones(self, X):
    return np.ones(len(X), dtype=np.int64)


def all_zeros(self, X):
    return np.zeros(len(X), dtype=np.int64)


# ---- scalar metrics ---------------------------------------------------------


def test_confusion_from_golden():
    conf = confusion_from([1, 1, 0, 0], [1, 0, 1, 0])
    assert conf == Confusion(tp=1, fn=1, fp=1, tn=1)


def test_confusion_from_rejects_length_mismatch():
    with pytest.raises(EvaluationError):
        confusion_from([1], [1, 0])


def test_confusion_addition():
    a = Confusion(tp=1, fn=2, fp=3, tn=4)
    b = Confusion(tp=10, fn=20, fp=30, tn=40)
    assert a + b == Confusion(tp=11, fn=22, fp=33, tn=44)


def test_metric_goldens():
    conf = Confusion(tp=8, fn=2, fp=1, tn=9)
    assert conf.f1 == Fraction(16, 19)
    assert conf.fpr == Fraction(1, 10)
    assert conf.fnr == Fraction(1, 5)
    assert format_metric(conf.f1) == "0.8421052632"


def test_metrics_are_none_on_empty_denominators():
    empty = Confusion()
    assert empty.f1 is None
    assert empty.fpr is None
    assert empty.fnr is None


def test_format_metric_special_cases():
    assert format_metric(None) == "n/a"
    assert format_metric(Fraction(0, 5)) == "0"
    assert format_metric(Fraction(1, 3)) == "0.3333333333"
    assert format_metric(Fraction(1, 1)) == "1"


# ---- function-level prediction ------------------------------------------------


def test_any_positive_rule_covers_every_function(monkeypatch, eval_pairs):
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    item, program = eval_pairs[0]
    report = evaluate_detector(stub_model(), [(item, program)])
    flagged = sum(item.labels.values())
    assert report.row(ORIGINAL_ROW).functions == len(item.labels)
    assert report.row(ORIGINAL_ROW).confusion == Confusion(tp=flagged, fp=len(item.labels) - flagged)


def test_functions_without_fragments_stay_negative(monkeypatch, eval_pairs):
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    originals = [(item, program) for item, program in eval_pairs if item.kind is None]
    y_true, y_pred = [], []
    for item, _ in originals:
        covered = {f.function for f in extract_fragments(item, "slice")}
        for name, label in item.labels.items():
            y_true.append(label)
            y_pred.append(int(name in covered))
    assert 0 in y_pred  # the corpus must exercise the no-fragment path
    report = evaluate_detector(stub_model(granularity="slice"), originals)
    assert report.row(ORIGINAL_ROW).confusion == confusion_from(y_true, y_pred)


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_one_forward_pass_per_bucket_matches_per_program_prediction(granularity, eval_pairs):
    items = [item for item, _ in eval_pairs]
    train = [
        f for item in items if item.kind is None and item.split == "train"
        for f in extract_fragments(item, granularity)
    ]
    config = make_config(emb_dim=4, feature_dim=6, head_hidden=5, granularity=granularity, length=32)
    vocab = build_vocab(train)
    model = DetectorModel(config, vocab, init_params(config, embedding_rows(vocab), 3))
    # threshold halfway between two middle probabilities: about half the
    # fragments come out positive, none sits on the threshold
    every = [f for item in items for f in extract_fragments(item, granularity)]
    p = np.unique(model.fused_proba(encode_fragments(every, vocab, 32)[0]))
    model.config["delta"] = float(p[len(p) // 2 - 1] + p[len(p) // 2]) / 2

    def reference_row(name, bucket):
        y_true, y_pred = [], []
        for item in bucket:
            frags = extract_fragments(item, granularity)
            preds = model.predict(encode_fragments(frags, vocab, 32)[0]) if frags else []
            flagged = {f.function for f, pred in zip(frags, preds) if pred}
            y_true += list(item.labels.values())
            y_pred += [int(name in flagged) for name in item.labels]
        return EvalRow(name, len(bucket), len(y_true), confusion_from(y_true, y_pred))

    calls = []
    predict = DetectorModel.predict

    def counted(self, X):
        calls.append(len(X))
        return predict(self, X)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DetectorModel, "predict", counted)
        report = evaluate_detector(model, eval_pairs)
    assert len(calls) == 1 + len(KINDS)
    expected = [reference_row(ORIGINAL_ROW, [p for p in items if p.kind is None])]
    expected += [reference_row(k, [p for p in items if p.kind == k]) for k in KINDS]
    assert report.rows[:-1] == expected
    positives = sum(r.confusion.tp + r.confusion.fp for r in expected)
    assert 0 < positives < sum(r.functions for r in expected)


def test_a_mean_encoder_evaluation_counts_the_tokens_of_each_bucket_once(eval_pairs, monkeypatch):
    counted = []  # rows of each token-count matrix built

    def counting(X, vocab_size):
        counted.append(len(X))
        return token_counts(X, vocab_size)

    monkeypatch.setattr(zigzag.nn.model, "token_counts", counting)
    model = stub_model()
    report = evaluate_detector(model, eval_pairs)
    # the distinct rows of n/a, then of each kind, when encode_corpus
    # prepares them; the forward passes count no token
    expected = []
    for kind in (None, *sorted(KINDS)):
        fragments = [f for item, program in eval_pairs if item.kind == kind
                     for f in extract_fragments(item, "function", program)]
        X, _ = encode_fragments(fragments, model.vocab, model.config["length"])
        expected.append(len({row.tobytes() for row in X}))
    assert counted == expected and len(report.rows) == len(expected) + 1
    # a prepared corpus scores as often as asked and counts no token again
    corpus = encode_corpus(eval_pairs, model)
    counted.clear()
    assert corpus.score(model) == corpus.score(model) == report.rows
    assert counted == []


@pytest.mark.parametrize("other", ["emb-rows", "encoder"])
def test_a_corpus_encoded_for_one_model_is_not_scored_under_another(other, eval_pairs, monkeypatch):
    """Each bucket is prepared for the model encode_corpus was given; a
    model of other embedding rows or another encoder is refused before
    any kernel reads a bucket."""
    corpus = encode_corpus(eval_pairs, stub_model())
    if other == "emb-rows":
        config, vocab = stub_model().config, {"func": 2, "var": 3}
    else:
        config, vocab = make_config(encoder="rnn", emb_dim=4, feature_dim=6, head_hidden=5), {"func": 2}
    foreign = DetectorModel(config, vocab, init_params(config, max(vocab.values()) + 1, 0))

    def kernel(*args):
        raise AssertionError("a kernel read a bucket prepared for another model")

    for name in ("token_counts", "embed_mean_forward", "rnn_last_state"):
        monkeypatch.setattr(zigzag.nn.model, name, kernel)
    with pytest.raises(ModelError, match="prepared for 3 embedding rows and the mean encoder do not fit") as info:
        corpus.score(foreign)
    assert info.traceback[-1].name == "_ready"


# ---- report construction ------------------------------------------------------


def test_report_rows_and_totals(monkeypatch, eval_pairs, eval_corpus):
    corpus, targets = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    model = stub_model()
    report = evaluate_detector(model, eval_pairs)
    assert [r.name for r in report.rows] == [ORIGINAL_ROW, *sorted(KINDS), TOTAL_ROW]
    base = report.row(ORIGINAL_ROW)
    assert base.programs == len(corpus)
    assert base.functions == sum(len(p.labels) for p in corpus)
    # all-ones predictor: every vulnerable function is tp, every benign one fp
    assert base.confusion.tp == sum(sum(p.labels.values()) for p in corpus)
    assert base.confusion.fn == 0 and base.confusion.tn == 0
    total = report.row(TOTAL_ROW)
    summed = Confusion()
    for kind in KINDS:
        summed = summed + report.row(kind).confusion
    assert total.confusion == summed
    assert total.programs == sum(len(v) for v in targets.values())
    assert report.granularity == "function"
    assert len(report.model_digest) == 64


def test_report_text_rendering(monkeypatch, eval_pairs):
    monkeypatch.setattr(DetectorModel, "predict", all_zeros)
    report = evaluate_detector(stub_model(), eval_pairs)
    text = report.to_text()
    assert ORIGINAL_ROW in text and TOTAL_ROW in text
    # all-zeros predictor never flags anything: fpr 0, f1 0
    assert " 0 " in text or "\t0" in text or "0\n" in text


def test_report_text_is_its_records_in_columns():
    rows = [
        EvalRow(ORIGINAL_ROW, 3, 7, Confusion(2, 1, 1, 3)),
        EvalRow("ct2", 3, 7, Confusion(0, 3, 0, 4)),
        EvalRow("ct5", 2, 3, Confusion(0, 0, 0, 3)),
    ]
    report = EvalReport("function", [*rows, total_row(rows[1:])], "d" * 64, "m" * 64)
    assert report.row(TOTAL_ROW) == EvalRow(TOTAL_ROW, 5, 10, Confusion(0, 3, 0, 7))
    # the text evaluation rendered before it was drawn from to_records
    assert report.to_text().splitlines() == [
        "row       progs  funcs    TP    FN    FP    TN           FPR           FNR            F1",
        "-" * 88,
        "n/a           3      7     2     1     1     3          0.25  0.3333333333  0.6666666667",
        "ct2           3      7     0     3     0     4             0             1             0",
        "ct5           2      3     0     0     0     3             0           n/a           n/a",
        "Total         5     10     0     3     0     7             0             1             0",
    ]


def test_report_round_trip(tmp_path, monkeypatch, eval_pairs, eval_corpus):
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    report = evaluate_detector(stub_model(), eval_pairs)
    assert report.corpus_digest == corpus_digest(*eval_corpus)
    path = tmp_path / "report.jsonl"
    report.save(path)
    loaded = load_report(path)
    assert loaded.granularity == report.granularity
    assert loaded.corpus_digest == report.corpus_digest
    assert loaded.model_digest == report.model_digest
    assert loaded.rows == report.rows


def test_load_report_rejects_foreign_file(tmp_path):
    path = tmp_path / "nope.jsonl"
    path.write_text('{"kind":"something-else"}\n')
    with pytest.raises(EvaluationError):
        load_report(path)


# a saved row holds EvalRow's fields, its name under "row", its
# confusion's own fields in the confusion's place and the rendered metrics
ROW_FIELDS = [f.name for f in fields(SavedRow)]
# the header holds the report's fields but its rows and its unsaved counters
HEADER_FIELDS = [f.name for f in fields(EvalReport) if f.name not in ("rows", "buckets")]


def _saved_report(tmp_path, edit):
    path = tmp_path / "report.jsonl"
    fake_report((1, 3)).save(path)
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(header, rows)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in (header, *rows)))
    return path


@pytest.mark.parametrize("name", ROW_FIELDS)
def test_each_wrongly_typed_row_field_raises_evaluation_error_naming_it(name, tmp_path):
    """A field holding a list of its valid value fits no annotation but a
    list of that value's type, so every field of SavedRow, one added
    later too, is checked here with no edit to this test."""
    path = _saved_report(tmp_path, lambda header, rows: rows[1].update({name: [rows[1][name]]}))
    with pytest.raises(EvaluationError, match=f": row .*: {name} must be of type "):
        load_report(path)


@pytest.mark.parametrize("name", HEADER_FIELDS)
def test_each_wrongly_typed_header_field_raises_evaluation_error_naming_it(name, tmp_path):
    path = _saved_report(tmp_path, lambda header, rows: header.update({name: [header[name]]}))
    with pytest.raises(EvaluationError, match=f": header: {name} must be of type "):
        load_report(path)


def test_corpus_digest_is_order_insensitive(eval_corpus):
    corpus, targets = eval_corpus
    a = corpus_digest(corpus, targets)
    b = corpus_digest(list(reversed(corpus)), {k: list(reversed(v)) for k, v in targets.items()})
    assert a == b
    c = corpus_digest(corpus[:-1], targets)
    assert a != c


# ---- report comparison ----------------------------------------------------------


def fake_report(f1_pairs, digest="d" * 64) -> EvalReport:
    tp, fn = f1_pairs
    rows = [
        EvalRow(ORIGINAL_ROW, 1, 1, Confusion(tp=1)),
        EvalRow("ct1", 4, 8, Confusion(tp=tp, fn=fn, tn=8 - tp - fn)),
    ]
    return EvalReport("function", [*rows, total_row(rows[1:])], corpus_digest=digest, model_digest="m" * 64)


def test_compare_reports_orders_weakest_first():
    weak = fake_report((1, 3))  # f1 = 2/5
    strong = fake_report((3, 1))  # f1 = 6/7
    result = compare_reports([weak, strong], ["weak", "strong"])
    assert result["ordered"] is True
    assert result["names"] == ["weak", "strong"]
    assert result["f1"] == ["0.4", format_metric(Fraction(6, 7))]
    flipped = compare_reports([strong, weak], ["strong", "weak"])
    assert flipped["ordered"] is False


def test_compare_reports_requires_matching_corpus():
    with pytest.raises(EvaluationError, match="different corpora"):
        compare_reports([fake_report((1, 1)), fake_report((1, 1), digest="e" * 64)], ["a", "b"])


def test_compare_reports_requires_two_reports():
    with pytest.raises(EvaluationError):
        compare_reports([fake_report((1, 1))], ["only"])
    with pytest.raises(EvaluationError):
        compare_reports([fake_report((1, 1)), fake_report((1, 1))], ["just-one-name"])


def test_compare_reports_treats_missing_f1_as_zero():
    silent = fake_report((0, 0))  # denominator 0 -> f1 None
    better = fake_report((2, 1))
    result = compare_reports([silent, better], ["silent", "better"])
    assert result["ordered"] is True
    assert result["f1"][0] == "n/a"

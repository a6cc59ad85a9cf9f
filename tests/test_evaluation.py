"""Metric, report, and comparison tests."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from zigzag.corpus import augment_corpus, generate_synthetic, split_variants
from zigzag.evaluation import (
    Confusion,
    EvalReport,
    EvalRow,
    EvaluationError,
    ORIGINAL_ROW,
    TOTAL_ROW,
    compare_reports,
    confusion_from,
    corpus_digest,
    evaluate_detector,
    f1_score,
    false_negative_rate,
    false_positive_rate,
    format_metric,
    load_report,
    precision,
    predict_program_functions,
    recall,
)
from zigzag.fragments import extract_fragments
from zigzag.nn.model import DetectorModel, init_params, make_config

KINDS = ("ct2", "ct3")


@pytest.fixture(scope="module")
def eval_corpus():
    return split_variants(augment_corpus(generate_synthetic(16, seed=2), KINDS, seed=9))


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
    assert conf.total == 4


def test_confusion_from_rejects_length_mismatch():
    with pytest.raises(EvaluationError):
        confusion_from([1], [1, 0])


def test_confusion_addition():
    a = Confusion(tp=1, fn=2, fp=3, tn=4)
    b = Confusion(tp=10, fn=20, fp=30, tn=40)
    assert a + b == Confusion(tp=11, fn=22, fp=33, tn=44)


def test_metric_goldens():
    conf = Confusion(tp=8, fn=2, fp=1, tn=9)
    assert f1_score(conf) == Fraction(16, 19)
    assert precision(conf) == Fraction(8, 9)
    assert recall(conf) == Fraction(4, 5)
    assert false_positive_rate(conf) == Fraction(1, 10)
    assert false_negative_rate(conf) == Fraction(1, 5)
    assert format_metric(f1_score(conf)) == "0.8421052632"


def test_metrics_are_none_on_empty_denominators():
    empty = Confusion()
    assert f1_score(empty) is None
    assert precision(empty) is None
    assert recall(empty) is None
    assert false_positive_rate(empty) is None
    assert false_negative_rate(empty) is None


def test_format_metric_special_cases():
    assert format_metric(None) == "n/a"
    assert format_metric(Fraction(0, 5)) == "0"
    assert format_metric(Fraction(1, 3)) == "0.3333333333"
    assert format_metric(Fraction(16, 19), digits=4) == "0.8421"
    assert format_metric(Fraction(1, 1)) == "1"


# ---- program-level prediction -------------------------------------------------


def test_any_positive_rule_covers_every_function(monkeypatch, eval_corpus):
    corpus, _ = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    model = stub_model()
    item = corpus[0]
    verdict = predict_program_functions(model, item)
    assert set(verdict) == set(item.labels)
    assert all(v == 1 for v in verdict.values())


def test_functions_without_fragments_stay_negative(monkeypatch, eval_corpus):
    corpus, _ = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    model = stub_model(granularity="slice")
    sliceless = 0
    for item in corpus:
        covered = {f.function for f in extract_fragments(item, "slice")}
        missing = set(item.labels) - covered
        verdict = predict_program_functions(model, item)
        for name in missing:
            sliceless += 1
            assert verdict[name] == 0
        for name in covered:
            assert verdict[name] == 1
    assert sliceless > 0  # the corpus must exercise the no-fragment path


# ---- report construction ------------------------------------------------------


def test_report_rows_and_totals(monkeypatch, eval_corpus):
    corpus, targets = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    model = stub_model()
    report = evaluate_detector(model, corpus, targets)
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


def test_report_text_rendering(monkeypatch, eval_corpus):
    corpus, targets = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_zeros)
    report = evaluate_detector(stub_model(), corpus, targets)
    text = report.to_text()
    assert ORIGINAL_ROW in text and TOTAL_ROW in text
    # all-zeros predictor never flags anything: fpr 0, f1 0
    assert " 0 " in text or "\t0" in text or "0\n" in text


def test_report_round_trip(tmp_path, monkeypatch, eval_corpus):
    corpus, targets = eval_corpus
    monkeypatch.setattr(DetectorModel, "predict", all_ones)
    report = evaluate_detector(stub_model(), corpus, targets)
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
        EvalRow(TOTAL_ROW, 4, 8, Confusion(tp=tp, fn=fn)),
    ]
    return EvalReport(granularity="function", rows=rows, corpus_digest=digest, model_digest="m" * 64)


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

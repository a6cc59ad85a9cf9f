"""Detector evaluation: exact-rational metrics and per-transform rows.

Counts are aggregated at function level.  A slice-granularity model
votes per slice and a function is predicted positive when any of its
slices is; functions without slices are predicted negative.  Metrics
are computed as Fractions so reports are exact; a metric whose
denominator is zero is undefined and rendered "n/a", except F1 which is
exactly 0 whenever there are no true positives but positives exist
somewhere (numerator 0, denominator > 0).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import CorpusProgram, read_json_lines
from .encoding import encode_fragments
from .fragments import extract_fragments
from .nn.model import DetectorModel, model_fingerprint

ORIGINAL_ROW = "n/a"
TOTAL_ROW = "Total"


class EvaluationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Confusion:
    tp: int = 0
    fn: int = 0
    fp: int = 0
    tn: int = 0

    def __add__(self, other: "Confusion") -> "Confusion":
        return Confusion(
            self.tp + other.tp, self.fn + other.fn, self.fp + other.fp, self.tn + other.tn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion_from(y_true: Sequence[int], y_pred: Sequence[int]) -> Confusion:
    if len(y_true) != len(y_pred):
        raise EvaluationError("label/prediction length mismatch")
    tp = fn = fp = tn = 0
    for t, p in zip(y_true, y_pred):
        if t and p:
            tp += 1
        elif t and not p:
            fn += 1
        elif not t and p:
            fp += 1
        else:
            tn += 1
    return Confusion(tp, fn, fp, tn)


def false_positive_rate(c: Confusion) -> Optional[Fraction]:
    denom = c.fp + c.tn
    return Fraction(c.fp, denom) if denom else None


def false_negative_rate(c: Confusion) -> Optional[Fraction]:
    denom = c.tp + c.fn
    return Fraction(c.fn, denom) if denom else None


def precision(c: Confusion) -> Optional[Fraction]:
    denom = c.tp + c.fp
    return Fraction(c.tp, denom) if denom else None


def recall(c: Confusion) -> Optional[Fraction]:
    denom = c.tp + c.fn
    return Fraction(c.tp, denom) if denom else None


def f1_score(c: Confusion) -> Optional[Fraction]:
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        return None
    return Fraction(2 * c.tp, denom)


def format_metric(value: Optional[Fraction], digits: int = 10) -> str:
    """Decimal rendering with `digits` significant digits; exact rationals in,
    shortest faithful string out."""
    if value is None:
        return "n/a"
    if value == 0:
        return "0"
    text = f"{float(value):.{digits}g}"
    return text


@dataclass(slots=True)
class EvalRow:
    name: str
    programs: int
    functions: int
    confusion: Confusion

    @property
    def fpr(self) -> Optional[Fraction]:
        return false_positive_rate(self.confusion)

    @property
    def fnr(self) -> Optional[Fraction]:
        return false_negative_rate(self.confusion)

    @property
    def f1(self) -> Optional[Fraction]:
        return f1_score(self.confusion)


@dataclass(slots=True)
class EvalReport:
    granularity: str
    rows: list[EvalRow]
    corpus_digest: str
    model_digest: str

    def row(self, name: str) -> EvalRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise EvaluationError(f"no row named {name!r}")

    def to_text(self) -> str:
        header = f"{'row':<8} {'progs':>6} {'funcs':>6} {'TP':>5} {'FN':>5} {'FP':>5} {'TN':>5} {'FPR':>13} {'FNR':>13} {'F1':>13}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            c = r.confusion
            lines.append(
                f"{r.name:<8} {r.programs:>6} {r.functions:>6} {c.tp:>5} {c.fn:>5} {c.fp:>5} {c.tn:>5} "
                f"{format_metric(r.fpr):>13} {format_metric(r.fnr):>13} {format_metric(r.f1):>13}"
            )
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        out = []
        for r in self.rows:
            c = r.confusion
            out.append(
                {
                    "row": r.name,
                    "programs": r.programs,
                    "functions": r.functions,
                    "tp": c.tp,
                    "fn": c.fn,
                    "fp": c.fp,
                    "tn": c.tn,
                    "fpr": format_metric(r.fpr),
                    "fnr": format_metric(r.fnr),
                    "f1": format_metric(r.f1),
                }
            )
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            header = {
                "kind": "eval-report",
                "granularity": self.granularity,
                "corpus_digest": self.corpus_digest,
                "model_digest": self.model_digest,
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.to_records():
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_report(path) -> EvalReport:
    records = read_json_lines(path, EvaluationError)
    if not records:
        raise EvaluationError(f"{path}: empty report")
    header = records[0]
    if header.get("kind") != "eval-report":
        raise EvaluationError(f"{path}: not an evaluation report")
    try:
        rows = [
            EvalRow(
                name=rec["row"],
                programs=rec["programs"],
                functions=rec["functions"],
                confusion=Confusion(rec["tp"], rec["fn"], rec["fp"], rec["tn"]),
            )
            for rec in records[1:]
        ]
        return EvalReport(
            granularity=header["granularity"],
            rows=rows,
            corpus_digest=header["corpus_digest"],
            model_digest=header["model_digest"],
        )
    except KeyError as exc:
        raise EvaluationError(f"{path}: record missing key {exc}") from None


# --------------------------------------------------------------------------
# running a detector over program buckets

def predict_program_functions(model: DetectorModel, item: CorpusProgram) -> dict[str, int]:
    """Function-level predictions; slice votes aggregate by any-positive."""
    granularity = model.config["granularity"]
    frags = extract_fragments(item, granularity)
    names = list(item.labels)
    verdict = {name: 0 for name in names}
    if frags:
        X, _ = encode_fragments(frags, model.vocab, model.config["length"])
        preds = model.predict(X)
        for frag, pred in zip(frags, preds):
            if pred:
                verdict[frag.function] = 1
    return verdict


def _bucket_confusion(model: DetectorModel, bucket: Iterable[CorpusProgram]) -> tuple[Confusion, int, int]:
    conf = Confusion()
    programs = 0
    functions = 0
    for item in bucket:
        predictions = predict_program_functions(model, item)
        y_true = [item.labels[name] for name in item.labels]
        y_pred = [predictions[name] for name in item.labels]
        conf = conf + confusion_from(y_true, y_pred)
        programs += 1
        functions += len(y_true)
    return conf, programs, functions


def corpus_digest(originals: Sequence[CorpusProgram], targets: dict[str, Sequence[CorpusProgram]]) -> str:
    payload = {
        "originals": sorted(p.id for p in originals),
        "targets": {k: sorted(p.id for p in v) for k, v in targets.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def evaluate_detector(
    model: DetectorModel,
    originals: Sequence[CorpusProgram],
    targets: dict[str, Sequence[CorpusProgram]],
) -> EvalReport:
    """One row per bucket: untransformed programs, each transform kind,
    and the union of all transformed buckets."""
    rows = []
    conf, n_prog, n_fn = _bucket_confusion(model, originals)
    rows.append(EvalRow(ORIGINAL_ROW, n_prog, n_fn, conf))
    total = Confusion()
    total_prog = 0
    total_fn = 0
    for kind in sorted(targets):
        conf, n_prog, n_fn = _bucket_confusion(model, targets[kind])
        rows.append(EvalRow(kind, n_prog, n_fn, conf))
        total = total + conf
        total_prog += n_prog
        total_fn += n_fn
    rows.append(EvalRow(TOTAL_ROW, total_prog, total_fn, total))
    return EvalReport(
        granularity=model.config["granularity"],
        rows=rows,
        corpus_digest=corpus_digest(originals, targets),
        model_digest=model_fingerprint(model),
    )


# --------------------------------------------------------------------------
# comparing detectors

def compare_reports(reports: Sequence[EvalReport], names: Sequence[str]) -> dict:
    """Check the robustness ordering on the transformed subset.

    Reports must describe the same evaluation corpus.  Expected order is
    weakest first: each later report's Total-row F1 must be >= the
    previous one's.
    """
    if len(reports) < 2:
        raise EvaluationError("need at least two reports to compare")
    if len(reports) != len(names):
        raise EvaluationError("one name per report required")
    digests = {r.corpus_digest for r in reports}
    if len(digests) != 1:
        raise EvaluationError("reports describe different corpora; refusing to compare")
    f1s = []
    for r in reports:
        value = r.row(TOTAL_ROW).f1
        f1s.append(value)
    comparable = [f if f is not None else Fraction(0) for f in f1s]
    ordered = all(b >= a for a, b in zip(comparable, comparable[1:]))
    return {
        "names": list(names),
        "f1": [format_metric(f) for f in f1s],
        "ordered": ordered,
    }

"""Detector evaluation: exact-rational metrics and per-transform rows.

Programs are bucketed by transform kind, and each bucket's fragments
are encoded together and scored in one forward pass.  Counts are
aggregated at function level: a function is predicted positive when
any of its fragments (its one function fragment, or any of its slices)
is, and functions without slices are predicted negative.  Metrics
are computed as Fractions so reports are exact; a metric whose
denominator is zero is undefined and rendered "n/a", except F1 which is
exactly 0 whenever there are no true positives but positives exist
somewhere (numerator 0, denominator > 0).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import CorpusProgram, read_json_lines
from .encoding import UNK_ID, count_truncated, encode_fragments
from .fragments import Fragment, extract_fragments
from .lang.nodes import Program
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
    # per bucket, as evaluate_detector saw it: fragments, fragments longer
    # than the model keeps, and unknown tokens in what it kept; not saved
    # with the report, so a loaded report has none
    buckets: dict[str, dict[str, int]] = field(default_factory=dict, compare=False)

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


_COUNT_KEYS = ("programs", "functions", "tp", "fn", "fp", "tn")
_HEADER_KEYS = ("granularity", "corpus_digest", "model_digest")


def load_report(path) -> EvalReport:
    """A saved report; its header needs string granularity and digests,
    and every row a string name and integer counts, else EvaluationError
    names the file and the header or row."""
    records = read_json_lines(path, EvaluationError)
    if not records:
        raise EvaluationError(f"{path}: empty report")
    header = records[0]
    if header.get("kind") != "eval-report":
        raise EvaluationError(f"{path}: not an evaluation report")
    try:
        rows = []
        for rec in records[1:]:
            name = rec["row"]
            if not isinstance(name, str):
                raise EvaluationError(f"{path}: row {name!r}: 'row' is not a string")
            counts = [rec[k] for k in _COUNT_KEYS]
            for key, value in zip(_COUNT_KEYS, counts):
                if type(value) is not int:
                    raise EvaluationError(f"{path}: row {name!r}: {key!r} is not an integer")
            programs, functions, *confusion = counts
            rows.append(EvalRow(name, programs, functions, Confusion(*confusion)))
        strings = {key: header[key] for key in _HEADER_KEYS}
        for key, value in strings.items():
            if not isinstance(value, str):
                raise EvaluationError(f"{path}: header: {key!r} is not a string")
        return EvalReport(rows=rows, **strings)
    except KeyError as exc:
        raise EvaluationError(f"{path}: record missing key {exc}") from None


# --------------------------------------------------------------------------
# running a detector over program buckets

def _bucket_row(
    model: DetectorModel, name: str, bucket: list[tuple[CorpusProgram, list[Fragment]]]
) -> tuple[EvalRow, dict[str, int]]:
    """Score every fragment of a bucket in one forward pass, then count
    per function; with the row, the bucket's fragment counters."""
    fragments = [frag for _, frags in bucket for frag in frags]
    length = model.config["length"]
    X, _ = encode_fragments(fragments, model.vocab, length)
    counters = {
        "fragments": len(fragments),
        "truncated": count_truncated(fragments, length),
        "unk_tokens": int(np.count_nonzero(X == UNK_ID)),
    }
    preds = iter(model.predict(X))
    y_true: list[int] = []
    y_pred: list[int] = []
    for item, frags in bucket:
        flagged = {frag.function for frag in frags if next(preds)}
        for function, label in item.labels.items():
            y_true.append(label)
            y_pred.append(int(function in flagged))
    return EvalRow(name, len(bucket), len(y_true), confusion_from(y_true, y_pred)), counters


def corpus_digest(originals: Sequence[CorpusProgram], targets: dict[str, Sequence[CorpusProgram]]) -> str:
    payload = {
        "originals": sorted(p.id for p in originals),
        "targets": {k: sorted(p.id for p in v) for k, v in targets.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def evaluate_detector(model: DetectorModel, pairs: Iterable[tuple[CorpusProgram, Program]]) -> EvalReport:
    """One row per bucket: untransformed programs, each transform kind,
    and the union of all transformed buckets.

    `pairs` holds each program with its parse, as `read_corpus` yields
    them; a parse is dropped once its fragments are cut.
    """
    granularity = model.config["granularity"]
    buckets: dict[Optional[str], list[tuple[CorpusProgram, list[Fragment]]]] = {None: []}
    for item, program in pairs:
        fragments = extract_fragments(item, granularity, program)
        buckets.setdefault(item.kind, []).append((item, fragments))
    originals = buckets.pop(None)
    scored = {kind: _bucket_row(model, kind, buckets[kind]) for kind in sorted(buckets)}
    kinds = [row for row, _ in scored.values()]
    total = EvalRow(
        TOTAL_ROW,
        sum(r.programs for r in kinds),
        sum(r.functions for r in kinds),
        sum((r.confusion for r in kinds), Confusion()),
    )
    original, original_counters = _bucket_row(model, ORIGINAL_ROW, originals)
    targets = {kind: [item for item, _ in bucket] for kind, bucket in buckets.items()}
    digest = corpus_digest([item for item, _ in originals], targets)
    counters = {ORIGINAL_ROW: original_counters, **{kind: c for kind, (_, c) in scored.items()}}
    return EvalReport(granularity, [original, *kinds, total], digest, model_fingerprint(model), counters)


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

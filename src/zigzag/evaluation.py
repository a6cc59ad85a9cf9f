"""Detector evaluation: exact-rational metrics and per-transform rows.

encode_corpus cuts, encodes and prepares (nn.model.prepare_ids) a corpus
for a model once per bucket (untransformed programs, then each transform
kind); EncodedCorpus.score scores it under the model's current
parameters, one forward pass per bucket over its distinct rows, as eval
does once and training does after every epoch.  Counts are per
function: a function is predicted positive when any of its fragments
(its one function fragment, or any of its slices) is, and functions
without slices are predicted negative.  Total sums the transformed rows
(total_row), and load_report holds a saved report to that rule and to
the metrics its counts render.  Metrics are Fractions, so reports are
exact; a metric whose denominator is zero is undefined and rendered
"n/a", except F1 which is exactly 0 whenever there are no true positives
but positives exist somewhere (numerator 0, denominator > 0).
"""
from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, make_dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import CorpusProgram, field_types, read_json_lines, typed_record, write_json_lines
from .encoding import UNK_ID, count_truncated, encode_fragments
from .fragments import GRANULARITIES, Fragment, extract_fragments
from .lang.nodes import Program
from .nn.model import DetectorModel, PreparedIds, model_fingerprint, prepare_ids

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
    def fpr(self) -> Optional[Fraction]:
        denom = self.fp + self.tn
        return Fraction(self.fp, denom) if denom else None

    @property
    def fnr(self) -> Optional[Fraction]:
        denom = self.tp + self.fn
        return Fraction(self.fn, denom) if denom else None

    @property
    def f1(self) -> Optional[Fraction]:
        denom = 2 * self.tp + self.fp + self.fn
        return Fraction(2 * self.tp, denom) if denom else None


def confusion_from(y_true: Sequence[int], y_pred: Sequence[int]) -> Confusion:
    if len(y_true) != len(y_pred):
        raise EvaluationError("label/prediction length mismatch")
    # (label, prediction) pairs, any truthy value as True
    counts = Counter(zip(map(bool, y_true), map(bool, y_pred)))
    return Confusion(counts[True, True], counts[True, False], counts[False, True], counts[False, False])


def format_metric(value: Optional[Fraction]) -> str:
    """Decimal rendering with 10 significant digits; exact rationals in,
    shortest faithful string out."""
    if value is None:
        return "n/a"
    if value == 0:
        return "0"
    return f"{float(value):.10g}"


@dataclass(slots=True)
class EvalRow:
    name: str
    programs: int
    functions: int
    confusion: Confusion


# one line of the report text, filled from a record of to_records
_LINE = "{row:<8} {programs:>6} {functions:>6} {tp:>5} {fn:>5} {fp:>5} {tn:>5} {fpr:>13} {fnr:>13} {f1:>13}"
_TITLES = dict(row="row", programs="progs", functions="funcs", tp="TP", fn="FN", fp="FP", tn="TN",
               fpr="FPR", fnr="FNR", f1="F1")
_METRIC_KEYS = ("fpr", "fnr", "f1")


@dataclass(slots=True)
class ReportHeader:
    kind: str
    granularity: str
    corpus_digest: str
    model_digest: str


# a report row as to_records renders it: its name, its counts and its metrics
SavedRow = make_dataclass("SavedRow", [("row", str), ("programs", int), ("functions", int),
                                       *((f.name, int) for f in fields(Confusion)),
                                       *((key, str) for key in _METRIC_KEYS)], slots=True)


def total_row(kinds: Sequence[EvalRow]) -> EvalRow:
    """The Total row of the transformed rows: the sum of their programs,
    functions and confusions."""
    return EvalRow(
        TOTAL_ROW,
        sum(r.programs for r in kinds),
        sum(r.functions for r in kinds),
        sum((r.confusion for r in kinds), Confusion()),
    )


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
        header = _LINE.format(**_TITLES)
        lines = [header, "-" * len(header), *(_LINE.format(**rec) for rec in self.to_records())]
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        """One SavedRow per row, as a dict; FPR, FNR and F1 are rendered
        here only."""
        return [
            asdict(SavedRow(r.name, r.programs, r.functions, **asdict(r.confusion),
                            **{key: format_metric(getattr(r.confusion, key)) for key in _METRIC_KEYS}))
            for r in self.rows
        ]

    def save(self, path) -> None:
        header = ReportHeader("eval-report", self.granularity, self.corpus_digest, self.model_digest)
        write_json_lines(path, [asdict(header), *self.to_records()])


def load_report(path) -> EvalReport:
    """A saved report: a ReportHeader and one SavedRow per row, as save
    writes them, each read by typed_record.  The header must name one of
    GRANULARITIES.  Every row needs a name of its own and non-negative
    counts, there must be an n/a and a Total row, Total must be the
    total_row of the others, each row's functions must be the sum of its
    confusion, and its fpr, fnr and f1 the strings its counts render.
    Else EvaluationError names the file and the header or row."""
    records = list(read_json_lines(path, EvaluationError))
    if not records:
        raise EvaluationError(f"{path}: empty report")
    if records[0].get("kind") != "eval-report":
        raise EvaluationError(f"{path}: not an evaluation report")
    header = typed_record(ReportHeader, records[0], EvaluationError, f"{path}: header")
    if header.granularity not in GRANULARITIES:
        raise EvaluationError(f"{path}: header: unknown granularity {header.granularity!r}")
    rows: dict[str, EvalRow] = {}
    for rec in records[1:]:
        line = typed_record(SavedRow, rec, EvaluationError, f"{path}: row {rec.get('row')!r}")
        if line.row in rows:
            raise EvaluationError(f"{path}: row {line.row!r} appears twice")
        for key, annotation in field_types(SavedRow).items():
            if annotation is int and getattr(line, key) < 0:
                raise EvaluationError(f"{path}: row {line.row!r}: {key!r} is negative")
        confusion = Confusion(line.tp, line.fn, line.fp, line.tn)
        rows[line.row] = EvalRow(line.row, line.programs, line.functions, confusion)
    for name in (ORIGINAL_ROW, TOTAL_ROW):
        if name not in rows:
            raise EvaluationError(f"{path}: no row {name!r}")
    if rows[TOTAL_ROW] != total_row([r for name, r in rows.items() if name not in (ORIGINAL_ROW, TOTAL_ROW)]):
        raise EvaluationError(f"{path}: row {TOTAL_ROW!r} is not the sum of the transformed rows")
    for r in rows.values():
        counted = sum(asdict(r.confusion).values())
        if r.functions != counted:
            raise EvaluationError(
                f"{path}: row {r.name!r}: 'functions' is {r.functions}, but its confusion counts {counted}"
            )
    report = EvalReport(header.granularity, list(rows.values()), header.corpus_digest, header.model_digest)
    for saved, rendered in zip(records[1:], report.to_records()):
        for key in _METRIC_KEYS:
            if saved[key] != rendered[key]:
                raise EvaluationError(
                    f"{path}: row {rendered['row']!r}: {key!r} is {saved[key]!r}, "
                    f"but its counts give {rendered[key]!r}"
                )
    return report


# --------------------------------------------------------------------------
# cutting a corpus once, then scoring it under a model


@dataclass(slots=True)
class EncodedCorpus:
    """A corpus as encode_corpus cuts, encodes and prepares it, to be
    scored under any parameters of the model it was encoded for, or of one
    with the same vocabulary, length, embedding rows and encoder; under
    other embedding rows or another encoder, scoring raises ModelError."""

    digest: str
    # per bucket: fragments, fragments longer than the length, and unknown
    # tokens in what was kept
    counters: dict[str, dict[str, int]]
    # per bucket, untransformed first: its name, its encoded fragments,
    # prepared once here rather than at every scoring, and, per program,
    # the function labels and each fragment's function
    buckets: list[tuple[str, PreparedIds, list[tuple[dict[str, int], tuple[str, ...]]]]]

    @property
    def transformed(self) -> int:
        """How many programs the Total row counts."""
        return sum(len(programs) for _, _, programs in self.buckets[1:])

    def score(self, model: DetectorModel) -> list[EvalRow]:
        """The n/a row, one row per kind and the Total row under `model`:
        one forward pass per bucket, over its distinct rows, then counts
        per function.  A fragment's probability is that of its bucket's
        pass: the heads' last layer has one output column, which BLAS runs
        through its matrix-vector kernel, so its last bits can depend on
        the other rows of the bucket."""
        rows = []
        for name, X, programs in self.buckets:
            preds = iter(model.predict(X))
            y_true: list[int] = []
            y_pred: list[int] = []
            for labels, functions in programs:
                flagged = {function for function in functions if next(preds)}
                for function, label in labels.items():
                    y_true.append(label)
                    y_pred.append(int(function in flagged))
            rows.append(EvalRow(name, len(programs), len(y_true), confusion_from(y_true, y_pred)))
        return [*rows, total_row(rows[1:])]


def corpus_digest(originals: Sequence[CorpusProgram], targets: dict[str, Sequence[CorpusProgram]]) -> str:
    payload = {
        "originals": sorted(p.id for p in originals),
        "targets": {k: sorted(p.id for p in v) for k, v in targets.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def encode_corpus(pairs: Iterable[tuple[CorpusProgram, Program]], model: DetectorModel) -> EncodedCorpus:
    """`pairs`, each program with its parse as `read_corpus` yields them,
    cut at the model's granularity, encoded to its length by its
    vocabulary and prepared for its parameters, one set per bucket; a
    parse is dropped once its fragments are cut."""
    granularity, length = model.config["granularity"], model.config["length"]
    cut: dict[Optional[str], list[tuple[CorpusProgram, list[Fragment]]]] = {None: []}
    for item, program in pairs:
        cut.setdefault(item.kind, []).append((item, extract_fragments(item, granularity, program)))
    originals = cut.pop(None)
    targets = {kind: [item for item, _ in bucket] for kind, bucket in cut.items()}
    digest = corpus_digest([item for item, _ in originals], targets)
    counters, buckets = {}, []
    for name, bucket in [(ORIGINAL_ROW, originals), *sorted(cut.items())]:
        fragments = [frag for _, frags in bucket for frag in frags]
        X, _ = encode_fragments(fragments, model.vocab, length)
        counters[name] = {
            "fragments": len(fragments),
            "truncated": count_truncated(fragments, length),
            "unk_tokens": int(np.count_nonzero(X == UNK_ID)),
        }
        programs = [(item.labels, tuple(frag.function for frag in frags)) for item, frags in bucket]
        buckets.append((name, prepare_ids(model.params, model.config, X), programs))
    return EncodedCorpus(digest, counters, buckets)


def evaluate_detector(
    model: DetectorModel, pairs: Iterable[tuple[CorpusProgram, Program]], source: str = "corpus"
) -> EvalReport:
    """One row per bucket: untransformed programs, each transform kind,
    and the union of all transformed buckets; `pairs` as encode_corpus
    takes them.  Pairs without an untransformed program raise
    EvaluationError naming `source`, before any forward pass."""
    corpus = encode_corpus(pairs, model)
    if not corpus.buckets[0][2]:
        raise EvaluationError(f"{source} holds no untransformed programs")
    granularity = model.config["granularity"]
    return EvalReport(granularity, corpus.score(model), corpus.digest, model_fingerprint(model), corpus.counters)


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
    f1s = [r.row(TOTAL_ROW).confusion.f1 for r in reports]
    comparable = [f if f is not None else Fraction(0) for f in f1s]
    ordered = all(b >= a for a, b in zip(comparable, comparable[1:]))
    return {
        "names": list(names),
        "f1": [format_metric(f) for f in f1s],
        "ordered": ordered,
    }

"""Output checks and the sameness record of one pipeline pass.

    python3 perfbench/checks.py WORKLOAD_JSON PASS_DIR RESULT_JSON

checks the files one untraced pass left in PASS_DIR.  Each check is one operation: it passes or it fails with a reason.  A
check that raises counts as failed, so a defect found at the parent
commit is reported, never filtered and never a crash of the benchmark.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from tally import Tally
from workloads import Workload, model_path, report_path
from zigzag.corpus import SELF_CHECK_FUEL, CorpusProgram, load_corpus, save_corpus
from zigzag.evaluation import ORIGINAL_ROW, TOTAL_ROW, Confusion, load_report
from zigzag.lang import COMPLETED, OUT_OF_BOUNDS, RUNTIME_ERROR, interpret
from zigzag.lang.nodes import flagged_lines
from zigzag.nn.model import load_model, model_fingerprint, save_model

# transforms may add dispatch and call overhead; the tier-1 transform
# tests allow the same factor
VARIANT_FUEL = SELF_CHECK_FUEL * 4

CORPUS_FILES = ("train.jsonl", "test.jsonl", "train_aug.jsonl", "test_aug.jsonl")


# --------------------------------------------------------------------------
# single checks: each returns None when it passes, else the reason it failed


def check_program(item: CorpusProgram, original: CorpusProgram, runs: dict) -> str | None:
    """A variant (or the original itself) must reproduce the original's
    benign run, and a vulnerable one must trap out of bounds at a flagged
    line on the witness inputs.  `runs` caches benign runs by original id."""
    if original.id not in runs:
        benign = list(original.provenance["benign_inputs"])
        runs[original.id] = interpret(original.program(), "main", benign, fuel=SELF_CHECK_FUEL)
    ref = runs[original.id]
    program = item.program()
    if ref.status != COMPLETED:
        return f"original {original.id} benign run ended {ref.status_key}"
    if item is not original:
        benign = list(original.provenance["benign_inputs"])
        got = interpret(program, "main", benign, fuel=VARIANT_FUEL)
        if got.outputs != ref.outputs or got.status_key != ref.status_key:
            return (f"benign run differs: {got.status_key} {got.outputs!r} "
                    f"vs {ref.status_key} {ref.outputs!r}")
    if original.witness_inputs:
        w = interpret(program, "main", list(original.witness_inputs), fuel=VARIANT_FUEL)
        if w.status != RUNTIME_ERROR or w.error_kind != OUT_OF_BOUNDS:
            return f"witness did not trap out of bounds: {w.status_key}"
        flags = flagged_lines(program)
        if w.error_line not in flags:
            return f"witness trapped at line {w.error_line}, flags at {sorted(flags)}"
    return None


def check_corpus_round_trip(path: Path, scratch: Path) -> str | None:
    before = load_corpus(path)
    save_corpus(scratch, before)
    after = load_corpus(scratch)
    scratch.unlink()
    return None if after == before else "load_corpus(save_corpus(x)) != x"


def check_model_round_trip(path: Path, scratch: Path) -> str | None:
    model = load_model(path)
    recorded = json.loads(Path(f"{path}.config.json").read_text())["model_fingerprint"]
    save_model(model, scratch)
    again = model_fingerprint(load_model(scratch))
    scratch.unlink()
    if model_fingerprint(model) != recorded:
        return "model file does not match the fingerprint its sidecar records"
    return None if again == recorded else "fingerprint changed across save/load"


def check_report_total(path: Path) -> str | None:
    report = load_report(path)
    parts = [r for r in report.rows if r.name not in (ORIGINAL_ROW, TOTAL_ROW)]
    total = report.row(TOTAL_ROW)
    confusion = sum((r.confusion for r in parts), Confusion())
    summed = (confusion, sum(r.programs for r in parts), sum(r.functions for r in parts))
    if summed != (total.confusion, total.programs, total.functions):
        return f"Total row {total} is not the sum of its ct rows {summed}"
    return None


# --------------------------------------------------------------------------


def check_corpus_programs(tally: Tally, path: Path) -> None:
    """check_program on every program of one corpus file."""
    try:
        programs = load_corpus(path)
    except Exception as exc:  # noqa: BLE001 - a file that does not load is one failed check
        tally.run(f"{path.name}: load", lambda: f"{type(exc).__name__}: {exc}")
        return
    originals = {p.id: p for p in programs if "::" not in p.id}
    runs: dict = {}
    for item in programs:
        what = f"{path.name}: {item.id}"
        base = originals.get(item.provenance.get("base", item.id))
        if base is None:
            tally.run(what, lambda: "its original is not in the file")
        else:
            tally.run(what, check_program, item, base, runs)


def run_checks(w: Workload, workdir: Path) -> dict:
    tally = Tally()
    for name in ("train_aug.jsonl", "test_aug.jsonl"):
        check_corpus_programs(tally, workdir / name)
    scratch = workdir / "round_trip.tmp"
    for name in CORPUS_FILES:
        tally.run(f"{name}: round trip", check_corpus_round_trip, workdir / name, scratch)
    for mode in w.modes:
        tally.run(f"{mode}: model round trip", check_model_round_trip,
                  model_path(workdir, mode), scratch)
        tally.run(f"{mode}: report Total row", check_report_total, report_path(workdir, mode))
    return tally.as_dict()


# --------------------------------------------------------------------------
# sameness record: identical across passes of the same code and seed


def _f1(rows: list[dict] | None, name: str) -> float | None:
    for row in rows or ():
        if row["row"] == name:
            return None if row["f1"] == "n/a" else float(row["f1"])
    return None


def sameness_record(w: Workload, workdir: Path, compare_output: str) -> dict:
    """Each model's fingerprint and report rows, and the compare verdict."""
    models = {}
    for mode in w.modes:
        entry = {"fingerprint": None, "rows": None}
        try:
            sidecar = Path(f"{model_path(workdir, mode)}.config.json")
            entry["fingerprint"] = json.loads(sidecar.read_text())["model_fingerprint"]
            lines = report_path(workdir, mode).read_text().splitlines()
            entry["rows"] = [json.loads(line) for line in lines[1:] if line.strip()]
        except (OSError, ValueError, KeyError):
            pass  # a missing output already counts as a failed command
        entry["f1_total"] = _f1(entry["rows"], TOTAL_ROW)
        entry["f1_clean"] = _f1(entry["rows"], ORIGINAL_ROW)
        models[mode] = entry
    ordered = None
    for line in compare_output.splitlines():
        if line.startswith("ordered"):
            ordered = line.rstrip().endswith("yes")
    return {"models": models, "ordered": ordered}


def main(argv: list[str]) -> int:
    spec, pass_dir, result_path = argv
    result = run_checks(Workload.from_json(spec), Path(pass_dir))
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

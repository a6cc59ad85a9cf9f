"""Command-line contract: the pipeline runs end to end, and a corrupt
input file exits with code 3 and a one-line error message, never a
traceback."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from zigzag.cli import main
from zigzag.corpus import CorpusProgram, function_labels, load_corpus, save_corpus
from zigzag.evaluation import Confusion, EvalReport, EvalRow
from zigzag.fragments import extract_fragments
from zigzag.lang import parse
from zigzag.lang.parser import Parser
from zigzag.nn.model import DetectorModel, init_params, load_model, make_config, model_fingerprint, save_model


def test_pipeline_runs_and_parses_each_record_once_per_command(tmp_path, monkeypatch):
    parses = []
    parse_program = Parser.parse_program

    def counted(self):
        parses.append(None)
        return parse_program(self)

    monkeypatch.setattr(Parser, "parse_program", counted)

    def run(*argv) -> int:
        """Run one command, require exit 0, and return its parse count."""
        parses.clear()
        assert main([str(a) for a in argv]) == 0
        return len(parses)

    def records(*paths) -> int:
        return sum(len(path.read_text().splitlines()) - 1 for path in paths)

    def sidecar(path) -> dict:
        return json.loads(path.with_name(path.name + ".config.json").read_text())

    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    train_aug, test_aug = tmp_path / "train_aug.jsonl", tmp_path / "test_aug.jsonl"
    run("gen", "--count", 10, "--seed", 1, "--out-train", train, "--out-test", test)
    for source, out, ct in ((train, train_aug, "ct2,ct7"), (test, test_aug, "ct2,ct3")):
        assert run("transform", source, "--ct", ct, "--seed", 1, "--out", out) == records(source)
        assert sidecar(out)["variants"] == sum(p.kind is not None for p in load_corpus(out))

    config = tmp_path / "small.cfg"
    config.write_text("e1 = 2\nbeta = 1\ne2 = 1\ne3 = 1\n")
    items = load_corpus(train_aug)
    clean = [f for p in items if p.kind is None for f in extract_fragments(p, "function")]
    varied = [f for p in items if p.kind is not None for f in extract_fragments(p, "function")]
    reports = []
    for mode in ("original", "conventional", "zigzag"):
        model, trace = tmp_path / f"{mode}.zzm", tmp_path / f"{mode}.trace.jsonl"
        argv = ["train", "--mode", mode, "--data", train_aug, "--config", config,
                "--out-model", model, "--out-trace", trace]
        inputs = [train_aug]
        if mode == "zigzag":
            argv += ["--val-data", test]
            inputs.append(test)
        assert run(*argv) == records(*inputs)
        written = sidecar(model)
        assert written["clean_fragments"] == len(clean)
        assert written["variant_fragments"] == len(varied)
        assert written["model_fingerprint"] == model_fingerprint(load_model(model))

        report = tmp_path / f"{mode}.report.jsonl"
        assert run("eval", "--model", model, "--corpus", test_aug, "--out", report) == records(test_aug)
        reports.append(report)
    run("compare", *reports)

    bad = ["gen", "--count", 4, "--vuln", 1.5, "--out-train", train, "--out-test", test]
    assert main([str(a) for a in bad]) == 2


@pytest.mark.parametrize(
    "lr, what",
    # 1e308 overflows the clean loss that the trace records; inf makes
    # the first Adam step non-finite
    [("1e308", "non-finite L_c"), ("inf", "non-finite parameter")],
    ids=["lr-1e308", "lr-inf"],
)
def test_diverging_training_exits_4_with_one_line_message(lr, what, tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["gen", "--count", "10", "--seed", "1", "--out-train", str(train), "--out-test", str(test)]) == 0
    config = tmp_path / "diverge.cfg"
    config.write_text(f"e1 = 3\nlr = {lr}\n")
    capsys.readouterr()
    argv = ["train", "--mode", "original", "--data", str(train), "--config", str(config),
            "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl")]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"training diverged: {what}") and err.count("\n") == 1
    assert not (tmp_path / "m.zzm").exists()


def _header_end(raw: bytes) -> int:
    return 12 + int.from_bytes(raw[4:12], "little")


def _first_tensor_end(raw: bytes) -> int:
    header = json.loads(raw[12 : _header_end(raw)])
    return _header_end(raw) + 8 * int(np.prod(header["tensors"][0]["shape"]))


# file to cut -> number of leading bytes kept
CUTS = {
    "model-mid-tensor": ("model.zzm", lambda raw: _first_tensor_end(raw) + 12),
    "model-at-tensor-boundary": ("model.zzm", _first_tensor_end),
    "model-inside-header": ("model.zzm", lambda raw: _header_end(raw) - 10),
    "corpus-line": ("corpus.jsonl", lambda raw: len(raw) - 20),
    "report": ("report.jsonl", lambda raw: len(raw) - 20),
}


def _write_inputs(tmp_path, demo_source) -> tuple[list[str], list[str]]:
    """A model, a corpus and two reports; the eval and compare argv that read them."""
    config = make_config(emb_dim=4, feature_dim=6, head_hidden=5)
    save_model(DetectorModel(config, {"func": 2}, init_params(config, 3, 0)), tmp_path / "model.zzm")
    labels = function_labels(parse(demo_source))
    save_corpus(
        tmp_path / "corpus.jsonl",
        [CorpusProgram(id="p0", source=demo_source, split="test", labels=labels, witness_inputs=None)],
    )
    row = EvalRow(name="Total", programs=1, functions=len(labels), confusion=Confusion(1, 0, 0, 1))
    for name in ("base.jsonl", "report.jsonl"):
        EvalReport("function", [row], "corpus", "model").save(tmp_path / name)
    eval_argv = [
        "eval",
        "--model", str(tmp_path / "model.zzm"),
        "--corpus", str(tmp_path / "corpus.jsonl"),
        "--out", str(tmp_path / "out.jsonl"),
    ]
    compare_argv = ["compare", str(tmp_path / "base.jsonl"), str(tmp_path / "report.jsonl")]
    return eval_argv, compare_argv


@pytest.mark.parametrize("case", sorted(CUTS))
def test_truncated_input_file_exits_3_with_one_line_error(case, tmp_path, demo_source, capsys):
    eval_argv, compare_argv = _write_inputs(tmp_path, demo_source)
    argv = compare_argv if case == "report" else eval_argv
    assert main(argv) == 0  # the intact files are accepted
    capsys.readouterr()

    name, keep = CUTS[case]
    path = tmp_path / name
    raw = path.read_bytes()
    path.write_bytes(raw[: keep(raw)])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "source, where",
    [
        ("func main( {", "expected 'ident', found '{' (line 1, col 12)"),
        ("func main() {\n    output(2²);\n}\n", "unexpected character '²' (line 2, col 13)"),
    ],
    ids=["syntax-error", "non-ascii-digit"],
)
def test_unparsable_corpus_source_exits_3_naming_the_record(source, where, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    item = CorpusProgram(id="p7", source=source, split="test", labels={"main": 0}, witness_inputs=None)
    save_corpus(path, [item])
    assert main(["transform", str(path), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {path}: record 'p7': source does not parse: {where}\n"


# model tensor edits -> the model no longer fits its own config and vocabulary
TENSOR_EDITS = {
    "missing-tensor": lambda params: params.pop("c2_w1"),
    "wrong-f_w-shape": lambda params: params.update(f_w=np.zeros((5, 6))),
    "too-few-emb-rows": lambda params: params.update(emb=params["emb"][:2]),
}


@pytest.mark.parametrize("case", sorted(TENSOR_EDITS))
def test_model_tensors_that_do_not_fit_the_config_exit_3(case, tmp_path, demo_source, capsys):
    eval_argv, _ = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "model.zzm"
    model = load_model(path)
    TENSOR_EDITS[case](model.params)
    save_model(model, path)
    assert main(eval_argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: tensors ") and err.count("\n") == 1
    assert "do not fit the config and vocabulary" in err


@pytest.mark.parametrize(
    "field, value, what",
    [
        ("labels", [0], "'labels' is not an object of integers"),
        ("source", 5, "'source' is not a string"),
        ("labels", {"main": "x"}, "'labels' is not an object of integers"),
        ("labels", {"main": None}, "'labels' is not an object of integers"),
        ("id", 7, "'id' is not a string"),
        ("witness_inputs", 5, "'witness_inputs' is neither null nor a list of integers"),
        ("witness_inputs", [3, "4"], "'witness_inputs' is neither null nor a list of integers"),
        ("witness_inputs", [True], "'witness_inputs' is neither null nor a list of integers"),
        ("provenance", [], "'provenance' is not an object"),
        ("provenance", "base", "'provenance' is not an object"),
    ],
    ids=[
        "labels-list", "source-int", "label-string", "label-null", "id-int",
        "witness-int", "witness-string-entry", "witness-bool-entry", "provenance-list", "provenance-string",
    ],
)
def test_wrongly_typed_corpus_field_exits_3_naming_the_record(field, value, what, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    item = CorpusProgram(
        id="p7", source="func main() {\n    return 0;\n}\n", split="test", labels={"main": 0},
        witness_inputs=None,
    )
    save_corpus(path, [dataclasses.replace(item, **{field: value})])
    assert main(["transform", str(path), "--ct", "all", "--out", str(tmp_path / "aug.jsonl")]) == 3
    record = value if field == "id" else "p7"
    assert capsys.readouterr().err == f"error: {path}: record {record!r}: {what}\n"

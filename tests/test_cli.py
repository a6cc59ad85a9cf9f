"""Command-line contract: a corrupt input file exits with code 3 and a
one-line error message, never a traceback."""
from __future__ import annotations

import json

import numpy as np
import pytest

from zigzag.cli import main
from zigzag.corpus import CorpusProgram, function_labels, save_corpus
from zigzag.evaluation import Confusion, EvalReport, EvalRow
from zigzag.lang import parse
from zigzag.nn.model import DetectorModel, init_params, make_config, save_model


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


@pytest.mark.parametrize("case", sorted(CUTS))
def test_truncated_input_file_exits_3_with_one_line_error(case, tmp_path, demo_source, capsys):
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

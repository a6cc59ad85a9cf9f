"""Command-line contract: the pipeline runs end to end, and a corrupt
input file exits with code 3 and a one-line error message, never a
traceback."""
from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np
import pytest

from zigzag.cli import main
from zigzag.corpus import CorpusProgram, function_labels, generate_synthetic, load_corpus, save_corpus
from zigzag.evaluation import Confusion, EvalReport, EvalRow
from zigzag.fragments import extract_fragments
from zigzag.lang import lexer, parse
from zigzag.lang.parser import Parser
from zigzag.nn.model import DetectorModel, init_params, load_model, make_config, model_fingerprint, save_model


def test_pipeline_runs_and_parses_each_record_once_per_command(tmp_path, monkeypatch):
    parses, lexes = [], []
    parse_program, lex = Parser.parse_program, lexer.lex

    def counted(self):
        parses.append(None)
        return parse_program(self)

    def counted_lex(source):
        lexes.append(None)
        return lex(source)

    monkeypatch.setattr(Parser, "parse_program", counted)
    # every module that bound the lexer, so a fragment re-lexed anywhere counts
    for name, module in list(sys.modules.items()):
        if name.startswith("zigzag") and getattr(module, "lex", None) is lex:
            monkeypatch.setattr(module, "lex", counted_lex)

    def run(*argv) -> int:
        """Run one command, require exit 0, and return its parse count."""
        parses.clear()
        lexes.clear()
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

    # a length that cuts some fragments, so the truncation counts say something
    length = 60
    config = tmp_path / "small.cfg"
    config.write_text(f"e1 = 2\nbeta = 1\ne2 = 1\ne3 = 1\nlength = {length}\n")
    items = load_corpus(train_aug)
    clean = [f for p in items if p.kind is None for f in extract_fragments(p, "function")]
    varied = [f for p in items if p.kind is not None for f in extract_fragments(p, "function")]
    tested = {}
    for p in load_corpus(test_aug):
        tested.setdefault(p.kind or "n/a", []).extend(extract_fragments(p, "function"))

    def truncated(fragments) -> int:
        return sum(len(f.tokens) > length for f in fragments)

    assert 0 < truncated(clean) < len(clean) and 0 < truncated(varied) < len(varied)
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
        assert len(lexes) == records(*inputs), "a train fragment was lexed again"
        written = sidecar(model)
        assert written["clean_fragments"] == len(clean)
        # the variant fragments the model trained on: none in original mode
        trained_on = [] if mode == "original" else varied
        assert written["variant_fragments"] == len(trained_on)
        assert written["truncated_clean_fragments"] == truncated(clean)
        assert written["truncated_variant_fragments"] == truncated(trained_on)
        assert written["model_fingerprint"] == model_fingerprint(load_model(model))

        report = tmp_path / f"{mode}.report.jsonl"
        assert run("eval", "--model", model, "--corpus", test_aug, "--out", report) == records(test_aug)
        assert len(lexes) == records(test_aug), "an eval fragment was lexed again"
        vocab = load_model(model).vocab
        assert sidecar(report)["buckets"] == {
            bucket: {
                "fragments": len(fragments),
                "truncated": truncated(fragments),
                "unk_tokens": sum(tok not in vocab for f in fragments for tok in f.tokens[:length]),
            }
            for bucket, fragments in tested.items()
        }
        reports.append(report)
    run("compare", *reports)

    bad = ["gen", "--count", 4, "--vuln", 1.5, "--out-train", train, "--out-test", test]
    assert main([str(a) for a in bad]) == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_count_below_one_exits_2(count, tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["gen", "--count", count, "--out-train", str(train), "--out-test", str(test)]) == 2
    assert capsys.readouterr().err == f"error: --count must be >= 1, got {count}\n"
    assert not train.exists()


def test_gen_seed_ignores_the_environment(tmp_path, monkeypatch):
    def gen(name: str) -> tuple[bytes, bytes]:
        train, test = tmp_path / f"{name}.train.jsonl", tmp_path / f"{name}.test.jsonl"
        argv = ["gen", "--count", "6", "--seed", "1", "--out-train", str(train), "--out-test", str(test)]
        assert main(argv) == 0
        return train.read_bytes(), test.read_bytes()

    plain = gen("plain")
    monkeypatch.setenv("ZZ_SEED", "2")
    assert gen("with-env") == plain


@pytest.mark.parametrize(
    "lr, what",
    # 1e300 saturates tanh, so every loss and gradient stays finite and
    # only the overflow on the way shows; 1e308 overflows before its
    # clean loss turns non-finite; inf makes the first Adam step non-finite
    [("1e300", "overflow encountered in "), ("1e308", "overflow encountered in "), ("inf", "non-finite parameter")],
    ids=["lr-1e300", "lr-1e308", "lr-inf"],
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
        (
            "func main() {\n    output(" + "(" * 100 + "1" + ")" * 100 + ");\n}\n",
            "nesting deeper than 40 levels (line 2, col 51)",
        ),
        ("func main() {\n    var a[9999999999];\n    output(1);\n}\n", "array size must be at most 10000 (line 2, col 11)"),
    ],
    ids=["syntax-error", "non-ascii-digit", "100-nested-parentheses", "huge-array"],
)
def test_unparsable_corpus_source_exits_3_naming_the_record(source, where, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    item = CorpusProgram(id="p7", source=source, split="test", labels={"main": 0}, witness_inputs=None)
    save_corpus(path, [item])
    assert main(["transform", str(path), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {path}: record 'p7': source does not parse: {where}\n"


@pytest.mark.parametrize("variants_only", [False, True])
def test_transform_sidecar_counts_variants_made_and_inapplicable_per_kind(variants_only, tmp_path, demo_source):
    path, out = tmp_path / "corpus.jsonl", tmp_path / "aug.jsonl"
    demo = CorpusProgram(id="demo", source=demo_source, split="test",
                         labels=function_labels(parse(demo_source)), witness_inputs=None)
    originals = [demo, *generate_synthetic(4, 0.5, seed=2)]
    save_corpus(path, originals)
    argv = ["transform", str(path), "--ct", "all", "--seed", "1", "--out", str(out)]
    assert main(argv + ["--variants-only"] * variants_only) == 0
    per_kind = json.loads(out.with_name(out.name + ".config.json").read_text())["per_kind"]
    written = [p.kind for p in load_corpus(out)]
    assert list(per_kind) == [f"ct{i}" for i in range(1, 9)]
    for kind, counts in per_kind.items():
        assert counts["made"] == written.count(kind)
        assert counts["made"] + counts["inapplicable"] == len(originals)
    assert any(counts["inapplicable"] for counts in per_kind.values())


def test_transform_flattens_a_long_flat_body(flat_ifs_source, tmp_path):
    path, out = tmp_path / "corpus.jsonl", tmp_path / "aug.jsonl"
    program = parse(flat_ifs_source)
    item = CorpusProgram(id="p1", source=flat_ifs_source, split="test", labels=function_labels(program),
                         witness_inputs=None)
    save_corpus(path, [item])
    assert main(["transform", str(path), "--ct", "ct3", "--out", str(out)]) == 0
    assert [p.kind for p in load_corpus(out)] == [None, "ct3"]


# model tensor edits -> the model no longer fits its own config and vocabulary
TENSOR_EDITS = {
    "missing-tensor": lambda params: params.pop("c2_w1"),
    "wrong-f_w-shape": lambda params: params.update(f_w=np.zeros((5, 6))),
    "too-few-emb-rows": lambda params: params.update(emb=params["emb"][:2]),
}


# model header edits -> the header itself is invalid; none allocates a tensor
HEADER_EDITS = {
    "granularity-line": (lambda m: m.config.update(granularity="line"), "unknown granularity 'line'"),
    "delta-string": (lambda m: m.config.update(delta="x"), "delta must be a float in (0, 1), got 'x'"),
    "length-negative": (lambda m: m.config.update(length=-5), "length must be an integer >= 1, got -5"),
    "length-string": (lambda m: m.config.update(length="7"), "length must be an integer >= 1, got '7'"),
    "vocab-id-huge": (lambda m: m.vocab.update(func=10**15), "vocabulary ids are not the integers 2..2"),
}


@pytest.mark.parametrize("case", sorted(HEADER_EDITS))
def test_invalid_model_header_exits_3(case, tmp_path, demo_source, capsys):
    eval_argv, _ = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "model.zzm"
    model = load_model(path)
    edit, what = HEADER_EDITS[case]
    edit(model)
    save_model(model, path)
    assert main(eval_argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert what in err


@pytest.mark.parametrize(
    "line, what",
    [
        ("length = -5", "length must be an integer >= 1, got -5"),
        ("length = 0", "length must be an integer >= 1, got 0"),
        ("granularity = line", "unknown granularity 'line'"),
        ("optimizer = sgd", "unknown config key 'optimizer'"),
        ("mine_with = current", "unknown config key 'mine_with'"),
        ("mode = zigzag", "unknown config key 'mode'"),
        ("lr = -1", "lr must be > 0, got -1.0"),
        ("lr = 0", "lr must be > 0, got 0.0"),
        ("lr = nan", "lr must be > 0, got nan"),
        ("tau_disc = nan", "tau_disc must be finite and >= 0, got nan"),
        ("tau_loss = -1", "tau_loss must be finite and >= 0, got -1.0"),
    ],
    ids=["length-negative", "length-zero", "granularity-line", "optimizer", "mine_with", "mode",
         "lr-negative", "lr-zero", "lr-nan", "tau_disc-nan", "tau_loss-negative"],
)
def test_bad_train_config_exits_2(line, what, tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert main(["gen", "--count", "10", "--seed", "1", "--out-train", str(train), "--out-test", str(test)]) == 0
    config = tmp_path / "bad.cfg"
    config.write_text(f"e1 = 1\n{line}\n")
    capsys.readouterr()
    argv = ["train", "--mode", "original", "--data", str(train), "--config", str(config),
            "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and what in err and err.count("\n") == 1
    assert not (tmp_path / "m.zzm").exists()


@pytest.mark.parametrize(
    "field, value, what",
    [("tp", "3", "row 'Total': 'tp' is not an integer"), ("row", 5, "row 5: 'row' is not a string")],
    ids=["tp-string", "row-int"],
)
def test_wrongly_typed_report_field_exits_3_naming_the_row(field, value, what, tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "report.jsonl"
    header, row = (json.loads(line) for line in path.read_text().splitlines())
    row[field] = value
    path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    assert main(compare_argv) == 3
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


@pytest.mark.parametrize("field", ["granularity", "corpus_digest", "model_digest"])
@pytest.mark.parametrize("value", [[], None], ids=["list", "null"])
def test_wrongly_typed_report_header_field_exits_3_naming_the_file(field, value, tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    for name in ("base.jsonl", "report.jsonl"):
        path = tmp_path / name
        header, row = (json.loads(line) for line in path.read_text().splitlines())
        header[field] = value
        path.write_text(json.dumps(header) + "\n" + json.dumps(row) + "\n")
    assert main(compare_argv) == 3
    assert capsys.readouterr().err == f"error: {tmp_path / 'base.jsonl'}: header: {field!r} is not a string\n"


@pytest.mark.parametrize(
    "extra, what",
    [([], "need at least two reports to compare"), (["--names", "x"], "one name per report required")],
    ids=["one-report", "one-name-for-two"],
)
def test_compare_argument_counts_exit_2_before_reading_a_report(extra, what, tmp_path, capsys):
    # the reports do not exist: the counts are checked before any is read
    reports = [str(tmp_path / "a.jsonl")] + ([str(tmp_path / "b.jsonl")] if extra else [])
    assert main(["compare", *reports, *extra]) == 2
    assert capsys.readouterr().err == f"error: {what}\n"


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


# a JSON array nested deeper than json.loads decodes
DEEP_JSON = "[" * 200_000


@pytest.mark.parametrize("case", ["corpus", "report", "model-header"])
def test_deeply_nested_json_exits_3_with_one_line_error(case, tmp_path, demo_source, capsys):
    eval_argv, compare_argv = _write_inputs(tmp_path, demo_source)
    corpus = tmp_path / "corpus.jsonl"
    argv = {
        "corpus": ["transform", str(corpus), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")],
        "report": compare_argv,
        "model-header": eval_argv,
    }[case]
    if case == "model-header":
        blob = DEEP_JSON.encode()
        (tmp_path / "model.zzm").write_bytes(b"ZZM1" + len(blob).to_bytes(8, "little") + blob)
    else:
        path = corpus if case == "corpus" else tmp_path / "report.jsonl"
        path.write_text(path.read_text() + DEEP_JSON + "\n")
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"count = 4\n\xff\n")
    argv = ["gen", "--config", str(config), "--out-train", str(tmp_path / "a"), "--out-test", str(tmp_path / "b")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--data", "--model", "--config"])
def test_directory_in_place_of_an_input_file_exits_3(flag, tmp_path, demo_source, capsys):
    eval_argv, _ = _write_inputs(tmp_path, demo_source)
    folder = tmp_path / "folder"
    folder.mkdir()
    if flag == "--model":
        argv = eval_argv[:2] + [str(folder)] + eval_argv[3:]
    else:
        argv = ["train", "--mode", "original", "--data", str(tmp_path / "corpus.jsonl"),
                "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl")]
        argv += [flag, str(folder)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

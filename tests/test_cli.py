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
from zigzag.evaluation import Confusion, EvalReport, EvalRow, load_report, total_row
from zigzag.fragments import extract_fragments
from zigzag.lang import lexer, parse
from zigzag.lang.parser import Parser
from zigzag.nn.model import DetectorModel, init_params, load_model, make_config, model_fingerprint, save_model
from zigzag.training import TrainConfig, load_trace


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
            argv += ["--val-data", test_aug]
            inputs.append(test_aug)
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


@pytest.fixture(scope="module")
def small_corpora(tmp_path_factory) -> dict:
    """A count-10 corpus: train and test, each also transformed, and a
    config for a short training run."""
    d = tmp_path_factory.mktemp("small")
    paths = {name: d / f"{name}.jsonl" for name in ("train", "test", "train_aug", "test_aug")}
    assert main(["gen", "--count", "10", "--seed", "1",
                 "--out-train", str(paths["train"]), "--out-test", str(paths["test"])]) == 0
    for name, ct in (("train", "ct2,ct7"), ("test", "ct2,ct3")):
        argv = ["transform", str(paths[name]), "--ct", ct, "--seed", "1", "--out", str(paths[f"{name}_aug"])]
        assert main(argv) == 0
    paths["config"] = d / "short.cfg"
    paths["config"].write_text("e1 = 3\nbeta = 1\ne2 = 1\ne3 = 1\n")
    return paths


def _train_argv(corpora, tmp_path, mode="original", *extra) -> list[str]:
    return ["train", "--mode", mode, "--data", str(corpora["train_aug"]), "--config", str(corpora["config"]),
            "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl"), *extra]


@pytest.mark.parametrize("mode", ["original", "zigzag"])
@pytest.mark.parametrize("granularity", ["function", "slice"])
def test_last_val_f1_is_the_total_f1_eval_reports(granularity, mode, small_corpora, tmp_path):
    test_aug = str(small_corpora["test_aug"])
    argv = _train_argv(small_corpora, tmp_path, mode, "--granularity", granularity, "--val-data", test_aug)
    assert main(argv) == 0
    assert main(["eval", "--model", str(tmp_path / "m.zzm"), "--corpus", test_aug,
                 "--out", str(tmp_path / "report.jsonl")]) == 0
    total = load_report(tmp_path / "report.jsonl").row("Total").confusion
    assert total.tp + total.fp + total.fn > 0
    assert load_trace(tmp_path / "t.jsonl")[-1].val_f1 == 2 * total.tp / (2 * total.tp + total.fp + total.fn)


def test_validation_corpus_without_transformed_programs_exits_3(small_corpora, tmp_path, capsys):
    argv = _train_argv(small_corpora, tmp_path, "original", "--val-data", str(small_corpora["test"]))
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        f"error: {small_corpora['test']}: validation corpus holds no transformed programs: its Total row is empty\n"
    )
    assert not (tmp_path / "m.zzm").exists()


def test_train_counts_the_test_split_programs_it_ignores(small_corpora, tmp_path, caplog):
    tested = load_corpus(small_corpora["test"])
    mixed = tmp_path / "mixed.jsonl"
    save_corpus(mixed, load_corpus(small_corpora["train"]) + tested)
    models = []
    for data in (small_corpora["train"], mixed):
        argv = _train_argv(small_corpora, tmp_path)
        argv[argv.index("--data") + 1] = str(data)
        caplog.clear()
        assert main(argv) == 0
        models.append((tmp_path / "m.zzm").read_bytes())
    assert f"train ignores {len(tested)} test-split programs" in caplog.messages
    assert models[0] == models[1]


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
    confusion = Confusion(1, 0, 0, len(labels) - 1)
    rows = [EvalRow("n/a", 1, len(labels), confusion), EvalRow("ct1", 1, len(labels), confusion)]
    for name in ("base.jsonl", "report.jsonl"):
        EvalReport("function", [*rows, total_row(rows[1:])], "corpus", "model").save(tmp_path / name)
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


def test_a_repeated_record_id_exits_3_naming_it(tmp_path, capsys):
    path, out = tmp_path / "corpus.jsonl", tmp_path / "aug.jsonl"
    item = generate_synthetic(1, 0.0, seed=1)[0]
    save_corpus(path, [item, item])
    assert main(["transform", str(path), "--ct", "ct2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {path}: record {item.id!r}: id repeats an earlier record's\n"
    assert not out.exists()


def test_transform_refuses_to_make_a_variant_its_input_holds(tmp_path, capsys):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    assert main(["gen", "--count", "10", "--seed", "1", "--out-train", str(train), "--out-test", str(test)]) == 0
    assert main(["transform", str(train), "--ct", "ct2", "--out", str(once)]) == 0
    capsys.readouterr()
    assert main(["transform", str(once), "--ct", "ct3,ct2", "--out", str(twice)]) == 3
    first = load_corpus(once)[0].id
    assert capsys.readouterr().err == f"error: {first!r} already has a ct2 variant in the input\n"
    assert not twice.exists()
    assert main(["transform", str(once), "--ct", "ct3", "--out", str(twice)]) == 0


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


def test_transform_refuses_a_corpus_without_untransformed_programs(tmp_path, capsys):
    train, variants, out = tmp_path / "tr.jsonl", tmp_path / "v.jsonl", tmp_path / "v2.jsonl"
    assert main(["gen", "--count", "10", "--seed", "1", "--out-train", str(train),
                 "--out-test", str(tmp_path / "te.jsonl")]) == 0
    assert main(["transform", str(train), "--ct", "ct2", "--variants-only", "--out", str(variants)]) == 0
    assert load_corpus(variants) and all(item.kind for item in load_corpus(variants))
    capsys.readouterr()
    assert main(["transform", str(variants), "--ct", "ct3", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: {variants} holds no untransformed programs to transform\n")
    assert not out.exists()


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
    "delta-string": (lambda m: m.config.update(delta="x"), "model config: delta must be of type float, got 'x'"),
    "length-negative": (lambda m: m.config.update(length=-5), "length must be an integer >= 1, got -5"),
    "length-string": (lambda m: m.config.update(length="7"), "model config: length must be of type int, got '7'"),
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


def test_a_saved_model_whose_feature_dim_is_1_exits_3(tmp_path, demo_source, capsys):
    """Its tensors fit its config; the size itself is refused, as train
    refuses it (nn.model.features' premise fails at 1)."""
    eval_argv, _ = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "model.zzm"
    model = load_model(path)
    model.config["feature_dim"] = 1
    model.params = init_params(model.config, model.vocab_size, 0)
    save_model(model, path)
    assert main(eval_argv) == 3
    assert capsys.readouterr().err == f"error: {path}: model config: feature_dim must be an integer >= 2, got 1\n"
    assert not (tmp_path / "out.jsonl").exists()


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
        ("e1 = 30", ":2: config key 'e1' is set twice, on lines 1 and 2"),
        ("emb_dim = 1", "emb_dim must be an integer >= 2, got 1"),
        ("rnn_hidden = 1", "rnn_hidden must be an integer >= 2, got 1"),
        ("feature_dim = 1", "feature_dim must be an integer >= 2, got 1"),
    ],
    ids=["length-negative", "length-zero", "granularity-line", "optimizer", "mine_with", "mode",
         "lr-negative", "lr-zero", "lr-nan", "tau_disc-nan", "tau_loss-negative", "e1-twice",
         "emb_dim-one", "rnn_hidden-one", "feature_dim-one"],
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
    "command, config",
    [
        ("gen", "count = 4\ne1 = 3\n"),
        ("transform", "ct = ct2\ngranularity = slice\n"),
        ("train", "e1 = 1\ncount = 5\n"),
        ("train", "e1 = 1\nvuln = 0.9\n"),
        ("train", "e1 = 1\nct = all\n"),
    ],
    ids=["gen-e1", "transform-granularity", "train-count", "train-vuln", "train-ct"],
)
def test_config_key_its_command_does_not_read_exits_2(command, config, small_corpora, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    key = config.splitlines()[1].split(" = ")[0]
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--out-train", str(out / "train.jsonl"), "--out-test", str(out / "test.jsonl")],
        "transform": ["transform", str(small_corpora["train"]), "--out", str(out / "aug.jsonl")],
        "train": ["train", "--mode", "original", "--data", str(small_corpora["train"]),
                  "--out-model", str(out / "m.zzm"), "--out-trace", str(out / "t.jsonl")],
    }[command]
    out.mkdir()
    capsys.readouterr()
    assert main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: unknown config key {key!r} ({command} reads seed, ")
    assert err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("mode", ["original", "conventional", "zigzag"])
def test_train_sidecar_counts_the_distinct_rows_of_clean_and_variant_fragments(mode, small_corpora, tmp_path):
    """Variants that repeat their original's source encode to its rows, so
    the variants hold no row the clean fragments do not."""
    originals = [item for item in load_corpus(small_corpora["train"]) if item.kind is None]
    repeats = [dataclasses.replace(item, id=f"{item.id}::{kind}") for kind in ("ct2", "ct7") for item in originals]
    data = tmp_path / "repeats.jsonl"
    save_corpus(data, originals + repeats)
    model = tmp_path / "m.zzm"
    assert main(["train", "--mode", mode, "--data", str(data), "--config", str(small_corpora["config"]),
                 "--seed", "1", "--out-model", str(model), "--out-trace", str(tmp_path / "t.jsonl")]) == 0
    sidecar = json.loads((tmp_path / "m.zzm.config.json").read_text())
    length = sidecar["model_config"]["length"]
    clean = [f for item in originals for f in extract_fragments(item, "function")]
    distinct = len({f.tokens[:length] for f in clean})
    assert sidecar["clean_fragments"] == len(clean) and sidecar["distinct_clean_fragments"] == distinct
    if mode == "original":
        assert sidecar["variant_fragments"] == sidecar["distinct_variant_fragments"] == 0
    else:
        assert sidecar["variant_fragments"] == 2 * len(clean)
        assert sidecar["distinct_variant_fragments"] == distinct


def test_every_train_config_field_reaches_the_sidecar(small_corpora, tmp_path):
    values = {"delta": 0.45, "beta": 2, "e1": 2, "e2": 2, "e3": 1, "batch_size": 16, "lr": 0.003,
              "seed": 5, "tau_disc": 0.002, "tau_loss": 0.0005}
    defaults = dataclasses.asdict(TrainConfig())
    assert sorted(values) == sorted(defaults)
    assert all(value != defaults[key] for key, value in values.items())
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    argv = ["train", "--mode", "zigzag", "--data", str(small_corpora["train_aug"]), "--config", str(config),
            "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl")]
    assert main(argv) == 0
    sidecar = json.loads((tmp_path / "m.zzm.config.json").read_text())
    assert sidecar["train_config"] == values
    assert sidecar["seed"] == 5


def _edit_report(path, edit) -> None:
    """Rewrite a saved report after `edit(header, rows)` changed its records in place."""
    header, *rows = (json.loads(line) for line in path.read_text().splitlines())
    edit(header, rows)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in (header, *rows)))


def _set(row: int, key: str, value):
    return lambda header, rows: rows[row].update({key: value})


def _add_one(row: int, key: str):
    return lambda header, rows: rows[row].update({key: rows[row][key] + 1})


# a report whose rows contradict each other, or break a rule its writer
# keeps -> what load_report says of it; the rows are n/a, ct1 and Total
CONTRADICTIONS = {
    "negative-fn": (_set(1, "fn", -5), "row 'ct1': 'fn' is negative"),
    "negative-fn-and-inflated-tp": (
        lambda header, rows: (rows[1].update(fn=-5), rows[2].update(tp=10**6)),
        "row 'ct1': 'fn' is negative",
    ),
    "inflated-total-tp": (_set(2, "tp", 10**6), "row 'Total' is not the sum of the transformed rows"),
    "total-programs": (_add_one(2, "programs"), "row 'Total' is not the sum of the transformed rows"),
    "total-functions": (_add_one(2, "functions"), "row 'Total' is not the sum of the transformed rows"),
    "total-fp": (_add_one(2, "fp"), "row 'Total' is not the sum of the transformed rows"),
    "second-total": (lambda header, rows: rows.append(dict(rows[2], tp=0)), "row 'Total' appears twice"),
    "second-ct1": (lambda header, rows: rows.insert(2, dict(rows[1])), "row 'ct1' appears twice"),
    "no-n/a": (lambda header, rows: rows.pop(0), "no row 'n/a'"),
    "no-total": (lambda header, rows: rows.pop(2), "no row 'Total'"),
    "granularity-banana": (
        lambda header, rows: header.update(granularity="banana"), "header: unknown granularity 'banana'"
    ),
    "n/a-functions": (_add_one(0, "functions"), "row 'n/a': 'functions' is 3, but its confusion counts 2"),
}


def test_rendered_metric_that_its_counts_do_not_give_exits_3(tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "report.jsonl"
    load_report(path)  # its counts agree; only the rendered Total F1 is rewritten
    _edit_report(path, _set(2, "f1", "0.99"))
    assert main(compare_argv) == 3
    assert capsys.readouterr() == ("", f"error: {path}: row 'Total': 'f1' is '0.99', but its counts give '1'\n")


def test_eval_refuses_a_corpus_without_untransformed_programs_before_any_forward_pass(
    tmp_path, demo_source, capsys, monkeypatch
):
    eval_argv, _ = _write_inputs(tmp_path, demo_source)
    variants = tmp_path / "variants.jsonl"
    assert main(["transform", str(tmp_path / "corpus.jsonl"), "--ct", "all", "--seed", "1",
                 "--variants-only", "--out", str(variants)]) == 0
    assert load_corpus(variants) and all(item.kind for item in load_corpus(variants))
    capsys.readouterr()

    def predict(self, X):
        raise AssertionError("a forward pass ran")

    monkeypatch.setattr(DetectorModel, "predict", predict)
    eval_argv[eval_argv.index("--corpus") + 1] = str(variants)
    assert main(eval_argv) == 3
    assert capsys.readouterr() == ("", f"error: {variants} holds no untransformed programs\n")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
def test_contradictory_report_exits_3_naming_the_file_and_row(case, tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "report.jsonl"
    edit, what = CONTRADICTIONS[case]
    _edit_report(path, edit)
    assert main(compare_argv) == 3
    assert capsys.readouterr() == ("", f"error: {path}: {what}\n")


@pytest.mark.parametrize(
    "field, value, what",
    [("tp", "3", "row 'Total': tp must be of type int, got '3'"), ("row", 5, "row 5: row must be of type str, got 5")],
    ids=["tp-string", "row-int"],
)
def test_wrongly_typed_report_field_exits_3_naming_the_row(field, value, what, tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    path = tmp_path / "report.jsonl"
    _edit_report(path, lambda header, rows: rows[-1].update({field: value}))
    assert main(compare_argv) == 3
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


@pytest.mark.parametrize("field", ["granularity", "corpus_digest", "model_digest"])
@pytest.mark.parametrize("value", [[], None], ids=["list", "null"])
def test_wrongly_typed_report_header_field_exits_3_naming_the_file(field, value, tmp_path, demo_source, capsys):
    _, compare_argv = _write_inputs(tmp_path, demo_source)
    for name in ("base.jsonl", "report.jsonl"):
        _edit_report(tmp_path / name, lambda header, rows: header.update({field: value}))
    assert main(compare_argv) == 3
    what = f"header: {field} must be of type str, got {value!r}"
    assert capsys.readouterr().err == f"error: {tmp_path / 'base.jsonl'}: {what}\n"


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
        ("labels", [0], "labels must be of type dict[str, int], got [0]"),
        ("source", 5, "source must be of type str, got 5"),
        ("labels", {"main": "x"}, "labels must be of type dict[str, int], got {'main': 'x'}"),
        ("labels", {"main": None}, "labels must be of type dict[str, int], got {'main': None}"),
        ("id", 7, "id must be of type str, got 7"),
        ("witness_inputs", 5, "witness_inputs must be of type Optional[list[int]], got 5"),
        ("witness_inputs", [3, "4"], "witness_inputs must be of type Optional[list[int]], got [3, '4']"),
        ("witness_inputs", [True], "witness_inputs must be of type Optional[list[int]], got [True]"),
        ("provenance", [], "provenance must be of type dict, got []"),
        ("provenance", "base", "provenance must be of type dict, got 'base'"),
        ("split", 5, "split must be of type str, got 5"),
        ("split", "Train", "'split' is 'Train', neither 'train' nor 'test'"),
        ("split", "", "'split' is '', neither 'train' nor 'test'"),
        ("labels", {"main": 1}, "labels do not match source flags"),
    ],
    ids=[
        "labels-list", "source-int", "label-string", "label-null", "id-int",
        "witness-int", "witness-string-entry", "witness-bool-entry", "provenance-list", "provenance-string",
        "split-int", "split-capitalized", "split-empty", "labels-mismatch",
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


@pytest.mark.parametrize(
    "key, value, what",
    [("version", True, "header: version must be of type int, got True"),
     ("count", 3.0, "header: count must be of type int, got 3.0")],
    ids=["version-true", "count-float"],
)
def test_corpus_header_number_that_is_no_int_exits_3(key, value, what, tmp_path, capsys):
    """`true == 1` and `3.0 == 3`, so only a type test refuses these."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, generate_synthetic(3, 0.5, seed=1))
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert main(["transform", str(path), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")]) == 3
    assert capsys.readouterr().err == f"error: {path}: {what}\n"


def test_corpus_record_with_a_misspelt_key_exits_3_naming_the_key(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    item = next(p for p in generate_synthetic(3, 0.5, seed=1) if p.witness_inputs)
    save_corpus(path, [item])
    path.write_text(path.read_text().replace('"witness_inputs":', '"witness_input":'))
    assert main(["transform", str(path), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")]) == 3
    assert capsys.readouterr().err == f"error: {path}: record {item.id!r}: unknown key 'witness_input'\n"


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

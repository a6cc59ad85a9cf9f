"""Loader boundaries: each file loader reads a file or raises its own
typed error, whatever the bytes.  The CLI maps those errors to exit 3,
so an untyped error here would be a traceback there.  Every loader reads
its records through corpus.typed_record, so an unknown key, a missing
required key and a wrongly typed value are worded alike at each, and
decodes them through corpus.decode_json, which refuses a key written
twice."""
from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zigzag.cli import main
from zigzag.corpus import CorpusError, generate_synthetic, load_corpus, save_corpus
from zigzag.evaluation import Confusion, EvalReport, EvalRow, EvaluationError, load_report
from zigzag.nn.model import DetectorModel, ModelConfig, ModelError, init_params, load_model, make_config, save_model
from zigzag.training import TrainingError, TrainRecord, load_trace, save_trace

# file kind -> (loader, the error it may raise)
LOADERS = {
    "corpus": (load_corpus, CorpusError),
    "report": (load_report, EvaluationError),
    "trace": (load_trace, TrainingError),
    "model": (load_model, ModelError),
}

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one small valid file of each kind."""
    d = tmp_path_factory.mktemp("valid")
    save_corpus(d / "corpus", generate_synthetic(3, 0.5, seed=1))
    rows = [
        EvalRow("n/a", 2, 5, Confusion(1, 0, 1, 3)),
        EvalRow("ct1", 2, 5, Confusion(0, 1, 0, 4)),
        EvalRow("Total", 2, 5, Confusion(0, 1, 0, 4)),
    ]
    EvalReport("function", rows, "c" * 64, "m" * 64).save(d / "report")
    save_trace(d / "trace", [
        TrainRecord(0, "joint", 0, 0.5, 0.0, 0.1, 0.0, None),
        TrainRecord(1, "feature", 2, 0.25, 0.5, 0.01, 0.2, 0.75),
    ])
    config = make_config(emb_dim=4, feature_dim=6, head_hidden=5)
    save_model(DetectorModel(config, {"func": 2, "VAR_0": 3}, init_params(config, 4, 0)), d / "model")
    return {kind: (d / kind).read_bytes() for kind in LOADERS}


def _load(kind: str, raw: bytes, path) -> None:
    loader, error = LOADERS[kind]
    path.write_bytes(raw)
    try:
        loader(path)
    except error:
        pass


def test_valid_files_load(valid, tmp_path):
    for kind, raw in valid.items():
        path = tmp_path / kind
        path.write_bytes(raw)
        LOADERS[kind][0](path)


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), raw=st.binary(max_size=600))
def test_arbitrary_bytes_load_or_raise_the_loaders_error(kind, raw, tmp_path):
    _load(kind, raw, tmp_path / "fuzzed")


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_mutated_valid_files_load_or_raise_the_loaders_error(kind, data, valid, tmp_path):
    raw = bytearray(valid[kind])
    for _ in range(data.draw(st.integers(1, 8), label="edits")):
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        edit = data.draw(st.sampled_from(("replace", "insert", "delete")), label="edit")
        byte = data.draw(st.integers(0, 255), label="byte")
        if edit == "replace":
            raw[at] = byte
        elif edit == "insert":
            raw.insert(at, byte)
        elif len(raw) > 1:
            del raw[at]
    if data.draw(st.booleans(), label="cut"):
        raw = raw[: data.draw(st.integers(0, len(raw)), label="keep")]
    _load(kind, bytes(raw), tmp_path / "fuzzed")


# any JSON value: null, booleans, numbers (NaN and the infinities too,
# which json writes and reads back), strings, arrays and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def _records(kind: str, raw: bytes) -> list[dict]:
    """The records of a file of `kind`: its JSON lines, header included,
    or a model's header and the config it holds, one object, so an edit
    of the config is an edit of the header."""
    if kind == "model":
        header = json.loads(raw[12 : 12 + int.from_bytes(raw[4:12], "little")])
        return [header, header["config"]]
    return [json.loads(line) for line in raw.decode("utf-8").splitlines()]


def _rewritten(kind: str, raw: bytes, records: list[dict], edit=lambda text: text) -> bytes:
    """`raw` holding `records` in place of its own: a model's header blob
    is rewritten with its new length, the tensors kept.  `edit` rewrites
    each record's JSON text (a model's header, a line of the others)."""
    if kind == "model":
        size = int.from_bytes(raw[4:12], "little")
        blob = edit(json.dumps(records[0])).encode("utf-8")
        return raw[:4] + len(blob).to_bytes(8, "little") + blob + raw[12 + size :]
    return "".join(edit(json.dumps(rec)) + "\n" for rec in records).encode("utf-8")


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_one_key_set_to_any_json_value_loads_or_raises_the_loaders_error(kind, data, valid, tmp_path):
    """Byte edits seldom leave well-formed JSON that holds a wrongly typed
    value, least of all a nested one such as labels {"main": [1]}; here
    one key of one record, header and model config included, takes any
    JSON value."""
    records = _records(kind, valid[kind])
    record = data.draw(st.sampled_from(records), label="record")
    record[data.draw(st.sampled_from(sorted(record)), label="key")] = data.draw(JSON_VALUES, label="value")
    _load(kind, _rewritten(kind, valid[kind], records), tmp_path / "fuzzed")


@FUZZ
@given(kind=st.sampled_from(sorted(LOADERS)), data=st.data())
def test_one_key_inserted_or_dropped_loads_or_raises_the_loaders_error(kind, data, valid, tmp_path):
    """One record, header and model config included, gains a key with
    any JSON value or loses one of its keys."""
    records = _records(kind, valid[kind])
    record = data.draw(st.sampled_from(records), label="record")
    if data.draw(st.booleans(), label="insert"):
        record[data.draw(st.text(max_size=8), label="key")] = data.draw(JSON_VALUES, label="value")
    else:
        del record[data.draw(st.sampled_from(sorted(record)), label="key")]
    _load(kind, _rewritten(kind, valid[kind], records), tmp_path / "fuzzed")


# boundary -> (file kind, the record's index in the file (a model has its
# header, then its config), the name its errors give it, a key it needs,
# and a key with a value of the wrong type and that key's type as the
# error shows it)
BOUNDARIES = {
    "corpus-header": ("corpus", 0, "header", "count", ("count", "3", "int")),
    "corpus-record": ("corpus", 1, "record 'p0000'", "labels", ("source", 5, "str")),
    "trace-record": ("trace", 0, "trace record 1", "L_c", ("epoch", 1.0, "int")),
    "report-header": ("report", 0, "header", "corpus_digest", ("granularity", 5, "str")),
    "report-row": ("report", 1, "row 'n/a'", "programs", ("tp", "1", "int")),
    "model-header": ("model", 0, "header", "tensors", ("vocab", 5, "dict[str, int]")),
    "model-config": ("model", 1, "model config", "delta", ("emb_dim", 4.0, "int")),
}
FAULTS = ("unknown-key", "missing-key", "wrong-type", "repeated-key")
# the key a repeated-key fault adds, renamed in the file's text to the
# key it repeats
STAND_IN = "repeated-key-stand-in"


def _damaged(valid, tmp_path, boundary: str, fault: str):
    """A file whose boundary record holds `fault`, and the error's message."""
    kind, index, where, needed, (key, value, shown) = BOUNDARIES[boundary]
    records = _records(kind, valid[kind])
    path = tmp_path / kind
    place = f"{path}: {where}"
    edit = lambda text: text  # noqa: E731
    if fault == "unknown-key":
        records[index]["bogus"] = 1
        what = "unknown key 'bogus'"
    elif fault == "missing-key":
        del records[index][needed]
        what = f"missing key {needed!r}"
    elif fault == "wrong-type":
        records[index][key] = value
        what = f"{key} must be of type {shown}, got {value!r}"
    else:
        # a dict holds a key once, so the text gets its second copy; the
        # decoder names the line, or a model's header, its config included
        records[index][STAND_IN] = records[index][needed]
        edit = lambda text: text.replace(json.dumps(STAND_IN), json.dumps(needed))  # noqa: E731
        place = f"{path}: header" if kind == "model" else f"{path}:{index + 1}"
        what = f"repeated key {needed!r}"
    path.write_bytes(_rewritten(kind, valid[kind], records, edit))
    return path, f"{place}: {what}"


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_each_boundary_raises_its_own_error_in_one_wording(boundary, fault, valid, tmp_path):
    path, message = _damaged(valid, tmp_path, boundary, fault)
    loader, error = LOADERS[BOUNDARIES[boundary][0]]
    with pytest.raises(error) as exc:
        loader(path)
    assert str(exc.value) == message


@pytest.mark.parametrize("key", [f.name for f in fields(ModelConfig)])
def test_a_saved_model_config_without_any_one_key_raises_model_error(key, valid, tmp_path):
    """make_config fills in the keys a call leaves out; load_model, none."""
    records = _records("model", valid["model"])
    del records[1][key]
    path = tmp_path / "model"
    path.write_bytes(_rewritten("model", valid["model"], records))
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: model config: missing key {key!r}"


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("boundary", sorted(b for b in BOUNDARIES if not b.startswith("trace")))
def test_each_boundary_exits_3_through_the_command_that_reads_it(boundary, fault, valid, tmp_path, capsys):
    path, message = _damaged(valid, tmp_path, boundary, fault)
    good = tmp_path / "good"
    good.write_bytes(valid[BOUNDARIES[boundary][0]])
    (tmp_path / "corpus.jsonl").write_bytes(valid["corpus"])
    argv = {
        "corpus": ["transform", str(path), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")],
        "report": ["compare", str(path), str(good)],
        "model": ["eval", "--model", str(path), "--corpus", str(tmp_path / "corpus.jsonl"),
                  "--out", str(tmp_path / "out.jsonl")],
    }[BOUNDARIES[boundary][0]]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("edit, what", [
    (lambda header: header.update(config=[[k, v] for k, v in header["config"].items()]),
     "header: config must be of type dict, got [["),
    (lambda header: header["tensors"][0].pop("shape"), "tensor 0: missing key 'shape'"),
    (lambda header: header["tensors"][1].update(shape=[4, "6"]), "tensor 1: shape must be of type list[int], got [4, '6']"),
    (lambda header: header.update(tensors=[5]), "header: tensors must be of type list[dict], got [5]"),
    (lambda header: header.update(format=2), "unsupported format 2"),
], ids=["config-as-pairs", "tensor-without-shape", "tensor-shape-string", "tensor-not-an-object", "format-2"])
def test_a_model_header_is_read_as_typed_records(edit, what, valid, tmp_path):
    records = _records("model", valid["model"])
    edit(records[0])
    path = tmp_path / "model"
    path.write_bytes(_rewritten("model", valid["model"], records))
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: {what}")


def test_a_model_header_that_is_no_json_object_raises_model_error(valid, tmp_path):
    raw = valid["model"]
    size = int.from_bytes(raw[4:12], "little")
    blob = b"[1, 2]"
    path = tmp_path / "model"
    path.write_bytes(raw[:4] + len(blob).to_bytes(8, "little") + blob + raw[12 + size :])
    with pytest.raises(ModelError) as exc:
        load_model(path)
    assert str(exc.value) == f"{path}: header is not a JSON object"

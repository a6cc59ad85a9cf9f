"""Loader fuzz: each file loader reads a file or raises its own typed
error, whatever the bytes.  The CLI maps those errors to exit 3, so an
untyped error here would be a traceback there."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zigzag.corpus import CorpusError, generate_synthetic, load_corpus, save_corpus
from zigzag.evaluation import Confusion, EvalReport, EvalRow, EvaluationError, load_report
from zigzag.nn.model import DetectorModel, ModelError, init_params, load_model, make_config, save_model
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

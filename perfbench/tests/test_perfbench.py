"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json
import math
import re
import time

import pytest

import checks
import pipeline
import run
import speed
from spans import SpanTable, Tracer
from tally import Tally
from workloads import WORKLOADS
from zigzag.corpus import CorpusProgram, generate_synthetic, save_corpus

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_its_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload at a size that runs in seconds; records go to tmp_path."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for name, w in WORKLOADS.items():
        monkeypatch.setitem(WORKLOADS, name, dataclasses.replace(w, count=14))


def _run(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(tiny, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, (int, float)) and not isinstance(value, bool), name
            assert math.isfinite(value), name
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fn-original", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out


def _corpus(tmp_path, planted: bool):
    """Originals plus one copy of the first, as a variant; planted adds an output."""
    programs = generate_synthetic(4, seed=5)
    base = programs[0]
    source = base.source
    if planted:
        source = source.replace("    return 0;\n}", "    output(99);\n    return 0;\n}")
    variant = CorpusProgram(id=f"{base.id}::ct2", source=source, split=base.split,
                            labels=dict(base.labels), witness_inputs=base.witness_inputs,
                            provenance={"base": base.id, "transform": "ct2"})
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, programs + [variant])
    return path, len(programs) + 1


@pytest.mark.parametrize("planted", [False, True])
def test_non_equivalent_variant_is_a_failed_check(tmp_path, planted):
    path, n = _corpus(tmp_path, planted)
    tally = Tally()
    checks.check_corpus_programs(tally, path)
    assert tally.attempted == n
    assert tally.failed == int(planted)
    if planted:
        assert "benign run differs" in tally.failures[0]


def test_truncated_corpus_is_a_failed_operation_not_a_crash(tmp_path):
    path, _ = _corpus(tmp_path, planted=False)
    text = path.read_text()
    path.write_text(text[: len(text) - 40])
    tally = Tally()
    checks.check_corpus_programs(tally, path)
    tally.run("round trip", checks.check_corpus_round_trip, path, tmp_path / "scratch")
    assert (tally.attempted, tally.failed) == (2, 2)
    _, error = pipeline.run_command(
        ["train", "--mode", "original", "--data", str(path),
         "--out-model", str(tmp_path / "m.zzm"), "--out-trace", str(tmp_path / "t.jsonl")])
    assert error is not None


def test_sameness_record_is_kept_per_code_and_compared(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    r = run.Run(WORKLOADS["fn-original"], 1, tmp_path, deadline=0.0)

    def record(fingerprint, f1):
        rows = [{"row": "Total", "f1": f1}]
        return {"models": {"original": {"fingerprint": fingerprint, "rows": rows}}, "ordered": None}

    assert r.check_sameness([record("a", "0.5"), record("a", "0.5")]) == []
    assert (r.ops.attempted, r.ops.failed) == (1, 0)
    r.check_sameness([record("a", "0.5"), record("b", "0.4")])  # a pass that differs
    r.check_sameness([record("b", "0.4")])  # same code and seed as the kept record
    assert (r.ops.attempted, r.ops.failed) == (4, 2)

    # under other code the kept record is compared, not checked; a run that
    # failed keeps no record, one that passed does
    monkeypatch.setattr(run, "code_digest", lambda: "f" * 64)
    changes = r.check_sameness([record("b", "0.4")])
    assert len(changes) == 2 and "model a -> b" in changes[0] and "row Total" in changes[1]
    assert r.ops.attempted == 4 and len(list(tmp_path.glob("sameness-*"))) == 1
    fresh = run.Run(WORKLOADS["fn-original"], 1, tmp_path, deadline=0.0)
    fresh.check_sameness([record("b", "0.4")])
    assert len(list(tmp_path.glob("sameness-*"))) == 2


def test_self_time_excludes_children():
    tracer = Tracer()
    sleepy = tracer.wrap(lambda: time.sleep(0.02), "child")

    def parent():
        time.sleep(0.01)
        sleepy()
        sleepy()

    tracer.wrap(parent, "parent")()
    table = SpanTable(tracer.spans)
    (p,) = table.select("parent")
    assert len(table.select("child", roots={p})) == 2
    assert table.duration[p] >= 0.05
    assert 0.01 <= table.self_time[p] < 0.03


def test_stretches_are_scaled_by_the_probes_around_them():
    meter = speed.SpeedMeter()
    meter.starts, meter.durations = [0.0, 1.0, 2.0, 3.0], [0.01, 0.01, 0.02, 0.04]
    net, scaled = meter.scaled(0.5, 2.5)  # probes at 1.0 and 2.0 ran inside it
    assert net == pytest.approx(2.0 - 0.03)
    around = (0.01 + 0.01 + 0.02 + 0.04) / 4
    assert scaled == pytest.approx(net * (speed.REFERENCE_S / around) ** speed.SENSITIVITY)

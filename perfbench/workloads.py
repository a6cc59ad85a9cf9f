"""The benchmark's workloads: one user pipeline each, at a fixed size.

Every workload runs the same command sequence a user types:

    gen -> transform (md5 on train, all on test) -> train per mode
        -> eval per mode -> compare (when there is more than one mode)

Sizes were chosen so that two passes of the pipeline fit the run length
on a 2-core machine, not for the F1 or ordering they produce.  Why each
workload exists is said in BENCHMARK.json; NOTES.md has the measured
share of each layer.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

ALL_MODES = ("original", "conventional", "zigzag")


@dataclass(frozen=True)
class Workload:
    name: str
    count: int
    granularity: str
    encoder: str
    modes: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @staticmethod
    def from_json(text: str) -> "Workload":
        fields = json.loads(text)
        return Workload(**{**fields, "modes": tuple(fields["modes"])})


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fn-original", 96, "function", "mean", ("original",)),
        Workload("fn-three-mode", 22, "function", "mean", ALL_MODES),
        Workload("slice-rnn", 24, "slice", "rnn", ALL_MODES),
    )
}


# gen always uses this seed; the run's seed drives transform and train.
# With a corpus drawn per seed, the template mix of a few dozen programs
# moved train_s by 14% and eval_s by 41% (quartile spread over 5 seeds on
# slice-rnn), which no bound of a quarter can hold.
CORPUS_SEED = 1


@dataclass(frozen=True)
class Step:
    stage: str  # "prepare", "train" or "eval"
    argv: tuple[str, ...]
    mode: str | None = None  # the mode a train or eval step works on


def pipeline_steps(w: Workload, seed: int, workdir: Path) -> list[Step]:
    """The CLI argument lists of one pass, in order."""
    d = workdir
    train, test = d / "train.jsonl", d / "test.jsonl"
    train_aug, test_aug = d / "train_aug.jsonl", d / "test_aug.jsonl"
    config = d / "train.cfg"
    steps = [
        Step("prepare", ("gen", "--count", str(w.count), "--seed", str(CORPUS_SEED),
                         "--out-train", str(train), "--out-test", str(test))),
        Step("prepare", ("transform", str(train), "--ct", "md5", "--seed", str(seed),
                         "--out", str(train_aug))),
        Step("prepare", ("transform", str(test), "--ct", "all", "--seed", str(seed),
                         "--out", str(test_aug))),
    ]
    for mode in w.modes:
        steps.append(Step("train", (
            "train", "--mode", mode, "--data", str(train_aug), "--seed", str(seed),
            "--config", str(config), "--out-model", str(model_path(d, mode)),
            "--out-trace", str(d / f"{mode}.trace.jsonl")), mode))
    for mode in w.modes:
        steps.append(Step("eval", (
            "eval", "--model", str(model_path(d, mode)), "--corpus", str(test_aug),
            "--out", str(report_path(d, mode))), mode))
    if len(w.modes) > 1:
        steps.append(Step("eval", (
            "compare", *(str(report_path(d, m)) for m in w.modes),
            "--names", ",".join(w.modes))))
    return steps


# Every pass trains a fixed number of epochs: with the default loss and
# discrepancy tolerances, early stopping made the work of a pass depend
# on the seed (zigzag ran 29 to 94 epochs on slice-rnn over seeds 1-8).
# e1 = 15 is near the median epoch count early stopping reached.
FIXED_EPOCHS = "e1 = 15\ntau_loss = 0\ntau_disc = 0\n"


def write_train_config(w: Workload, workdir: Path) -> None:
    """The --config file every train step reads."""
    text = f"granularity = {w.granularity}\nencoder = {w.encoder}\n{FIXED_EPOCHS}"
    (workdir / "train.cfg").write_text(text, encoding="utf-8")


def model_path(workdir: Path, mode: str) -> Path:
    return workdir / f"{mode}.zzm"


def report_path(workdir: Path, mode: str) -> Path:
    return workdir / f"{mode}.report.jsonl"

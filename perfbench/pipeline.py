"""One untraced pass of a workload's pipeline, driven through zigzag.cli.main.

run.py starts this file as a fresh child process for every pass, so no
state kept in one pass can speed up the next:

    python3 perfbench/pipeline.py WORKLOAD_JSON SEED WORKDIR RESULT_JSON

It writes RESULT_JSON with the time of each stage (reference, wall-clock
and CPU seconds), the peak resident memory, every command's outcome and
the sameness record (model fingerprints, report rows, ordering).
"""
from __future__ import annotations

import contextlib
import io
import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

import zigzag.cli
from speed import SpeedMeter
from workloads import Workload, pipeline_steps, write_train_config


def run_command(argv) -> tuple[str, str | None]:
    """Run one CLI command in-process: (stdout, error or None).

    Any exception or non-zero exit is an error of this command, never a
    crash of the benchmark.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = zigzag.cli.main(list(argv))
        error = None if code == 0 else f"exit code {code}"
    except SystemExit as exc:  # argparse usage errors
        error = f"exit code {exc.code}"
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    return out.getvalue(), error


def run_pipeline(w: Workload, seed: int, workdir: Path, around=None) -> tuple[list[dict], str]:
    """Run every step of one pass: (the commands' outcomes, compare's output).

    Each outcome holds the command's start and end (perf_counter) and its
    process CPU seconds.  `around(step)`, when given, is a context manager
    entered around the step (traced.py opens a span there)."""
    write_train_config(w, workdir)
    commands = []
    compare_out = ""
    for step in pipeline_steps(w, seed, workdir):
        with around(step) if around else contextlib.nullcontext():
            cpu = time.process_time()
            begin = time.perf_counter()
            out, error = run_command(step.argv)
            end = time.perf_counter()
            cpu = time.process_time() - cpu
        commands.append({"command": step.argv[0], "stage": step.stage, "begin": begin,
                         "end": end, "cpu": cpu, "error": error})
        if step.argv[0] == "compare":
            compare_out = out
    return commands, compare_out


def stage_times(commands: list[dict], meter: SpeedMeter) -> dict:
    """Seconds per stage and for the whole pass: reference seconds (see
    speed.py), and under "raw" and "cpu" the wall-clock and process CPU
    seconds, each less the probes that ran inside the command."""
    ref = {"prepare": 0.0, "train": 0.0, "eval": 0.0}
    raw, cpu = dict(ref), dict(ref)
    for c in commands:
        net, scaled = meter.scaled(c["begin"], c["end"])
        probes = c["end"] - c["begin"] - net  # the probes are CPU-bound
        raw[c["stage"]] += net
        ref[c["stage"]] += scaled
        cpu[c["stage"]] += c["cpu"] - probes

    def named(times: dict) -> dict:
        return {**{f"{stage}_s": v for stage, v in times.items()}, "wall_s": sum(times.values())}

    return {**named(ref), "raw": named(raw), "cpu": named(cpu),
            "probe_s": statistics.median(meter.durations)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    spec, seed, workdir, result_path = argv
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    w = Workload.from_json(spec)
    workdir = Path(workdir)
    with SpeedMeter() as meter:
        commands, compare_out = run_pipeline(w, int(seed), workdir)
    result = {**stage_times(commands, meter), "peak_rss_mb": peak_rss_mb(), "commands": commands}

    import checks  # imported after the pass so its imports are not timed

    result["sameness"] = checks.sameness_record(w, workdir, compare_out)
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

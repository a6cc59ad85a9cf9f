"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
A run first imports zigzag in a few fresh processes (set-up), then
starts fresh child processes, one per pass of the workload's pipeline
(pipeline.py): two, then more until the next pass would end after S
seconds.  It checks the first pass's outputs (checks.py).  With --trace 1 the
untraced passes get half of S and one traced pass (traced.py) follows.

Standard output ends with one JSON line: correct, attempted, failed
and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
Records of each run land in .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tally import Tally
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"

BLAS_THREADS = 1  # no more than nproc (2 here); one thread keeps runs steady
SETUP_SAMPLES = 5
MIN_PASSES = 2  # with one pass per run, prepare_s spread 8% over ten seeds
RUN_LIMIT_S = 170.0  # a run must end within 180 s

STAGES = ("wall_s", "prepare_s", "train_s", "eval_s")
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "prepare_s": "s", "train_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB",
}

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZZ_SEED", None)  # it would override every command's --seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], out: Path, log: Path, deadline: float) -> dict | None:
    """Run a Python child that writes JSON to `out`; its result, or None if
    it failed or was killed at the deadline."""
    with open(log, "ab") as fh:
        try:
            done = subprocess.run([sys.executable, *args, str(out)], cwd=ROOT, env=child_env(),
                                  stdout=fh, stderr=fh,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None
    return read_json(out) if done.returncode == 0 else None


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def code_digest() -> str:
    """Digest of what decides a pass's outputs: the program, the workloads
    (sizes, commands, train config) and the code that builds the record."""
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), HERE / "workloads.py", HERE / "checks.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record_differences(before: dict, after: dict) -> list[str]:
    """What changed between two sameness records, one line per item."""
    out = []
    for mode in sorted(set(before["models"]) | set(after["models"])):
        b, a = before["models"].get(mode, {}), after["models"].get(mode, {})
        if b.get("fingerprint") != a.get("fingerprint"):
            out.append(f"{mode}: model {b.get('fingerprint')} -> {a.get('fingerprint')}")
        rows_b = {r["row"]: r for r in b.get("rows") or ()}
        rows_a = {r["row"]: r for r in a.get("rows") or ()}
        for row in sorted(set(rows_b) | set(rows_a)):
            if rows_b.get(row) != rows_a.get(row):
                out.append(f"{mode}: row {row} {rows_b.get(row)} -> {rows_a.get(row)}")
    if before.get("ordered") != after.get("ordered"):
        out.append(f"ordered {before.get('ordered')} -> {after.get('ordered')}")
    return out


class Run:
    """The children of one run, sharing a work directory and a deadline."""

    def __init__(self, w: Workload, seed: int, workdir: Path, deadline: float) -> None:
        self.w = w
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.ops = Tally()
        self.log = workdir / "children.log"

    def child(self, script: str, *args: str, out: str) -> dict | None:
        return run_child([str(HERE / script), *args], self.workdir / out, self.log, self.deadline)

    def set_up(self) -> tuple[dict, list[float]]:
        """Import zigzag in fresh processes: the environment record and the
        set-up times."""
        record, samples = {}, []
        for i in range(SETUP_SAMPLES):
            got = self.child("envprobe.py", out=f"env{i}.json")
            self.ops.add(got is not None, "import zigzag failed")
            if got is not None:
                samples.append(got.pop("setup_s"))
                record = got
        return record, samples

    def passes(self, budget: float) -> list[dict]:
        """Untraced passes: MIN_PASSES, then more until the next one would
        end after `budget` seconds.

        Each pass writes into its own directory; the first one's files
        stay for the output checks."""
        results: list[dict] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            i = len(results)
            pass_dir = self.workdir / f"pass{i}"
            pass_dir.mkdir()
            began = time.monotonic()
            result = self.child("pipeline.py", self.w.to_json(), str(self.seed), str(pass_dir),
                                out=f"pass{i}.json")
            self.ops.add(result is not None, f"pass {i} did not finish")
            if result is None:
                return results
            results.append(result)
            if i > 0:
                shutil.rmtree(pass_dir)
            longest = max(longest, time.monotonic() - began)
            if len(results) >= MIN_PASSES and time.monotonic() - start + longest > budget:
                return results

    def output_checks(self) -> None:
        """checks.py on the first pass's files; each check is one operation."""
        result = self.child("checks.py", self.w.to_json(), str(self.workdir / "pass0"),
                            out="checks.json")
        self.ops.add(result is not None, "output checks did not finish")
        if result is not None:
            self.ops.merge(result)

    def traced_pass(self) -> dict | None:
        pass_dir = self.workdir / "traced"
        pass_dir.mkdir()
        spans = OUT / f"spans-{self.w.name}-seed{self.seed}.jsonl"
        result = self.child("traced.py", self.w.to_json(), str(self.seed), str(pass_dir),
                            str(spans), out="traced.json")
        self.ops.add(result is not None, "traced pass did not finish")
        return result

    def count_commands(self, results: list[dict]) -> None:
        for r in results:
            for c in r["commands"]:
                self.ops.add(c["error"] is None, f"{c['command']}: {c['error']}")

    def check_sameness(self, records: list[dict]) -> list[str]:
        """Every pass must reproduce the first; so must the record an earlier
        run of the same code and seed kept.

        Records are kept per code digest and never overwritten; a run that
        failed keeps none.  Under a new digest, the differences from the
        newest record of another digest are returned, so that a change to
        the program shows what it changed in behaviour."""
        first = records[0]
        for i, other in enumerate(records[1:], start=1):
            self.ops.add(other == first, f"pass {i} differs from pass 0 in models or reports")
        stem = f"sameness-{self.w.name}-seed{self.seed}-"
        path = OUT / f"{stem}{code_digest()[:16]}.json"
        earlier = read_json(path)
        if earlier is not None:
            self.ops.add(earlier == first, f"differs from the record in {path.name}")
            return []
        changes = []
        others = sorted(OUT.glob(f"{stem}*.json"), key=lambda p: p.stat().st_mtime)
        if others:
            last = read_json(others[-1]) or {"models": {}}
            changes = [f"since {others[-1].name}: {c}" for c in record_differences(last, first)]
        if self.ops.failed == 0:
            path.write_text(json.dumps(first, indent=1) + "\n")
        return changes


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def print_table(title: str, rows: dict, units: dict) -> None:
    print(f"== {title}")
    for key, value in rows.items():
        print(f"  {key:<44} {value:>14.6g} {units.get(key, '')}")


def per_layer_units() -> dict[str, str]:
    spec = read_json(HERE.parent / "BENCHMARK.json") or {}
    return {m["name"]: m["unit"] for m in spec.get("per_layer", [])}


def measure(run: Run, seconds: float, trace: bool) -> int:
    env_record, setup_samples = run.set_up()
    if not str(env_record.get("zigzag", "")).startswith(str(ROOT / "src")):
        print(f"error: zigzag imported from {env_record.get('zigzag')}, not ./src", file=sys.stderr)
        return 2
    results = run.passes(seconds / 2 if trace else seconds)
    if results:
        run.output_checks()
    traced = run.traced_pass() if trace else None
    run.count_commands(results + ([traced] if traced else []))
    records = [r["sameness"] for r in results] + ([traced["sameness"]] if traced else [])
    changes = run.check_sameness(records) if records else []
    sameness = records[0] if records else {}

    end_to_end = {"setup_s": median(setup_samples)}
    for key in (*STAGES, "peak_rss_mb"):
        end_to_end[key] = median([r[key] for r in results])

    print(f"workload {run.w.name}, seed {run.seed}, {len(results)} untraced pass(es)")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for i, r in enumerate(results):
        print(f"pass {i}: probe {r['probe_s'] * 1000:.2f} ms; reference seconds "
              + " ".join(f"{k} {r[k]:.4f}" for k in STAGES) + "; wall-clock seconds "
              + " ".join(f"{k} {r['raw'][k]:.4f}" for k in STAGES) + "; CPU seconds "
              + " ".join(f"{k} {r['cpu'][k]:.4f}" for k in STAGES))
    print_table("end-to-end (median over passes, reference seconds)", end_to_end, END_TO_END_UNITS)
    print("== sameness record")
    for mode, entry in sameness.get("models", {}).items():
        print(f"  {mode:<13} F1 total {entry['f1_total']}  F1 clean {entry['f1_clean']}  "
              f"model {entry['fingerprint']}")
    print(f"  ordered (original <= conventional <= zigzag): {sameness.get('ordered')}")
    for change in changes:
        print(f"  changed {change}")
    print(f"== checks: {run.ops.attempted} operations, {run.ops.failed} failed")
    for reason in run.ops.failures:
        print(f"  FAILED {reason}")

    if not results or (trace and traced is None):
        metrics = {}  # nothing was measured; the run is reported as incorrect
    elif not trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    else:
        layer = dict(traced["metrics"])
        untraced = end_to_end["wall_s"]
        layer["trace.overhead_s"] = traced["reference_wall_s"] - untraced
        layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / untraced
        # the untraced passes' raw times, so the scaling in speed.py can be checked
        layer["pass.reference_s"] = untraced
        layer["pass.wall_clock_s"] = median([r["raw"]["wall_s"] for r in results])
        layer["pass.cpu_s"] = median([r["cpu"]["wall_s"] for r in results])
        layer["pass.probe_ms"] = median([r["probe_s"] for r in results]) * 1000
        units = per_layer_units()
        print_table("per-layer (traced pass)", layer, units)
        for name in traced["missing"]:
            print(f"  not traced (no longer in zigzag): {name}")
        print("== most self time in the traced pass (span, seconds, share of trace.wall_s, calls)")
        for span, spent, calls in traced["top_self"]:
            print(f"  {span:<28} {spent:>10.4f} {spent / traced['wall_s']:>8.1%} {calls:>8}")
        metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in layer.items()}
    print(json.dumps({"correct": run.ops.failed == 0 and bool(metrics),
                      "attempted": run.ops.attempted, "failed": run.ops.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zigzag" / "cli.py").is_file():
        print(f"error: no zigzag sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, workdir, deadline)
        return measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Every workload, untraced and traced, in one command.

    python3 perfbench/run_all.py [--seed N]

Runs run.py for each workload of BENCHMARK.json, first with --trace 0
(end-to-end metrics, checks, sameness record) and then with --trace 1
(per-layer metrics and tracing overhead), for BENCHMARK.json's
run_seconds, and passes their output through.  Exits non-zero if any
run fails or reports an incorrect result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            print(f"#### {workload} --trace {trace}", flush=True)
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            ok &= done.returncode == 0 and correct(done.stdout)
    return 0 if ok else 1


def correct(stdout: str) -> bool:
    """Whether the result line that ends a run's output says correct."""
    lines = stdout.strip().splitlines()
    try:
        return bool(lines) and json.loads(lines[-1])["correct"] is True
    except (ValueError, KeyError, TypeError):
        return False


if __name__ == "__main__":
    sys.exit(main())

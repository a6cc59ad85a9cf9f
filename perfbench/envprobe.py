"""Set-up time and environment record, from a fresh process.

    python3 perfbench/envprobe.py RESULT_JSON

Times `import zigzag.cli` (numpy included), then scales it to reference
seconds by probes taken right after it (see speed.py).
"""
import time

_T0 = time.perf_counter()
import zigzag.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _T0

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

import zigzag.nn  # noqa: E402
from speed import probe, to_reference  # noqa: E402

probe()  # first call pays numpy's one-off costs
speed = statistics.median(probe() for _ in range(3))
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
record = {
    "setup_s": to_reference(SETUP_S, speed),
    "raw_setup_s": SETUP_S,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "nproc": os.cpu_count(),
    "backend": zigzag.nn.active_backend(),
    "zigzag": zigzag.__file__,
}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump(record, fh)

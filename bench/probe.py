"""One set-up sample in a fresh interpreter.

Times ``import gateselftest.cli`` and the writing of the workload's gate-spec
files, and prints {"import_s": ..., "inputs_s": ...}.  run.py starts this
script several times per run and reports the median as ``setup_s``.

    python3 bench/probe.py <checkout>/src <workload> <seed> <directory>
"""

import json
import sys
import time
from pathlib import Path

import workloads

src, workload, seed, directory = sys.argv[1:5]
sys.path.insert(0, src)
start = time.perf_counter()
import gateselftest.cli  # noqa: E402,F401

imported = time.perf_counter()
workloads.build(workload, int(seed), Path(directory))
written = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": written - imported}))

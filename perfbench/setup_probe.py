"""One set-up as a user pays it: a fresh interpreter imports calihecke.cli
and builds the workload's case list from the seed, then prints one JSON
line.  ``python3 setup_probe.py WORKLOAD SEED``"""

import sys
import time

t0 = time.perf_counter()
import calihecke.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import json  # noqa: E402

from workloads import build_cases  # noqa: E402

cases = build_cases(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_s": import_s, "cases": len(cases)}), flush=True)

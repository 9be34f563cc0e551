"""Writes references.json: the digest of the output of every case any seed
can draw, keyed by the case's parameters.

    python3 perfbench/make_references.py

Run it from the root of a checkout whose outputs are known good; it prints
each cli query's time, to keep the cost of a tier's queries even.  A
malformed command's reference is the CLI contract (exit 2, a JSON error,
no output), not what the program does.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from run import child_env  # noqa: E402


def main():
    refs = {}
    for name, cases, run in (("seminormal_sweep", wl.seminormal_cases(), wl.run_seminormal),
                             ("bgg_sweep", wl.bgg_cases(), wl.run_bgg)):
        t0 = time.perf_counter()
        refs[name] = {case.key: wl.digest(run(case.params)) for case in cases}
        print(f"{name}: {len(cases)} cases, {time.perf_counter() - t0:.2f} s")
    refs["cli_session"] = {}
    shim = str(ROOT / "perfbench" / "cli_shim.py")
    for case in wl.cli_pool_cases():
        kind, _ = case.params
        t0 = time.perf_counter()
        out, contract, nbytes = wl.run_cli(case.params, shim, child_env(), ROOT)
        elapsed = time.perf_counter() - t0
        if kind == "malformed":
            ref = wl.MALFORMED_REFERENCE
        elif contract and out["exit"] == 0:
            ref = out
        else:
            raise SystemExit(f"pool query failed: {case.key}: {out}")
        refs["cli_session"][case.key] = wl.digest(ref)
        print(f"{elapsed:7.3f} s  exit {out['exit']}  {nbytes:7d} B  {case.key}")
    with open(ROOT / "perfbench" / "references.json", "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

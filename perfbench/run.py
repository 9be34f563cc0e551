"""Benchmark of calihecke.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout, with the package under ``src/``.  A run
sets up in fresh interpreters, then repeats the workload's fixed case list
(one pass) while the time allows, checking every case against its stored
reference.  It prints a readable report, then, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, from traced passes that
alternate with untraced ones.  See NOTES.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
# calihecke does no floating-point linear algebra, but importing numpy starts
# an OpenBLAS thread pool whose start-up spin adds about 0.1 s of CPU time to
# every process, more or less depending on what else runs on the host.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}

# Layers each workload must not call: the "no change expected" side of the
# pairings in NOTES.md, asserted rather than assumed.
PREDICTED_ZERO = {
    "seminormal_sweep": ("multipartitions", "crystal", "bgg"),
    "bgg_sweep": ("cyclotomics", "crystal"),
    "cli_session": (),
}


def children_cpu_s():
    """CPU seconds (user + system) of every child this process has reaped."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_clock(workload):
    """The clock a case is timed on: CPU time of the process that does the
    work.  On a shared host the wall clock also counts the time other
    tenants hold the core, which drifts by tens of percent over minutes."""
    return children_cpu_s if workload == "cli_session" else time.process_time


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(ONE_BLAS_THREAD)
    env.update(extra)
    return env


def setup_probes(workload, seed, speed):
    """Median CPU time, at the reference speed, of a fresh interpreter that
    imports calihecke.cli and builds its first case list, and median import
    time of calihecke.cli, over SETUP_PROBES probes after one warm-up (which
    leaves the bytecode cache written)."""
    times, imports = [], []
    for k in range(SETUP_PROBES + 1):
        speed.probe()
        c0 = children_cpu_s()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = children_cpu_s() - c0
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if k:
            times.append((elapsed, len(speed.times) - 1))
            imports.append(json.loads(line)["import_s"])
    speed.probe()
    return median(t * speed.scale(i) for t, i in times), median(imports)


class Pass:
    """One pass over the case list: its wall time, its CPU time, and each
    case's CPU time at the reference speed."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.latencies = []
        self.failures = []
        self.queries = []  # cli_session traced: per-query trace records


def run_pass(workload, cases, refs, caches, speed, tracer=None, spans=None):
    import tracing
    import workloads as wl

    tracing.clear_caches(caches)
    gc.collect()
    result = Pass()
    shim = str(BENCH / "cli_shim.py")
    query_out = OUT / "query.json"
    cpu = cpu_clock(workload)
    cpu_times, probes = [], []
    start, cpu_start = time.perf_counter(), cpu()
    for idx, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = idx
        probes.append(speed.maybe_probe())
        t0, c0 = time.perf_counter(), cpu()
        ok = False
        try:
            if workload == "cli_session":
                extra = {}
                if tracer is not None:
                    extra = {"PERFBENCH_TRACE_OUT": str(query_out), "PERFBENCH_CASE": str(idx)}
                    if spans is not None:
                        extra["PERFBENCH_SPANS"] = str(spans)
                out, contract, nbytes = wl.run_cli(case.params, shim, child_env(**extra), ROOT)
                ok = contract and wl.digest(out) == refs.get(case.key)
            else:
                run = wl.run_seminormal if workload == "seminormal_sweep" else wl.run_bgg
                ok = wl.digest(run(case.params)) == refs.get(case.key)
        except Exception:
            print(f"case {case.key!r} raised:", file=sys.stderr)
            traceback.print_exc()
        cpu_times.append(cpu() - c0)
        elapsed = time.perf_counter() - t0
        if not ok:
            result.failures.append(case.key)
        if tracer is not None and workload == "cli_session":
            with open(query_out) as fh:
                record = json.load(fh)
            query_out.unlink()
            record.update(wall_s=elapsed, stdout_bytes=nbytes)
            result.queries.append(record)
    result.wall = time.perf_counter() - start
    result.cpu = cpu() - cpu_start
    speed.probe()
    result.latencies = [t * speed.scale(i) for t, i in zip(cpu_times, probes)]
    return result


def tail(values):
    """Value at the highest percentile with at least ten values beyond it:
    (value, percentile, count)."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def end_to_end(workload, passes, setup_s):
    n = len(passes[0].latencies)
    per_case = [median(p.latencies[i] for p in passes) for i in range(n)]
    tail_s, pct, count = tail(per_case)
    who = resource.RUSAGE_CHILDREN if workload == "cli_session" else resource.RUSAGE_SELF
    attempted = n * len(passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "run_s": sum(per_case),
        "case_p50_ms": median(per_case) * 1e3,
        "case_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    notes = {
        "case_tail_ms": f"p{pct:.1f} of {count} cases",
        "ok_frac": f"failed_frac {failed / attempted:.6g} = {failed}/{attempted}",
        "run_s": (f"sum of case medians over {len(passes)} passes (a pass:"
                  f" CPU {median(p.cpu for p in passes):.4g} s,"
                  f" wall {median(p.wall for p in passes):.4g} s)"),
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
    }
    return metrics, notes


def cli_layer(workload, pairs, probe_import_s):
    """cli.* metrics: measured around the query processes of cli_session;
    on the sweeps only the import, from the set-up probes."""
    if workload != "cli_session":
        return [{"cli.import_s": probe_import_s, "cli.main.self_s": 0.0,
                 "cli.process_s": 0.0, "cli.stdout_bytes": 0} for _ in pairs]
    out = []
    for _, traced, agg in pairs:
        qs = traced.queries
        out.append({
            "cli.import_s": median(q["import_s"] for q in qs),
            "cli.main.self_s": agg["self_s"].get("cli.main", 0.0),
            "cli.process_s": sum(q["wall_s"] - q["import_s"] - q["main_s"] for q in qs),
            "cli.stdout_bytes": sum(q["stdout_bytes"] for q in qs),
        })
    return out


def traced_run(workload, seed, seconds, refs, caches, speed, probe_import_s):
    """Alternate untraced and traced passes; per-layer metrics from the
    traced ones (counts must repeat exactly; times are medians)."""
    import tracing
    import workloads as wl

    cases = wl.build_cases(workload, seed)
    tracer = tracing.Tracer()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}.spans"
    spans.unlink(missing_ok=True)
    pairs = []
    start = time.perf_counter()
    while True:
        untraced = run_pass(workload, cases, refs, caches, speed)
        tracer.reset()
        tracer.case_id = -1
        tracer.install()
        try:
            traced_cases = wl.build_cases(workload, seed)  # set-up spans: case -1
            traced = run_pass(workload, traced_cases, refs, caches, speed, tracer,
                              spans if not pairs else None)
        finally:
            tracer.uninstall()
        if workload == "cli_session":
            agg = tracing.merge(q["aggregate"] for q in traced.queries)
        else:
            agg = tracer.aggregate()
            if not pairs:
                tracer.write_spans(spans, workload)
        pairs.append((untraced, traced, agg))
        if time.perf_counter() - start + untraced.wall + traced.wall > seconds:
            break
    per_pair = [tracing.layer_metrics(agg) for _, _, agg in pairs]
    for metrics, cli in zip(per_pair, cli_layer(workload, pairs, probe_import_s)):
        metrics.update(cli)
    for metrics, (untraced, traced, _) in zip(per_pair, pairs):
        metrics["trace.overhead_s"] = sum(traced.latencies) - sum(untraced.latencies)
    return pairs, per_pair


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "calihecke" / "cli.py").is_file():
        print(f"no calihecke sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)  # before calihecke imports numpy below
    # One CPU for this process and, by inheritance, every child: the speed
    # probes run here and must see the core that the cli queries run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    speed = SpeedLog()
    setup_s, probe_import_s = setup_probes(args.workload, args.seed, speed)

    sys.path.insert(0, str(SRC))
    import tracing
    import workloads as wl

    with open(BENCH / "references.json") as fh:
        refs = json.load(fh)[args.workload]
    caches = tracing.find_caches()
    cases = wl.build_cases(args.workload, args.seed)
    problems = []

    if args.trace:
        pairs, per_pair = traced_run(args.workload, args.seed, args.seconds, refs,
                                     caches, speed, probe_import_s)
        passes = [p for untraced, traced, _ in pairs for p in (untraced, traced)]
        wanted = spec["per_layer"]
        metrics, text = {}, {}
        for m in wanted:
            values = [pm[m["name"]] for pm in per_pair]
            if m["unit"] in ("s", "us"):
                metrics[m["name"]] = median(values)
            else:
                metrics[m["name"]] = values[0]
                if any(v != values[0] for v in values):
                    problems.append(f"count {m['name']} differs between traced passes: {values}")
        layer_calls = {layer: per_pair[0][f"{layer}.calls"] for layer in tracing.LAYERS}
        zero = [layer for layer, calls in layer_calls.items() if calls == 0]
        print(f"traced passes: {len(pairs)}; spans written to {OUT / (args.workload + '.spans')}")
        print("bypass report: layers with zero calls: " + (", ".join(zero) or "none"))
        for layer in PREDICTED_ZERO[args.workload]:
            verdict = "holds" if layer_calls[layer] == 0 else "BROKEN"
            print(f"  predicted zero {layer}: {verdict} ({layer_calls[layer]} calls)")
            if layer_calls[layer]:
                problems.append(f"predicted zero broken: {layer} has {layer_calls[layer]} calls")
        print("caches (first traced pass):")
        for cname, info in sorted(pairs[0][2]["caches"].items()):
            lookups = info["hits"] + info["misses"]
            ratio = info["hits"] / lookups if lookups else 0.0
            print(f"  {cname:40s} hit_ratio {ratio:.4f} size {info['size']}")
        untraced_s = median(sum(u.latencies) for u, _, _ in pairs)
        print(f"tracing overhead: traced pass {untraced_s + metrics['trace.overhead_s']:.4f} s"
              f" - untraced pass {untraced_s:.4f} s = {metrics['trace.overhead_s']:.4f} s")
    else:
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, cases, refs, caches, speed))
            if time.perf_counter() - start + passes[-1].wall > args.seconds:
                break
        wanted = spec["end_to_end"]
        metrics, text = end_to_end(args.workload, passes, setup_s)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [key for p in passes for key in p.failures]
    unexpected = sorted(set(failures) - set(wl.KNOWN_BREAKS))
    if unexpected:
        problems.append(f"{len(unexpected)} cases failed: {unexpected[:5]}")
    for key in sorted(set(failures) & set(wl.KNOWN_BREAKS)):
        print(f"known contract break, counted as failed: {key}")

    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases per pass,"
          f" {attempted} attempted, {len(failures)} failed")
    for m in wanted:
        note = text.get(m["name"], "")
        print(f"  {m['name']:44s} {metrics[m['name']]:>14.6g} {m['unit']:6s} {note}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

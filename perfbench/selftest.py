"""Self-test of the benchmark, on small slices of each workload.

    python3 perfbench/selftest.py

Checks that a corrupted reference is counted as a failure, that the tracer
replaces every binding of a wrapped function and restores them all, and
that two traced passes over the same cases give identical counts, with
every recorded span written to the span file.
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from speed import SpeedLog  # noqa: E402

SLICES = {"seminormal_sweep": 20, "bgg_sweep": 40}


def slice_cases(workload, seed):
    """The first cases of a seed's list; for cli_session, its first classify
    and locus queries, which are cheap and keep the contract."""
    cases = [c for c in wl.build_cases(workload, seed) if c.key not in wl.KNOWN_BREAKS]
    if workload == "cli_session":
        return [next(c for c in cases if c.params[0] == "query" and c.params[1][0] == kind)
                for kind in ("classify", "locus")]
    return cases[:SLICES[workload]]


def load_refs():
    with open(ROOT / "perfbench" / "references.json") as fh:
        return json.load(fh)


def check_corrupted_reference(refs, caches):
    for workload in ("seminormal_sweep", "cli_session"):
        cases = slice_cases(workload, 7)
        good = run.run_pass(workload, cases, refs[workload], caches, SpeedLog())
        assert good.failures == [], good.failures
        bad_refs = dict(refs[workload])
        bad_refs[cases[1].key] = "0" * 16
        bad = run.run_pass(workload, cases, bad_refs, caches, SpeedLog())
        assert bad.failures == [cases[1].key], bad.failures
        print(f"{workload}: a corrupted reference is counted as 1 failure of {len(cases)}")


def check_bindings():
    from calihecke import bgg, crystal, cyclotomics, multipartitions

    originals = (crystal.addable_boxes, bgg.standard_tableaux, cyclotomics.Cyc.__rmul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert crystal.addable_boxes is multipartitions.addable_boxes
        assert crystal.addable_boxes is not originals[0]
        assert bgg.standard_tableaux is multipartitions.standard_tableaux
        assert bgg.standard_tableaux is not originals[1]
        assert cyclotomics.Cyc.__rmul__ is cyclotomics.Cyc.__mul__
        assert cyclotomics.Cyc.__rmul__ is not originals[2]
        two = cyclotomics.Cyc.one(3) + cyclotomics.Cyc.one(3)
        assert 2 * two == two * 2
    finally:
        tracer.uninstall()
    assert (crystal.addable_boxes, bgg.standard_tableaux, cyclotomics.Cyc.__rmul__) == originals
    counts = tracer.aggregate()["calls"]
    assert counts["cyclotomics.Cyc.__mul__"] == 2, counts
    print("bindings: from-imports, aliases and re-exports are wrapped and restored")


def counts_of(metrics, spec):
    return {m["name"]: metrics[m["name"]] for m in spec["per_layer"]
            if m["unit"] not in ("s", "us") and m["name"] in metrics}


def check_traced_counts(refs, caches, spec):
    for workload in ("seminormal_sweep", "bgg_sweep", "cli_session"):
        cases = slice_cases(workload, 11)
        seen = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                spans = Path(tmp) / "spans"
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced = run.run_pass(workload, cases, refs[workload], caches, SpeedLog(),
                                          tracer, spans)
                finally:
                    tracer.uninstall()
                if workload == "cli_session":
                    agg = tracing.merge(q["aggregate"] for q in traced.queries)
                else:
                    agg = tracer.aggregate()
                    tracer.write_spans(spans, workload)
                recorded = sum(header["spans"] for header, _ in tracing.read_spans(spans))
                assert recorded == sum(agg["calls"].values()), (recorded, agg["calls"])
            seen.append(counts_of(tracing.layer_metrics(agg), spec))
        assert seen[0] == seen[1], {k: (v, seen[1][k]) for k, v in seen[0].items() if seen[1][k] != v}
        print(f"{workload}: two traced passes give identical counts"
              f" ({sum(1 for v in seen[0].values() if v)} nonzero)")


def main():
    run.OUT.mkdir(exist_ok=True)
    refs = load_refs()
    spec = run.load_spec()
    caches = tracing.find_caches()
    check_corrupted_reference(refs, caches)
    check_bindings()
    check_traced_counts(refs, caches, spec)
    print("selftest OK")


if __name__ == "__main__":
    main()

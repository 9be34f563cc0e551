"""Runs one ``calihecke`` command in this process: ``python3 cli_shim.py ARGS``
behaves as ``calihecke ARGS``.

With PERFBENCH_TRACE_OUT set, it times ``import calihecke.cli``, installs the
tracer, runs the command as case PERFBENCH_CASE, and writes the aggregate to
PERFBENCH_TRACE_OUT and the spans to PERFBENCH_SPANS before exiting with the
command's exit code.
"""

import os
import sys
import time


def traced(argv, out_path):
    import json
    import traceback

    t0 = time.perf_counter()
    import calihecke.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.case_id = int(os.environ.get("PERFBENCH_CASE", "0"))
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = calihecke.cli.main(argv)
    except SystemExit as ex:
        code = ex.code
    except BaseException:  # the console script prints the traceback and exits 1
        traceback.print_exc()
        code = 1
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "aggregate": tracer.aggregate()}, fh)
    spans = os.environ.get("PERFBENCH_SPANS")
    if spans:
        tracer.write_spans(spans, f"case {tracer.case_id}")
    return code


if __name__ == "__main__":
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if trace_out:
        sys.exit(traced(sys.argv[1:], trace_out))
    from calihecke.cli import main

    sys.exit(main(sys.argv[1:]))

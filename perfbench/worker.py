"""Run one workload's invocations in passes, in this process, and time them.

Usage: python3 worker.py <spec.json> <result.json>

The spec names the invocations (command, config path, output directory),
the seconds to measure and whether to trace.  Passes repeat until the
seconds are used up and at least MIN_PASSES ran.  With tracing on,
untraced and traced passes alternate, so the traced run measures its own
overhead.  Each invocation is timed around `semilab.cli.main` alone;
hashing its outputs happens outside the timed region.  Parent and worker
are separate processes so that peak RSS is the workload's own.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _file_sha(path):
    try:
        with open(path, "rb") as handle:
            return _sha(handle.read())
    except FileNotFoundError:
        return None


def _remove(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def run_pass(cli, invocations):
    records = []
    for inv in invocations:
        report = os.path.join(inv["out"], "report.txt")
        csv = os.path.join(inv["out"], inv["csv"]) if inv["csv"] else None
        for path in (report, csv):
            if path:
                _remove(path)
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([inv["command"], inv["config"], "--out", inv["out"]])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the oracle counts it as a failed invocation
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - start
        records.append({
            "rc": rc,
            "seconds": elapsed,
            "error": error,
            "stdout": _sha(out.getvalue().encode("utf-8")),
            "report": _file_sha(report),
            "csv": _file_sha(csv) if csv else None,
        })
    return records


def blas_info(np):
    """BLAS name, version and the thread count the library reports."""
    import ctypes
    import glob

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import numpy as np
    import semilab
    import semilab.cli as cli

    if not os.path.abspath(semilab.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit("semilab imported from %s, not from %s"
                         % (semilab.__file__, spec["src"]))
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()

    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            records = run_pass(cli, spec["invocations"])
        finally:
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "records": records}
        if traced:
            entry["stats"], entry["layer_errors"] = tracer.take()
        passes.append(entry)
        done = time.perf_counter() - started >= spec["seconds"]
        enough = len(passes) >= (2 * MIN_TRACED_PASSES if tracer else MIN_PASSES)
        if done and enough:
            break

    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(np),
        },
    }
    if tracer is not None:
        tracer.install()
        result["uncovered"] = tracer.uncovered()
        tracer.uninstall()
        result["traced_names"] = list(tracer.stats)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

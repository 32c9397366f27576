"""semilab benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The seed makes the workload's config files (see workloads.py); the
program sees only those files.  A worker process runs the invocations
through `semilab.cli.main` in passes for the given seconds, with BLAS
pinned to one thread.  The oracles here check every output, and the last
stdout line is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from tracer.py.  See README.md.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

BLAS_THREADS = 1
SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 150
# an ionorm estimate is a lower bound of the exact map norm; above it only by roundoff
LOWER_BOUND_SLACK = 1e-9
IONORM_REL_TOL = 1e-3
ENERGY_CONSERVATION_TOL = 1e-6
ENERGY_MONOTONE_TOL = 1e-10

LAYER_FUNCS = (
    "numkernel.expm", "numkernel.svd_solve", "numkernel.op_norm",
    "numkernel.dissipativity_margin", "numkernel.contraction_certificate",
    "numkernel.Gram", "numkernel.Gram.weighted_vector_norm",
    "cayley.AccretiveOperator", "cayley.cayley_of_accretive",
    "cayley.accretive_of_contraction",
    "sysnode.external_cayley", "sysnode.passivity_check",
    "feedback.internal_loop", "feedback.check_admissible",
    "simkit.simulate_semigroup", "simkit.cn_step", "simkit.io_map_norm",
    "cli.run_verify", "cli.run_simulate", "cli.run_ionorm",
)
COUNTED_FUNCS = ("numkernel.as_complex_matrix",)


def child_env():
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    return env


def write_inputs(invocations, workdir):
    """Config files and output directories; returns the worker's view."""
    specs = []
    for inv in invocations:
        base = os.path.join(workdir, inv.name)
        os.makedirs(os.path.join(base, "out"))
        config = os.path.join(base, "config.cfg")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(inv.config_text())
        specs.append({"command": inv.command, "config": config,
                      "out": os.path.join(base, "out"),
                      "csv": {"simulate": "simulate.csv",
                              "ionorm": "ionorm.csv"}.get(inv.command)})
    return specs


def measure_setup(specs, env):
    """Median seconds to import semilab.cli and parse every config.

    One unmeasured probe first, so byte-compiling the package is not
    counted; users run with compiled bytecode.
    """
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
    cmd += [spec["config"] for spec in specs]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times[1:]


# ---------------------------------------------------------------- oracles

def check_report(inv, text):
    """Problems with a report body: check names, verdicts, overall line."""
    lines = text.splitlines()
    if not lines or lines[0] != "command: %s" % inv.command:
        return ["first line is not `command: %s`" % inv.command]
    checks = {}
    overall = None
    for line in lines:
        if line.startswith("check "):
            name, _, rest = line[len("check "):].partition(": ")
            checks[name] = rest.rsplit(" ", 1)[-1]
        elif line.startswith("overall: "):
            overall = line[len("overall: "):]
    problems = []
    if tuple(sorted(checks)) != inv.checks:
        problems.append("checks %s, expected %s" % (sorted(checks), list(inv.checks)))
    failed = tuple(sorted(n for n, verdict in checks.items() if verdict != "PASS"))
    if failed != inv.expect_fail:
        problems.append("failing checks %s, expected %s" % (list(failed), list(inv.expect_fail)))
    if overall != ("FAIL" if inv.expect_fail else "PASS"):
        problems.append("overall %r" % overall)
    return problems


def _csv_rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("CSV header is not %r" % header)
    return [line.split(",") for line in lines[1:]]


def check_simulate_csv(inv, text):
    """Time grid, energy bound flags, and energy decay (conservation for the
    undamped wave), which dissipativity implies for every PDE experiment."""
    keys = dict(inv.keys)
    T, dt = float(keys["T"]), float(keys["dt"])
    rows = _csv_rows(text, "t,energy,norm_bound_ok")
    nsteps = int(round(T / dt))
    if len(rows) != nsteps + 1:
        return ["%d CSV rows, expected %d" % (len(rows), nsteps + 1)]
    times = [float(r[0]) for r in rows]
    energy = [float(r[1]) for r in rows]
    e0 = energy[0]
    if not all(math.isfinite(e) and e > 0.0 for e in energy):
        return ["energy is not finite and positive"]
    problems = []
    if any(abs(t - k * dt) > 1e-9 * max(T, 1.0) for k, t in enumerate(times)):
        problems.append("time column is not k * dt")
    if any(r[2] != "1" for r in rows):
        problems.append("norm_bound_ok is 0 on some row")
    if keys["experiment"] == "wave_heat":
        drift = max(abs(e - e0) for e in energy) / e0
        if drift > ENERGY_CONSERVATION_TOL:
            problems.append("energy drift %r" % drift)
    else:
        rise = max(b - a for a, b in zip(energy, energy[1:])) / e0
        if rise > ENERGY_MONOTONE_TOL:
            problems.append("energy rises by %r of its start" % rise)
    return problems


def check_ionorm_csv(inv, text):
    """Horizons and nsteps echo, and each estimate against the exact norm.

    Returns (problems, relative errors).
    """
    keys = dict(inv.keys)
    T, nsteps = float(keys["T"]), int(keys["nsteps"])
    rows = _csv_rows(text, "T,norm_estimate,nsteps")
    if len(rows) != len(workloads.IONORM_HORIZON_FACTORS):
        return ["%d CSV rows" % len(rows)], []
    problems, errors = [], []
    for row, factor in zip(rows, workloads.IONORM_HORIZON_FACTORS):
        horizon, estimate = float(row[0]), float(row[1])
        if not math.isclose(horizon, T * factor, rel_tol=1e-12) or int(row[2]) != nsteps:
            problems.append("row %s does not echo T = %r, nsteps = %d" % (row, T * factor, nsteps))
        exact = inv.exact_norm(horizon)
        rel_err = abs(estimate - exact) / exact
        errors.append(rel_err)
        if estimate > exact * (1.0 + LOWER_BOUND_SLACK) or rel_err > IONORM_REL_TOL:
            problems.append("estimate %r at T = %r against exact %r" % (estimate, horizon, exact))
    return problems, errors


def check_outputs(inv, spec):
    """Problems with the files the last pass left, and ionorm relative errors."""
    with open(os.path.join(spec["out"], "report.txt"), encoding="utf-8") as handle:
        problems = check_report(inv, handle.read())
    errors = []
    if spec["csv"]:
        with open(os.path.join(spec["out"], spec["csv"]), encoding="utf-8") as handle:
            text = handle.read()
        try:
            if inv.command == "simulate":
                problems += check_simulate_csv(inv, text)
            else:
                csv_problems, errors = check_ionorm_csv(inv, text)
                problems += csv_problems
        except (ValueError, IndexError) as exc:
            problems.append("malformed CSV: %s" % exc)
    return problems, errors


def judge(invocations, specs, passes):
    """Count failed invocations over all passes; return (failed, problems, errors).

    A pass's invocation fails on a wrong exit code, an exception, stdout
    differing from report.txt, outputs differing from the last pass (the
    same config and seed must give the same bytes), or a failed oracle.
    """
    failed = 0
    problems = []
    errors = []
    last = passes[-1]["records"]
    for i, (inv, spec) in enumerate(zip(invocations, specs)):
        final = last[i]
        content = []
        if final["report"] is not None and (final["csv"] is not None or not spec["csv"]):
            content, inv_errors = check_outputs(inv, spec)
            errors += inv_errors
        for p, entry in enumerate(passes):
            rec = entry["records"][i]
            bad = list(content)
            if rec["error"]:
                bad.append(rec["error"])
            if rec["rc"] != inv.expect_rc:
                bad.append("exit code %r, expected %d" % (rec["rc"], inv.expect_rc))
            if rec["report"] is None or rec["stdout"] != rec["report"]:
                bad.append("report.txt is missing or differs from stdout")
            if spec["csv"] and rec["csv"] is None:
                bad.append("%s is missing" % spec["csv"])
            if (rec["report"], rec["csv"]) != (final["report"], final["csv"]):
                bad.append("outputs differ from the last pass")
            if bad:
                failed += 1
                problems.append("%s pass %d: %s" % (inv.name, p, "; ".join(bad)))
    return failed, problems, errors


# ---------------------------------------------------------------- metrics

def pass_seconds(entry):
    return sum(rec["seconds"] for rec in entry["records"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(result, setup, failed, attempted, errors):
    walls = [pass_seconds(entry) for entry in result["passes"]]
    return {
        "setup_s": (statistics.median(setup), "s", setup),
        "wall_s": (statistics.median(walls), "s", walls),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", None),
        "ok_frac": (1.0 - failed / attempted, "fraction", None),
        # no ionorm output to check counts as a 100% error
        "ionorm_rel_err": (max(errors) if errors else 1.0, "1", None),
    }


def per_layer(result):
    traced = [e for e in result["passes"] if e["traced"]]
    untraced = [e for e in result["passes"] if not e["traced"]]
    names = result["traced_names"]

    def median_of(fn):
        return statistics.median(fn(entry) for entry in traced)

    metrics = {}
    for layer in LAYERS:
        members = [n for n in names if n.split(".")[0] == layer]
        metrics[layer + ".self_s"] = (median_of(
            lambda e: sum(e["stats"][n][1] for n in members)), "s", None)
        metrics[layer + ".calls"] = (median_of(
            lambda e: sum(e["stats"][n][0] for n in members)), "count", None)
        metrics[layer + ".errors"] = (median_of(
            lambda e: e["layer_errors"][layer]), "count", None)
    for name in LAYER_FUNCS:
        metrics[name + ".calls"] = (median_of(lambda e: e["stats"][name][0]), "count", None)
        metrics[name + ".self_s"] = (median_of(lambda e: e["stats"][name][1]), "s", None)
    for name in COUNTED_FUNCS:
        metrics[name + ".calls"] = (median_of(lambda e: e["stats"][name][0]), "count", None)
    traced_wall = statistics.median(pass_seconds(e) for e in traced)
    metrics["trace.wall_s"] = (traced_wall, "s", None)
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(pass_seconds(e) for e in untraced), "s", None)
    metrics["trace.unattributed_s"] = (median_of(
        lambda e: pass_seconds(e) - sum(v[1] for v in e["stats"].values())), "s", None)
    return metrics


def src_line_count():
    total = 0
    package = os.path.join(SRC, "semilab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                total += sum(1 for _ in handle)
    return total


def run(args):
    invocations = workloads.build(args.workload, args.seed)
    scratch = os.path.join(HERE, "_work")
    workdir = os.path.join(scratch, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        env = child_env()
        specs = write_inputs(invocations, workdir)
        setup = [] if args.trace else measure_setup(specs, env)
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump({"src": SRC, "seconds": args.seconds, "trace": bool(args.trace),
                       "invocations": specs}, handle)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                       env=env, timeout=WORKER_TIMEOUT_S, check=True)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        failed, problems, errors = judge(invocations, specs, result["passes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(scratch)

    attempted = len(invocations) * len(result["passes"])
    correct = failed == 0
    if args.trace:
        metrics = per_layer(result)
        problems += ["unwrapped public binding: %s" % name for name in result["uncovered"]]
        correct = correct and not result["uncovered"]
    else:
        metrics = end_to_end(result, setup, failed, attempted, errors)
    for line in problems[:20]:
        print("FAIL %s" % line, file=sys.stderr)

    record = dict(result["env"], nproc=os.cpu_count(),
                  affinity=len(os.sched_getaffinity(0)),
                  blas_threads_pinned=BLAS_THREADS, workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace,
                  passes=len(result["passes"]), src_lines=src_line_count(),
                  configs={inv.name: inv.config_text() for inv in invocations})
    print("env " + json.dumps(record, sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        extra = ""
        if samples:
            q1, q3 = quartiles(samples)
            extra = "  (q1 %.6g, q3 %.6g, n=%d)" % (q1, q3, len(samples))
        print("%-44s %.6g %s%s" % (name, value, unit, extra))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semilab", "cli.py")):
        print("error: %s holds no semilab package; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

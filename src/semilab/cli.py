"""Command-line front end: flat `key = value` configs, randomized
verification suites, PDE energy simulations and input/output-map norm
sweeps, with CSV output for external plotting.

Reports are deterministic for a given (config, seed): all randomness
comes from one numpy PCG64 generator whose identity and seed are echoed
in the report body, checks are emitted sorted by name, and floats use
round-trip repr formatting.  Wall time, of the run and the writing of
its outputs, goes to stderr only so report bodies stay byte-identical
across runs.  The simulate CSV is formatted and written one block of
rows at a time, so a run's memory does not grow with the CSV's length.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error, or an output file that cannot be written (one
stderr line naming the path), 3 an unexpected error (one stderr line,
no traceback).
"""

import argparse
import math
import numbers
import os
import sys
import time
from collections import namedtuple

import numpy as np

from .cayley import (
    AccretiveOperator,
    accretive_of_contraction,
    accretivity_lower_bound,
    cayley_of_accretive,
    s_norm_bound,
    strict_contraction_bound,
)
from .feedback import a_s_via_feedback, internal_loop
from .numkernel import (
    Gram,
    _herm_eigvalsh,
    _matmul,
    contraction_certificate,
    dissipativity_margin,
    op_norm,
)
from .pdelab import (
    Grid1D,
    PdeCoefficients,
    degenerate_as1,
    energy_gram,
    sine_start,
    wave_combined_ext,
    wave_ext,
    wave_structural_ext,
    wave_viscous_ext,
)
from .simkit import _LEDGER_BLOCK, io_map_norm, simulate_semigroup
from .sysnode import ExtendedOperator, SystemNode, external_cayley, passivity_check

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "parse_config",
    "run_verify",
    "run_simulate",
    "run_ionorm",
    "main",
]

# command -> the experiments it runs; simulate and ionorm also write
# <command>.csv
_COMMANDS = {
    "verify": ("verify_random",),
    "simulate": ("wave_heat", "viscous", "structural", "combined",
                 "degenerate"),
    "ionorm": ("ionorm",),
}
EXPERIMENTS = tuple(name for names in _COMMANDS.values() for name in names)
FIXTURES = ("wave_cayley", "viscous_cayley", "feedthrough", "integrator")
STEPPERS = ("expm", "crank_nicolson")

# energy may not exceed its start by more than this in any simulate CSV row
ENERGY_BOUND_TOL = 1e-6
# most steps (T/dt) one simulate run may take; its time and the memory of
# its times and energies grow linearly in the steps
MAX_SIMULATE_STEPS = 10 ** 6
# verify cases drawn and checked together: a block's matrices are all the
# suites hold at once, so memory does not grow with `cases`
_VERIFY_BLOCK = 256

Check = namedtuple("Check", ["name", "measured", "threshold", "passed"])
Check.__doc__ = """One named check: measured value vs threshold."""


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rule(test, phrase):
    """Range rule: test(value) must hold, else `<key> must <phrase>`."""
    def check(key, value):
        if not test(value):
            raise ValueError("%s must %s, got %r" % (key, phrase, value))
    return check


def _closed(low, high):
    return _rule(lambda v: low <= v <= high, "lie in [%d, %d]" % (low, high))


def _one_of(words):
    return _rule(lambda v: v in words, "be one of " + "|".join(words))


def _profile(key, text):
    """A coefficient profile string as a function of xi."""
    if not isinstance(text, str):
        raise ValueError("%s expects a profile string" % key)
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    rest = rest.strip()
    # numbers parse now, as default arguments, so validation refuses bad ones
    try:
        if kind == "constant":
            return lambda xi, c=float(rest): np.full(np.shape(xi), c)
        if kind == "linear":
            a, _, b = rest.partition(",")
            return lambda xi, a=float(a), b=float(b): a + b * xi
        if kind == "power":
            return lambda xi, e=float(rest): xi ** e
    except ValueError:
        raise ValueError("%s: bad number in profile %r" % (key, text))
    raise ValueError("%s: unknown profile %r (expected constant:<v>, "
                     "linear:<a>,<b> or power:<e>)" % (key, text))


_POSITIVE = _rule(lambda v: v > 0.0, "be positive")
_NONNEGATIVE = _rule(lambda v: v >= 0, "be nonnegative")

# One row per config key: (key, type, default, range rule), checked in
# this order.  Two rules are code in ExperimentConfig: the stepper
# default depends on the experiment, and T >= dt spans two keys.
_KEYS = (
    ("experiment", str, None, _one_of(EXPERIMENTS)),
    ("n", int, 32, _closed(2, 4096)),
    ("dt", float, 1e-2, _POSITIVE),
    ("T", float, 1.0, None),
    ("seed", int, 0, _NONNEGATIVE),
    ("tol", float, 1e-9, _POSITIVE),
    ("alpha_exp", float, 0.5, _rule(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    ("kappa", float, 0.0, _NONNEGATIVE),
    ("delta_floor", float, 0.05, _POSITIVE),
    ("cases", int, 100, _closed(1, 100000)),
    ("max_dim", int, 8, _closed(1, 64)),
    ("nsteps", int, 128, _closed(4, 65536)),
    ("stepper", str, None, _one_of(STEPPERS)),
    ("fixture", str, "wave_cayley", _one_of(FIXTURES)),
    ("negative_control", bool, False, None),
    ("out", str, ".", None),
    ("rho", str, "constant:1", _profile),
    ("young", str, "constant:1", _profile),
    ("k_v", str, "constant:1", _profile),
    ("k_s", str, "constant:1", _profile),
    ("s_fun", str, "constant:1", _profile),
)
_TYPES = {key: kind for key, kind, _, _ in _KEYS}

# `out` is deliberately not echoed so report bodies do not depend on paths
_ECHO_KEYS = tuple(sorted(key for key in _TYPES if key != "out"))


# key type -> (the types its values may have, how messages name it); a
# bool is an Integral, so number keys refuse it separately
_KINDS = {bool: (bool, "true or false"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a number"), str: (str, "a string")}


class ExperimentConfig(object):
    """Validated flat configuration for one experiment run.

    Takes the config keys as keyword arguments; `_KEYS` gives each key's
    type, default and range, and `experiment` is required.  A value of
    the wrong type is refused, not coerced: a bool key takes a bool, an
    int key an integer that is not a bool, a float key any real number
    that is not a bool, and a str key a str.  The stepper
    defaults to the exact exponential for the undamped wave and
    Crank-Nicolson otherwise.  Coefficient profiles are strings
    `constant:<v>`, `linear:<a>,<b>` (a + b xi) or `power:<e>` (xi^e),
    sampled per grid point.
    """

    def __init__(self, **values):
        unknown = sorted(set(values) - set(_TYPES))
        if unknown:
            raise TypeError("unknown config key %r" % unknown[0])
        if values.get("experiment") is None:
            raise ValueError("missing required key 'experiment'")
        if values.get("stepper") is None:
            values["stepper"] = ("expm" if values["experiment"] == "wave_heat"
                                 else "crank_nicolson")
        for key, kind, default, rule in _KEYS:
            value = values.get(key, default)
            accepted, phrase = _KINDS[kind]
            if not isinstance(value, accepted) or (
                    kind is not bool and isinstance(value, bool)):
                raise ValueError("%s must be %s, got %r"
                                 % (key, phrase, value))
            if kind is float and not math.isfinite(value):
                raise ValueError("%s must be a finite number, got %r"
                                 % (key, value))
            if rule is not None:
                rule(key, value)
            if key == "T" and not value >= self.dt:
                raise ValueError("T must be at least dt, got T = %s, dt = %s"
                                 % (value, self.dt))
            setattr(self, key, kind(value))

    def as_dict(self):
        return {key: getattr(self, key) for key in _TYPES}

    def with_seed(self, seed):
        values = self.as_dict()
        values["seed"] = int(seed)
        return ExperimentConfig(**values)


def _parse_value(key, kind, text):
    """The text of one config value as its key's type."""
    if kind is str:
        return text
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ValueError("%s expects %s, got %r"
                         % (key, _KINDS[kind][1], text))
    try:
        value = kind(text)
    except ValueError:
        raise ValueError("%s expects %s, got %r"
                         % (key, _KINDS[kind][1], text))
    if not math.isfinite(value):
        raise ValueError("%s expects a finite number, got %r" % (key, text))
    return value


def parse_config(text):
    """Parse `key = value` lines (with `#` comments) into an ExperimentConfig.

    Unknown and duplicate keys are rejected with their line number;
    values are type-checked per key and range-checked on construction.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError("line %d: expected `key = value`, got %r"
                             % (lineno, line))
        key = key.strip()
        value = value.strip()
        if key not in _TYPES:
            raise ValueError("line %d: unknown key %r" % (lineno, key))
        if key in values:
            raise ValueError("line %d: duplicate key %r (first at line %d)"
                             % (lineno, key, lines[key]))
        if not value:
            raise ValueError("line %d: empty value for %r" % (lineno, key))
        values[key] = value
        lines[key] = lineno
    parsed = {}
    for key, value in values.items():
        try:
            parsed[key] = _parse_value(key, _TYPES[key], value)
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lines[key], exc))
    return ExperimentConfig(**parsed)


def _coefficients(config, grid):
    profiles = {key: _profile(key, getattr(config, key))
                for key in ("rho", "young", "k_v", "k_s", "s_fun")}
    return PdeCoefficients(grid, alpha_exp=config.alpha_exp,
                           kappa=config.kappa, **profiles)


class RunReport(object):
    """Config echo, diagnostics and named checks; overall pass means every
    check passed.

    body() is the deterministic report text; diagnostics are extra
    deterministic "diag ..." lines (iteration counts, residuals).
    """

    def __init__(self, command, config, checks, diagnostics=()):
        self.command = command
        self.config = config
        self.checks = sorted(checks, key=lambda c: c.name)
        self.diagnostics = list(diagnostics)

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def body(self):
        lines = ["command: %s" % self.command]
        for key in _ECHO_KEYS:
            lines.append("%s = %s" % (key, _fmt(getattr(self.config, key))))
        lines.append("rng: numpy PCG64, seed=%d" % self.config.seed)
        lines.extend("diag %s" % line for line in self.diagnostics)
        for check in self.checks:
            lines.append("check %s: measured=%s threshold=%s %s"
                         % (check.name, repr(float(check.measured)),
                            repr(float(check.threshold)),
                            "PASS" if check.passed else "FAIL"))
        lines.append("overall: %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _random_matrix(rng, n):
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    return (real + 1j * imag) / np.sqrt(2.0 * n)


def _shifted(m, shift):
    """m + shift I, one shift per member of a stack."""
    return m + np.asarray(shift)[..., None, None] * np.eye(m.shape[-1])


def _accretive(m, floor):
    """Shift m so the smallest eigenvalue of its Hermitian part is floor."""
    return _shifted(m, floor - _herm_eigvalsh(m, "matrix")[..., 0])


def _dissipative(m, gap=0.1):
    """Shift m so its dissipativity margin is -gap."""
    return _shifted(m, -(dissipativity_margin(m) + gap))


def _dissipative_ext(m, n1, gap=0.1):
    """The dissipative shift of m, split after row and column n1."""
    m = _dissipative(m, gap)
    return ExtendedOperator(m[..., :n1, :n1], m[..., :n1, n1:],
                            m[..., n1:, :n1], m[..., n1:, n1:])


def _require_command(config, command):
    """Refuse a config whose experiment the command does not run."""
    allowed = _COMMANDS[command]
    if config.experiment not in allowed:
        raise ValueError(
            "experiment %r is not valid for the %s command (expected %s)"
            % (config.experiment, command, "|".join(allowed)))


def _check(name, measured, threshold):
    measured = float(measured)
    return Check(name, measured, float(threshold), measured <= threshold)


def _dimension_groups(rng, config, draw):
    """The suite's random cases, a block at a time, grouped by dimension.

    ``draw(rng, config)`` makes one case's draws and returns (dimension
    key, matrices).  Each block of up to _VERIFY_BLOCK cases is drawn in case
    order before anything is computed from it, so the generator stream is
    that of one case after another; the block is then yielded as one
    (key, stacked matrices) pair per dimension key, in key order.
    """
    for first in range(0, config.cases, _VERIFY_BLOCK):
        groups = {}
        for _ in range(min(_VERIFY_BLOCK, config.cases - first)):
            key, matrices = draw(rng, config)
            groups.setdefault(key, []).append(matrices)
        for key in sorted(groups):
            yield key, [np.stack(column) for column in zip(*groups.pop(key))]


def _draw_square(rng, config):
    n = int(rng.integers(1, config.max_dim + 1))
    return n, (_random_matrix(rng, n),)


def _draw_ext(rng, config):
    n1 = int(rng.integers(1, config.max_dim + 1))
    n2 = int(rng.integers(1, config.max_dim + 1))
    return (n1, n2), (_random_matrix(rng, n1 + n2),)


def _draw_ext_and_s(rng, config):
    (n1, n2), (m,) = _draw_ext(rng, config)
    return (n1, n2), (m, _random_matrix(rng, n2))


def _check_cayley_bounds(rng, config):
    worst = -np.inf
    for _, (m,) in _dimension_groups(rng, config, _draw_square):
        s = AccretiveOperator(_accretive(m, config.delta_floor))
        k = cayley_of_accretive(s)
        s_back = accretive_of_contraction(k)
        worst = max(worst, np.max(k.norm - strict_contraction_bound(s)),
                    np.max(accretivity_lower_bound(k) - s_back.delta),
                    np.max(op_norm(s.matrix) - s_norm_bound(k)))
    return _check("cayley_bounds", worst, config.tol)


def _check_cayley_roundtrip(rng, config):
    worst = 0.0
    for _, (m,) in _dimension_groups(rng, config, _draw_square):
        s = AccretiveOperator(_accretive(m, config.delta_floor))
        s_back = accretive_of_contraction(cayley_of_accretive(s))
        err = op_norm(s_back.matrix - s.matrix) / (1.0 + op_norm(s.matrix))
        worst = max(worst, np.max(err))
    return _check("cayley_roundtrip", worst, config.tol)


def _check_contraction_margins(rng, config):
    worst = -np.inf
    for _, (m,) in _dimension_groups(rng, config, _draw_square):
        report = contraction_certificate(_dissipative(m))
        worst = max(worst, np.max(report.norms) - 1.0)
    return _check("contraction_margins", worst, config.tol)


def _check_loop_vs_feedback(rng, config):
    worst = 0.0
    groups = _dimension_groups(rng, config, _draw_ext_and_s)
    for (n1, _), (m, s_raw) in groups:
        ext = _dissipative_ext(m, n1)
        s = AccretiveOperator(_accretive(s_raw, config.delta_floor))
        a_f = a_s_via_feedback(ext, s)
        a_l = internal_loop(ext, s).a_s
        err = op_norm(a_f - a_l) / (1.0 + op_norm(a_l))
        worst = max(worst, np.max(err))
    return _check("loop_vs_feedback", worst, config.tol)


def _check_passivity_lmi(rng, config):
    if config.negative_control:
        # accretive 1x1 block: the Cayley node must fail the LMI
        one = np.eye(1)
        zero = np.zeros((1, 1))
        node = external_cayley(ExtendedOperator(one, zero, zero, zero))
        return _check("passivity_lmi", passivity_check(node), config.tol)
    worst = -np.inf
    for (n1, _), (m,) in _dimension_groups(rng, config, _draw_ext):
        node = external_cayley(_dissipative_ext(m, n1))
        worst = max(worst, np.max(passivity_check(node)))
    return _check("passivity_lmi", worst, config.tol)


def run_verify(config):
    """Randomized verification suites at the configured seed and sizes."""
    _require_command(config, "verify")
    rng = np.random.default_rng(config.seed)
    checks = [
        _check_cayley_bounds(rng, config),
        _check_cayley_roundtrip(rng, config),
        _check_contraction_margins(rng, config),
        _check_loop_vs_feedback(rng, config),
        _check_passivity_lmi(rng, config),
    ]
    return RunReport("verify", config, checks)


def _simulate_setup(config):
    """Generator, Gram and smooth start for the configured PDE experiment."""
    grid = Grid1D(config.n)
    coeffs = _coefficients(config, grid)
    if config.experiment == "degenerate":
        return (degenerate_as1(grid, coeffs), Gram(grid.h * np.eye(config.n)),
                sine_start(grid, degenerate=True))
    if config.experiment == "wave_heat":
        a, gram = wave_ext(grid).matrix, energy_gram(grid, coeffs)
    else:
        builder = {"viscous": wave_viscous_ext,
                   "structural": wave_structural_ext,
                   "combined": wave_combined_ext}[config.experiment]
        ext, gram, s_op = builder(grid, coeffs, require_uniform=True)
        a = internal_loop(ext, s_op).a_s
    return _matmul(a, gram.matrix), gram, sine_start(grid)


def _csv_blocks(times, energy, bound):
    """The simulate CSV, header first, as text blocks of _LEDGER_BLOCK
    rows "%r,%r,%d" % (t, energy, energy <= bound), each formatted only
    when it is asked for."""
    head = "t,energy,norm_bound_ok\n"
    for start in range(0, energy.shape[0], _LEDGER_BLOCK):
        rows = slice(start, start + _LEDGER_BLOCK)
        flags = np.where(energy[rows] <= bound, "1", "0").tolist()
        yield head + "\n".join(map(",".join, zip(
            map(repr, times[rows].tolist()),
            map(repr, energy[rows].tolist()), flags))) + "\n"
        head = ""


def run_simulate(config):
    """Simulate the configured PDE and return (report, CSV text blocks).

    Every check reads the whole energy ledger before this returns; the
    CSV blocks are formatted only as they are consumed, so writing them
    holds one block at a time.  CSV columns are t, energy,
    norm_bound_ok; norm_bound_ok flags rows whose energy stays within
    (1 + 1e-6) of the start.  A config asking for more than
    MAX_SIMULATE_STEPS steps is refused before any setup.
    """
    _require_command(config, "simulate")
    # T/dt rounds above the budget; an overflowing ratio is refused too
    if config.T / config.dt > MAX_SIMULATE_STEPS + 0.5:
        raise ValueError("T / dt must be at most %d steps, got T = %r, "
                         "dt = %r" % (MAX_SIMULATE_STEPS, config.T, config.dt))
    generator, gram, x0 = _simulate_setup(config)
    traj = simulate_semigroup(generator, gram, x0, config.T, config.dt,
                              config.stepper)
    energy = traj.energy
    checks = []
    ratio = float(energy.max() / energy[0])
    checks.append(_check("max_energy_ratio", ratio, 1.0 + ENERGY_BOUND_TOL))
    if config.experiment == "wave_heat":
        drift = abs(energy[-1] / energy[0] - 1.0)
        checks.append(_check("energy_conservation", drift, ENERGY_BOUND_TOL))
    else:
        increases = np.diff(energy)
        worst = max(0.0, float(increases.max())) / energy[0]
        checks.append(_check("energy_monotone", worst, 1e-10))
    bound = energy[0] * (1.0 + ENERGY_BOUND_TOL)
    return (RunReport("simulate", config, checks),
            _csv_blocks(traj.times, energy, bound))


def _fixture_node(config):
    if config.fixture == "wave_cayley":
        return external_cayley(wave_ext(Grid1D(config.n)))
    if config.fixture == "viscous_cayley":
        grid = Grid1D(config.n)
        ext, _, _ = wave_viscous_ext(grid, _coefficients(config, grid))
        return external_cayley(ext)
    zero = np.zeros((1, 1))
    if config.fixture == "feedthrough":
        return SystemNode(zero, zero, zero, 0.5 * np.eye(1))
    return SystemNode(zero, np.eye(1), np.eye(1), zero)


def run_ionorm(config):
    """Sweep input/output-map norms over {T/4, T/2, T, 2T}; (report, CSV)."""
    _require_command(config, "ionorm")
    node = _fixture_node(config)
    horizons = [config.T * f for f in (0.25, 0.5, 1.0, 2.0)]
    estimates = [io_map_norm(node, horizon, config.nsteps)
                 for horizon in horizons]
    norms = [est.norm_estimate for est in estimates]
    biases = [est.bias for est in estimates]
    checks = []
    worst_drop = max(
        norms[i] - norms[i + 1] - 2.0 * max(biases[i], biases[i + 1])
        for i in range(len(norms) - 1))
    checks.append(_check("monotone_in_t", worst_drop, config.tol))
    if config.fixture == "wave_cayley":
        checks.append(_check("wave_lower_bound", 1.0 - min(norms), 1e-3))
        over = max(norms[i] - 1.0 - biases[i] for i in range(len(norms)))
        checks.append(_check("wave_upper_bound", over, config.tol))
    elif config.fixture == "viscous_cayley":
        checks.append(_check("feedthrough_floor", 1.0 - min(norms), 1e-3))
    elif config.fixture == "feedthrough":
        deviation = max(abs(v - 0.5) for v in norms)
        checks.append(_check("feedthrough_value", deviation, config.tol))
    lines = ["T,norm_estimate,nsteps"]
    for horizon, est in zip(horizons, estimates):
        lines.append("%s,%s,%d" % (repr(float(horizon)),
                                   repr(float(est.norm_estimate)),
                                   est.nsteps))
    csv_text = "\n".join(lines) + "\n"
    diagnostics = ["io_map_norm T=%s: method=%s iterations=%d residual=%s"
                   % (repr(float(est.horizon)), est.method, est.iterations,
                      repr(float(est.residual))) for est in estimates]
    report = RunReport("ionorm", config, checks, diagnostics)
    return report, csv_text


def _write_outputs(out_dir, outputs):
    """Create out_dir and write each (file name, text blocks) pair into it.

    Each block is written as it comes, so a lazy iterator of blocks is
    never held whole.  An OSError, also one raised on a later block,
    becomes a ValueError naming the path that failed, so it exits 2 like
    any other bad setting of the run.
    """
    path = out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, blocks in outputs:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(blocks)
    except OSError as exc:
        raise ValueError("cannot write %s: %s"
                         % (path, exc.strerror or exc)) from exc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="semilab",
        description="contraction-semigroup laboratory: verification suites, "
                    "PDE energy simulations, input/output-map norms")
    sub = parser.add_subparsers(dest="command")
    for name, blurb in (("verify", "run the randomized verification suites"),
                        ("simulate", "simulate a PDE energy trajectory"),
                        ("ionorm", "sweep input/output-map norm estimates")):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("config", help="path to a key = value config file")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: config `out`)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed is not None:
            config = config.with_seed(args.seed)
        # the wall time covers the run and the writing of its outputs,
        # where the simulate CSV is formatted
        start = time.perf_counter()
        if args.command == "verify":
            report, csv_blocks = run_verify(config), None
        elif args.command == "simulate":
            report, csv_blocks = run_simulate(config)
        else:
            report, csv_text = run_ionorm(config)
            csv_blocks = [csv_text]
        outputs = [("report.txt", [report.body()])]
        if csv_blocks is not None:
            outputs.append(("%s.csv" % args.command, csv_blocks))
        _write_outputs(args.out if args.out is not None else config.out,
                       outputs)
        wall_time = time.perf_counter() - start
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    sys.stdout.write(report.body())
    print("wall time: %.3f s" % wall_time, file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

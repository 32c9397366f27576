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
stderr line naming the path; the files the run had opened are removed),
3 an unexpected error (one stderr line, no traceback).
"""

import argparse
import contextlib
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
from .feedback import _closed_main, internal_loop
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
    _wave_order,
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
# verify cases drawn and checked together: a block's matrices are all a
# pass holds at once, so memory does not grow with `cases`
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
    ("T", float, 1.0, _POSITIVE),
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
            if key == "T" and self.experiment in _COMMANDS["simulate"] \
                    and not value >= self.dt:
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
    """A verify pass's random cases, a block at a time, grouped by dimension.

    ``draw(rng, config)`` makes one case's draws and returns (dimension
    key, matrices); every suite of the pass is computed from the same
    groups.  Each block of up to _VERIFY_BLOCK cases is drawn in case
    order before anything is computed from it, so the generator stream is
    that of one case after another; the block is then yielded as a list
    of (key, stacked matrices) pairs, one per dimension key, in key order.
    """
    for first in range(0, config.cases, _VERIFY_BLOCK):
        groups = {}
        for _ in range(min(_VERIFY_BLOCK, config.cases - first)):
            key, matrices = draw(rng, config)
            groups.setdefault(key, []).append(matrices)
        yield [(key, [np.stack(column) for column in zip(*groups.pop(key))])
               for key in sorted(groups)]


def _draw_square(rng, config):
    n = int(rng.integers(1, config.max_dim + 1))
    return n, (_random_matrix(rng, n),)


def _draw_ext_and_s(rng, config):
    n1 = int(rng.integers(1, config.max_dim + 1))
    n2 = int(rng.integers(1, config.max_dim + 1))
    return (n1, n2), (_random_matrix(rng, n1 + n2), _random_matrix(rng, n2))


def _square_pass(rng, config):
    """cayley_bounds, cayley_roundtrip and contraction_margins on one
    stream of square draws m: per group one accretive shift S of m, its
    Cayley transform K and the transform S' of K back, and the
    certificate of the dissipative shift of m."""
    bounds = margins = -np.inf
    roundtrip = 0.0
    for block in _dimension_groups(rng, config, _draw_square):
        for _, (m,) in block:
            s = AccretiveOperator(_accretive(m, config.delta_floor))
            k = cayley_of_accretive(s)
            s_back = accretive_of_contraction(k)
            s_norm = op_norm(s.matrix)
            bounds = max(bounds, np.max(k.norm - strict_contraction_bound(s)),
                         np.max(accretivity_lower_bound(k) - s_back.delta),
                         np.max(s_norm - s_norm_bound(k)))
            err = op_norm(s_back.matrix - s.matrix) / (1.0 + s_norm)
            roundtrip = max(roundtrip, np.max(err))
            report = contraction_certificate(_dissipative(m))
            margins = max(margins, np.max(report.norms) - 1.0)
    return [_check("cayley_bounds", bounds, config.tol),
            _check("cayley_roundtrip", roundtrip, config.tol),
            _check("contraction_margins", margins, config.tol)]


def _loop_pass(rng, config):
    """loop_vs_feedback and passivity_lmi on one stream of (ext, S) draws.

    S and its Cayley transform K depend on the S draw alone: each block
    makes them once per loop size n2, and each (n1, n2) group reads its
    rows as a contiguous slice (a strided view would round matmul
    differently), so every value is bit for bit that of a per-group S.
    Each group's Cayley node is built once, for the closure A^f of
    a_s_via_feedback's path (feedback._closed_main) and the LMI.
    """
    loop = 0.0
    lmi = -np.inf
    for block in _dimension_groups(rng, config, _draw_ext_and_s):
        loop_sizes = {}
        for (n1, n2), (m, s_raw) in block:
            loop_sizes.setdefault(n2, []).append((n1, m, s_raw))
        for groups in loop_sizes.values():
            s = AccretiveOperator(_accretive(
                np.concatenate([s_raw for _, _, s_raw in groups]),
                config.delta_floor))
            k = cayley_of_accretive(s).matrix
            first = 0
            for n1, m, _ in groups:
                rows = slice(first, first + len(m))
                first = rows.stop
                ext = _dissipative_ext(m, n1)
                node = external_cayley(ext)
                a_f = _closed_main(node, k[rows])
                a_l = internal_loop(ext, s.matrix[rows]).a_s
                loop = max(loop, np.max(op_norm(a_f - a_l)
                                        / (1.0 + op_norm(a_l))))
                if not config.negative_control:
                    lmi = max(lmi, np.max(passivity_check(node)))
    if config.negative_control:
        # accretive 1x1 block: the Cayley node must fail the LMI
        one, zero = np.eye(1), np.zeros((1, 1))
        lmi = passivity_check(
            external_cayley(ExtendedOperator(one, zero, zero, zero)))
    return [_check("loop_vs_feedback", loop, config.tol),
            _check("passivity_lmi", lmi, config.tol)]


def run_verify(config):
    """Randomized verification suites at the configured seed and sizes.

    Two passes share the generator: `cases` square draws for the Cayley
    and contraction suites, then `cases` (ext, S) draws for the loop and
    passivity suites.
    """
    _require_command(config, "verify")
    rng = np.random.default_rng(config.seed)
    checks = _square_pass(rng, config) + _loop_pass(rng, config)
    return RunReport("verify", config, checks)


def _simulate_setup(config):
    """Generator, Gram, smooth start and cn_step order of the experiment."""
    grid = Grid1D(config.n)
    coeffs = _coefficients(config, grid)
    if config.experiment == "degenerate":
        return (degenerate_as1(grid, coeffs), Gram(grid.h * np.eye(config.n)),
                sine_start(grid, degenerate=True), None)
    if config.experiment == "wave_heat":
        a, gram = wave_ext(grid).matrix, energy_gram(grid, coeffs)
    else:
        builder = {"viscous": wave_viscous_ext,
                   "structural": wave_structural_ext,
                   "combined": wave_combined_ext}[config.experiment]
        ext, gram, s_op = builder(grid, coeffs, require_uniform=True)
        a = internal_loop(ext, s_op).a_s
    return _matmul(a, gram.matrix), gram, sine_start(grid), _wave_order(grid)


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
    MAX_SIMULATE_STEPS steps is refused before any setup, one whose
    exponential step overflows is refused by its dt, and one whose states
    overflow by its T.
    """
    _require_command(config, "simulate")
    # T/dt rounds above the budget; an overflowing ratio is refused too
    if config.T / config.dt > MAX_SIMULATE_STEPS + 0.5:
        raise ValueError("T / dt must be at most %d steps, got T = %r, "
                         "dt = %r" % (MAX_SIMULATE_STEPS, config.T, config.dt))
    generator, gram, x0, order = _simulate_setup(config)
    try:
        traj = simulate_semigroup(generator, gram, x0, config.T, config.dt,
                                  config.stepper, order=order)
    except OverflowError as exc:
        # the message names dt when the step e^{A dt} overflows, and T when
        # the states of a growing generator do
        raise ValueError(str(exc)) from exc
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
    """Sweep input/output-map norms over {T/4, T/2, T, 2T}; (report, CSV).

    A T whose step exponential overflows is refused by name.
    """
    _require_command(config, "ionorm")
    node = _fixture_node(config)
    horizons = [config.T * f for f in (0.25, 0.5, 1.0, 2.0)]
    try:
        estimates = [io_map_norm(node, horizon, config.nsteps)
                     for horizon in horizons]
    except OverflowError as exc:
        raise ValueError("T = %r is too long a horizon: %s"
                         % (config.T, exc)) from exc
    norms = [est.norm_estimate for est in estimates]
    biases = [est.bias for est in estimates]
    checks = []
    worst_drop = max(
        norms[i] - norms[i + 1] - 2.0 * max(biases[i], biases[i + 1])
        for i in range(len(norms) - 1))
    checks.append(_check("monotone_in_t", worst_drop, config.tol))
    # each estimate is a lower bound, low by at most its bias: only a norm
    # short of 1 by more than that bias is evidence of a shortfall
    shortfall = max(1.0 - v - b for v, b in zip(norms, biases))
    if config.fixture == "wave_cayley":
        checks.append(_check("wave_lower_bound", shortfall, 1e-3))
        over = max(v - 1.0 - b for v, b in zip(norms, biases))
        checks.append(_check("wave_upper_bound", over, config.tol))
    elif config.fixture == "viscous_cayley":
        checks.append(_check("feedthrough_floor", shortfall, 1e-3))
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
    removes every file this call opened, so no partial output passes for
    a whole one, and becomes a ValueError naming the path that failed, so
    it exits 2 like any other bad setting of the run.  A path it could
    not open, and the directory, are left as they are.
    """
    path = out_dir
    opened = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, blocks in outputs:
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                opened.append(path)
                handle.writelines(blocks)
    except OSError as exc:
        for done in opened:
            with contextlib.suppress(OSError):
                os.remove(done)
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

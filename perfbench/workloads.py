"""The benchmark's workloads: fixed lists of `semilab` CLI invocations.

Each workload is built from the benchmark seed alone, so the same seed
gives the same config files.  The program only ever sees those files.
An invocation carries what the oracles in `run.py` expect of it: the
exit code, the check names with the ones that must FAIL, and, for
`ionorm`, the exact map norm of its fixture.
"""

import math
import random

WORKLOADS = ("verify_random", "simulate_large", "simulate_long", "ionorm_sweep")

VERIFY_CHECKS = ("cayley_bounds", "cayley_roundtrip", "contraction_margins",
                 "loop_vs_feedback", "passivity_lmi")
IONORM_CHECKS = {
    "wave_cayley": ("monotone_in_t", "wave_lower_bound", "wave_upper_bound"),
    "integrator": ("monotone_in_t",),
}
IONORM_HORIZON_FACTORS = (0.25, 0.5, 1.0, 2.0)


class Invocation(object):
    """One `semilab <command> <config>` call and what its outputs must be."""

    def __init__(self, name, command, keys, checks, expect_fail=(),
                 exact_norm=None):
        self.name = name
        self.command = command
        self.keys = keys
        self.checks = tuple(sorted(checks))
        self.expect_fail = tuple(sorted(expect_fail))
        # exact_norm(horizon) -> analytic map norm, for ionorm invocations
        self.exact_norm = exact_norm

    @property
    def expect_rc(self):
        return 1 if self.expect_fail else 0

    def config_text(self):
        return "".join("%s = %s\n" % (key, value) for key, value in self.keys)


def _uniform(rng, low, high):
    return "%.6g" % rng.uniform(low, high)


def _coefficients(rng):
    """Seeded coefficient profiles inside the ranges every experiment accepts.

    Constants stay in [0.5, 2] and the damping profiles a + b xi stay
    uniformly positive, so validation and every energy check pass.
    """
    return [
        ("rho", "constant:" + _uniform(rng, 0.5, 2.0)),
        ("young", "constant:" + _uniform(rng, 0.5, 2.0)),
        ("k_v", "linear:%s,%s" % (_uniform(rng, 0.5, 1.5), _uniform(rng, 0.0, 1.0))),
        ("k_s", "linear:%s,%s" % (_uniform(rng, 0.5, 1.5), _uniform(rng, 0.0, 1.0))),
        ("s_fun", "constant:" + _uniform(rng, 0.5, 2.0)),
        ("alpha_exp", _uniform(rng, 0.3, 0.7)),
        ("kappa", _uniform(rng, 0.0, 1.0)),
    ]


def _simulate(name, experiment, n, T, dt, rng):
    checks = ["max_energy_ratio",
              "energy_conservation" if experiment == "wave_heat" else "energy_monotone"]
    keys = [("experiment", experiment), ("n", n), ("T", T), ("dt", dt)]
    return Invocation(name, "simulate", keys + _coefficients(rng), checks)


def _wave_norm(horizon):
    # the lossless wave Cayley node is an isometry at every horizon
    return 1.0


def _integrator_norm(horizon):
    # the Volterra integration operator on L^2(0, T) has norm 2T/pi
    return 2.0 * horizon / math.pi


def _ionorm(name, fixture, nsteps, T, extra=()):
    exact = _wave_norm if fixture == "wave_cayley" else _integrator_norm
    keys = [("experiment", "ionorm"), ("fixture", fixture),
            ("nsteps", nsteps), ("T", T)] + list(extra)
    return Invocation(name, "ionorm", keys, IONORM_CHECKS[fixture],
                      exact_norm=exact)


def _integrator_probe(rng, nsteps):
    """An `ionorm` call with an exact answer whose relative error does not
    depend on the horizon, so `ionorm_rel_err` exists on every workload."""
    T = "%.6g" % rng.uniform(0.5, 4.0)
    return _ionorm("ionorm-integrator-%d" % nsteps, "integrator", nsteps, T)


def _verify_random(rng):
    invs = []
    for i in range(4):
        keys = [("experiment", "verify_random"), ("cases", 250),
                ("max_dim", 8), ("seed", rng.randrange(2 ** 31))]
        invs.append(Invocation("verify-dim8-%d" % i, "verify", keys, VERIFY_CHECKS))
    keys = [("experiment", "verify_random"), ("cases", 10), ("max_dim", 64),
            ("seed", rng.randrange(2 ** 31))]
    invs.append(Invocation("verify-dim64", "verify", keys, VERIFY_CHECKS))
    keys = [("experiment", "verify_random"), ("cases", 20), ("max_dim", 8),
            ("seed", rng.randrange(2 ** 31)), ("negative_control", "true")]
    invs.append(Invocation("verify-negative-control", "verify", keys,
                           VERIFY_CHECKS, expect_fail=("passivity_lmi",)))
    invs.append(_integrator_probe(rng, 128))
    return invs


def _simulate_large(rng):
    invs = [_simulate("simulate-%s-256" % e, e, 256, 1.0, 0.01, rng)
            for e in ("wave_heat", "viscous", "structural", "combined", "degenerate")]
    invs.append(_simulate("simulate-combined-384", "combined", 384, 1.0, 0.01, rng))
    invs.append(_integrator_probe(rng, 128))
    return invs


def _simulate_long(rng):
    invs = [_simulate("simulate-%s-64-long" % e, e, 64, 200.0, 0.005, rng)
            for e in ("viscous", "structural", "degenerate")]
    invs.append(_integrator_probe(rng, 128))
    return invs


def _ionorm_sweep(rng):
    # The wave horizon stays at T = 1: the power-iteration shortfall at
    # nsteps = 1024 depends on it, and the seed must not move that error.
    return [
        _ionorm("ionorm-wave-128", "wave_cayley", 128, 1.0, [("n", 8)]),
        _ionorm("ionorm-wave-1024", "wave_cayley", 1024, 1.0, [("n", 8)]),
        _integrator_probe(rng, 1024),
    ]


_BUILDERS = {
    "verify_random": _verify_random,
    "simulate_large": _simulate_large,
    "simulate_long": _simulate_long,
    "ionorm_sweep": _ionorm_sweep,
}


def build(workload, seed):
    """The invocation list of a workload for a benchmark seed."""
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _BUILDERS[workload](random.Random("%s:%d" % (workload, seed)))

import contextlib
import errno
import importlib.util
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab
from semilab.cli import (
    ExperimentConfig,
    parse_config,
    run_ionorm,
    run_simulate,
    run_verify,
)
from semilab.cli import (
    EXPERIMENTS,
    FIXTURES,
    STEPPERS,
    _COMMANDS,
    _KEYS,
    _coefficients,
    _profile,
    _simulate_setup,
    main,
)
from semilab.numkernel import _BAND_BLOCK, Gram
from semilab.pdelab import Grid1D
from semilab.simkit import _LEDGER_BLOCK, IoMapEstimate, Trajectory


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOAT_KEYS = [key for key, kind, _, _ in _KEYS if kind is float]


def fresh_process_env():
    """Environment for a fresh Python process that imports the same
    semilab package as this suite."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(semilab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def load_perfbench(name):
    """Load perfbench/<name>.py by path, read-only, as a private module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(REPO, "perfbench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VERIFY_TEXT = """\
# randomized suites, kept small for test speed
experiment = verify_random
cases = 10
max_dim = 3
"""


class TestParseConfig:
    def test_defaults(self):
        config = parse_config("experiment = verify_random\n")
        assert config.n == 32
        assert config.dt == 1e-2
        assert config.T == 1.0
        assert config.seed == 0
        assert config.tol == 1e-9
        assert config.stepper == "crank_nicolson"
        assert config.fixture == "wave_cayley"
        assert config.negative_control is False

    def test_wave_heat_defaults_to_exact_stepper(self):
        assert parse_config("experiment = wave_heat\n").stepper == "expm"
        text = "experiment = wave_heat\nstepper = crank_nicolson\n"
        assert parse_config(text).stepper == "crank_nicolson"

    def test_comments_and_blanks_skipped(self):
        config = parse_config("\n# note\nexperiment = verify_random\n\n")
        assert config.experiment == "verify_random"

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*unknown key 'mesh'"):
            parse_config("experiment = verify_random\nmesh = 3\n")

    def test_duplicate_key(self):
        text = "experiment = verify_random\nn = 8\nn = 16\n"
        with pytest.raises(ValueError, match="line 3.*duplicate key 'n'"):
            parse_config(text)

    def test_missing_separator(self):
        with pytest.raises(ValueError, match="line 1.*key = value"):
            parse_config("experiment verify_random\n")

    def test_empty_value(self):
        with pytest.raises(ValueError, match="empty value for 'n'"):
            parse_config("experiment = verify_random\nn =\n")

    def test_type_error_names_key(self):
        with pytest.raises(ValueError, match="n expects an integer"):
            parse_config("experiment = verify_random\nn = eight\n")

    def test_range_error_names_key(self):
        with pytest.raises(ValueError, match=r"n must lie in \[2, 4096\]"):
            parse_config("experiment = verify_random\nn = 1\n")

    def test_experiment_required(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_config("n = 8\n")

    def test_experiment_vocabulary(self):
        with pytest.raises(ValueError, match="experiment must be one of"):
            parse_config("experiment = schroedinger\n")

    def test_bad_profile(self):
        with pytest.raises(ValueError, match="rho.*unknown profile"):
            parse_config("experiment = viscous\nrho = cubic:3\n")

    def test_profile_sampling(self):
        points = np.array([0.25, 0.5, 1.0])
        assert np.allclose(_profile("k", "constant:2")(points),
                           [2.0, 2.0, 2.0])
        assert np.allclose(_profile("k", "linear:1,2")(points),
                           [1.5, 2.0, 3.0])
        assert np.allclose(_profile("k", "power:2")(points),
                           [0.0625, 0.25, 1.0])

    def test_coefficients_sampled_on_their_own_points(self):
        # rho and k_v live on the interior nodes; young, k_s and s_fun on
        # the midpoints
        config = ExperimentConfig(
            experiment="combined", n=6,
            **{key: "power:2" for key in ("rho", "young", "k_v", "k_s",
                                          "s_fun")})
        grid = Grid1D(6)
        coeffs = _coefficients(config, grid)
        for key in ("rho", "k_v"):
            assert np.array_equal(getattr(coeffs, key),
                                  grid.interior_nodes ** 2)
        for key in ("young", "k_s", "s_fun"):
            assert np.array_equal(getattr(coeffs, key), grid.midpoints ** 2)

    def test_with_seed_round_trip(self):
        config = parse_config(VERIFY_TEXT).with_seed(7)
        assert config.seed == 7
        assert config.cases == 10
        assert ExperimentConfig(**config.as_dict()).seed == 7

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unknown config key 'mesh'"):
            ExperimentConfig(experiment="verify_random", mesh=3)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", ["dt", "T", "tol", "alpha_exp", "kappa",
                                     "delta_floor"])
    def test_numbers_must_be_finite(self, key, value):
        with pytest.raises(ValueError, match="line 2: %s expects a finite "
                           "number, got '%s'" % (key, value)):
            parse_config("experiment = verify_random\n%s = %s\n"
                         % (key, value))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_keyword_numbers_must_be_finite(self, key, value):
        # library callers bypass the parser; tol = inf would make every
        # tol-thresholded check a vacuous PASS
        with pytest.raises(ValueError, match="^%s must be a finite number"
                           % key):
            ExperimentConfig(experiment="ionorm", fixture="feedthrough",
                             nsteps=8, **{key: value})


    @pytest.mark.parametrize("key, value, kind", [
        ("negative_control", "false", "true or false"),
        ("negative_control", 0, "true or false"),
        ("cases", 2.7, "an integer"),
        ("cases", "3", "an integer"),
        ("max_dim", True, "an integer"),
        ("dt", "0.1", "a number"),
        ("tol", False, "a number"),
        ("fixture", 1, "a string"),
    ])
    def test_keyword_values_must_have_the_key_type(self, key, value, kind):
        # before: bool("false") ran the negative control, cases = 2.7 ran
        # 2 cases and max_dim = True ran dimension 1
        with pytest.raises(ValueError, match="^%s must be %s, got %s$"
                           % (key, kind, re.escape(repr(value)))):
            ExperimentConfig(experiment="verify_random", **{key: value})

    def test_keyword_numbers_of_other_kinds_are_taken(self):
        config = ExperimentConfig(experiment="verify_random", dt=1,
                                  cases=np.int64(3), negative_control=True)
        assert (config.dt, config.cases) == (1.0, 3)
        assert type(config.dt) is float and type(config.cases) is int


class TestKeyTable:
    def readme_table(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
            text = f.read()
        block = text.split("Keys and defaults", 1)[1].split("\n\n")[1]
        rows = [line.strip("|").split("|")
                for line in block.splitlines()[2:]]
        return [(key.strip(), meaning.strip())
                for keys, _, meaning in rows for key in keys.split(",")]

    def test_readme_names_every_key(self):
        assert (sorted(key for key, _ in self.readme_table())
                == sorted(key for key, _, _, _ in _KEYS))

    def test_readme_lists_experiments_and_fixtures(self):
        table = dict(self.readme_table())
        assert tuple(table["experiment"].split(", ")) == EXPERIMENTS
        fixtures = table["fixture"].split(": ", 1)[1]
        assert tuple(fixtures.split(", ")) == FIXTURES

    def test_tracer_wraps_every_public_binding(self):
        # the benchmark's tracer sees only module attributes; a public
        # function kept in a dispatch table would escape it
        traced = load_perfbench("tracer").Tracer()
        traced.install()
        try:
            assert traced.uncovered() == []
        finally:
            traced.uninstall()

    def test_benchmark_traced_names_exist(self, monkeypatch):
        # `run.py --trace 1` looks these names up in Tracer().stats, so a
        # rename in src/ would end the traced run with a KeyError
        monkeypatch.setattr(sys, "path", list(sys.path))
        run = load_perfbench("run")
        stats = load_perfbench("tracer").Tracer().stats
        names = run.LAYER_FUNCS + run.COUNTED_FUNCS
        assert [name for name in names if name not in stats] == []


def test_pyproject_names_the_package():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["name"] == "semilab"
    assert project["version"] == semilab.__version__
    assert project["scripts"]["semilab"] == "semilab.cli:main"
    # ndarray.mT, used for every Hermitian part, came with NumPy 2.0
    (numpy,) = [dep for dep in project["dependencies"]
                if dep.startswith("numpy")]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", numpy)
    assert floor and (int(floor[1]), int(floor[2])) >= (2, 0)


class TestRunVerify:
    def test_all_checks_pass(self):
        report = run_verify(parse_config(VERIFY_TEXT))
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["cayley_bounds", "cayley_roundtrip",
                         "contraction_margins", "loop_vs_feedback",
                         "passivity_lmi"]

    def test_body_is_deterministic(self):
        config = parse_config(VERIFY_TEXT)
        first = run_verify(config).body()
        second = run_verify(config).body()
        assert first == second
        assert "rng: numpy PCG64, seed=0" in first
        assert first.endswith("overall: PASS\n")

    def test_seed_changes_measurements(self):
        config = parse_config(VERIFY_TEXT)
        base = {c.name: c.measured for c in run_verify(config).checks}
        other = {c.name: c.measured
                 for c in run_verify(config.with_seed(1)).checks}
        assert any(base[name] != other[name] for name in base)

    def test_negative_control_fails_lmi(self):
        config = parse_config(VERIFY_TEXT + "negative_control = true\n")
        report = run_verify(config)
        assert not report.passed
        lmi = {c.name: c for c in report.checks}["passivity_lmi"]
        assert not lmi.passed
        assert lmi.measured == pytest.approx(2.0, abs=1e-12)
        assert report.body().endswith("overall: FAIL\n")

    def test_wrong_experiment(self):
        with pytest.raises(ValueError):
            run_verify(parse_config("experiment = viscous\n"))


class TestRunSimulate:
    def simulate(self, text):
        # the CSV comes as lazy text blocks; these tests read it whole
        report, blocks = run_simulate(parse_config(text))
        return report, "".join(blocks)

    def sine_mode_gap(self, text, experiment, n):
        """Largest |E_k / E_0 - exact| of a simulate run from the sine mode.

        With unit rho and young the sine start stays in span{(sin pi xi,
        0), (0, cos pi xi)}, whose two halves have equal squared norms
        n/2; there the generator is M = [[-(k_v + k_s w^2), -w], [w, 0]]
        with w = (2/h) sin(pi h/2), so E_k / E_0 = |z_k|^2 for z_k =
        step(M)^k (1, 0).
        """
        report, csv_text = self.simulate(text)
        config = report.config
        k_v = 0.0 if experiment in ("structural", "wave_heat") else 1.0
        k_s = 0.0 if experiment in ("viscous", "wave_heat") else 1.0
        w = 2.0 * n * np.sin(np.pi / (2.0 * n))
        m = np.array([[-(k_v + k_s * w * w), -w], [w, 0.0]])
        if config.stepper == "expm":
            step = scipy.linalg.expm(m * config.dt)
        else:
            half = 0.5 * config.dt * m
            step = np.linalg.solve(np.eye(2) - half, np.eye(2) + half)
        energy = np.array([float(line.split(",")[1])
                           for line in csv_text.splitlines()[1:]])
        z = np.array([1.0, 0.0])
        exact = []
        for _ in energy:
            exact.append(z @ z)
            z = step @ z
        return np.abs(energy / energy[0] - exact).max()

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("experiment", ["viscous", "structural",
                                            "combined", "wave_heat"])
    def test_energy_matches_the_exact_sine_mode(self, experiment, n,
                                                banded_results):
        """A CN run of dim 2n - 1 > _BAND_BLOCK (n = 16, 64, 256) takes
        the banded step; wave_heat steps by expm."""
        text = "experiment = %s\nn = %d\n" % (experiment, n)
        assert self.sine_mode_gap(text, experiment, n) <= 1e-11
        assert banded_results == ([] if experiment == "wave_heat" else
                                  [2 * n - 1 > _BAND_BLOCK])

    @pytest.mark.parametrize("experiment", ["viscous", "structural",
                                            "combined", "wave_heat"])
    def test_long_run_energy_matches_the_exact_sine_mode(self, experiment):
        """40,000 steps at dim 31 run in chunks of 16 (simulate_semigroup).

        The worst gap measured was 7.0e-13 (wave_heat, expm), against
        6.2e-14 with one product per step.  The three Crank-Nicolson runs
        take the banded step at dim 31: viscous 3.8e-14, structural
        4.1e-15 and combined 2.9e-15, against at most 6.7e-15 on the
        dense LU step.
        """
        text = "experiment = %s\nn = 16\nT = 200\ndt = 0.005\n" % experiment
        assert self.sine_mode_gap(text, experiment, 16) <= 1e-11

    def test_viscous_decay(self):
        report, csv_text = self.simulate(
            "experiment = viscous\nn = 8\nT = 0.5\ndt = 0.05\n")
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["energy_monotone", "max_energy_ratio"]
        lines = csv_text.splitlines()
        assert lines[0] == "t,energy,norm_bound_ok"
        assert len(lines) == 12
        assert all(line.endswith(",1") for line in lines[1:])
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_wave_heat_conserves(self):
        report, _ = self.simulate(
            "experiment = wave_heat\nn = 8\nT = 0.5\ndt = 0.05\n")
        assert report.passed
        assert "energy_conservation" in [c.name for c in report.checks]

    def test_degenerate_runs(self):
        report, _ = self.simulate(
            "experiment = degenerate\nn = 8\nT = 0.5\ndt = 0.05\n"
            "kappa = 1\n")
        assert report.passed

    @pytest.mark.filterwarnings("error")
    def test_degenerate_takes_a_subnormal_s(self):
        report, _ = self.simulate(
            "experiment = degenerate\nn = 8\nT = 0.1\ndt = 0.01\n"
            "s_fun = constant:1e-320\n")
        assert report.passed

    def test_variable_coefficients(self):
        report, _ = self.simulate(
            "experiment = combined\nn = 8\nT = 0.5\ndt = 0.05\n"
            "rho = linear:1,1\nyoung = linear:2,-1\nk_v = constant:0.5\n"
            "k_s = linear:0.25,0.5\n")
        assert report.passed

    def test_wrong_experiment(self):
        with pytest.raises(ValueError):
            self.simulate("experiment = ionorm\n")

    @pytest.mark.parametrize("experiment", _COMMANDS["simulate"])
    def test_setup_is_float64(self, experiment):
        # every PDE generator is real, so it steps in float64
        generator, gram, x0 = _simulate_setup(
            ExperimentConfig(experiment=experiment, n=8))
        assert (generator.dtype, gram.matrix.dtype, x0.dtype) == \
            (np.float64,) * 3

    @pytest.mark.parametrize("stepper", ["expm", "crank_nicolson"])
    @pytest.mark.parametrize("experiment", _COMMANDS["simulate"])
    def test_complex_path_is_the_oracle(self, monkeypatch, step_out_dtypes,
                                        experiment, stepper):
        # the same generator cast to complex128 runs the complex path; the
        # float64 run must agree with it
        text = "experiment = %s\nn = 16\nstepper = %s\n" % (experiment,
                                                             stepper)
        results = [self.simulate(text)]
        real_setup = semilab.cli._simulate_setup

        def complex_setup(config):
            generator, gram, x0 = real_setup(config)
            return generator.astype(np.complex128), gram, x0

        monkeypatch.setattr(semilab.cli, "_simulate_setup", complex_setup)
        results.append(self.simulate(text))
        # T = 1 and dt = 0.01: 100 steps a run
        assert step_out_dtypes == [np.float64] * 100 + [np.complex128] * 100
        (real_report, real_csv), (cplx_report, cplx_csv) = results
        assert [(c.name, c.passed) for c in real_report.checks] == \
            [(c.name, c.passed) for c in cplx_report.checks]
        real_rows = [row.split(",") for row in real_csv.splitlines()[1:]]
        cplx_rows = [row.split(",") for row in cplx_csv.splitlines()[1:]]
        assert [row[2] for row in real_rows] == [row[2] for row in cplx_rows]
        real_energy = np.array([float(row[1]) for row in real_rows])
        cplx_energy = np.array([float(row[1]) for row in cplx_rows])
        assert np.abs(real_energy - cplx_energy).max() <= \
            1e-12 * real_energy[0]

    @pytest.mark.parametrize("experiment", _COMMANDS["simulate"])
    def test_diagonal_shortcuts_change_no_byte(self, experiment,
                                               dense_only):
        text = ("experiment = %s\nn = 16\nrho = linear:1,1\n"
                "k_v = linear:0.5,1\nk_s = constant:0.75\n" % experiment)
        runs = [self.simulate(text)]
        dense_only()
        runs.append(self.simulate(text))
        (report, csv_text), (dense_report, dense_csv) = runs
        assert report.body() == dense_report.body()
        assert csv_text == dense_csv

    @pytest.mark.parametrize("nrows, block_lines", [
        (7, [1 + 7]),
        (2 * _LEDGER_BLOCK + 1, [1 + _LEDGER_BLOCK, _LEDGER_BLOCK, 1]),
    ], ids=["one-block", "block-edges"])
    def test_csv_bytes_match_per_row_format(self, monkeypatch, nrows,
                                            block_lines):
        dt = 0.1
        times = dt * np.arange(nrows)
        energy = np.resize([1.0, 1.0 + 1e-6, np.nextafter(1.0 + 1e-6, 2.0),
                            0.1 + 0.2, 1e-300, 0.0, 2.0 / 3.0], nrows)
        if nrows > _LEDGER_BLOCK:
            # the flag flips from the last row of the first block to the
            # first row of the second
            energy[_LEDGER_BLOCK - 1:_LEDGER_BLOCK + 1] = energy[1:3]
        traj = Trajectory(times, energy)
        monkeypatch.setattr(semilab.cli, "simulate_semigroup",
                            lambda *args: traj)
        _, blocks = run_simulate(parse_config("experiment = viscous\nn = 4\n"))
        blocks = list(blocks)
        assert [block.count("\n") for block in blocks] == block_lines
        bound = energy[0] * (1.0 + 1e-6)
        lines = ["t,energy,norm_bound_ok"]
        for t, e in zip(traj.times, traj.energy):
            lines.append("%s,%s,%d" % (repr(float(t)), repr(float(e)),
                                       1 if e <= bound else 0))
        assert "".join(blocks) == "\n".join(lines) + "\n"
        flags = [line[-1] for line in lines[1:]]
        assert flags[:7] == ["1", "1", "0", "1", "1", "1", "1"]
        if nrows > _LEDGER_BLOCK:
            assert flags[_LEDGER_BLOCK - 1:_LEDGER_BLOCK + 1] == ["1", "0"]


class TestRunIonorm:
    def test_feedthrough_fixture(self):
        report, csv_text = run_ionorm(parse_config(
            "experiment = ionorm\nfixture = feedthrough\nnsteps = 16\n"))
        assert report.passed
        assert "feedthrough_value" in [c.name for c in report.checks]
        lines = csv_text.splitlines()
        assert lines[0] == "T,norm_estimate,nsteps"
        assert len(lines) == 5
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            0.25, 0.5, 1.0, 2.0]

    def test_wave_fixture_bounds(self):
        report, _ = run_ionorm(parse_config(
            "experiment = ionorm\nfixture = wave_cayley\nn = 4\n"
            "nsteps = 16\n"))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "wave_lower_bound" in names and "wave_upper_bound" in names

    def test_integrator_monotone(self):
        report, _ = run_ionorm(parse_config(
            "experiment = ionorm\nfixture = integrator\nnsteps = 32\n"))
        assert report.passed

    def test_wrong_experiment(self):
        with pytest.raises(ValueError):
            run_ionorm(parse_config("experiment = viscous\n"))


class TestMain:
    def write_config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_verify_writes_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, VERIFY_TEXT)
        out = tmp_path / "out"
        assert main(["verify", cfg, "--out", str(out)]) == 0
        body = (out / "report.txt").read_text(encoding="utf-8")
        assert body == capsys.readouterr().out
        assert body.startswith("command: verify\n")
        assert "wall time" not in body

    def test_reports_are_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, VERIFY_TEXT)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", cfg, "--out", str(out1)]) == 0
        assert main(["verify", cfg, "--out", str(out2)]) == 0
        assert ((out1 / "report.txt").read_bytes()
                == (out2 / "report.txt").read_bytes())

    def test_simulate_writes_csv(self, tmp_path):
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 8\nT = 0.5\ndt = 0.1\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", cfg, "--out", str(out2)]) == 0
        first = (out1 / "simulate.csv").read_bytes()
        assert first == (out2 / "simulate.csv").read_bytes()
        assert first.startswith(b"t,energy,norm_bound_ok\n")

    def test_ionorm_writes_csv(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "experiment = ionorm\nfixture = feedthrough\nnsteps = 16\n")
        out = tmp_path / "out"
        assert main(["ionorm", cfg, "--out", str(out)]) == 0
        assert (out / "ionorm.csv").exists()

    def test_ionorm_diagnostics_are_deterministic(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "experiment = ionorm\nfixture = wave_cayley\nn = 4\n"
            "nsteps = 16\n")
        diags = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["ionorm", cfg, "--out", str(out)]) == 0
            body = (out / "report.txt").read_text(encoding="utf-8")
            diags.append([line for line in body.splitlines()
                          if line.startswith("diag ")])
            assert (out / "ionorm.csv").read_text(
                encoding="utf-8").startswith("T,norm_estimate,nsteps\n")
        assert diags[0] == diags[1]
        assert [line.split(":")[0] for line in diags[0]] == [
            "diag io_map_norm T=%r" % t for t in (0.25, 0.5, 1.0, 2.0)]
        for line in diags[0]:
            fields = dict(kv.split("=") for kv in
                          line.split(": ", 1)[1].split())
            assert fields["method"] == "lanczos_bidiag"
            assert int(fields["iterations"]) >= 1
            assert float(fields["residual"]) >= 0.0

    def test_seed_override_is_echoed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, VERIFY_TEXT)
        assert main(["verify", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "5"]) == 0
        assert "rng: numpy PCG64, seed=5" in capsys.readouterr().out

    def test_failing_check_exits_one(self, tmp_path):
        cfg = self.write_config(tmp_path,
                                VERIFY_TEXT + "negative_control = true\n")
        assert main(["verify", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "experiment = verify_random\nn = 1\n")
        assert main(["verify", cfg]) == 2
        assert "n must lie in" in capsys.readouterr().err

    def test_command_experiment_mismatch_exits_two(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "experiment = viscous\nn = 8\n")
        assert main(["verify", cfg]) == 2
        assert "not valid for the verify command" in capsys.readouterr().err

    def test_simulate_ledger_makes_no_per_step_norm_calls(self, tmp_path,
                                                          monkeypatch):
        calls = []
        per_vector = Gram.weighted_vector_norm

        def counted(self, x):
            calls.append(1)
            return per_vector(self, x)

        monkeypatch.setattr(Gram, "weighted_vector_norm", counted)
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 8\nT = 1\ndt = 0.01\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == []

    def test_simulate_runs_no_values_only_svd(self, tmp_path, svd_calls):
        # the Crank-Nicolson factor is certified regular by its inverse
        cfg = self.write_config(tmp_path, "experiment = combined\nn = 16\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 0
        assert {"compute_uv": False} not in svd_calls

    @pytest.mark.parametrize("T, rc", [("1", 0), ("1.01", 2)])
    def test_simulate_step_budget(self, tmp_path, capsys, monkeypatch, T,
                                  rc):
        monkeypatch.setattr(semilab.cli, "MAX_SIMULATE_STEPS", 100)
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 4\nT = %s\ndt = 0.01\n" % T)
        out = tmp_path / "o"
        assert main(["simulate", cfg, "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc == 0:
            assert err.startswith("wall time: ")
            csv_lines = (out / "simulate.csv").read_text(
                encoding="utf-8").splitlines()
            assert len(csv_lines) == 1 + 101
        else:
            assert err == ("error: T / dt must be at most 100 steps, "
                           "got T = 1.01, dt = 0.01\n")
            assert not out.exists()

    def test_huge_simulate_refused_before_setup(self, tmp_path, capsys,
                                                monkeypatch):
        # 10^9 steps: refused up front, so the setup must never run
        def no_setup(config):
            pytest.fail("setup ran for a config over the step budget")

        monkeypatch.setattr(semilab.cli, "_simulate_setup", no_setup)
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 8\nT = 1000000\ndt = 0.001\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "T = 1000000.0, dt = 0.001" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("experiment = viscous\nk_v = constant:1e308\n",
         "accretive operator has a non-finite Hermitian part"),
        ("experiment = wave_heat\nrho = constant:1e-308\n",
         "gram matrix has a non-finite Hermitian part"),
        ("experiment = wave_heat\nrho = constant:1e-309\n",
         "gram matrix has non-finite entries"),
        ("experiment = viscous\nrho = power:-400\n",
         "rho has non-finite samples"),
        ("experiment = viscous\nk_v = linear:1e308,1e308\n",
         "k_v has non-finite samples"),
    ], ids=["huge-damping", "tiny-density", "subnormal-density",
            "power-overflow", "linear-overflow"])
    def test_overflowing_coefficient_is_refused_by_name(self, tmp_path,
                                                        capsys, text,
                                                        message):
        cfg = self.write_config(tmp_path, text + "n = 8\nT = 0.1\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_ionorm_takes_a_long_horizon(self, tmp_path):
        # ionorm does not step with dt, so the simulate budget leaves it be
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = integrator\n"
                      "nsteps = 16\nT = 1e6\n")
        assert main(["ionorm", cfg, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_coarse_viscous_sweep_passes_within_its_bias(self, tmp_path,
                                                          capsys):
        # at nsteps 16 the norms fall to 0.9984, short of 1 by more than
        # 1e-3 but by less than each one's bias norm/16: no evidence that
        # the passive node's map norm is below 1
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = viscous_cayley\n"
                      "n = 2\nnsteps = 16\nT = 1\n")
        assert main(["ionorm", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^check feedthrough_floor: measured=-\S+ "
                         r"threshold=0\.001 PASS$", out, re.M)

    @pytest.mark.parametrize("fixture, check", [
        ("wave_cayley", "wave_lower_bound"),
        ("viscous_cayley", "feedthrough_floor")])
    def test_norm_short_of_one_beyond_its_bias_fails(self, tmp_path, capsys,
                                                     monkeypatch, fixture,
                                                     check):
        # 1 - 0.99 - 0.99/128 = 2.3e-3 is beyond the 1e-3 floor
        def short(node, horizon, nsteps):
            return IoMapEstimate(horizon, nsteps, 0.99, "lanczos_bidiag",
                                 0.99 / nsteps, 4, 0.0)

        monkeypatch.setattr(semilab.cli, "io_map_norm", short)
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = %s\nn = 4\n"
                      "nsteps = 128\n" % fixture)
        assert main(["ionorm", cfg, "--out", str(tmp_path / "o")]) == 1
        shortfall = 1.0 - 0.99 - 0.99 / 128
        assert ("check %s: measured=%r threshold=0.001 FAIL\n"
                % (check, shortfall)) in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fixture", ["integrator", "viscous_cayley",
                                         "feedthrough", "wave_cayley"])
    def test_huge_horizon_is_answered(self, tmp_path, capsys, fixture):
        # the step integrals carry no power of dt and the blocks are
        # scaled by a power of two, so no fixture's map is too large here
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = %s\nn = 4\n"
                      "nsteps = 16\nT = 1e300\n" % fixture)
        rc = main(["ionorm", cfg, "--out", str(tmp_path / "o")])
        assert rc == 0 and capsys.readouterr().err.startswith("wall time: ")
        for row in (tmp_path / "o" / "ionorm.csv").read_text().split()[1:]:
            horizon, norm, nsteps = (float(v) for v in row.split(","))
            exact = {"integrator": 2.0 * horizon / np.pi,
                     "feedthrough": 0.5}.get(fixture)
            if exact is None:
                # both Cayley nodes are passive: a map norm of at most 1
                assert norm <= 1.0 + norm / nsteps
            else:
                assert norm <= exact * (1.0 + 1e-12)
                assert exact - norm <= norm / nsteps

    @pytest.mark.filterwarnings("error")
    def test_non_finite_toeplitz_blocks_are_refused_by_t(self, tmp_path,
                                                         capsys):
        # the step exponential at dt = 2.5e19/16 has lost its contraction
        # to rounding (2-norm 3.5e95), which would overflow the propagated
        # blocks; it is refused before they are formed
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = viscous_cayley\n"
                      "n = 2\nnsteps = 16\nT = 1e20\n")
        rc = main(["ionorm", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == ("error: T = 1e+20 is too long a "
                                           "horizon: step exponential "
                                           "exceeds its bound e^(mu dt)\n")
        assert not (tmp_path / "o").exists()

    def refused_viscous_sweep(self, tmp_path, capsys, horizon):
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = viscous_cayley\n"
                      "n = 8\nnsteps = 16\nT = %s\n" % horizon)
        rc = main(["ionorm", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: T = %r is too long a horizon: step exponential exceeds "
            "its bound e^(mu dt)\n" % float(horizon))
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_step_that_lost_its_contraction_is_refused_by_t(self, tmp_path,
                                                            capsys):
        # the passive node's map norm is at most 1, but its step
        # exponential at dt = T/64 has a 2-norm of 16.6: unguarded, the
        # sweep passes with norms from about 1e3 to 1e138
        self.refused_viscous_sweep(tmp_path, capsys, "2.5e17")

    @pytest.mark.filterwarnings("error")
    def test_huge_toeplitz_blocks_are_refused_by_t(self, tmp_path, capsys):
        # the step exponential at dt = T/64 has a 2-norm of 7.5e4; it is
        # refused before the blocks it propagates overflow
        self.refused_viscous_sweep(tmp_path, capsys, "1e18")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fixture, nsteps", [("integrator", 65536),
                                                 ("wave_cayley", 16)])
    def test_tiny_horizon_is_refused_as_too_short(self, tmp_path, capsys,
                                                  fixture, nsteps):
        # the sweep's first horizon T/4 = 2.5e-311 over nsteps steps is a
        # step below the smallest normal double
        cfg = self.write_config(
            tmp_path, "experiment = ionorm\nfixture = %s\nn = 4\n"
                      "nsteps = %d\nT = 1e-310\ndt = 1e-310\n"
                      % (fixture, nsteps))
        rc = main(["ionorm", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: T = 2.5e-311 is too short a horizon for nsteps = %d: "
            "the step is below the smallest normal double\n" % nsteps)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, command):
        if command == "verify":
            cfg = self.write_config(tmp_path, VERIFY_TEXT)
            out = tmp_path / "taken"
            out.write_text("not a directory\n", encoding="utf-8")
            bad = out
        else:
            cfg = self.write_config(
                tmp_path, "experiment = viscous\nn = 4\nT = 0.1\n")
            out = tmp_path / "o"
            bad = out / "simulate.csv"
            bad.mkdir(parents=True)
        assert main([command, cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: cannot write %s: " % bad)
        assert "Traceback" not in captured.err

    def test_write_error_on_a_later_block_exits_two(self, tmp_path, capsys,
                                                    monkeypatch):
        # the CSV is formatted as it is written, so the disk can fill up
        # after its first block has gone out
        class FullAfterOneBlock(object):
            def __init__(self):
                self.blocks = []

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def write(self, text):
                if self.blocks:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.blocks.append(text)

            def writelines(self, lines):
                for text in lines:
                    self.write(text)

        csv_file = FullAfterOneBlock()
        real_open = open

        def open_full_csv(path, *args, **kwargs):
            if os.path.basename(path) == "simulate.csv":
                return csv_file
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(semilab.cli, "open", open_full_csv, raising=False)
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 4\ndt = 0.5\nT = %r\n"
                      % (0.5 * 2 * _LEDGER_BLOCK))
        out = tmp_path / "o"
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: %s\n" % (
            out / "simulate.csv", os.strerror(errno.ENOSPC))
        assert [block.count("\n") for block in csv_file.blocks] == \
            [1 + _LEDGER_BLOCK]

    @pytest.mark.parametrize("failure", ["later-block", "csv-is-a-directory"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys,
                                           monkeypatch, failure):
        # report.txt, ending `overall: PASS`, must not stay beside a CSV
        # that was cut short or never written
        out = tmp_path / "o"
        if failure == "later-block":
            real_blocks = semilab.cli._csv_blocks

            def full_after_one_block(*args):
                blocks = real_blocks(*args)
                yield next(blocks)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(semilab.cli, "_csv_blocks",
                                full_after_one_block)
        else:
            (out / "simulate.csv").mkdir(parents=True)
        cfg = self.write_config(
            tmp_path, "experiment = viscous\nn = 4\ndt = 0.5\nT = %r\n"
                      % (0.5 * 2 * _LEDGER_BLOCK))
        assert main(["simulate", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: cannot write %s: " % (out / "simulate.csv"))
        # the run's own files are gone; what it did not create stays
        assert not (out / "report.txt").exists()
        assert (out / "simulate.csv").is_dir() == (
            failure == "csv-is-a-directory")
        assert out.is_dir()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt, overflow", [
        ("1e+308", "||At|| overflowed"),
        ("1e+300", "matrix exponential overflowed"),
    ], ids=["At", "squarings"])
    def test_overflowing_step_is_refused_by_dt(self, tmp_path, capsys, dt,
                                               overflow):
        # the undamped wave's one step e^{A dt} cannot be formed at such a
        # dt: At overflows, or so do its squarings
        cfg = self.write_config(
            tmp_path, "experiment = wave_heat\nn = 32\nT = %s\ndt = %s\n"
                      % (dt, dt))
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "error: dt = %s is too large a step: %s\n" % (dt, overflow)
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_states_are_refused_by_t(self, tmp_path, capsys,
                                                 monkeypatch):
        # no experiment's generator grows, so a growing one stands in
        def growing_setup(config):
            return np.eye(1), Gram(np.eye(1)), np.ones(1)

        monkeypatch.setattr(semilab.cli, "_simulate_setup", growing_setup)
        cfg = self.write_config(tmp_path,
                                "experiment = viscous\nT = 2000\ndt = 1\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "error: the states overflowed before T = 2000.0\n"
        assert not (tmp_path / "o").exists()

    def test_wall_time_covers_the_writing(self, tmp_path, capsys,
                                          monkeypatch):
        # a clock that moves only while the outputs are written: the
        # stderr line must still count that time
        clock = [0.0]
        real_write = semilab.cli._write_outputs

        def slow_write(out_dir, outputs):
            real_write(out_dir, outputs)
            clock[0] += 2.5

        monkeypatch.setattr(semilab.cli, "time",
                            types.SimpleNamespace(perf_counter=lambda: clock[0]))
        monkeypatch.setattr(semilab.cli, "_write_outputs", slow_write)
        cfg = self.write_config(tmp_path,
                                "experiment = viscous\nn = 4\nT = 0.1\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "wall time: 2.500 s\n"

    def test_simulate_memory_does_not_grow_with_the_csv(self, tmp_path):
        # 24 more blocks of steps may add the times, the energies and
        # their differences (24 B a step), not the CSV text or its rows,
        # which take about 160 B a step when held whole
        peaks = []
        for nblocks in (8, 32):
            cfg = self.write_config(
                tmp_path, "experiment = viscous\nn = 4\ndt = 0.01\nT = %r\n"
                          % (0.01 * nblocks * _LEDGER_BLOCK))
            tracemalloc.start()
            rc = main(["simulate", cfg, "--out", str(tmp_path / "o")])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert rc == 0
            csv_path = tmp_path / "o" / "simulate.csv"
            with open(csv_path, encoding="utf-8") as handle:
                assert sum(1 for _ in handle) == 2 + nblocks * _LEDGER_BLOCK
        assert peaks[1] - peaks[0] <= 40 * 24 * _LEDGER_BLOCK

    def test_no_command_exits_two(self):
        assert main([]) == 2

    @pytest.mark.parametrize("command, runner, exc", [
        ("simulate", "run_simulate", MemoryError("cannot allocate")),
        ("verify", "run_verify", OverflowError("matrix exponential overflowed")),
    ])
    def test_crash_exits_three_with_one_line(self, tmp_path, capsys,
                                             monkeypatch, command, runner, exc):
        def crash(config):
            raise exc

        monkeypatch.setattr(semilab.cli, runner, crash)
        text = (VERIFY_TEXT if command == "verify"
                else "experiment = viscous\nn = 8\n")
        cfg = self.write_config(tmp_path, text)
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "error: %s: %s\n" % (type(exc).__name__, exc)
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_console_script(self, tmp_path):
        # the module entry point the console script wraps, run as a fresh
        # process
        cfg = self.write_config(tmp_path, VERIFY_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "semilab.cli", "verify", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=fresh_process_env())
        assert proc.returncode == 0
        assert proc.stdout.endswith("overall: PASS\n")
        assert "wall time" in proc.stderr

    def test_import_loads_numpy_only(self):
        # scipy, hypothesis and pytest are test-only: importing the CLI in
        # a fresh process loads none of them
        code = ("import sys, semilab.cli\n"
                "print(sorted({name.partition('.')[0] for name in "
                "sys.modules} & {'scipy', 'hypothesis', 'pytest'}))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=fresh_process_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def _texts(*values):
    return st.sampled_from(values)


_PROFILES = _texts("constant:1", "constant:2", "linear:1,0.5", "power:1")
# valid values, with the size keys always written so every accepted
# config stays small
_FUZZ_SIZES = {
    "n": _texts("2", "3", "4"),
    "cases": _texts("1", "2", "3"),
    "max_dim": _texts("1", "2", "3"),
    "nsteps": _texts("4", "8"),
}
_FUZZ_OPTIONAL = {
    "dt": _texts("0.05", "0.1", "0.25", "0.5"),
    "T": _texts("0.5", "1", "2"),
    "seed": _texts("0", "1", "7"),
    "tol": _texts("1e-9", "1e-6"),
    "alpha_exp": _texts("0.3", "0.5", "0.7"),
    "kappa": _texts("0", "0.5", "1"),
    "delta_floor": _texts("0.05", "0.5"),
    "stepper": st.sampled_from(STEPPERS),
    "fixture": st.sampled_from(FIXTURES),
    "negative_control": _texts("true", "false"),
    "rho": _PROFILES, "young": _PROFILES, "k_v": _PROFILES,
    "k_s": _PROFILES, "s_fun": _PROFILES,
}
# (key, value) pairs a config may be spoiled with: out of range, of the
# wrong type, not finite, a mismatched experiment or an unknown key
_FUZZ_BAD = (
    ("n", "1"), ("n", "2.5"), ("n", "x"), ("cases", "0"),
    ("cases", "100001"), ("cases", "2.5"), ("max_dim", "0"),
    ("max_dim", "65"), ("max_dim", "true"), ("nsteps", "3"),
    ("nsteps", "1e9"), ("dt", "0"), ("dt", "-0.1"), ("dt", "inf"),
    ("dt", "nan"), ("dt", "0.3"), ("T", "-1"), ("T", "0.01"), ("T", "1e6"),
    ("seed", "-1"), ("seed", "1.5"), ("tol", "0"), ("tol", "x"),
    ("alpha_exp", "1"), ("kappa", "-1"), ("delta_floor", "0"),
    ("stepper", "euler"), ("fixture", "bogus"),
    ("negative_control", "maybe"), ("experiment", "schroedinger"),
    ("experiment", "viscous"), ("experiment", "verify_random"),
    ("experiment", "ionorm"), ("rho", "constant:0"), ("rho", "constant:-1"),
    ("young", "power:-1"), ("k_v", "linear:-1,0.5"), ("k_s", "cubic:3"),
    ("s_fun", "constant:x"), ("mesh", "3"),
)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_cli_contract_fuzz(data):
    # any small config, valid or spoiled in up to two keys: exit 0, 1
    # (with a FAIL line in the report) or 2 (one error line), and never
    # a traceback
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    keys = data.draw(st.fixed_dictionaries(
        dict(_FUZZ_SIZES, experiment=st.sampled_from(_COMMANDS[command])),
        optional=_FUZZ_OPTIONAL))
    keys.update(data.draw(st.lists(st.sampled_from(_FUZZ_BAD), max_size=2)))
    text = "".join("%s = %s\n" % item for item in keys.items())
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main([command, cfg, "--out", out])
        report = ""
        if rc in (0, 1):
            with open(os.path.join(out, "report.txt"),
                      encoding="utf-8") as handle:
                report = handle.read()
    err = stderr.getvalue()
    assert rc in (0, 1, 2), (text, err)
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert report == stdout.getvalue()
        assert (rc == 1) == ("FAIL" in report)
        assert report.endswith("overall: %s\n" % ("FAIL" if rc else "PASS"))

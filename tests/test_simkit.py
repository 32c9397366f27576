import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab import simkit
from semilab.cli import _simulate_setup, parse_config
from semilab.feedback import internal_loop
from semilab.numkernel import Gram, expm, op_norm, svd_solve
from semilab.pdelab import Grid1D, PdeCoefficients, wave_ext, wave_viscous_ext
from semilab.simkit import (
    cn_step,
    feedthrough_deviation,
    io_map_norm,
    simulate_semigroup,
)
from semilab.sysnode import SystemNode, external_cayley

from conftest import random_dissipative


def scalar_node(a, b, c, d):
    return SystemNode([[a]], [[b]], [[c]], [[d]])


def viscous_cayley(n):
    """The Cayley node of the viscously damped wave with unit coefficients."""
    grid = Grid1D(n)
    ext, _, _ = wave_viscous_ext(grid, PdeCoefficients(grid, k_v=1.0))
    return external_cayley(ext)


def dense_toeplitz_norm(blocks):
    """Oracle: operator norm of the assembled block Toeplitz matrix (SVD)."""
    nsteps, p, m = blocks.shape
    full = np.zeros((nsteps * p, nsteps * m), dtype=complex)
    for k in range(nsteps):
        for i in range(k, nsteps):
            full[i * p:(i + 1) * p, (i - k) * m:(i - k + 1) * m] = blocks[k]
    return op_norm(full)


def direct_blocks(node, T, nsteps):
    """Oracle: Toeplitz block k >= 1 from its own exponential e^{A (k-1) dt}."""
    dt = T / nsteps
    _, theta_dt, psi_dt2 = simkit._quadrature_matrices(node.a, dt)
    blocks = [node.d + dt * (node.c @ (psi_dt2 @ node.b))]
    ctheta = dt * (node.c @ theta_dt)
    phi_dt = theta_dt @ node.b
    for k in range(1, nsteps):
        blocks.append(ctheta @ expm(node.a, (k - 1) * dt) @ phi_dt)
    return np.array(blocks)


def augmented_quadrature(a, b, dt):
    """Oracle: (E, Theta B, Theta, Psi B) from the (3n + 2m)-square exponential.

    The exponential of [[A, B, I, 0, 0], [0, 0, 0, I_m, 0],
    [0, 0, 0, 0, I_n], [0, ...], [0, ...]] dt, by scipy.
    """
    n, m = a.shape[0], b.shape[1]
    w = m + n
    aug = np.zeros((n + 2 * w, n + 2 * w), dtype=np.result_type(a, b))
    aug[:n, :n] = a
    aug[:n, n:n + m] = b
    aug[:n, n + m:n + w] = np.eye(n)
    aug[n:n + w, n + w:] = np.eye(w)
    f = scipy.linalg.expm(aug * dt)
    return f[:n, :n], f[:n, n:n + m], f[:n, n + m:n + w], f[:n, n + w:n + w + m]


class TestCnStep:
    def test_zero_generator(self):
        assert (cn_step(np.zeros((3, 3)), 0.7) == np.eye(3)).all()

    def test_scalar_value(self):
        # (1 + dt/2 a)/(1 - dt/2 a) with a = -1, dt = 2 lands on zero
        step = cn_step([[-1.0]], 2.0)
        assert abs(step[0, 0]) <= 1e-15

    def test_skew_gives_unitary(self):
        ext = wave_ext(Grid1D(8))
        step = cn_step(ext.matrix, 0.3)
        assert op_norm(step.conj().T @ step - np.eye(15)) <= 1e-12

    def test_contraction_for_any_dt(self, rng):
        a = random_dissipative(rng, 5)
        for dt in (1e-3, 1.0, 1e3):
            assert op_norm(cn_step(a, dt)) <= 1.0 + 1e-12

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            cn_step(np.zeros((2, 2)), 0.0)

    @pytest.mark.parametrize("dt, message", [
        (float("nan"), "dt must be finite, got nan"),
        (float("inf"), "dt must be finite, got inf"),
        (-float("inf"), "dt must be positive, got -inf"),
        (-1.0, "dt must be positive, got -1")])
    def test_names_a_bad_dt(self, dt, message):
        # refused by dt before I - dt/2 A is formed, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                cn_step(-np.eye(2), dt)

    @pytest.mark.parametrize("a", [[[1e300]], [[1e300 + 1e300j]]])
    def test_overflowing_step_raises_only_the_named_error(self, a):
        # dt/2 A overflows: the named refusal, and no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^I - \(dt/2\) A has "
                               "non-finite entries"):
                cn_step(a, 1e10)

    def test_rejects_non_square_generator(self):
        with pytest.raises(ValueError,
                           match=r"^A must be square, got shape \(2, 3\)$"):
            cn_step(np.zeros((2, 3)), 0.1)

    def test_rejects_generator_without_rows(self):
        # refused by name before the factor I - dt/2 A is formed
        with pytest.raises(ValueError,
                           match=r"^A has no rows, got shape \(0, 0\)$"):
            cn_step(np.zeros((0, 0)), 0.1)

    def test_dissipative_generator_needs_no_svd(self, rng, svd_calls):
        # a banded F certifies its own inverse; a dense one takes
        # svd_solve, whose one values-only SVD decides the rule
        banded, _, order = simulate_generator("viscous", 32)
        dense = random_dissipative(rng, 6)
        for dt in (1e-3, 0.5, 1e3):
            cn_step(banded, dt, order)
        assert svd_calls == []
        for dt in (1e-3, 0.5, 1e3):
            cn_step(dense, dt)
        assert svd_calls == [{"compute_uv": False}] * 3

    def test_inconclusive_bound_falls_back_to_one_svd(self, svd_calls):
        # cond(F) = 1e11 lies between COND_LIMIT / 100 and COND_LIMIT; a
        # 2-row F takes svd_solve, with its one SVD and its bits
        a = np.eye(2) - np.diag([1.0, 1e-11])
        step = cn_step(a, 2.0)
        assert svd_calls == [{"compute_uv": False}]
        want, _ = svd_solve(np.eye(2) - a, np.eye(2) + a, "I - (dt/2) A")
        assert step.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order", [[0, 0, 2], [0, 1], [0, 1, 3],
                                       [0.0, 1.0, 2.0], [[0, 1, 2]]],
                             ids=["repeated", "short", "out_of_range",
                                  "float", "matrix"])
    def test_refuses_an_order_that_is_no_permutation(self, order):
        with pytest.raises(ValueError,
                           match=r"^order must permute A's 3 unknowns$"):
            cn_step(-np.eye(3), 0.1, order)

    def test_solver_failure_the_rule_does_not_explain_propagates(
            self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(np.linalg.LinAlgError):
            cn_step(-np.eye(2), 0.1)


def factor_with_singular_values(rng, sv, dtype):
    """U diag(sv) V* with random orthogonal (or unitary) U and V."""
    n = len(sv)

    def orthonormal():
        m = rng.standard_normal((n, n))
        if dtype == complex:
            m = m + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(m)[0]

    return (orthonormal() * np.asarray(sv)) @ orthonormal().conj().T


def cn_step_against_svd_solve(a, svd_calls):
    """cn_step(a, 2) next to the SVD rule's solve of I -+ A: the raise
    decision and message must match and the steps be bit-identical.
    Returns the message (None when regular) and the SVDs cn_step ran."""
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    try:
        want = svd_solve(ident - a, ident + a, "I - (dt/2) A")[0]
    except ValueError as exc:
        want = exc
    del svd_calls[:]
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as got:
            cn_step(a, 2.0)
        assert str(got.value) == str(want)
        return str(want), len(svd_calls)
    got = cn_step(a, 2.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return None, len(svd_calls)


@pytest.mark.parametrize("dtype", [float, complex])
class TestCnStepSingularityOracle:
    """A factor of at most 16 rows takes svd_solve: its bits, its
    refusal and its one values-only SVD."""

    @pytest.mark.parametrize("cond, singular, svds", [
        (1e0, False, 1), (1e8, False, 1), (1e10, False, 1),
        (1e11, False, 1), (1e12 * (1 - 1e-3), False, 1),
        (1e12 * (1 + 1e-3), True, 1), (1e14, True, 1)])
    def test_condition_ladder(self, rng, svd_calls, dtype, cond, singular,
                              svds):
        # with dt = 2 the factor I - dt/2 A is I - A = F
        f = factor_with_singular_values(rng, [1.0, 0.5, 0.25, 1.0 / cond],
                                        dtype)
        message, ran = cn_step_against_svd_solve(np.eye(4) - f, svd_calls)
        assert (message is not None) == singular and ran == svds
        if singular:
            assert message.startswith(
                "I - (dt/2) A is singular to working precision (cond=")

    @pytest.mark.parametrize("f", [np.diag([1.0, 0.0, 2.0]),
                                   np.ones((3, 3))])
    def test_exactly_singular(self, svd_calls, dtype, f):
        # the LU meets an exact zero pivot; the SVD decides and names cond
        message, ran = cn_step_against_svd_solve(
            (np.eye(3) - f).astype(dtype), svd_calls)
        assert message is not None and ran == 1

    def test_scale_that_hides_the_identity(self, svd_calls, dtype):
        # F = diag(2^100, 2^60) has cond 2^40 > COND_LIMIT, but I is lost
        # in I -+ A: the LU step is exactly -I, so only F's singular values
        # can refuse it
        a = np.diag([1.0 - 2.0 ** 100, 1.0 - 2.0 ** 60]).astype(dtype)
        message, ran = cn_step_against_svd_solve(a, svd_calls)
        assert message == ("I - (dt/2) A is singular to working precision "
                           "(cond=1.09951e+12)") and ran == 1

    @pytest.mark.parametrize("cond, singular", [(1e11, False),
                                                (1e14, True)])
    def test_stack_with_an_uncertified_member(self, rng, svd_calls, dtype,
                                              cond, singular):
        # members 0 and 2 are certified, member 1 sends the stack to the SVD
        f = np.stack([factor_with_singular_values(rng, sv, dtype) for sv in
                      ([1.0, 0.5, 0.25], [1.0, 0.5, 1.0 / cond],
                       [2.0, 1.0, 0.5])])
        message, ran = cn_step_against_svd_solve(np.eye(3) - f, svd_calls)
        assert ran == 1
        if singular:
            assert message.startswith("stack member 1: I - (dt/2) A is "
                                      "singular to working precision")
        else:
            assert message is None


def simulate_generator(experiment, n):
    """The generator, dt and grid order of a simulate run
    (cli._simulate_setup)."""
    config = parse_config("experiment = %s\nn = %d\n" % (experiment, n))
    a, _, _, order = _simulate_setup(config)
    return a, config.dt, order


def dense_cn_step(a, dt):
    """Oracle: the dense LU step, the solve of cn_step's svd_solve fallback."""
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    return np.linalg.solve(ident - (dt / 2.0) * a, ident + (dt / 2.0) * a)


def path_laplacian(n):
    """The Neumann path Laplacian: banded, symmetric and singular (L 1 = 0),
    with largest eigenvalue about 4."""
    f = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    f[0, 0] = f[-1, -1] = 1.0
    return f


def complex_banded_generator(rng, n):
    """A dissipative complex tridiagonal generator, renumbered at random,
    and the order that makes it banded again."""
    off = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    a = np.diag(off, 1) - np.diag(off.conj(), -1)
    a -= np.diag(rng.uniform(0.0, 2.0, n) - 1j * rng.standard_normal(n))
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)], np.argsort(perm)


# dims 191 (the waves) and 160 (degenerate)
CN_EXPERIMENTS = [("viscous", 96), ("structural", 96), ("combined", 96),
                  ("degenerate", 160)]


class TestBandedCnStep:
    """cn_step of a banded generator takes numkernel._banded_inverse and
    agrees with the dense LU step; every other input keeps the bits of
    svd_solve, which are the dense LU step's."""

    @pytest.mark.parametrize("case", [c[0] for c in CN_EXPERIMENTS]
                             + ["complex", "wide_dt", "two_blocks"])
    def test_matches_the_dense_lu_step(self, rng, svd_calls, banded_results,
                                       case):
        """Every CN experiment's generator, and the smallest one of two
        blocks (dim 17), takes the banded step (the recorded call) with no
        SVD, within N eps ||S||_F of the dense one."""
        if case == "complex":
            (a, order), dt = complex_banded_generator(rng, 180), 0.1
        elif case == "wide_dt":
            a, _, order = simulate_generator("combined", 96)
            dt = 10.0
        elif case == "two_blocks":
            a, dt, order = simulate_generator("degenerate", 17)
        else:
            a, dt, order = simulate_generator(case, dict(CN_EXPERIMENTS)[case])
        step = cn_step(a, dt, order)
        assert banded_results == [True] and svd_calls == []
        want = dense_cn_step(a, dt)
        assert step.dtype == want.dtype
        gap = np.linalg.norm(step - want)
        assert gap <= len(a) * np.finfo(float).eps * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["stack", "dense", "small", "star",
                                      "renumbered"])
    def test_other_inputs_keep_the_dense_bits(self, rng, banded_results,
                                              case):
        if case == "stack":
            a = np.stack([complex_banded_generator(rng, 180)[0]] * 2)
        elif case == "renumbered":
            # given no order, the elimination keeps the random numbering,
            # in which F is not banded
            a = complex_banded_generator(rng, 180)[0]
        elif case == "dense":
            m = rng.standard_normal((180, 180))
            a = m - m.T - np.eye(180)
        elif case == "star":
            # F = f, whose row and column 0 reach unknowns 12 blocks off
            # the diagonal: the elimination reads only the band, so the
            # probe refuses its X
            f = 4.0 * np.eye(200)
            f[0, 1:] = f[1:, 0] = 0.01
            a = (np.eye(200) - f) / 0.005
        else:
            # one block of 16 rows
            a = simulate_generator("degenerate", 16)[0]
        step = cn_step(a, 0.01)
        assert step.tobytes() == dense_cn_step(a, 0.01).tobytes()
        assert banded_results == [False]

    @pytest.mark.parametrize("case", ["laplacian", "zero"])
    def test_singular_banded_factor_gets_the_dense_refusal(
            self, svd_calls, banded_results, case):
        # F = I - A is the path Laplacian, singular (F 1 = 0) and banded,
        # or F = 0, with no nonzero to order
        n = 200
        f = path_laplacian(n)
        if case == "zero":
            f[:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message, _ = cn_step_against_svd_solve(np.eye(n) - f, svd_calls)
        assert message.startswith("I - (dt/2) A is singular to working "
                                  "precision (cond=")
        assert banded_results == [False]

    @pytest.mark.parametrize("shift, singular", [(1e-11, False),
                                                 (1e-14, True)])
    def test_uncertified_banded_factor_takes_svd_solve(
            self, svd_calls, banded_results, shift, singular):
        # F = L + shift I has cond about 4 / shift: the probe passes, but
        # ||F||_F ||X||_F >= cond(F) > COND_LIMIT / 100 leaves the rule to
        # svd_solve, which keeps F at 4e11 and refuses it at 4e14
        n = 200
        a = np.eye(n) - (path_laplacian(n) + shift * np.eye(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message, ran = cn_step_against_svd_solve(a, svd_calls)
        assert (message is not None) == singular and ran == 1
        if singular:
            assert message.startswith("I - (dt/2) A is singular to working "
                                      "precision (cond=")
        assert banded_results == [False]

    @pytest.mark.parametrize("pivot, banded", [(1e-14, False), (1.0, True)])
    def test_cross_block_pivoting_fails_the_probe(
            self, svd_calls, banded_results, pivot, banded):
        # rows 0-15 are the first block; its Schur block has the lone
        # pivot F[15, 15], and F[15:17, 15:17] = [[pivot, 1], [1, 1]] is
        # regular, so F is too, but a pivot of 1e-14 grows the next Schur
        # block by 1e14: only a row swap across the blocks avoids that
        n = 200
        f = np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
        f[14, 15] = f[15, 14] = 0.0
        f[15, 16] = f[16, 15] = 1.0
        f[15, 15] = pivot
        a = np.eye(n) - f
        if banded:
            step = cn_step(a, 2.0)
            want = dense_cn_step(a, 2.0)
            assert np.linalg.norm(step - want) <= \
                n * np.finfo(float).eps * np.linalg.norm(want)
        else:
            cn_step_against_svd_solve(a, svd_calls)
        assert banded_results[-1] == banded


class TestSimulateSemigroup:
    def test_zero_generator_constant_energy(self):
        tr = simulate_semigroup(np.zeros((2, 2)), x0=[1.0, 2.0], T=1.0,
                                dt=0.25)
        assert (tr.energy == tr.energy[0]).all()
        assert len(tr.times) == 5
        assert np.allclose(tr.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_undamped_wave_conserves_energy(self):
        ext = wave_ext(Grid1D(16))
        x0 = np.concatenate([np.sin(np.pi * Grid1D(16).interior_nodes),
                             np.zeros(16)])
        tr = simulate_semigroup(ext.matrix, x0=x0, T=1.0, dt=0.05)
        drift = np.abs(tr.energy - tr.energy[0]).max()
        assert drift <= 1e-10 * tr.energy[0]

    def test_viscous_wave_decays_strictly(self):
        grid = Grid1D(16)
        coeffs = PdeCoefficients(grid, k_v=1.0)
        ext, gram, s_v = wave_viscous_ext(grid, coeffs)
        a = internal_loop(ext, s_v).a_s
        x0 = np.concatenate([np.sin(np.pi * grid.interior_nodes),
                             np.sin(2 * np.pi * grid.midpoints)])
        tr = simulate_semigroup(a, x0=x0, T=2.0, dt=0.1,
                                stepper="crank_nicolson")
        assert (np.diff(tr.energy) < 0.0).all()

    def test_weighted_energy_column(self, rng):
        a = random_dissipative(rng, 4)
        w = np.diag([1.0, 2.0, 3.0, 4.0])
        x0 = rng.standard_normal(4)
        tr = simulate_semigroup(w @ a, gram=Gram(np.linalg.inv(w)), x0=x0,
                                T=1.0, dt=0.5)
        expected = float(np.real(x0 @ np.linalg.inv(w) @ x0))
        assert tr.energy[0] == pytest.approx(expected, rel=1e-12)
        assert (np.diff(tr.energy) <= 1e-12 * tr.energy[0]).all()

    @staticmethod
    def viscous_fixture(n=8):
        grid = Grid1D(n)
        ext, gram, s_v = wave_viscous_ext(grid, PdeCoefficients(grid, k_v=1.0))
        x0 = np.concatenate([np.sin(np.pi * grid.interior_nodes),
                             np.sin(2 * np.pi * grid.midpoints)])
        return internal_loop(ext, s_v).a_s @ gram.matrix, gram, x0

    @pytest.mark.parametrize("stepper", ["expm", "crank_nicolson"])
    def test_step_dtype_follows_the_inputs(self, rng, step_out_dtypes,
                                           stepper):
        a, gram, x0 = self.viscous_fixture()
        assert a.dtype == np.float64
        complex_a = random_dissipative(rng, a.shape[0])
        # a zero imaginary part is not undone: complex input steps complex
        zero_imag = a.astype(np.complex128)
        int_start = np.ones(x0.shape, dtype=int)
        for gen, start, dtype in ((a, x0, np.float64),
                                  (a, int_start, np.float64),
                                  (a, x0 * (1.0 + 1.0j), np.complex128),
                                  (zero_imag, x0, np.complex128),
                                  (complex_a, x0, np.complex128)):
            del step_out_dtypes[:]
            simulate_semigroup(gen, gram, start, T=0.5, dt=0.1,
                               stepper=stepper)
            assert step_out_dtypes == [dtype] * 5
            # 1,100 steps at dim 15 run in chunks, across a ledger block
            del step_out_dtypes[:]
            simulate_semigroup(gen, gram, start, T=110.0, dt=0.1,
                               stepper=stepper)
            assert 0 < len(step_out_dtypes) < 1100
            assert set(step_out_dtypes) == {np.dtype(dtype)}

    @pytest.mark.parametrize("weighted", [False, True])
    def test_real_energy_matches_complex_path(self, step_out_dtypes,
                                              weighted):
        # x0 and e^{i pi/4} x0 have the same trajectory energies; the
        # second start runs the complex128 path
        a, gram, x0 = self.viscous_fixture()
        gram = gram if weighted else None
        real = simulate_semigroup(a, gram, x0, T=2.0, dt=0.05,
                                  stepper="crank_nicolson")
        cplx = simulate_semigroup(a, gram, x0 * np.exp(0.25j * np.pi),
                                  T=2.0, dt=0.05, stepper="crank_nicolson")
        assert step_out_dtypes == [np.float64] * 40 + [np.complex128] * 40
        e0 = real.energy[0]
        assert np.abs(real.energy - cplx.energy).max() <= 1e-13 * e0

    # a last block one row short of full, full, of one row; and eight
    # carries between blocks
    @pytest.mark.parametrize("nsamples", [4 * simkit._LEDGER_BLOCK - 1,
                                          4 * simkit._LEDGER_BLOCK,
                                          4 * simkit._LEDGER_BLOCK + 1,
                                          8 * simkit._LEDGER_BLOCK + 1])
    def test_ledger_blocks_match_per_step_norms(self, nsamples):
        a, gram, x0 = self.viscous_fixture(4)
        dt = 1e-3
        tr = simulate_semigroup(a, gram, x0, T=(nsamples - 1) * dt, dt=dt,
                                stepper="crank_nicolson")
        assert len(tr.times) == nsamples
        # oracle: one step and one weighted norm at a time, x_{k+1} = step x_k
        step = cn_step(a, dt)
        x = x0
        oracle = []
        for _ in range(nsamples):
            oracle.append(gram.weighted_vector_norm(x) ** 2)
            x = step @ x
        assert (np.abs(tr.energy - oracle) <= 1e-13 * np.array(oracle)).all()

    @staticmethod
    def ledger_case(rng, kind, weight):
        """A dim-7 generator, start and Gram: a real or complex step, and
        no Gram, a diagonal one or a dense one."""
        if kind == "real":
            a, _, x0 = TestSimulateSemigroup.viscous_fixture(4)
        else:
            a = random_dissipative(rng, 7)
            x0 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        if weight == "none":
            return a, None, x0
        if weight == "diagonal":
            return a, Gram(np.diag(rng.uniform(0.5, 2.0, 7))), x0
        m = rng.standard_normal((7, 7))
        return a, Gram(m @ m.T + 7.0 * np.eye(7)), x0

    @staticmethod
    def one_step_energies(a, gram, x0, dt, stepper, nsamples):
        """Oracle: x_{k+1} = step @ x_k one product at a time, each ledger
        block of states reduced to energies by the package's own call."""
        step = expm(a, dt) if stepper == "expm" else cn_step(a, dt)
        states = np.empty((nsamples, len(x0)), np.result_type(step, x0))
        states[0] = x0
        step = step.astype(states.dtype)
        for k in range(1, nsamples):
            states[k] = step @ states[k - 1]
        energy = []
        for start in range(0, nsamples, simkit._LEDGER_BLOCK):
            rows = states[start:start + simkit._LEDGER_BLOCK]
            energy.append(np.einsum("ij,ij->i", rows.conj(), rows).real
                          if gram is None else gram.squared_norms(rows))
        return np.concatenate(energy)

    @pytest.mark.parametrize("weight", ["none", "diagonal", "dense"])
    @pytest.mark.parametrize("stepper", ["expm", "crank_nicolson"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_chunked_ledger_matches_the_one_step_loop(self, rng, kind,
                                                      stepper, weight):
        a, gram, x0 = self.ledger_case(rng, kind, weight)
        dt = 2.0 ** -10
        block = simkit._LEDGER_BLOCK
        oracle = self.one_step_energies(a, gram, x0, dt, stepper,
                                        8 * block + 1)
        # the edges of the first and the eighth ledger block, counts that
        # no chunk divides, and the shortest run that chunks at dim 7
        for nsamples in (block - 1, block, block + 1, 8 * block - 1,
                         8 * block, 8 * block + 1, block + 9, 3 * block - 5,
                         16 * 7 + 1):
            tr = simulate_semigroup(a, gram, x0, T=(nsamples - 1) * dt,
                                    dt=dt, stepper=stepper)
            expected = oracle[:nsamples]
            assert (np.abs(tr.energy - expected) <= 1e-13 * expected).all()

    @pytest.mark.parametrize("weight", ["none", "diagonal", "dense"])
    @pytest.mark.parametrize("stepper", ["expm", "crank_nicolson"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_short_runs_step_one_product_at_a_time(
            self, rng, step_out_dtypes, kind, stepper, weight):
        a, gram, x0 = self.ledger_case(rng, kind, weight)
        dt = 2.0 ** -10
        # below 16 dim steps: the one-step loop, bit for bit
        for nsamples in (2, 17, 16 * 7):
            del step_out_dtypes[:]
            tr = simulate_semigroup(a, gram, x0, T=(nsamples - 1) * dt,
                                    dt=dt, stepper=stepper)
            assert len(step_out_dtypes) == nsamples - 1
            assert (tr.energy == self.one_step_energies(
                a, gram, x0, dt, stepper, nsamples)).all()
        # from 16 dim steps on, fewer products than steps
        del step_out_dtypes[:]
        simulate_semigroup(a, gram, x0, T=16 * 7 * dt, dt=dt,
                           stepper=stepper)
        assert len(step_out_dtypes) < 16 * 7

    @pytest.mark.parametrize("weighted", [False, True])
    def test_short_run_carries_one_product_at_a_time(self, step_out_dtypes,
                                                     weighted):
        # dim 127 steps one product at a time below 2,032 steps, across
        # a ledger block and its carry
        a, gram, x0 = self.viscous_fixture(64)
        gram = gram if weighted else None
        dt = 2.0 ** -10
        tr = simulate_semigroup(a, gram, x0, T=2030 * dt, dt=dt,
                                stepper="crank_nicolson")
        assert len(step_out_dtypes) == 2030
        assert (tr.energy == self.one_step_energies(
            a, gram, x0, dt, "crank_nicolson", 2031)).all()

    def test_growing_power_steps_one_product_at_a_time(self, step_out_dtypes):
        # S^16 = diag(e^800, e^-16) overflows, while the start stays on
        # the decaying mode: no overflow, no warning, the one-step bits
        a = np.diag([50.0, -1.0])
        x0 = np.array([0.0, 1.0])
        tr = simulate_semigroup(a, x0=x0, T=64.0, dt=1.0)
        assert len(step_out_dtypes) == 64
        assert (tr.energy == self.one_step_energies(
            a, None, x0, 1.0, "expm", 65)).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", [[[1.0]], np.diag([1.0, -1.0]), [[50.0]]],
                             ids=["one", "saddle", "fifty"])
    def test_overflowing_states_are_refused_by_t(self, a):
        # e^{A dt} is finite, the states are not by t = 710: the named
        # refusal, with no numpy warning first
        with pytest.raises(OverflowError, match=r"^the states overflowed "
                           r"before T = 2000\.0$"):
            simulate_semigroup(a, x0=np.ones(len(a)), T=2000.0, dt=1.0)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_is_refused_by_dt(self):
        with pytest.raises(OverflowError, match=r"^dt = 1e\+300 is too large "
                           "a step: matrix exponential overflowed$"):
            simulate_semigroup([[1.0]], x0=[1.0], T=1e300, dt=1e300)

    def test_memory_does_not_grow_with_the_states(self):
        # 4 more blocks of steps at dim 64 may add the times and the
        # energies (16 B a step), not the states (512 B a step)
        a = -0.01 * np.eye(64)
        x0 = np.ones(64)
        dt = 1e-3
        peaks = []
        for nblocks in (4, 8):
            tracemalloc.start()
            simulate_semigroup(a, x0=x0, T=nblocks * simkit._LEDGER_BLOCK * dt,
                               dt=dt)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        added_steps = 4 * simkit._LEDGER_BLOCK
        assert peaks[1] - peaks[0] <= 24 * added_steps

    @pytest.mark.parametrize("x0", [[np.nan, 1.0], [np.inf, 1.0]],
                             ids=["nan", "inf"])
    def test_non_finite_start_refused(self, x0):
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate_semigroup(-np.eye(2), x0=x0, T=1.0, dt=0.5)

    def test_stack_of_generators_refused(self):
        # the primitives take stacks; one trajectory needs one generator
        with pytest.raises(ValueError, match=r"^A must be one matrix, got "
                           r"shape \(2, 2, 2\)$"):
            simulate_semigroup(-np.stack([np.eye(2)] * 2), x0=[1.0, 0.0])

    def test_generator_without_rows_refused(self):
        with pytest.raises(ValueError, match=r"^A has no rows, got shape "
                           r"\(0, 0\)$"):
            simulate_semigroup(np.zeros((0, 0)), x0=[], T=0.2, dt=0.1)

    @pytest.mark.parametrize("T, dt, name", [
        (np.inf, 1.0, "T"), (np.nan, 1.0, "T"),
        (1.0, np.inf, "dt"), (1.0, np.nan, "dt")])
    def test_non_finite_horizon_or_step_refused(self, T, dt, name):
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            simulate_semigroup(-np.eye(2), x0=[1.0, 0.0], T=T, dt=dt)

    def test_dt_must_divide(self):
        with pytest.raises(ValueError):
            simulate_semigroup(np.zeros((2, 2)), x0=[1.0, 0.0], T=1.0, dt=0.3)

    def test_dt_must_divide_a_tiny_horizon(self):
        # three steps stop at t = 9e-11, 10% short of T
        with pytest.raises(ValueError, match=r"^dt = 3e-11 does not divide "
                           r"T = 1e-10$"):
            simulate_semigroup(-np.eye(2), x0=[1.0, 0.0], T=1e-10, dt=3e-11)

    def test_tiny_horizon_ends_at_t(self):
        tr = simulate_semigroup(-np.eye(2), x0=[1.0, 0.0], T=1e-10,
                                dt=2.5e-11)
        assert len(tr.times) == 5
        assert tr.times[-1] == 1e-10

    def test_unknown_stepper(self):
        with pytest.raises(ValueError):
            simulate_semigroup(np.zeros((2, 2)), x0=[1.0, 0.0], dt=0.5,
                               stepper="euler")

    def test_x0_required(self):
        with pytest.raises(ValueError):
            simulate_semigroup(np.zeros((2, 2)))


class TestQuadratureMatrices:
    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 0.3, 2.0, 30.0])
    @pytest.mark.parametrize("kind", ["real", "complex", "singular",
                                      "wave_cayley"])
    def test_agrees_with_the_augmented_oracle(self, rng, kind, dt):
        # Tolerance: 1e-12 of each block's bound for a dissipative A
        # (||e^{As}|| <= 1): 1 for E, dt for Theta, dt ||B|| for Theta B
        # and dt^2 ||B|| for Psi B, with ||B|| the largest entry; the worst
        # seen over 200 random nodes at dt from 1e-4 to 30 was 1e-14
        if kind == "wave_cayley":
            node = external_cayley(wave_ext(Grid1D(6)))
            a, b = node.a, node.b
        else:
            a = random_dissipative(rng, 5)
            b = rng.standard_normal((5, 2))
            if kind == "singular":
                # a real skew matrix of odd dimension: lossless, with a kernel
                a = a.real - a.real.T
                assert np.linalg.matrix_rank(a) < 5
            elif kind == "real":
                a = a.real
            else:
                b = b + 1j * rng.standard_normal((5, 2))
        e_step, theta_dt, psi_dt2 = simkit._quadrature_matrices(a, dt)
        theta, psi = dt * theta_dt, dt * dt * psi_dt2
        oracle = augmented_quadrature(a, b, dt)
        scale = np.abs(b).max()
        for value, want, bound in zip(
                (e_step, theta @ b, theta, psi @ b), oracle,
                (1.0, dt * scale, dt, dt * dt * scale)):
            assert value.shape == want.shape
            assert np.abs(value - want).max() <= 1e-12 * bound


class TestToeplitzBlocks:
    @pytest.mark.parametrize("nsteps", [4, 5, 64, 65, 1024])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_propagation_agrees_with_direct_exponentials(self, rng, nsteps,
                                                         cplx):
        # Tolerance: 1e-12 (k + 1) times the largest block.  Block k carries
        # the roundings of k - 1 single steps, each passed on by every later
        # step, so it may differ from its own exponential by about k eps of
        # the largest block.
        a = random_dissipative(rng, 3)
        b, c = rng.standard_normal((3, 2)), rng.standard_normal((4, 3))
        if not cplx:
            # the real part of a dissipative matrix is dissipative
            a = a.real
        node = SystemNode(a, b, c, rng.standard_normal((4, 2)))
        blocks = simkit._toeplitz_blocks(node, 2.0, nsteps)
        oracle = direct_blocks(node, 2.0, nsteps)
        assert blocks.dtype == oracle.dtype
        assert np.iscomplexobj(blocks) == cplx
        scale = np.abs(oracle).max()
        k = np.arange(nsteps)[:, None, None]
        assert (np.abs(blocks - oracle) <= 1e-12 * (k + 1) * scale).all()

    @pytest.mark.parametrize("nsteps", [4, 5, 64, 65, 1024])
    def test_integrator_blocks_are_bit_identical(self, nsteps):
        # E = 1: every power of it, and every e^{0 t}, is exactly 1
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        blocks = simkit._toeplitz_blocks(node, 1.5, nsteps)
        assert (blocks == direct_blocks(node, 1.5, nsteps)).all()

    @pytest.mark.filterwarnings("error")
    def test_answers_a_huge_map(self):
        # an integrator with B = 1e155: blocks of 9.8e151, whose Lanczos
        # vector norms, squared without the power-of-two scaling, overflow
        est = io_map_norm(scalar_node(0.0, 1e155, 1.0, 0.0), 1.0, 1024)
        exact = 2.0 / np.pi * 1e155
        assert est.norm_estimate <= exact * (1.0 + 1e-12)
        assert exact - est.norm_estimate <= est.bias

    @pytest.mark.filterwarnings("error")
    def test_scaling_b_by_a_power_of_two_scales_the_norm_exactly(self, rng):
        # a power of two scales every block, every Lanczos vector norm and
        # the Ritz value without rounding; B enters no exponential
        a = random_dissipative(rng, 3)
        b, d = rng.standard_normal((3, 2)), rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 3))
        one = io_map_norm(SystemNode(a, b, c, d), 1.0, 16)
        for k in (-900, -60, 60, 900):
            scaled = io_map_norm(
                SystemNode(a, np.ldexp(b, k), c, np.ldexp(d, k)), 1.0, 16)
            assert scaled.norm_estimate == np.ldexp(one.norm_estimate, k)
            assert scaled.residual == np.ldexp(one.residual, k)
            assert scaled.iterations == one.iterations

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_norm_that_overflows_by_name(self):
        # blocks of 6.25e307 are finite, but the map norm, about
        # (2/pi) 1e309, is not
        node = scalar_node(0.0, 1e300, 1.0, 0.0)
        assert np.isfinite(simkit._toeplitz_blocks(node, 1e9, 16)).all()
        with pytest.raises(OverflowError,
                           match="^input/output-map norm overflowed$"):
            io_map_norm(node, 1e9, 16)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_step_that_lost_its_bound(self):
        # the viscous wave's exponential at dt = 2.5e17/16 has a 2-norm of
        # 7.5e4 against e^{0 dt} = 1: rounding in the squarings
        node = viscous_cayley(8)
        with pytest.raises(OverflowError, match=(
                r"^step exponential exceeds its bound e\^\(mu dt\)$")):
            io_map_norm(node, 2.5e17, 16)

    @pytest.mark.filterwarnings("error")
    def test_refuses_a_step_below_the_smallest_normal(self):
        tiny = float(np.finfo(float).tiny)
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        est = io_map_norm(node, 16 * tiny, 16)
        assert abs(est.norm_estimate - 2.0 * 16 * tiny / np.pi) <= est.bias
        with pytest.raises(ValueError, match=(
                "^T = %r is too short a horizon for nsteps = 16: the step "
                "is below the smallest normal double$" % (8 * tiny))):
            io_map_norm(node, 8 * tiny, 16)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda node, t: io_map_norm(node, t, 65536),
        lambda node, t: feedthrough_deviation(node, (t,), 65536),
    ], ids=["io_map_norm", "feedthrough_deviation"])
    def test_refuses_a_step_whose_reciprocal_overflows(self, call):
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=(
                "^T = 1e-310 is too short a horizon for nsteps = 65536: "
                "the step is below the smallest normal double$")):
            call(node, 1e-310)

    @pytest.mark.parametrize("nsteps", [4.7, 16.0, np.float64(16.0), True,
                                        "16"],
                             ids=["fraction", "float", "float64", "bool",
                                  "str"])
    @pytest.mark.parametrize("call", [
        lambda node, n: io_map_norm(node, 1.0, n),
        lambda node, n: feedthrough_deviation(node, (1.0,), n),
    ], ids=["io_map_norm", "feedthrough_deviation"])
    def test_refuses_a_non_integral_nsteps_by_name(self, call, nsteps):
        node = scalar_node(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=(
                "^nsteps must be an integer, got %s$"
                % re.escape(repr(nsteps)))):
            call(node, nsteps)

    @pytest.mark.parametrize("nsteps", [np.int64(16), np.int32(16),
                                        np.uint8(16)])
    def test_takes_numpy_integers(self, nsteps):
        node = scalar_node(-1.0, 1.0, 1.0, 0.0)
        est = io_map_norm(node, 1.0, nsteps)
        assert est == io_map_norm(node, 1.0, 16)
        assert type(est.nsteps) is int


class TestIoMapNorm:
    def test_pure_feedthrough(self):
        node = scalar_node(-1.0, 0.0, 0.0, 0.5)
        est = io_map_norm(node, 1.0, 64)
        assert est.method == "lanczos_bidiag"
        assert est.norm_estimate == pytest.approx(0.5, abs=1e-12)
        assert est.bias == pytest.approx(0.5 / 64)

    @pytest.mark.parametrize("nsteps", [64, 1024])
    def test_pure_feedthrough_breaks_down_at_step_one(self, nsteps):
        # T = 0.5 I, so T^H u_1 - alpha_1 v_1 vanishes: beta_1 breaks down
        # and the first Ritz value is already the exact norm
        est = io_map_norm(scalar_node(-1.0, 0.0, 0.0, 0.5), 1.0, nsteps)
        assert est.iterations == 1
        assert abs(est.norm_estimate - 0.5) <= 1e-14
        assert est.residual <= 1e-14

    def test_zero_operator(self):
        assert simkit._toeplitz_norm(np.zeros((16, 2, 3))) == (0.0, 1, 0.0)
        est = io_map_norm(scalar_node(-1.0, 0.0, 0.0, 0.0), 1.0, 32)
        assert est.norm_estimate == 0.0 and est.residual == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("inputs, outputs", [(0, 2), (2, 0)],
                             ids=["no-inputs", "no-outputs"])
    def test_node_without_inputs_or_outputs_has_the_zero_map(
            self, inputs, outputs):
        a = -np.eye(3)
        node = SystemNode(a, np.ones((3, inputs)), np.ones((outputs, 3)),
                          np.zeros((outputs, inputs)))
        est = io_map_norm(node, 1.0, 16)
        assert (est.norm_estimate, est.bias) == (0.0, 0.0)
        assert (est.iterations, est.residual) == (0, 0.0)
        # T and nsteps are still checked first
        with pytest.raises(ValueError, match="^nsteps must be at least 4"):
            io_map_norm(node, 1.0, 3)
        with pytest.raises(ValueError, match="^T must be positive"):
            io_map_norm(node, 0.0, 16)

    def test_node_without_state_has_the_map_d(self):
        # blocks D, 0, ..., 0: the feedthrough fixture's estimate, and no
        # margin of the empty generator
        node = SystemNode(np.zeros((0, 0)), np.zeros((0, 1)),
                          np.zeros((1, 0)), 0.5 * np.eye(1))
        est = io_map_norm(node, 1.0, 8)
        assert est == io_map_norm(scalar_node(-1.0, 0.0, 0.0, 0.5), 1.0, 8)
        d = np.arange(6.0).reshape(3, 2) + 1j
        node = SystemNode(np.zeros((0, 0)), np.zeros((0, 2)),
                          np.zeros((3, 0)), d)
        est = io_map_norm(node, 2.0, 16)
        assert abs(est.norm_estimate - op_norm(d)) <= 1e-14 * op_norm(d)
        assert feedthrough_deviation(node, [1.0, 2.0], 16) == [0.0, 0.0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("horizon", [10.0 ** e
                                         for e in range(-300, 301, 20)])
    def test_integrator_norm_at_any_scale(self, horizon):
        est = io_map_norm(scalar_node(0.0, 1.0, 1.0, 0.0), horizon, 64)
        exact = 2.0 * horizon / np.pi
        assert est.norm_estimate <= exact * (1.0 + 1e-12)
        assert exact - est.norm_estimate <= est.bias

    def test_integrator_norm(self):
        # the integration operator on L^2(0,T) has norm 2T/pi
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        est = io_map_norm(node, 1.0, 256)
        true = 2.0 / np.pi
        assert est.norm_estimate <= true + 1e-12
        assert abs(est.norm_estimate - true) <= 0.02 * true
        assert est.residual <= simkit._GKL_RTOL * est.norm_estimate

    @given(st.sampled_from([(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=4, max_value=96),
           st.booleans(),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_dense_oracle(self, shape, nstates, nsteps, cplx,
                                      seed):
        # Tolerance: the Ritz value never exceeds the dense norm (up to
        # 1e-12 relative rounding) and falls short of it by at most 1e-4
        # relative.  Its residual (at most 1e-5 of it) bounds the distance
        # to some singular value, not always the largest of a tight top
        # cluster, hence the factor 10; the worst seen over 5000 random
        # nodes was 7e-6.
        p, m = shape
        rng = np.random.default_rng(seed)

        def draw(*dims):
            x = rng.standard_normal(dims)
            return x + 1j * rng.standard_normal(dims) if cplx else x

        a = draw(nstates, nstates) - rng.uniform(0.0, 3.0) * np.eye(nstates)
        node = SystemNode(a, draw(nstates, m), draw(p, nstates),
                          rng.uniform(0.0, 1.0) * draw(p, m))
        blocks = simkit._toeplitz_blocks(node, rng.uniform(0.1, 3.0), nsteps)
        assert blocks.imag.any() == cplx
        theta, iterations, residual = simkit._toeplitz_norm(blocks)
        dense = dense_toeplitz_norm(blocks)
        assert theta <= dense * (1.0 + 1e-12)
        assert dense - theta <= 10.0 * simkit._GKL_RTOL * dense
        assert residual <= simkit._GKL_RTOL * theta
        assert 1 <= iterations <= nsteps * min(p, m)

    def test_forced_cap_reports_residual(self, monkeypatch):
        monkeypatch.setattr(simkit, "_GKL_MAX_STEPS", 6)
        blocks = simkit._toeplitz_blocks(
            external_cayley(wave_ext(Grid1D(6))), 1.0, 64)
        theta, iterations, residual = simkit._toeplitz_norm(blocks)
        assert iterations == 6
        assert residual > simkit._GKL_RTOL * theta
        assert theta <= dense_toeplitz_norm(blocks) * (1.0 + 1e-12)

    def test_ritz_checks_follow_the_geometric_schedule(self, monkeypatch):
        blocks = simkit._toeplitz_blocks(
            external_cayley(wave_ext(Grid1D(6))), 1.0, 64)
        checked = []
        ritz = simkit._ritz

        def recording_ritz(alphas, betas):
            checked.append(len(alphas))
            return ritz(alphas, betas)

        monkeypatch.setattr(simkit, "_ritz", recording_ritz)
        theta, iterations, residual = simkit._toeplitz_norm(blocks)
        schedule = [4, 8, 12, 16, 20, 24, 28, 32, 36, 44, 52, 60, 68, 80, 92]
        assert iterations > 32
        assert checked == schedule[:schedule.index(iterations) + 1]
        assert residual <= simkit._GKL_RTOL * theta
        assert theta <= dense_toeplitz_norm(blocks) * (1.0 + 1e-12)
        # the checks are a subset of the every-4 ones, and a Ritz value
        # never falls as the bidiagonal grows
        monkeypatch.setattr(simkit, "_next_check", lambda k: k + 4)
        every_four = simkit._toeplitz_norm(blocks)
        assert every_four[1] <= iterations
        assert theta >= every_four[0] - 1e-15

    @pytest.mark.parametrize("k", [1, 2, 36, 200])
    def test_ritz_matches_the_full_svd(self, rng, k):
        """theta from the top eigenvalue of B B^T is the SVD's within
        32 eps theta, and the residual within the eps theta^2 / gap that
        either top singular vector is accurate to."""
        eps = np.finfo(float).eps
        for _ in range(5):
            alphas, betas = rng.uniform(0.0, 2.0, (2, k))
            bidiag = np.diag(alphas) + np.diag(betas[:-1], 1)
            left, sing, _ = np.linalg.svd(bidiag)
            theta, residual = simkit._ritz(alphas, betas)
            gap = sing[0] - (sing[1] if k > 1 else 0.0)
            assert abs(theta - sing[0]) <= 32 * eps * sing[0]
            assert abs(residual - betas[-1] * abs(left[-1, 0])) <= \
                4 * eps * sing[0] ** 2 / gap

    def test_monotone_in_horizon(self):
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        short = io_map_norm(node, 0.5, 256).norm_estimate
        long = io_map_norm(node, 1.0, 256).norm_estimate
        assert short <= long + 1e-12

    def test_wave_cayley_near_unit_norm(self):
        node = external_cayley(wave_ext(Grid1D(6)))
        est = io_map_norm(node, 0.5, 64)
        assert est.norm_estimate >= 1.0 - 1e-6
        assert est.norm_estimate <= 1.0 + 1e-6

    def test_nsteps_floor(self):
        node = scalar_node(-1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            io_map_norm(node, 1.0, 3)

    def test_rejects_non_node(self):
        with pytest.raises(TypeError):
            io_map_norm(np.eye(2), 1.0, 16)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, -1.0, 0.0])
    @pytest.mark.parametrize("call", [
        lambda node, t: io_map_norm(node, t, 16),
        lambda node, t: feedthrough_deviation(node, (1.0, t), 16),
    ], ids=["io_map_norm", "feedthrough_deviation"])
    def test_refuses_a_bad_horizon_by_name(self, call, horizon):
        node = scalar_node(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="^T must be positive and "
                                             "finite, got %r$" % horizon):
            call(node, horizon)


class TestFeedthroughDeviation:
    def test_pure_feedthrough_has_none(self):
        node = scalar_node(-1.0, 0.0, 0.0, 0.5)
        devs = feedthrough_deviation(node, (0.25, 0.5, 1.0), 32)
        assert max(devs) <= 1e-14

    @pytest.mark.parametrize("cplx", [False, True])
    def test_does_not_read_d(self, rng, cplx):
        # the map less D is the map of the node with D = 0, so a large D
        # leaves no rounding behind
        if cplx:
            a = random_dissipative(rng, 3)
            b, c = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
            d = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        else:
            a, b, c, d = [[0.0]], [[1.0]], [[1.0]], [[0.0]]
        t_list = (0.1, 0.3, 1.0)
        devs = feedthrough_deviation(SystemNode(a, b, c, d), t_list, 48)
        shifted = SystemNode(a, b, c, np.asarray(d) + 1e8 * np.eye(len(d)))
        assert feedthrough_deviation(shifted, t_list, 48) == devs

    def test_integrator_grows_linearly(self):
        node = scalar_node(0.0, 1.0, 1.0, 0.0)
        t_list = (0.25, 0.5)
        devs = feedthrough_deviation(node, t_list, 128)
        for t, dev in zip(t_list, devs):
            assert abs(dev - 2.0 * t / np.pi) <= 0.02 * t

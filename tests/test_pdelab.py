import re

import numpy as np
import pytest

from semilab.feedback import internal_loop
from semilab.numkernel import (
    Gram,
    contraction_certificate,
    dissipativity_margin,
    op_norm,
)
from semilab.pdelab import (
    Grid1D,
    PdeCoefficients,
    beta_midpoints,
    degenerate_as1,
    degenerate_ext,
    degenerate_loop_path,
    energy_gram,
    grad_div_pair,
    sine_start,
    wave_combined_ext,
    wave_ext,
    wave_structural_ext,
    wave_viscous_ext,
)
from semilab.simkit import simulate_semigroup


class TestGrid:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Grid1D(1)

    @pytest.mark.parametrize("n_cells", [2.7, "8", True],
                             ids=["float", "str", "bool"])
    def test_refuses_a_non_integral_cell_count(self, n_cells):
        # a cell count is never truncated or parsed
        with pytest.raises(ValueError, match=(
                "^n_cells must be an integer, got %s$"
                % re.escape(repr(n_cells)))):
            Grid1D(n_cells)
        with pytest.raises(ValueError, match="^n_cells must be an integer"):
            PdeCoefficients(n_cells)

    def test_takes_a_numpy_integer(self):
        assert Grid1D(np.int64(8)).n_cells == 8

    def test_points(self):
        g = Grid1D(4)
        assert g.h == 0.25
        assert np.allclose(g.interior_nodes, [0.25, 0.5, 0.75])
        assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])


class TestCoefficients:
    def test_scalar_broadcast(self):
        c = PdeCoefficients(Grid1D(8), rho=2.0)
        assert c.rho.shape == (7,) and (c.rho == 2.0).all()

    def test_callable_sampling(self):
        g = Grid1D(8)
        c = PdeCoefficients(g, young=lambda x: 1.0 + x)
        assert np.allclose(c.young, 1.0 + g.midpoints)

    def test_array_length_checked(self):
        with pytest.raises(ValueError):
            PdeCoefficients(Grid1D(8), rho=np.ones(5))

    def test_positivity_floor_recorded(self):
        c = PdeCoefficients(Grid1D(8), rho=0.5, young=2.0)
        assert c.positivity_floor == pytest.approx(0.5)

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            PdeCoefficients(Grid1D(8), rho=0.0)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            PdeCoefficients(Grid1D(8), k_v=-1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            PdeCoefficients(Grid1D(8), alpha_exp=1.0)

    def test_negative_kappa(self):
        with pytest.raises(ValueError):
            PdeCoefficients(Grid1D(8), kappa=-0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key, profile", [
        ("rho", lambda xi: xi ** -400.0),
        ("k_v", lambda xi: 1e308 + 1e308 * xi),
    ], ids=["power", "linear"])
    def test_overflowing_callable_is_refused_by_name(self, key, profile):
        with pytest.raises(ValueError,
                           match="^%s has non-finite samples$" % key):
            PdeCoefficients(Grid1D(8), **{key: profile})

    @pytest.mark.filterwarnings("error")
    def test_overflowing_energy_weight_is_refused_by_name(self):
        for rho in (1e-309, 1e-320):
            coeffs = PdeCoefficients(Grid1D(8), rho=rho)
            with pytest.raises(ValueError, match="^%s$" % re.escape(
                    "rho is too small: 1/rho overflows (smallest sample "
                    "%r)" % rho)):
                energy_gram(coeffs.grid, coeffs)

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError, match="^kappa must be finite"):
            PdeCoefficients(Grid1D(8), kappa=kappa)


class TestGradDivPair:
    def test_exact_negative_adjoint(self):
        g, dv = grad_div_pair(Grid1D(16))
        assert (dv == -g.T).all()

    def test_gradient_of_linear_function(self):
        grid = Grid1D(8)
        g, _ = grad_div_pair(grid)
        # xi has zero boundary values, so interior rows see slope 1
        vals = g @ grid.interior_nodes.astype(complex)
        assert np.allclose(vals[1:-1], 1.0)

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_degenerate_difference_extends_the_gradient(self, n):
        # the degenerate family's difference is the wave's gradient with
        # the node xi = 1 appended: the upper-right block of A11 without
        # its last column is G exactly
        grid = Grid1D(n)
        a = degenerate_ext(grid, PdeCoefficients(grid, kappa=0.7)).a
        assert np.array_equal(a[:n, n:-1], grad_div_pair(grid)[0])

    def test_principal_eigenvalue_and_order(self):
        # discrete -div grad eigenvalue (4/h^2) sin^2(pi h/2) -> pi^2, order 2
        errors = []
        for n in (8, 16, 32, 64):
            grid = Grid1D(n)
            g, dv = grad_div_pair(grid)
            lam = np.linalg.eigvalsh(-(dv @ g)).min()
            predicted = (4.0 / grid.h ** 2) * np.sin(np.pi * grid.h / 2) ** 2
            assert lam == pytest.approx(predicted, rel=1e-10)
            errors.append(abs(lam - np.pi ** 2))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
        assert all(abs(o - 2.0) <= 0.1 for o in orders)


def simulate_case(experiment):
    """(A_S, Gram H, start) of a simulate experiment, on 10 cells with
    non-constant coefficients."""
    grid = Grid1D(10)
    coeffs = PdeCoefficients(grid, rho=lambda x: 1.0 + x,
                             young=lambda x: 2.0 - x, k_v=lambda x: 1.0 + x,
                             k_s=lambda x: 0.5 + x, s_fun=lambda x: 1.0 + x,
                             kappa=1.0)
    if experiment == "degenerate":
        # the run steps A_S itself, which is h^{-1} A_S H for H = h I
        return (degenerate_as1(grid, coeffs), Gram(grid.h * np.eye(10)),
                sine_start(grid, degenerate=True))
    builder = {"viscous": wave_viscous_ext, "structural": wave_structural_ext,
               "combined": wave_combined_ext}[experiment]
    ext, gram, s_op = builder(grid, coeffs, require_uniform=True)
    return internal_loop(ext, s_op).a_s, gram, sine_start(grid)


@pytest.mark.parametrize("experiment",
                         ["viscous", "structural", "combined", "degenerate"])
def test_simulate_generator_dissipative_in_energy_norm(experiment):
    a_s, gram, x0 = simulate_case(experiment)
    # G = A_S H is H-dissipative iff A_S is dissipative:
    # Re <H G x, x> = Re <A_S y, y> with y = H x
    assert dissipativity_margin(a_s) <= 1e-10
    energy = simulate_semigroup(a_s @ gram.matrix, gram, x0, T=0.5, dt=0.01,
                                stepper="crank_nicolson").energy
    assert (np.diff(energy) <= 1e-12 * energy[0]).all()


class TestWaveFamilies:
    def test_wave_ext_skew(self):
        ext = wave_ext(Grid1D(12))
        assert not (ext.matrix + ext.matrix.T).any()
        assert dissipativity_margin(ext.matrix) <= 1e-10

    def test_viscous_loop_closed_form(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, k_v=lambda x: 1.0 + x)
        ext, gram, s_v = wave_viscous_ext(grid, coeffs)
        g, dv = grad_div_pair(grid)
        loop = internal_loop(ext, s_v)
        ref = np.block([[-np.diag(coeffs.k_v), dv],
                        [g, np.zeros((10, 10))]])
        assert np.allclose(loop.a_s, ref)

    def test_viscous_uniform_requirement(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, k_v=0.0)
        wave_viscous_ext(grid, coeffs)
        with pytest.raises(ValueError):
            wave_viscous_ext(grid, coeffs, require_uniform=True)

    def test_structural_loop_closed_form(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, k_s=lambda x: 0.5 + x)
        ext, gram, s_s = wave_structural_ext(grid, coeffs)
        g, dv = grad_div_pair(grid)
        loop = internal_loop(ext, s_s)
        ref = np.block([[dv @ np.diag(coeffs.k_s) @ g, dv],
                        [g, np.zeros((10, 10))]])
        assert np.allclose(loop.a_s, ref)

    def test_combined_loop_closed_form(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, k_v=2.0, k_s=0.5)
        ext, gram, s_vs = wave_combined_ext(grid, coeffs)
        g, dv = grad_div_pair(grid)
        loop = internal_loop(ext, s_vs)
        ref = np.block(
            [[dv @ np.diag(coeffs.k_s) @ g - np.diag(coeffs.k_v), dv],
             [g, np.zeros((10, 10))]])
        assert np.allclose(loop.a_s, ref)
        assert not (ext.matrix + ext.matrix.T).any()

    def test_combined_rejects_vanishing_damping(self):
        # the error names the coefficient that vanishes
        grid = Grid1D(10)
        with pytest.raises(ValueError, match="^k_s must be uniformly positive"):
            wave_combined_ext(grid, PdeCoefficients(grid, k_v=1.0, k_s=0.0))
        with pytest.raises(ValueError, match="^k_v must be uniformly positive"):
            wave_combined_ext(grid, PdeCoefficients(grid, k_v=0.0, k_s=1.0))

    @pytest.mark.parametrize("builder", [wave_viscous_ext, wave_structural_ext,
                                         wave_combined_ext])
    def test_damping_channels_are_exactly_skew(self, builder):
        grid = Grid1D(7)
        ext, _, _ = builder(grid, PdeCoefficients(grid, k_v=1.0, k_s=0.5))
        assert np.array_equal(ext.c, -ext.b.T)
        assert not (ext.matrix + ext.matrix.T).any()

    def test_energy_gram_blocks(self):
        grid = Grid1D(6)
        coeffs = PdeCoefficients(grid, rho=2.0, young=3.0)
        gram = energy_gram(grid, coeffs)
        diag = np.diag(gram.matrix).real
        assert np.allclose(diag[:5], 0.5)
        assert np.allclose(diag[5:], 3.0)


class TestDegenerate:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_loop_path_matches_direct(self, alpha, kappa):
        grid = Grid1D(12)
        for s_fun in (1.0, lambda x: 1.0 + x):
            coeffs = PdeCoefficients(grid, alpha_exp=alpha, kappa=kappa,
                                     s_fun=s_fun)
            direct = degenerate_as1(grid, coeffs)
            looped = degenerate_loop_path(grid, coeffs)
            assert op_norm(direct - looped) <= 1e-9 * (1 + op_norm(direct))

    def test_boundary_dissipation_exact(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, kappa=2.0)
        ext = degenerate_ext(grid, coeffs)
        herm = (ext.matrix + ext.matrix.conj().T) / 2.0
        expected = np.zeros_like(herm)
        expected[2 * 10 - 1, 2 * 10 - 1] = -coeffs.kappa / grid.h
        assert (herm == expected).all()
        assert dissipativity_margin(ext.matrix) <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_subnormal_s_gives_zero_diffusivity(self, kappa):
        # 1/s overflows to inf, and d = 1/(1/s + beta^2) takes its limit 0
        grid = Grid1D(8)
        coeffs = PdeCoefficients(grid, kappa=kappa, s_fun=1e-320)
        assert not degenerate_as1(grid, coeffs).any()

    def test_operators_generate_contractions(self):
        grid = Grid1D(12)
        coeffs = PdeCoefficients(grid, alpha_exp=0.5, kappa=1.0,
                                 s_fun=lambda x: 1.0 + x)
        a_s1 = degenerate_as1(grid, coeffs)
        assert np.allclose(a_s1, a_s1.conj().T)
        assert contraction_certificate(a_s1).passed

    def test_diffusivity_identity(self):
        # S (I + beta^2 S)^{-1} = (S^{-1} + beta^2)^{-1} entrywise in the
        # assembled operator
        grid = Grid1D(12)
        s = 1.0 + grid.midpoints
        beta = beta_midpoints(grid, 0.5)
        g, dv = grad_div_pair(grid)
        lhs = dv @ np.diag(s) @ np.linalg.inv(
            np.eye(12) + np.diag(beta ** 2 * s)) @ g
        rhs = dv @ np.diag(1.0 / (1.0 / s + beta ** 2)) @ g
        assert op_norm(lhs - rhs) <= 1e-10 * (1 + op_norm(rhs))


class TestRealBlocks:
    def test_every_builder_returns_float64(self):
        # every PDE operator is real, so no builder may promote to complex
        grid = Grid1D(6)
        coeffs = PdeCoefficients(grid, k_v=1.0, k_s=0.5, kappa=0.5)
        arrays = list(grad_div_pair(grid))
        arrays.append(energy_gram(grid, coeffs).matrix)
        for ext in (wave_ext(grid), degenerate_ext(grid, coeffs)):
            arrays += [ext.a, ext.b, ext.c, ext.d, ext.matrix]
        for builder in (wave_viscous_ext, wave_structural_ext,
                        wave_combined_ext):
            ext, gram, s_op = builder(grid, coeffs)
            arrays += [ext.a, ext.b, ext.c, ext.d, gram.matrix,
                       s_op.matrix, internal_loop(ext, s_op).a_s]
        arrays += [degenerate_as1(grid, coeffs),
                   degenerate_loop_path(grid, coeffs)]
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)

import numpy as np
import pytest

from semilab.cayley import AccretiveOperator
from semilab.feedback import internal_loop
from semilab.numkernel import contraction_certificate, dissipativity_margin, op_norm
from semilab.pdelab import (
    Grid1D,
    PdeCoefficients,
    beta_midpoints,
    degenerate_as1,
    degenerate_ext,
    degenerate_loop_path,
    energy_gram,
    grad_div_pair,
    neumann_heat_ext,
    wave_combined_ext,
    wave_ext,
    wave_structural_ext,
    wave_viscous_ext,
)
from semilab import sysnode
from semilab.sysnode import external_cayley, passivity_check


class TestGrid:
    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            Grid1D(1)

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


class TestWaveFamilies:
    def test_wave_ext_skew(self):
        ext = wave_ext(Grid1D(12))
        assert ext.skew and ext.dissipative

    def test_viscous_loop_closed_form(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, k_v=lambda x: 1.0 + x)
        ext, gram, s_v = wave_viscous_ext(grid, coeffs)
        g, dv = grad_div_pair(grid)
        loop = internal_loop(ext, s_v)
        ref = np.block([[-np.diag(coeffs.k_v), dv],
                        [g, np.zeros((10, 10))]])
        assert np.allclose(loop.a_s, ref)

    def test_viscous_generator_dissipative_in_energy_norm(self):
        grid = Grid1D(10)
        coeffs = PdeCoefficients(grid, rho=lambda x: 1.0 + x, young=2.0,
                                 k_v=1.0)
        ext, gram, s_v = wave_viscous_ext(grid, coeffs)
        generator = internal_loop(ext, s_v).a_s @ gram.matrix
        assert dissipativity_margin(generator, gram) <= 1e-10

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
        assert ext.skew

    def test_combined_rejects_vanishing_damping(self):
        # the error names the coefficient that vanishes
        grid = Grid1D(10)
        with pytest.raises(ValueError, match="^k_s must be uniformly positive"):
            wave_combined_ext(grid, PdeCoefficients(grid, k_v=1.0, k_s=0.0))
        with pytest.raises(ValueError, match="^k_v must be uniformly positive"):
            wave_combined_ext(grid, PdeCoefficients(grid, k_v=0.0, k_s=1.0))

    @pytest.mark.parametrize("builder", [wave_viscous_ext, wave_structural_ext,
                                         wave_combined_ext])
    def test_damping_channels_are_exactly_skew(self, builder, monkeypatch):
        grid = Grid1D(7)
        ext, _, _ = builder(grid, PdeCoefficients(grid, k_v=1.0, k_s=0.5))
        assert np.array_equal(ext.c, -ext.b.T)
        # the exact branch of the skew test runs no 2-norm
        monkeypatch.setattr(sysnode, "op_norm", None)
        assert ext.skew
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
        assert ext.dissipative

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


class TestNeumannHeat:
    def test_plain_loop(self):
        grid = Grid1D(12)
        coeffs = PdeCoefficients(grid, alpha_exp=0.5,
                                 s_fun=lambda x: 2.0 + x)
        ext = neumann_heat_ext(grid, coeffs)
        loop = internal_loop(ext, np.diag(coeffs.s_fun.astype(complex)))
        g, dv = grad_div_pair(grid)
        beta = beta_midpoints(grid, 0.5)
        ref = dv @ np.diag(1.0 / (1.0 / coeffs.s_fun + beta ** 2)) @ g
        assert op_norm(loop.a_s - ref) <= 1e-10 * (1 + op_norm(ref))

    def test_beta_zero_reduces_to_wave_blocks(self):
        grid = Grid1D(9)
        coeffs = PdeCoefficients(grid)
        ext = neumann_heat_ext(grid, coeffs, beta=0.0)
        ref = wave_ext(grid)
        assert (ext.matrix == ref.matrix).all()

    def test_cayley_node_is_passive(self):
        grid = Grid1D(9)
        ext = neumann_heat_ext(grid, PdeCoefficients(grid))
        node = external_cayley(ext)
        assert passivity_check(node) <= 1e-9


class TestRealBlocks:
    def test_every_builder_returns_float64(self):
        # every PDE operator is real, so no builder may promote to complex
        grid = Grid1D(6)
        coeffs = PdeCoefficients(grid, k_v=1.0, k_s=0.5, kappa=0.5)
        arrays = list(grad_div_pair(grid))
        arrays.append(energy_gram(grid, coeffs).matrix)
        for ext in (wave_ext(grid), degenerate_ext(grid, coeffs),
                    neumann_heat_ext(grid, coeffs)):
            arrays += [ext.a, ext.b, ext.c, ext.d, ext.matrix]
        for builder in (wave_viscous_ext, wave_structural_ext,
                        wave_combined_ext):
            ext, gram, s_op = builder(grid, coeffs)
            arrays += [ext.a, ext.b, ext.c, ext.d, gram.matrix,
                       s_op.matrix, internal_loop(ext, s_op).a_s]
        arrays += [degenerate_as1(grid, coeffs),
                   degenerate_loop_path(grid, coeffs)]
        assert [a.dtype for a in arrays] == [np.float64] * len(arrays)

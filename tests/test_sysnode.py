import numpy as np
import pytest

from semilab.pdelab import Grid1D, wave_ext
from semilab.sysnode import (
    ExtendedOperator,
    SystemNode,
    external_cayley,
    node_apply,
    passivity_check,
)

from conftest import random_dissipative_ext


def wave_toy():
    """2-D skew fixture ceil(0 & 1 \\ -1 & 0) split as 1+1 blocks."""
    return ExtendedOperator(np.zeros((1, 1)), np.array([[1.0]]),
                            np.array([[-1.0]]), np.zeros((1, 1)))


class TestExtendedOperator:
    def test_block_shapes_validated(self):
        with pytest.raises(ValueError):
            ExtendedOperator(np.zeros((2, 2)), np.zeros((3, 1)),
                             np.zeros((1, 2)), np.zeros((1, 1)))

    def test_matrix_assembly(self):
        ext = wave_toy()
        assert np.allclose(ext.matrix, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_skew_flag(self):
        assert wave_toy().skew
        assert not ExtendedOperator(np.array([[-1.0]]), np.zeros((1, 1)),
                                    np.zeros((1, 1)), np.zeros((1, 1))).skew

    def test_skew_flag_within_roundoff(self):
        near = ExtendedOperator(np.zeros((1, 1)), np.array([[1.0 + 1e-14]]),
                                np.array([[-1.0]]), np.zeros((1, 1)))
        assert near.skew
        off = ExtendedOperator(np.zeros((1, 1)), np.array([[1.0 + 1e-6]]),
                               np.array([[-1.0]]), np.zeros((1, 1)))
        assert not off.skew

    def test_exactly_skew_needs_no_norm(self, svd_calls):
        assert wave_ext(Grid1D(8)).skew
        assert svd_calls == []

    def test_dissipative_flag(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        assert ext.dissipative and ext.margin <= 1e-10

    def test_apply_matches_blocks(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z, f = ext.apply(x, e)
        assert np.allclose(z, ext.a11 @ x + ext.a12 @ e)
        assert np.allclose(f, ext.a21 @ x + ext.a22 @ e)


class TestSystemNode:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            SystemNode(np.zeros((2, 2)), np.zeros((3, 1)),
                       np.zeros((1, 2)), np.zeros((1, 1)))

    def test_node_apply(self, rng):
        node = external_cayley(random_dissipative_ext(rng, 3, 2))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z, y = node_apply(node, x, u)
        assert np.allclose(z, node.a @ x + node.b @ u)
        assert np.allclose(y, node.c @ x + node.d @ u)


class TestExternalCayley:
    def test_zero_a22_fast_path(self):
        node = external_cayley(wave_toy())
        assert node.a[0, 0] == pytest.approx(-1.0)
        assert node.b[0, 0] == pytest.approx(np.sqrt(2.0))
        assert node.c[0, 0] == pytest.approx(-np.sqrt(2.0))
        assert node.d[0, 0] == pytest.approx(1.0)

    def test_scalar_channel_value(self):
        # a22 = -i alone: D = (1 + a22)/(1 - a22) = -i
        zero = np.zeros((1, 1), dtype=complex)
        ext = ExtendedOperator(zero, zero, zero, np.array([[-1j]]))
        node = external_cayley(ext)
        assert abs(node.d[0, 0] + 1j) <= 1e-14

    def test_rejects_singular_channel_factor(self):
        # a22 = 1 makes I - a22 singular: not maximal dissipative data
        zero = np.zeros((1, 1), dtype=complex)
        ext = ExtendedOperator(zero, zero, zero, np.array([[1.0 + 0j]]))
        with pytest.raises(ValueError):
            external_cayley(ext)

    def test_direct_relation_on_random_points(self, rng):
        # feeding the transformed input (e - f)/sqrt(2) through the node
        # must reproduce (z, (e + f)/sqrt(2)) of the extended operator
        for _ in range(20):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            ext = random_dissipative_ext(rng, n1, n2)
            node = external_cayley(ext)
            x = rng.standard_normal(n1) + 1j * rng.standard_normal(n1)
            e = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
            z, f = ext.apply(x, e)
            u = (e - f) / np.sqrt(2.0)
            z2, y = node_apply(node, x, u)
            assert np.allclose(z2, z, atol=1e-9)
            assert np.allclose(y, (e + f) / np.sqrt(2.0), atol=1e-9)

    def test_passivity_of_transformed_dissipative(self, rng):
        for _ in range(20):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            node = external_cayley(random_dissipative_ext(rng, n1, n2))
            assert passivity_check(node) <= 1e-9
            assert node.is_passive()

    def test_nonzero_a22_matches_block_formula(self, rng):
        ext = random_dissipative_ext(rng, 4, 3)
        node = external_cayley(ext)
        w = np.eye(3) - ext.a22
        winv = np.linalg.inv(w)
        assert np.allclose(node.a, ext.a11 + ext.a12 @ winv @ ext.a21)
        assert np.allclose(node.b, np.sqrt(2.0) * ext.a12 @ winv)
        assert np.allclose(node.c, np.sqrt(2.0) * winv @ ext.a21)
        assert np.allclose(node.d, (np.eye(3) + ext.a22) @ winv)


class TestPassivityCheck:
    def test_accretive_block_fails(self):
        one = np.array([[1.0 + 0j]])
        zero = np.zeros((1, 1), dtype=complex)
        node = external_cayley(ExtendedOperator(one, zero, zero, zero))
        assert passivity_check(node) == pytest.approx(2.0)
        assert not node.is_passive()

    def test_lossless_feedthrough(self):
        zero = np.zeros((1, 1), dtype=complex)
        node = SystemNode(zero, zero, zero, np.array([[1.0 + 0j]]))
        assert abs(passivity_check(node)) <= 1e-12

    def test_expanding_feedthrough_fails(self):
        zero = np.zeros((1, 1), dtype=complex)
        node = SystemNode(zero, zero, zero, np.array([[2.0 + 0j]]))
        assert passivity_check(node) == pytest.approx(3.0)

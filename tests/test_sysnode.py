import numpy as np
import pytest

from semilab.numkernel import dissipativity_margin
from semilab.sysnode import (
    ExtendedOperator,
    SystemNode,
    external_cayley,
    node_apply,
    passivity_check,
)

from conftest import random_dissipative_ext


# one matrix and a stack whose member 1 has A + A* = inf
OVERFLOWING = pytest.mark.parametrize("a, prefix", [
    (np.array([[1e308]]), ""),
    (np.stack([np.eye(1), [[1e308]]]), "stack member 1: "),
], ids=["one", "stack"])


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

    def test_dissipative_flag(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        assert dissipativity_margin(ext.matrix) <= 1e-10

    def test_apply_matches_blocks(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z, f = ext.apply(x, e)
        assert np.allclose(z, ext.a @ x + ext.b @ e)
        assert np.allclose(f, ext.c @ x + ext.d @ e)


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


class TestOneBlockCarrier:
    # state dimension 2, input and output dimension 1; each misfit is
    # found at its own block
    FITTING = ((2, 2), (2, 1), (1, 2), (1, 1))
    MISFITS = ((2, 3), (3, 1), (1, 3), (1, 2))

    def test_extended_operator_is_a_system_node(self):
        ext = wave_toy()
        assert isinstance(ext, SystemNode)
        assert SystemNode.apply is node_apply
        assert ExtendedOperator.apply is node_apply
        assert (ext.nstates, ext.ninputs, ext.noutputs) == (1, 1, 1)

    @pytest.mark.parametrize("cls, names", [
        (SystemNode, ("A", "B", "C", "D")),
        (ExtendedOperator, ("A11", "A12", "A21", "A22")),
    ], ids=["node", "extended"])
    @pytest.mark.parametrize("index", range(4))
    def test_misfit_names_its_block(self, cls, names, index):
        shapes = list(self.FITTING)
        shapes[index] = self.MISFITS[index]
        with pytest.raises(ValueError, match=r"^%s must be \(.*\), got shape "
                           % names[index]):
            cls(*(np.zeros(shape) for shape in shapes))

    def test_stack_axes_must_agree(self):
        # every block carries the stack axes of the first one
        with pytest.raises(ValueError, match=r"^A12 must be \(2, 2, 1\), "
                           r"got shape \(3, 2, 1\)$"):
            ExtendedOperator(np.zeros((2, 2, 2)), np.zeros((3, 2, 1)),
                             np.zeros((2, 1, 2)), np.zeros((2, 1, 1)))
        with pytest.raises(ValueError, match=r"^D must be \(2, 1, 1\), "
                           r"got shape \(1, 1\)$"):
            SystemNode(np.zeros((2, 2, 2)), np.zeros((2, 2, 1)),
                       np.zeros((2, 1, 2)), np.zeros((1, 1)))

    def test_extended_loop_channel_is_square(self):
        blocks = [np.zeros(shape) for shape in ((2, 2), (2, 2), (1, 2),
                                                (1, 2))]
        assert SystemNode(*blocks).ninputs == 2
        with pytest.raises(ValueError,
                           match=r"^A22 must be square, got shape \(1, 2\)$"):
            ExtendedOperator(*blocks)


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
        with pytest.raises(ValueError, match=r"^I - A22 is singular to "
                           r"working precision \(cond=inf\)$"):
            external_cayley(ext)

    def test_overflowed_block_is_refused_by_name(self):
        # the node constructor's coercion is the guard: A = A12 W^{-1} A21
        # overflows, and the error names the block instead of returning inf
        ext = ExtendedOperator([[0.0]], [[1e200]], [[1e200]], [[0.5]])
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="^A has non-finite entries$"):
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

    def test_nonzero_a22_matches_block_formula(self, rng):
        ext = random_dissipative_ext(rng, 4, 3)
        node = external_cayley(ext)
        w = np.eye(3) - ext.d
        winv = np.linalg.inv(w)
        assert np.allclose(node.a, ext.a + ext.b @ winv @ ext.c)
        assert np.allclose(node.b, np.sqrt(2.0) * ext.b @ winv)
        assert np.allclose(node.c, np.sqrt(2.0) * winv @ ext.c)
        assert np.allclose(node.d, (np.eye(3) + ext.d) @ winv)


class TestPassivityCheck:
    def test_accretive_block_fails(self):
        one = np.array([[1.0 + 0j]])
        zero = np.zeros((1, 1), dtype=complex)
        node = external_cayley(ExtendedOperator(one, zero, zero, zero))
        assert passivity_check(node) == pytest.approx(2.0)
        assert not passivity_check(node) <= 1e-9

    def test_lossless_feedthrough(self):
        zero = np.zeros((1, 1), dtype=complex)
        node = SystemNode(zero, zero, zero, np.array([[1.0 + 0j]]))
        assert abs(passivity_check(node)) <= 1e-12

    def test_expanding_feedthrough_fails(self):
        zero = np.zeros((1, 1), dtype=complex)
        node = SystemNode(zero, zero, zero, np.array([[2.0 + 0j]]))
        assert passivity_check(node) == pytest.approx(3.0)

    def test_no_state_and_no_channel_gives_minus_inf(self):
        # the max over no eigenvalues, one per member of a stack
        assert passivity_check(SystemNode(*(np.zeros((0, 0)),) * 4)) == \
            -np.inf
        stack = SystemNode(*(np.zeros((2, 0, 0)),) * 4)
        assert passivity_check(stack).tolist() == [-np.inf, -np.inf]
        # one state and no channel: the block is A + A* alone
        node = SystemNode(-np.eye(1), np.zeros((1, 0)), np.zeros((0, 1)),
                          np.zeros((0, 0)))
        assert passivity_check(node) == -2.0

    @pytest.mark.filterwarnings("error")
    @OVERFLOWING
    def test_refuses_an_overflowing_block(self, a, prefix):
        # a nan here would fail passivity_lmi without a cause
        zero = np.zeros_like(a)
        with pytest.raises(ValueError, match="^%spassivity block has a "
                           "non-finite Hermitian part$" % prefix):
            passivity_check(SystemNode(a, zero, zero, zero))

    @pytest.mark.filterwarnings("error")
    def test_refuses_an_overflowing_product(self):
        zero = np.zeros((1, 1))
        node = SystemNode(zero, zero, np.array([[1e200]]), zero)
        with pytest.raises(ValueError, match="^passivity block has a "
                           "non-finite Hermitian part$"):
            passivity_check(node)

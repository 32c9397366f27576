import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.cayley import AccretiveOperator, cayley_of_accretive
from semilab.feedback import (
    InadmissibleFeedbackError,
    a_s_via_feedback,
    check_admissible,
    internal_loop,
)
from semilab.numkernel import contraction_certificate, op_norm
from semilab.sysnode import ExtendedOperator, SystemNode, external_cayley

from conftest import (
    random_accretive,
    random_contraction,
    random_dissipative,
    random_dissipative_ext,
)


def scalar_ext(a11, a12, a21, a22):
    return ExtendedOperator(np.array([[a11]], dtype=complex),
                            np.array([[a12]], dtype=complex),
                            np.array([[a21]], dtype=complex),
                            np.array([[a22]], dtype=complex))


class TestInternalLoop:
    def test_zero_a22_closed_form(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        ext0 = ExtendedOperator(ext.a, ext.b, ext.c, np.zeros((2, 2)))
        s = random_accretive(rng, 2, floor=0.05)
        result = internal_loop(ext0, s)
        assert np.allclose(result.a_s, ext.a + ext.b @ s @ ext.c)
        assert result.loop_solve_condition == pytest.approx(1.0)

    def test_general_a22(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        s = random_accretive(rng, 2, floor=0.05)
        w = np.eye(2) - ext.d @ s
        ref = ext.a + ext.b @ s @ np.linalg.solve(w, ext.c)
        assert np.allclose(internal_loop(ext, s).a_s, ref)

    def test_shape_mismatch(self, rng):
        ext = random_dissipative_ext(rng, 3, 2)
        with pytest.raises(ValueError):
            internal_loop(ext, np.eye(3))

    def test_accretive_wrapper_accepted(self, rng):
        ext = random_dissipative_ext(rng, 2, 2)
        s = AccretiveOperator(random_accretive(rng, 2, floor=0.05))
        assert np.allclose(internal_loop(ext, s).a_s,
                           internal_loop(ext, s.matrix).a_s)

    def test_singular_loop_with_consistent_range_resolves(self):
        # ext = diag(0, -i) with s = i: W = 1 - (-i)(i) = 0 but a21 = 0,
        # so the loop is solvable (trivially) and the effect on x1 is zero
        ext = scalar_ext(0.0, 0.0, 0.0, -1j)
        result = internal_loop(ext, np.array([[1j]]))
        assert result.a_s is not None
        assert abs(result.a_s[0, 0]) <= 1e-12

    def test_singular_loop_with_inconsistent_range_unsolvable(self):
        # ceil(0 & i \\ i & -i) with s = i: W = 0, a21 != 0
        ext = scalar_ext(0.0, 1j, 1j, -1j)
        result = internal_loop(ext, np.array([[1j]]))
        assert result.a_s is None

    def test_singular_but_ineffective_kernel_direction(self):
        # W = 0 and a21 = 0 but a12 s nonzero: the undetermined channel
        # component is visible through a12, so the loop has no unique effect
        ext = scalar_ext(0.0, 1j, 0.0, -1j)
        result = internal_loop(ext, np.array([[1j]]))
        assert result.a_s is None


def test_misfit_feedback_names_the_node_channel(rng):
    # S and K map the node's output to its input: (ninputs, noutputs)
    with pytest.raises(ValueError,
                       match=r"^S must be \(2, 2\), got shape \(3, 3\)$"):
        internal_loop(random_dissipative_ext(rng, 3, 2), np.eye(3))
    node = SystemNode(np.zeros((1, 1)), np.zeros((1, 2)),
                      np.zeros((3, 1)), np.zeros((3, 2)))
    with pytest.raises(ValueError,
                       match=r"^K must be \(2, 3\), got shape \(3, 2\)$"):
        check_admissible(node, np.zeros((3, 2)))


def test_feedback_stack_must_have_the_node_stack_axes(rng):
    # one S or K serves every member; another stack is refused by name
    ext = ExtendedOperator(*(np.stack([getattr(
        random_dissipative_ext(rng, 2, 1), b) for _ in range(3)])
        for b in ("a", "b", "c", "d")))
    node = SystemNode(ext.a, ext.b, ext.c, ext.d)
    assert internal_loop(ext, np.eye(1)).a_s.shape == (3, 2, 2)
    assert check_admissible(node, 0.5 * np.ones((3, 1, 1))).admissible
    with pytest.raises(ValueError, match=r"^S must be \(3, 1, 1\), "
                                         r"got shape \(2, 1, 1\)$"):
        internal_loop(ext, np.ones((2, 1, 1)))
    with pytest.raises(ValueError, match=r"^K must be \(3, 1, 1\), "
                                         r"got shape \(2, 1, 1\)$"):
        check_admissible(node, np.ones((2, 1, 1)))


class TestCheckAdmissible:
    def test_admissible_contraction_pair(self, rng):
        node = external_cayley(random_dissipative_ext(rng, 3, 2))
        k = random_contraction(rng, 2, margin=0.2)
        result = check_admissible(node, k)
        assert result.admissible
        assert result.m_condition < 1e12

    @staticmethod
    def assert_closed_loop_formulas(node, k, closed):
        dk = np.linalg.inv(np.eye(node.noutputs) - node.d @ k)
        kd = np.linalg.inv(np.eye(node.ninputs) - k @ node.d)
        assert np.allclose(closed.a, node.a + node.b @ k @ dk @ node.c)
        assert np.allclose(closed.b, node.b @ kd)
        assert np.allclose(closed.c, dk @ node.c)
        assert np.allclose(closed.d, dk @ node.d)

    def test_closed_loop_formulas(self, rng):
        node = external_cayley(random_dissipative_ext(rng, 3, 2))
        k = random_contraction(rng, 2, margin=0.2)
        self.assert_closed_loop_formulas(
            node, k, check_admissible(node, k).closed_loop)

    def test_large_feedthrough_with_kd_zero(self):
        # K D = 0, so I - K D = I is perfectly conditioned, while
        # I - D K = [[1, -1e7], [0, 1]] has cond 1e14 yet is exactly
        # invertible: the closed loop exists and must be returned
        node = SystemNode(np.zeros((1, 1)), np.ones((1, 1)),
                          np.ones((2, 1)), np.array([[1e7], [0.0]]))
        k = np.array([[0.0, 1.0]])
        result = check_admissible(node, k)
        assert result.admissible
        assert result.m_condition == pytest.approx(1.0)
        self.assert_closed_loop_formulas(node, k, result.closed_loop)

    def test_inadmissible_unit_pair(self):
        # d = 1, k = 1: I - KD = 0 exactly
        zero = np.zeros((1, 1), dtype=complex)
        node = external_cayley(ExtendedOperator(zero, zero, zero, zero))
        result = check_admissible(node, np.array([[1.0 + 0j]]))
        assert not result.admissible
        assert result.closed_loop is None

    def test_feedback_involution(self, rng):
        # closing with K then with -K recovers the open loop
        node = external_cayley(random_dissipative_ext(rng, 4, 3))
        k = random_contraction(rng, 3, margin=0.2)
        closed = check_admissible(node, k).closed_loop
        reopened = check_admissible(closed, -k).closed_loop
        for blk in ("a", "b", "c", "d"):
            assert np.allclose(getattr(reopened, blk), getattr(node, blk),
                               atol=1e-10)

    def test_closed_loop_against_block_inverse_oracle(self, rng):
        # closed loop of (A, B, C, D) under u = K y + v, solved as one
        # linear system in (x, u, y) instead of the four formulas
        node = external_cayley(random_dissipative_ext(rng, 3, 2))
        k = random_contraction(rng, 2, margin=0.2)
        closed = check_admissible(node, k).closed_loop
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y = np.linalg.solve(np.eye(2) - node.d @ k,
                            node.c @ x + node.d @ v)
        u = k @ y + v
        assert np.allclose(closed.a @ x + closed.b @ v,
                           node.a @ x + node.b @ u, atol=1e-10)
        assert np.allclose(closed.c @ x + closed.d @ v, y, atol=1e-10)


class TestLoopVsFeedback:
    def test_agreement_on_random_pairs(self, rng):
        for _ in range(25):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            ext = random_dissipative_ext(rng, n1, n2)
            s = AccretiveOperator(random_accretive(rng, n2, floor=0.05))
            direct = internal_loop(ext, s).a_s
            via = a_s_via_feedback(ext, s)
            assert op_norm(via - direct) <= 1e-9 * (1 + op_norm(direct))

    def test_closed_loop_generates_contraction(self, rng):
        for _ in range(10):
            ext = random_dissipative_ext(rng, 3, 3)
            s = AccretiveOperator(random_accretive(rng, 3, floor=0.05))
            assert contraction_certificate(a_s_via_feedback(ext, s)).passed

    def test_inadmissible_raises(self):
        # ext = diag(0, -i), S = i: K = i and D = -i give 1 - KD = 0
        ext = scalar_ext(0.0, 0.0, 0.0, -1j)
        s = AccretiveOperator(np.array([[1j]]))
        k = cayley_of_accretive(s)
        node = external_cayley(ext)
        assert abs(1.0 - k.matrix[0, 0] * node.d[0, 0]) <= 1e-14
        with pytest.raises(InadmissibleFeedbackError):
            a_s_via_feedback(ext, s)

    def test_inadmissible_condition_is_check_admissibles(self):
        # the closure a_s_via_feedback raises from is check_admissible's
        ext = scalar_ext(0.0, 0.0, 0.0, -1j)
        s = AccretiveOperator(np.array([[1j]]))
        result = check_admissible(external_cayley(ext),
                                  cayley_of_accretive(s))
        assert not result.admissible
        with pytest.raises(InadmissibleFeedbackError) as raised:
            a_s_via_feedback(ext, s)
        assert raised.value.m_condition == result.m_condition

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_agreement_property(self, n, seed):
        rng = np.random.default_rng(seed)
        ext = random_dissipative_ext(rng, n, n)
        s = AccretiveOperator(random_accretive(rng, n, floor=0.05))
        direct = internal_loop(ext, s).a_s
        via = a_s_via_feedback(ext, s)
        assert op_norm(via - direct) <= 1e-9 * (1 + op_norm(direct))


def stacked_ext(rng, count, n1, n2):
    exts = [random_dissipative_ext(rng, n1, n2) for _ in range(count)]
    return ExtendedOperator(*(np.stack([getattr(e, b) for e in exts])
                              for b in ("a", "b", "c", "d")))


def loop_fixture(a12, a21):
    # V = I - S A22 = diag(1, 0, 1) has rank 2 with kernel e2 and range
    # span(e1, e3); W = I - A22 S = [[1, 0.5, 0], [0, 0, 0], [0, 0, 1]]
    # has the kernel S^{-1} e2.  Solvable iff row 2 of S A21 (= row 2 of
    # A21) is zero, unique iff column 2 of A12 is zero.
    s = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    a22 = np.array([[0.0, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    ext = ExtendedOperator(np.diag([-1.0, -2.0]), a12, a21, a22)
    return ext, s


class TestOneClosure:
    """internal_loop, external_cayley and check_admissible close the
    same loop u = K y: K = S, K = I rescaled, and K."""

    @pytest.mark.parametrize("count", [None, 3])
    def test_internal_loop_is_the_feedback_closure(self, rng, count):
        if count is None:
            ext = random_dissipative_ext(rng, 3, 2)
            s = random_accretive(rng, 2, floor=0.05)
        else:
            ext = stacked_ext(rng, count, 3, 2)
            s = np.stack([random_accretive(rng, 2, floor=0.05)
                          for _ in range(count)])
        assert ext.d.any()
        a_s = internal_loop(ext, s).a_s
        dense = ext.a + ext.b @ s @ np.linalg.inv(np.eye(2) - ext.d @ s) \
            @ ext.c
        assert np.allclose(a_s, check_admissible(ext, s).closed_loop.a,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(a_s, dense, rtol=1e-12, atol=1e-12)

    def test_external_cayley_is_the_unit_feedback_rescaled(self, rng):
        ext = random_dissipative_ext(rng, 4, 3)
        node = external_cayley(ext)
        closed = check_admissible(ext, np.eye(3)).closed_loop
        for got, want in ((node.a, closed.a),
                          (node.b, np.sqrt(2.0) * closed.b),
                          (node.c, np.sqrt(2.0) * closed.c),
                          (node.d, np.eye(3) + 2.0 * closed.d)):
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_singular_loop_solvable_and_unique(self):
        ext, s = loop_fixture(np.array([[1.0, 0.0, 1.0], [2.0, 0.0, -1.0]]),
                              np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        result = internal_loop(ext, s)
        assert result.loop_solve_condition == np.inf
        assert np.allclose(result.a_s, [[4.0, 3.0], [1.0, 7.0]],
                           rtol=0.0, atol=1e-14)

    def test_singular_loop_unsolvable(self):
        # row 2 of S A21 leaves the range of V
        ext, s = loop_fixture(np.array([[1.0, 0.0, 1.0], [2.0, 0.0, -1.0]]),
                              np.array([[1.0, 2.0], [1.0, 0.0], [3.0, -1.0]]))
        assert internal_loop(ext, s).a_s is None

    def test_singular_loop_not_unique(self):
        # A12 sees the kernel of V
        ext, s = loop_fixture(np.array([[1.0, 1.0, 1.0], [2.0, 0.0, -1.0]]),
                              np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]]))
        assert internal_loop(ext, s).a_s is None

    def test_zero_loop_products_need_no_svd(self, rng, svd_calls):
        ext = random_dissipative_ext(rng, 3, 2)
        ext0 = ExtendedOperator(ext.a, ext.b, ext.c, np.zeros((2, 2)))
        s = random_accretive(rng, 2, floor=0.05)
        node = SystemNode(np.zeros((1, 1)), np.ones((1, 1)),
                          np.ones((2, 1)), np.array([[1e7], [0.0]]))
        del svd_calls[:]
        internal_loop(ext0, s)
        external_cayley(ext0)
        assert check_admissible(node, np.array([[0.0, 1.0]])).admissible
        assert svd_calls == []

    def test_nonzero_a22_factors_once_per_call(self, rng, svd_calls):
        ext = random_dissipative_ext(rng, 3, 2)
        s = random_accretive(rng, 2, floor=0.05)
        for call in (lambda: internal_loop(ext, s),
                     lambda: external_cayley(ext),
                     lambda: check_admissible(ext, s)):
            del svd_calls[:]
            call()
            assert len(svd_calls) == 1

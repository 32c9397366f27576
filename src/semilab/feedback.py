"""Static output feedback, admissibility, and the internal loop A_S.

The internal loop constrains the loop channel of an extended operator
through e = S f, producing the operator A_S on the state channel.  The
same operator arises from the external Cayley node by closing the static
output feedback u = K y + v with K the Cayley transform of S; computing
it both ways and comparing is the package's main theorem check.

Both close u = K y (K = S on the extended operator) through sysnode's
one loop factor I - K D.  Inadmissibility of a feedback and
unsolvability of a loop are ordinary result states, not exceptions: the
corrected diag(0, -i) fixture has an inadmissible K while its loop is
perfectly solvable (A_S = 0).  Stacks of operators (..., n, n) go
through the same code, but those result states belong to one matrix: a
stack with a singular I - S A22 or I - K D raises a ValueError naming
the first such member.
"""

from collections import namedtuple

import numpy as np

from .cayley import AccretiveOperator, ContractionOperator, cayley_of_accretive
from .numkernel import as_complex_matrix, op_norm
from .sysnode import ExtendedOperator, SystemNode, _loop_solve, external_cayley

__all__ = [
    "FeedbackResult",
    "InternalLoopResult",
    "InadmissibleFeedbackError",
    "internal_loop",
    "check_admissible",
    "a_s_via_feedback",
]

FeedbackResult = namedtuple(
    "FeedbackResult", ["admissible", "closed_loop", "m_condition"])
FeedbackResult.__doc__ = """Outcome of closing a static output feedback.

closed_loop is a SystemNode when admissible, None otherwise;
m_condition is the unit-anchored condition number max(sigma_max, 1) /
sigma_min of I - K D (see numkernel.SvdFactor).
"""

InternalLoopResult = namedtuple(
    "InternalLoopResult", ["a_s", "loop_solve_condition"])
InternalLoopResult.__doc__ = """Outcome of the internal loop through S.

a_s is the nstates-square matrix when the loop effect is uniquely
determined, None when the loop is unsolvable (empty or multi-valued);
loop_solve_condition is the unit-anchored condition number
max(sigma_max, 1) / sigma_min of I - S A22 (see numkernel.SvdFactor),
1.0 per member when S A22 = 0 and the factor is I.
"""


class InadmissibleFeedbackError(ValueError):
    """Raised when a closed-loop computation requires an admissible K."""

    def __init__(self, m_condition):
        super().__init__(
            "feedback operator is not admissible: cond(I - K D) = %g"
            % m_condition)
        self.m_condition = m_condition


def _feedback_matrix(op, node, name):
    """S or K as a matrix that fits node's output-to-input channel.

    One matrix serves every member of a stacked node; a stack must have
    the node's own stack axes.
    """
    m = (op.matrix if isinstance(op, (AccretiveOperator, ContractionOperator))
         else as_complex_matrix(op, name))
    shape = (node.ninputs, node.noutputs)
    if m.shape not in (shape, node.a.shape[:-2] + shape):
        raise ValueError("%s must be %s, got shape %s"
                         % (name, node.a.shape[:-2] + shape, m.shape))
    return m


def internal_loop(ext, s):
    """Close the internal loop e = S f of an extended operator.

    A_S = A11 + A12 X with X = V^{-1} S A21 and V = I - S A22: the main
    operator of check_admissible's closure with K = S.  A singular V is
    a legitimate outcome, not an error.  A rank-revealing split of
    V e = S A21 x decides it: the loop is solvable when S A21 maps into
    the range of V, and unique when A12 annihilates the kernel of V.
    Otherwise a_s is None, because the loop is empty or multi-valued on
    part of the state space.
    """
    if not isinstance(ext, ExtendedOperator):
        raise TypeError("internal_loop expects an ExtendedOperator")
    sm = _feedback_matrix(s, ext, "S")
    v, cond, x = _loop_solve(ext, sm, "I - S A22")
    if x is None:
        rhs = sm @ ext.c
        scale = v.sv[0] if v.sv[0] > 0.0 else 1.0
        rank = int(np.sum(v.sv > scale * len(v.sv) * np.finfo(float).eps * 10))
        u_r = v.u[:, :rank]
        # solvable for every x iff range(S A21) lies in range(V)
        residual = rhs - u_r @ (u_r.conj().T @ rhs)
        if op_norm(residual) > 1e-10 * (1.0 + op_norm(rhs)):
            return InternalLoopResult(None, cond)
        # unique effect iff A12 annihilates the kernel of V
        if op_norm(ext.b @ v.vh[rank:].conj().T) > \
                1e-10 * (1.0 + op_norm(ext.b)):
            return InternalLoopResult(None, cond)
        x = v.vh[:rank].conj().T @ ((u_r.conj().T @ rhs) / v.sv[:rank, None])
    return InternalLoopResult(ext.a + ext.b @ x, cond)


def check_admissible(node, k):
    """Close the static output feedback u = K y + v around a node.

    K is admissible iff I - K D is invertible (unit-anchored condition
    number below 1e12); the closed loop then has blocks

        A^f = A + B K (I - D K)^{-1} C,   B^f = B (I - K D)^{-1},
        C^f = (I - D K)^{-1} C,           D^f = (I - D K)^{-1} D.

    Only I - K D is factored; with X = (I - K D)^{-1} K C the push-through
    identity gives A^f = A + B X, C^f = C + D X and D^f = D (I - K D)^{-1},
    so a badly conditioned I - D K (large D with K D = 0) is never solved
    against.  Inadmissibility is reported in the result, never raised.
    """
    if not isinstance(node, SystemNode):
        raise TypeError("check_admissible expects a SystemNode")
    km = _feedback_matrix(k, node, "K")
    kd, cond, x = _loop_solve(node, km, "I - K D")
    if x is None:
        return FeedbackResult(False, None, cond)
    b, d = (node.b, node.d) if kd is None else \
        (kd.rsolve(node.b), kd.rsolve(node.d))
    closed = SystemNode(node.a + node.b @ x, b, node.c + node.d @ x, d)
    return FeedbackResult(True, closed, cond)


def a_s_via_feedback(ext, s):
    """Compute A_S through the external Cayley node and output feedback.

    Transforms ext to its Cayley node, closes the feedback K =
    cayley_of_accretive(S), and returns the closed-loop main operator.
    Exists to test the theorem that this equals internal_loop(ext, S);
    the internal loop is the canonical computation path.

    Raises InadmissibleFeedbackError (carrying the condition number of
    I - K D) when K is not admissible for the node.
    """
    if not isinstance(s, AccretiveOperator):
        s = AccretiveOperator(s)
    node = external_cayley(ext)
    k = cayley_of_accretive(s)
    result = check_admissible(node, k)
    if not result.admissible:
        raise InadmissibleFeedbackError(result.m_condition)
    return result.closed_loop.a

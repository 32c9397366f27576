"""Static output feedback, admissibility, and the internal loop A_S.

The internal loop constrains the loop channel of an extended operator
through e = S f, producing the operator A_S on the state channel.  The
same operator arises from the external Cayley node by closing the static
output feedback u = K y + v with K the Cayley transform of S; computing
it both ways and comparing is the package's main theorem check.

Inadmissibility of a feedback and unsolvability of a loop are ordinary
result states, not exceptions: the corrected diag(0, -i) fixture has an
inadmissible K while its loop is perfectly solvable (A_S = 0).  Stacks
of operators (..., n, n) go through the same code, but those result
states belong to one matrix: a stack with a singular I - A22 S or
I - K D raises a ValueError naming the first such member.
"""

from collections import namedtuple

import numpy as np

from .cayley import AccretiveOperator, ContractionOperator, cayley_of_accretive
from .numkernel import SvdFactor, as_complex_matrix, op_norm
from .sysnode import ExtendedOperator, SystemNode, external_cayley

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

a_s is the n1-square matrix when the loop effect is uniquely determined,
None when the loop is unsolvable (empty or multi-valued);
loop_solve_condition is the unit-anchored condition number
max(sigma_max, 1) / sigma_min of I - A22 S (see numkernel.SvdFactor),
1.0 on the A22 = 0 shortcut where the factor is I.
"""


class InadmissibleFeedbackError(ValueError):
    """Raised when a closed-loop computation requires an admissible K."""

    def __init__(self, m_condition):
        super().__init__(
            "feedback operator is not admissible: cond(I - K D) = %g"
            % m_condition)
        self.m_condition = m_condition


def _operator_matrix(op, name):
    if isinstance(op, (AccretiveOperator, ContractionOperator)):
        return op.matrix
    return as_complex_matrix(op, name)


def internal_loop(ext, s):
    """Close the internal loop e = S f of an extended operator.

    Eliminating f = A21 x + A22 S f gives, when W = I - A22 S is
    invertible, A_S = A11 + A12 S W^{-1} A21.  A singular W is a
    legitimate outcome, not an error: the loop is still solvable when
    A21 maps into the range of W and the kernel ambiguity is annihilated
    by A12 S (rank-revealing test); otherwise a_s is None because the
    loop is empty or multi-valued on part of the state space.
    """
    if not isinstance(ext, ExtendedOperator):
        raise TypeError("internal_loop expects an ExtendedOperator")
    sm = _operator_matrix(s, "S")
    if sm.shape[-2:] != (ext.n2, ext.n2):
        raise ValueError("S has shape %s, loop channel has dimension %d"
                         % ((sm.shape,), ext.n2))
    if not ext.a22.any():
        # triangular case: f = A21 x directly
        a_s = ext.a11 + ext.a12 @ (sm @ ext.a21)
        return InternalLoopResult(a_s, 1.0)
    w = SvdFactor(np.eye(ext.n2) - ext.a22 @ sm, "I - A22 S",
                  unit_anchor=True)
    if np.ndim(w.cond) or not w.singular:
        # a stack solves every member or names its first singular one
        return InternalLoopResult(ext.a11 + ext.a12 @ (sm @ w.solve(ext.a21)),
                                  w.cond)
    # rank-revealing split of one singular loop equation
    u, sv, vh = w.u, w.sv, w.vh
    scale = sv[0] if len(sv) and sv[0] > 0.0 else 1.0
    rank = int(np.sum(sv > scale * ext.n2 * np.finfo(float).eps * 10))
    u_r, sv_r, vh_r = u[:, :rank], sv[:rank], vh[:rank]
    # solvable for every x iff range(A21) lies in range(W)
    residual = ext.a21 - u_r @ (u_r.conj().T @ ext.a21)
    if op_norm(residual) > 1e-10 * (1.0 + op_norm(ext.a21)):
        return InternalLoopResult(None, w.cond)
    # unique effect iff A12 S annihilates the kernel ambiguity of f
    kernel = vh[rank:].conj().T
    if kernel.size and op_norm(ext.a12 @ (sm @ kernel)) > \
            1e-10 * (1.0 + op_norm(ext.a12 @ sm)):
        return InternalLoopResult(None, w.cond)
    if rank:
        f = vh_r.conj().T @ ((u_r.conj().T @ ext.a21) / sv_r[:, None])
    else:
        f = np.zeros((ext.n2, ext.n1))
    return InternalLoopResult(ext.a11 + ext.a12 @ (sm @ f), w.cond)


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
    km = _operator_matrix(k, "K")
    if km.shape[-2:] != (node.ninputs, node.noutputs):
        raise ValueError("K must be %s, got %s"
                         % ((node.ninputs, node.noutputs), km.shape))
    # unit-scale anchor: I - K D lives at scale >= 1 for contractive pairs,
    # so a uniformly tiny factor signals an unbounded loop, not a benign one
    kd = SvdFactor(np.eye(node.ninputs) - km @ node.d, "I - K D",
                   unit_anchor=True)
    if not np.ndim(kd.cond) and kd.singular:
        return FeedbackResult(False, None, kd.cond)
    # a stack solves every member or names its first singular one
    x = kd.solve(km @ node.c)
    closed = SystemNode(node.a + node.b @ x, kd.rsolve(node.b),
                        node.c + node.d @ x, kd.rsolve(node.d))
    return FeedbackResult(True, closed, kd.cond)


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

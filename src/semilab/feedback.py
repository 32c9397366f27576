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
from .numkernel import SvdFactor, _per_member, as_complex_matrix, op_norm
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

a_s is the nstates-square matrix when the loop effect is uniquely
determined, None when the loop is unsolvable (empty or multi-valued);
loop_solve_condition is the unit-anchored condition number
max(sigma_max, 1) / sigma_min of I - A22 S (see numkernel.SvdFactor),
1.0 per member on the A22 = 0 shortcut where the factor is I.
"""


class InadmissibleFeedbackError(ValueError):
    """Raised when a closed-loop computation requires an admissible K."""

    def __init__(self, m_condition):
        super().__init__(
            "feedback operator is not admissible: cond(I - K D) = %g"
            % m_condition)
        self.m_condition = m_condition


def _feedback_matrix(op, node, name):
    """S or K as a matrix that fits node's output-to-input channel."""
    m = (op.matrix if isinstance(op, (AccretiveOperator, ContractionOperator))
         else as_complex_matrix(op, name))
    shape = (node.ninputs, node.noutputs)
    if m.shape[-2:] != shape:
        raise ValueError("%s must be %s, got shape %s"
                         % (name, shape, m.shape))
    return m


def internal_loop(ext, s):
    """Close the internal loop e = S f of an extended operator.

    A_S = A + B S (I - D S)^{-1} C, check_admissible's A^f with K = S,
    computed as A11 + A12 S W^{-1} A21 with W = I - A22 S.  A singular W
    is a legitimate outcome, not an error: the loop is still solvable
    when A21 maps into the range of W and the kernel ambiguity is
    annihilated by A12 S (rank-revealing test); otherwise a_s is None
    because the loop is empty or multi-valued on part of the state space.
    """
    if not isinstance(ext, ExtendedOperator):
        raise TypeError("internal_loop expects an ExtendedOperator")
    sm = _feedback_matrix(s, ext, "S")
    a11, a12, a21, a22 = ext.a, ext.b, ext.c, ext.d
    if not a22.any():
        # triangular case: f = A21 x directly, and W = I for every member
        a_s = a11 + a12 @ (sm @ a21)
        return InternalLoopResult(a_s,
                                  _per_member(np.ones(a_s.shape[:-2]), a_s))
    n2 = ext.ninputs
    w = SvdFactor(np.eye(n2) - a22 @ sm, "I - A22 S", unit_anchor=True)
    if np.ndim(w.cond) or not w.singular:
        # a stack solves every member or names its first singular one
        return InternalLoopResult(a11 + a12 @ (sm @ w.solve(a21)), w.cond)
    # rank-revealing split of one singular loop equation
    u, sv, vh = w.u, w.sv, w.vh
    scale = sv[0] if len(sv) and sv[0] > 0.0 else 1.0
    rank = int(np.sum(sv > scale * n2 * np.finfo(float).eps * 10))
    u_r, sv_r, vh_r = u[:, :rank], sv[:rank], vh[:rank]
    # solvable for every x iff range(A21) lies in range(W)
    residual = a21 - u_r @ (u_r.conj().T @ a21)
    if op_norm(residual) > 1e-10 * (1.0 + op_norm(a21)):
        return InternalLoopResult(None, w.cond)
    # unique effect iff A12 S annihilates the kernel ambiguity of f
    kernel = vh[rank:].conj().T
    if kernel.size and op_norm(a12 @ (sm @ kernel)) > \
            1e-10 * (1.0 + op_norm(a12 @ sm)):
        return InternalLoopResult(None, w.cond)
    if rank:
        f = vh_r.conj().T @ ((u_r.conj().T @ a21) / sv_r[:, None])
    else:
        f = np.zeros((n2, ext.nstates))
    return InternalLoopResult(a11 + a12 @ (sm @ f), w.cond)


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

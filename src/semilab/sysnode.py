"""System nodes, the one loop closure, and the external Cayley transform.

A system node (A, B, C, D) maps (state, input) to (state derivative,
output).  An extended operator ceil(A11 A12 \\ A21 A22) is the system
node from the loop input e to the loop output f.  Every loop in the
package is the output feedback u = K y of a node, solved through one
factor I - K D in ``_loop_solve``: the internal loop e = S f is K = S,
and the external Cayley system transform, which rewires (e, f) into
u = (e - f)/sqrt(2), y = (e + f)/sqrt(2), is K = I rescaled.  It turns a
dissipative extended operator into a scattering-passive node, certified
by the eigenvalue of an exact LMI block form rather than by trajectories.
Blocks may be stacks (..., rows, cols) with one batch shape; the loop
condition numbers and passivity values then hold one entry per member.
"""

from functools import cached_property

import numpy as np

from .numkernel import (
    SvdFactor,
    _herm_eigvalsh,
    _matmul,
    _per_member,
    _require_regular,
    as_complex_matrix,
)

__all__ = [
    "ExtendedOperator",
    "SystemNode",
    "external_cayley",
    "passivity_check",
    "node_apply",
]

_SQRT2 = np.sqrt(2.0)


class SystemNode(object):
    """Finite-dimensional system node ceil(A&B \\ C&D).

    Maps (state, input) to (state derivative, output):
    z = A x + B u, y = C x + D u.  The constructor coerces and
    shape-checks the four blocks, stack axes included (those of A); its
    messages name them by the class's ``_names``.
    """

    _names = ("A", "B", "C", "D")

    def __init__(self, a, b, c, d):
        blocks = [as_complex_matrix(m, name)
                  for m, name in zip((a, b, c, d), self._names)]
        n, m, p = blocks[0].shape[-1], blocks[1].shape[-1], blocks[2].shape[-2]
        batch = blocks[0].shape[:-2]
        for block, name, shape in zip(blocks, self._names,
                                      ((n, n), (n, m), (p, n), (p, m))):
            if block.shape != batch + shape:
                raise ValueError("%s must be %s, got shape %s"
                                 % (name, batch + shape, block.shape))
        self.a, self.b, self.c, self.d = blocks
        self.nstates, self.ninputs, self.noutputs = n, m, p

    def apply(self, x, u):
        """Evaluate (z, y) = (A x + B u, C x + D u)."""
        x = np.asarray(x).reshape(-1)
        u = np.asarray(u).reshape(-1)
        if x.shape[0] != self.nstates:
            raise ValueError("state has dimension %d, expected %d"
                             % (x.shape[0], self.nstates))
        if u.shape[0] != self.ninputs:
            raise ValueError("input has dimension %d, expected %d"
                             % (u.shape[0], self.ninputs))
        return self.a @ x + self.b @ u, self.c @ x + self.d @ u


node_apply = SystemNode.apply


class ExtendedOperator(SystemNode):
    """ceil(A11 A12 \\ A21 A22): the system node from loop input e to
    loop output f, with blocks a, b, c, d = A11, A12, A21, A22.

    Input and output are the one loop channel, so A22 is square.
    """

    _names = ("A11", "A12", "A21", "A22")

    def __init__(self, a11, a12, a21, a22):
        super().__init__(a11, a12, a21, a22)
        if self.ninputs != self.noutputs:
            raise ValueError("A22 must be square, got shape %s"
                             % (self.d.shape,))

    @cached_property
    def matrix(self):
        """The assembled (nstates + ninputs)-square matrix."""
        return np.block([[self.a, self.b], [self.c, self.d]])


def _loop_solve(node, km, name):
    """Solve the loop u = K y of a node: (factor, cond, X).

    X = (I - K D)^{-1} K C; the factor is the package's one SVD of a loop
    factor, named ``name``, with the unit-anchored cond.  When K D is
    exactly zero there is no SVD: factor None, cond 1.0 per member.  X is
    None when one matrix is singular; a stack names its first singular
    member in a ValueError.  A diagonal K (the S of a PDE loop) scales
    the rows of C and D, and K None, the identity of the external Cayley
    transform, passes them through.
    """
    def k_times(m):
        # contiguous, as a scaling's result is: matmul may round a strided
        # operand differently
        return np.ascontiguousarray(m) if km is None else _matmul(km, m)

    if not node.d.any() or not (kd := k_times(node.d)).any():
        x = k_times(node.c)
        return None, _per_member(np.ones(x.shape[:-2]), x), x
    # unit-scale anchor: I - K D lives at scale >= 1 for contractive pairs,
    # so a uniformly tiny factor signals an unbounded loop, not a benign one
    factor = SvdFactor(np.eye(node.ninputs) - kd, name, unit_anchor=True)
    if not np.ndim(factor.cond) and factor.singular:
        return factor, factor.cond, None
    return factor, factor.cond, factor.solve(k_times(node.c))


def external_cayley(ext):
    """External Cayley system transform of an extended operator.

    u = (e - f)/sqrt(2), y = (e + f)/sqrt(2) is the output feedback
    e = f + sqrt(2) u, K = I, rescaled: with W = I - A22 and the closure
    X = W^{-1} A21 = C^f, B^f = A12 W^{-1}, D^f = A22 W^{-1}, the node is
    (A11 + A12 X, sqrt(2) B^f, sqrt(2) X, I + 2 D^f).  W is invertible
    whenever ext is maximal dissipative, and then the node passes
    passivity_check; a singular W raises ValueError.
    """
    if not isinstance(ext, ExtendedOperator):
        raise TypeError("external_cayley expects an ExtendedOperator")
    w, cond, x = _loop_solve(ext, None, "I - A22")
    if x is None:
        _require_regular("I - A22", cond)
    b, d = (ext.b, ext.d) if w is None else (w.rsolve(ext.b), w.rsolve(ext.d))
    return SystemNode(ext.a + ext.b @ x, _SQRT2 * b, _SQRT2 * x,
                      np.eye(ext.ninputs, dtype=ext.d.dtype) + 2.0 * d)


def passivity_check(node):
    """Largest eigenvalue of the scattering-passivity LMI block form.

    Returns lambda_max of

        [[A + A* + C*C,  B + C*D],
         [B* + D*C,      D*D - I]],

    the quadratic form of the pointwise passivity inequality
    2 Re <z, x> <= ||u||^2 - ||y||^2 expanded over (x, u).  The node is
    scattering passive iff the returned value is at most 1e-9.
    """
    a, b, c, d = node.a, node.b, node.c, node.d
    n, m = node.nstates, node.ninputs
    ch = c.conj().mT
    block = np.empty(a.shape[:-2] + (n + m, n + m), np.result_type(a, b, c, d))
    with np.errstate(over="ignore", invalid="ignore"):
        block[..., :n, :n] = a + a.conj().mT + ch @ c
        block[..., :n, n:] = cross = b + ch @ d
        block[..., n:, :n] = cross.conj().mT
        block[..., n:, n:] = d.conj().mT @ d - np.eye(m, dtype=d.dtype)
    return _per_member(_herm_eigvalsh(block, "passivity block")[..., -1], a)

"""System nodes and the external Cayley transform of extended operators.

A system node (A, B, C, D) maps (state, input) to (state derivative,
output).  An extended operator ceil(A11 A12 \\ A21 A22) is the system
node from the loop input e to the loop output f, so the internal loop
e = S f is static output feedback.  The external Cayley system transform
rewires (e, f) into u = (e - f)/sqrt(2), y = (e + f)/sqrt(2), turning a
dissipative extended operator into a scattering-passive node, certified
by the eigenvalue of an exact LMI block form rather than by trajectories.
Blocks may be stacks (..., rows, cols) with one batch shape; the flags,
margins and passivity values then hold one entry per member.
"""

from functools import cached_property

import numpy as np

from .numkernel import (
    SvdFactor,
    _per_member,
    _refuse,
    as_complex_matrix,
    dissipativity_margin,
    op_norm,
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
    shape-checks the four blocks; its messages name them by the class's
    ``_names``.
    """

    _names = ("A", "B", "C", "D")

    def __init__(self, a, b, c, d):
        blocks = [as_complex_matrix(m, name)
                  for m, name in zip((a, b, c, d), self._names)]
        n, m, p = blocks[0].shape[-1], blocks[1].shape[-1], blocks[2].shape[-2]
        for block, name, shape in zip(blocks, self._names,
                                      ((n, n), (n, m), (p, n), (p, m))):
            if block.shape[-2:] != shape:
                raise ValueError("%s must be %s, got shape %s"
                                 % (name, shape, block.shape))
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

    Input and output are the one loop channel, so A22 is square.  The
    dissipativity margin of the assembled matrix and the skew defect are
    computed lazily; the flags ``dissipative`` and ``skew`` report the
    verified properties.  The skew test skips its two 2-norms when
    A + A* is exactly zero.
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

    @cached_property
    def margin(self):
        return dissipativity_margin(self.matrix)

    @property
    def dissipative(self):
        return self.margin <= 1e-10

    @cached_property
    def skew(self):
        full = self.matrix
        defect = full + full.conj().mT
        exact = ~defect.any(axis=(-2, -1))
        if not exact.all():
            exact = exact | (op_norm(defect) <= 1e-10 * (1.0 + op_norm(full)))
        return _per_member(exact, full)


def external_cayley(ext):
    """External Cayley system transform of an extended operator.

    With W = I - A22 (invertible whenever ext is maximal dissipative),
    the node blocks are

        A = A11 + A12 W^{-1} A21,     B = sqrt(2) A12 W^{-1},
        C = sqrt(2) W^{-1} A21,       D = (I + A22) W^{-1},

    the block elimination of u = (e - f)/sqrt(2), y = (e + f)/sqrt(2).
    When ext is dissipative the resulting node passes passivity_check.
    """
    if not isinstance(ext, ExtendedOperator):
        raise TypeError("external_cayley expects an ExtendedOperator")
    a11, a12, a21, a22 = ext.a, ext.b, ext.c, ext.d
    ident = np.eye(ext.ninputs, dtype=a22.dtype)
    if not a22.any():
        # A22 = 0 reduction: W = I exactly, and D = I + A22 = I
        return SystemNode(a11 + a12 @ a21, _SQRT2 * a12, _SQRT2 * a21,
                          ident + a22)
    w = SvdFactor(ident - a22, "I - A22")
    _refuse(w.singular, "I - A22 is singular to working precision; "
                        "the extended operator is not maximal dissipative "
                        "in the required sense")
    a12_winv = w.rsolve(a12)
    return SystemNode(a11 + a12_winv @ a21, _SQRT2 * a12_winv,
                      _SQRT2 * w.solve(a21), w.rsolve(ident + a22))


def passivity_check(node, tol=1e-9):
    """Largest eigenvalue of the scattering-passivity LMI block form.

    Returns lambda_max of

        [[A + A* + C*C,  B + C*D],
         [B* + D*C,      D*D - I]],

    the quadratic form of the pointwise passivity inequality
    2 Re <z, x> <= ||u||^2 - ||y||^2 expanded over (x, u).  The node is
    scattering passive iff the returned value is at most ``tol``.
    """
    a, b, c, d = node.a, node.b, node.c, node.d
    m = node.ninputs
    ch = c.conj().mT
    cross = b + ch @ d
    block = np.block([[a + a.conj().mT + ch @ c, cross],
                      [cross.conj().mT,
                       d.conj().mT @ d - np.eye(m, dtype=d.dtype)]])
    block = (block + block.conj().mT) / 2.0
    # eigvalsh sorts ascending, so the last eigenvalue is the largest
    return _per_member(np.linalg.eigvalsh(block)[..., -1], a)

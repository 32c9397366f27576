"""System nodes and the external Cayley transform of extended operators.

An extended operator is a 2x2 block partition of a square matrix A_ext
acting on a state channel (dimension n1) and a loop channel (dimension
n2).  The external Cayley system transform rewires the loop channel pair
(e, f) into the input/output pair u = (e - f)/sqrt(2), y = (e + f)/sqrt(2),
turning a dissipative A_ext into a scattering-passive system node
(A, B, C, D).  Scattering passivity is certified by the eigenvalue of an
exact LMI block form rather than by trajectories.  Blocks may be stacks
(..., rows, cols) with one batch shape; the flags, margins and passivity
values then hold one entry per member.
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


class ExtendedOperator(object):
    """Blockwise matrix ceil(A11 A12 \\ A21 A22) on a state/loop splitting.

    The dissipativity margin of the assembled matrix and the skew defect
    are computed lazily; the boolean flags ``dissipative`` and ``skew``
    report the verified properties rather than caller-supplied claims.
    The skew test skips its two 2-norms when A + A* is exactly zero.
    """

    def __init__(self, a11, a12, a21, a22):
        self.a11 = as_complex_matrix(a11, "A11")
        self.a12 = as_complex_matrix(a12, "A12")
        self.a21 = as_complex_matrix(a21, "A21")
        self.a22 = as_complex_matrix(a22, "A22")
        n1, n2 = self.a11.shape[-1], self.a22.shape[-1]
        if self.a11.shape[-2:] != (n1, n1) or self.a22.shape[-2:] != (n2, n2):
            raise ValueError("diagonal blocks must be square")
        if self.a12.shape[-2:] != (n1, n2):
            raise ValueError("A12 must be %s, got %s" % ((n1, n2), self.a12.shape))
        if self.a21.shape[-2:] != (n2, n1):
            raise ValueError("A21 must be %s, got %s" % ((n2, n1), self.a21.shape))
        self.n1 = n1
        self.n2 = n2

    @cached_property
    def matrix(self):
        """The assembled (n1+n2)-square matrix."""
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])

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

    def apply(self, x, e):
        """Apply the assembled operator to (x, e), returning (z, f)."""
        x = np.asarray(x).reshape(-1)
        e = np.asarray(e).reshape(-1)
        if x.shape[0] != self.n1 or e.shape[0] != self.n2:
            raise ValueError("vector dimensions do not match (n1, n2)")
        z = self.a11 @ x + self.a12 @ e
        f = self.a21 @ x + self.a22 @ e
        return z, f


class SystemNode(object):
    """Finite-dimensional system node ceil(A&B \\ C&D).

    Maps (state, input) to (state derivative, output):
    z = A x + B u, y = C x + D u.
    """

    def __init__(self, a, b, c, d):
        self.a = as_complex_matrix(a, "A")
        self.b = as_complex_matrix(b, "B")
        self.c = as_complex_matrix(c, "C")
        self.d = as_complex_matrix(d, "D")
        n = self.a.shape[-1]
        if self.a.shape[-2:] != (n, n):
            raise ValueError("A must be square")
        m = self.b.shape[-1]
        p = self.c.shape[-2]
        if self.b.shape[-2:] != (n, m):
            raise ValueError("B must have %d rows" % n)
        if self.c.shape[-2:] != (p, n):
            raise ValueError("C must have %d columns" % n)
        if self.d.shape[-2:] != (p, m):
            raise ValueError("D must be %s, got %s" % ((p, m), self.d.shape))
        self.nstates = n
        self.ninputs = m
        self.noutputs = p

    @cached_property
    def passivity_margin(self):
        """Cached LMI certificate; the node is scattering passive iff <= 0 (tol)."""
        return passivity_check(self)

    def is_passive(self, tol=1e-9):
        return self.passivity_margin <= tol


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
    ident = np.eye(ext.n2, dtype=ext.a22.dtype)
    if not ext.a22.any():
        # A22 = 0 reduction: W = I exactly, and D = I + A22 = I
        a = ext.a11 + ext.a12 @ ext.a21
        return SystemNode(a, _SQRT2 * ext.a12, _SQRT2 * ext.a21,
                          ident + ext.a22)
    w = SvdFactor(ident - ext.a22, "I - A22")
    _refuse(w.singular, "I - A22 is singular to working precision; "
                        "the extended operator is not maximal dissipative "
                        "in the required sense")
    a12_winv = w.rsolve(ext.a12)
    a = ext.a11 + a12_winv @ ext.a21
    b = _SQRT2 * a12_winv
    c = _SQRT2 * w.solve(ext.a21)
    d = w.rsolve(ident + ext.a22)
    return SystemNode(a, b, c, d)


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


def node_apply(node, x, u):
    """Evaluate (z, y) = (A x + B u, C x + D u)."""
    x = np.asarray(x).reshape(-1)
    u = np.asarray(u).reshape(-1)
    if x.shape[0] != node.nstates:
        raise ValueError("state has dimension %d, expected %d"
                         % (x.shape[0], node.nstates))
    if u.shape[0] != node.ninputs:
        raise ValueError("input has dimension %d, expected %d"
                         % (u.shape[0], node.ninputs))
    z = node.a @ x + node.b @ u
    y = node.c @ x + node.d @ u
    return z, y

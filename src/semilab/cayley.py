"""Operator Cayley transform between accretive operators and contractions.

K = (S - I)(S + I)^{-1} maps (maximal, here: bounded matrix) accretive
operators S to contractions K, with inverse S = (I + K)(I - K)^{-1}, and
comes with quantitative bounds relating the accretivity lower bound of S
to the contraction defect of K.  Only bounded S is represented: in finite
dimensions every accretive matrix is maximal accretive.  Every class and
function here takes one matrix or a stack (..., n, n) alike; a stack
gives one delta, norm or bound per member.
"""

from functools import cached_property

import numpy as np

from .numkernel import (
    SvdFactor,
    _per_member,
    _refuse,
    _square,
    op_norm,
)

__all__ = [
    "AccretiveOperator",
    "ContractionOperator",
    "cayley_of_accretive",
    "accretive_of_contraction",
    "strict_contraction_bound",
    "accretivity_lower_bound",
    "s_norm_bound",
]


class AccretiveOperator(object):
    """Square matrix S with Re <Sf, f> >= delta ||f||^2 for some delta >= 0.

    delta is computed at construction as the smallest eigenvalue of the
    Hermitian part (clamped at zero within a roundoff tolerance whose
    2-norm is computed only when an eigenvalue is negative), not
    user-supplied, so the cached bound cannot disagree with the matrix.
    """

    def __init__(self, matrix):
        m = _square(matrix, "accretive operator")
        # eigvalsh sorts ascending, so the first eigenvalue is the smallest
        lam = np.linalg.eigvalsh((m + m.conj().mT) / 2.0)[..., 0]
        negative = lam < 0.0
        if negative.any():
            _refuse(negative & (lam < -1e-12 * (1.0 + op_norm(m))),
                    "matrix is not accretive: min Hermitian eigenvalue %g",
                    lam)
        self.matrix = m
        self.delta = _per_member(np.maximum(lam, 0.0), m)

    @property
    def dim(self):
        return self.matrix.shape[-1]

    @cached_property
    def _plus_identity(self):
        """S + I, factored once for the transform and the strict bound."""
        m = self.matrix
        return SvdFactor(m + np.eye(self.dim, dtype=m.dtype), "S + I")


class ContractionOperator(object):
    """Square matrix K with operator norm at most 1 (within 1e-12)."""

    def __init__(self, matrix):
        m = _square(matrix, "contraction operator")
        nrm = op_norm(m)
        _refuse(nrm > 1.0 + 1e-12, "matrix is not a contraction: norm %.17g",
                nrm)
        self.matrix = m
        self.norm = nrm

    @property
    def dim(self):
        return self.matrix.shape[-1]

    @cached_property
    def _defect(self):
        """I - K, factored once for the inverse transform and its bound."""
        m = self.matrix
        return SvdFactor(np.eye(self.dim, dtype=m.dtype) - m, "I - K")


def cayley_of_accretive(s):
    """Cayley transform K = (S - I)(S + I)^{-1} of an accretive S.

    Accretivity makes S + I invertible with ||(S+I)^{-1}|| <= 1; an
    ill-conditioned S + I therefore signals a violated accretivity
    invariant and raises.
    """
    if not isinstance(s, AccretiveOperator):
        s = AccretiveOperator(s)
    m = s.matrix
    ident = np.eye(s.dim, dtype=m.dtype)
    return ContractionOperator(s._plus_identity.rsolve(m - ident))


def accretive_of_contraction(k):
    """Inverse Cayley transform S = (I + K)(I - K)^{-1} of a contraction K.

    Raises when I - K is singular to working precision: the reconstructed
    S would be multi-valued, which the bounded-matrix carrier cannot
    express.
    """
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    m = k.matrix
    ident = np.eye(k.dim, dtype=m.dtype)
    return AccretiveOperator(k._defect.rsolve(ident + m))


def strict_contraction_bound(s):
    """Bound sqrt(1 - 4 delta / ||S + I||^2) on ||K|| for uniformly accretive S.

    Defined only for delta > 0; at delta = 0 the bound degenerates to 1
    and is refused rather than silently returned.
    """
    if not isinstance(s, AccretiveOperator):
        s = AccretiveOperator(s)
    _refuse(s.delta <= 0.0,
            "delta = 0: the strict contraction bound degenerates to 1")
    denom = s._plus_identity.sv[..., 0] ** 2
    return _per_member(np.sqrt(np.maximum(1.0 - 4.0 * s.delta / denom, 0.0)),
                       s.matrix)


def accretivity_lower_bound(k):
    """Accretivity bound delta = (1 - ||K||^2) / ||I - K||^2 of the inverse transform."""
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    defect = k._defect
    _refuse(defect.singular, "I - K is singular to working precision")
    return _per_member((1.0 - k.norm ** 2) / defect.sv[..., 0] ** 2, k.matrix)


def s_norm_bound(k):
    """Norm bound (1 + ||K||) / (1 - ||K||) on the reconstructed S."""
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    _refuse(k.norm >= 1.0, "||K|| >= 1: the norm bound is undefined")
    return _per_member((1.0 + k.norm) / (1.0 - k.norm), k.matrix)

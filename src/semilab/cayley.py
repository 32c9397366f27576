"""Operator Cayley transform between accretive operators and contractions.

K = (S - I)(S + I)^{-1} maps (maximal, here: bounded matrix) accretive
operators S to contractions K, with inverse S = (I + K)(I - K)^{-1}, and
comes with quantitative bounds relating the accretivity lower bound of S
to the contraction defect of K.  Only bounded S is represented: in finite
dimensions every accretive matrix is maximal accretive.
"""

import math

import numpy as np

from .numkernel import SvdFactor, _square, herm_part, op_norm

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
    Hermitian part (clamped at zero within roundoff), not user-supplied,
    so the cached bound cannot disagree with the matrix.
    """

    def __init__(self, matrix):
        m = _square(matrix, "accretive operator")
        lam = float(np.linalg.eigvalsh(herm_part(m)).min())
        tol = 1e-12 * (1.0 + op_norm(m))
        if lam < -tol:
            raise ValueError(
                "matrix is not accretive: min Hermitian eigenvalue %g" % lam)
        self.matrix = m
        self.delta = max(lam, 0.0)

    @property
    def dim(self):
        return self.matrix.shape[0]


class ContractionOperator(object):
    """Square matrix K with operator norm at most 1 (within 1e-12)."""

    def __init__(self, matrix):
        m = _square(matrix, "contraction operator")
        nrm = op_norm(m)
        if nrm > 1.0 + 1e-12:
            raise ValueError("matrix is not a contraction: norm %.17g" % nrm)
        self.matrix = m
        self.norm = nrm

    @property
    def dim(self):
        return self.matrix.shape[0]


def _matrix_of(op):
    return op.matrix if hasattr(op, "matrix") else np.asarray(op, dtype=complex)


def cayley_of_accretive(s):
    """Cayley transform K = (S - I)(S + I)^{-1} of an accretive S.

    Accretivity makes S + I invertible with ||(S+I)^{-1}|| <= 1; an
    ill-conditioned S + I therefore signals a violated accretivity
    invariant and raises.
    """
    if not isinstance(s, AccretiveOperator):
        s = AccretiveOperator(s)
    m = s.matrix
    ident = np.eye(s.dim, dtype=complex)
    return ContractionOperator(SvdFactor(m + ident, "S + I").rsolve(m - ident))


def accretive_of_contraction(k):
    """Inverse Cayley transform S = (I + K)(I - K)^{-1} of a contraction K.

    Raises when I - K is singular to working precision: the reconstructed
    S would be multi-valued, which the bounded-matrix carrier cannot
    express.
    """
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    m = k.matrix
    ident = np.eye(k.dim, dtype=complex)
    return AccretiveOperator(SvdFactor(ident - m, "I - K").rsolve(ident + m))


def strict_contraction_bound(s):
    """Bound sqrt(1 - 4 delta / ||S + I||^2) on ||K|| for uniformly accretive S.

    Defined only for delta > 0; at delta = 0 the bound degenerates to 1
    and is refused rather than silently returned.
    """
    if not isinstance(s, AccretiveOperator):
        s = AccretiveOperator(s)
    if s.delta <= 0.0:
        raise ValueError("delta = 0: the strict contraction bound degenerates to 1")
    denom = op_norm(s.matrix + np.eye(s.dim, dtype=complex)) ** 2
    return math.sqrt(max(1.0 - 4.0 * s.delta / denom, 0.0))


def accretivity_lower_bound(k):
    """Accretivity bound delta = (1 - ||K||^2) / ||I - K||^2 of the inverse transform."""
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    ident = np.eye(k.dim, dtype=complex)
    defect = SvdFactor(ident - k.matrix, "I - K")
    if defect.singular:
        raise ValueError("I - K is singular to working precision")
    return (1.0 - k.norm ** 2) / float(defect.sv[0]) ** 2


def s_norm_bound(k):
    """Norm bound (1 + ||K||) / (1 - ||K||) on the reconstructed S."""
    if not isinstance(k, ContractionOperator):
        k = ContractionOperator(k)
    if k.norm >= 1.0:
        raise ValueError("||K|| >= 1: the norm bound is undefined")
    return (1.0 + k.norm) / (1.0 - k.norm)

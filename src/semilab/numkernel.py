"""Dense linear algebra and semigroup-theoretic primitives.

Every operator in this package is a dense matrix over the complex field;
a real one is carried as float64 (zero imaginary part) and numpy's
promotion makes a result complex128 only when an operand is, with
``as_complex_matrix`` the one coercion.  This module provides the shared
plumbing: Hermitian parts, dissipativity margins (plain and
Gram-weighted), operator norms, a matrix exponential, contraction
certificates, and SVD solves.

The primitives take one matrix or a stack of shape (..., n, n) through
the same code: a stack gives one value per member (an array over the
stack axes) where one matrix gives a Python scalar, and a validation
error on a stack names the index of the first member that fails.  The
randomized ``verify`` suites rely on this: they group their cases by
dimension and make one stacked call per group, since numpy's per-call
overhead, not arithmetic, is the cost of a tiny matrix.

One singularity rule serves the whole package: a matrix is singular to
working precision when the condition number from its singular values is
not below COND_LIMIT, anchored at unit scale for the loop factors
I - A22 S and I - K D.  The Cayley and feedback constructions factor
each matrix once through ``SvdFactor``, which keeps the singular
vectors; the one-shot ``svd_solve`` reads the singular values only and
solves by LU.  ``expm``, ``Gram`` and the weighted margin solve against
Pade denominators and Cholesky factors with numpy directly.
"""

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "Gram",
    "ContractionReport",
    "as_complex_matrix",
    "herm_part",
    "dissipativity_margin",
    "op_norm",
    "expm",
    "contraction_certificate",
    "SvdFactor",
    "svd_solve",
]

#: condition number beyond which a solve is treated as singular
COND_LIMIT = 1e12

_KEPT_DTYPES = frozenset([np.dtype(np.float64), np.dtype(np.complex128)])


def _refuse(bad, message, *values, kind=ValueError):
    """Raise ``kind(message % values)`` for the first member where ``bad``.

    ``bad`` and ``values`` hold one entry per member (scalars for one
    matrix) and are read at that member; a stack prefixes the message
    with the member's index, so one matrix keeps its plain message.
    """
    found = np.argwhere(bad)
    if not len(found):
        return
    index = tuple(int(i) for i in found[0])
    text = message % tuple(np.asarray(v)[index] for v in values)
    if index:
        text = "stack member %s: %s" % (
            index[0] if len(index) == 1 else index, text)
    raise kind(text)


def _per_member(values, m):
    """``values`` as a Python scalar when ``m`` is one matrix, else as is."""
    return np.asarray(values).item() if m.ndim == 2 else values


def as_complex_matrix(a, name="matrix"):
    """Coerce ``a`` to a float64 or complex128 matrix (or stack of
    matrices, shape (..., rows, cols)) with finite entries.

    float64 and complex128 pass through; any other dtype goes to its
    promotion with float64 (int and bool to float64, complex64 to
    complex128), so real data stays real.  A scalar becomes a 1x1
    matrix.  The name stays because the benchmark in perfbench counts
    calls to this function by name.
    """
    m = np.asarray(a)
    if m.dtype not in _KEPT_DTYPES:
        m = m.astype(np.result_type(m.dtype, np.float64))
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim < 2:
        raise ValueError("%s must be a matrix or a stack of matrices, "
                         "got ndim=%d" % (name, m.ndim))
    if m.size and not np.isfinite(m).all():
        _refuse(~np.isfinite(m).all(axis=(-2, -1)),
                "%s has non-finite entries" % name)
    return m


def _square(a, name="matrix"):
    m = as_complex_matrix(a, name)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError("%s must be square, got shape %s" % (name, (m.shape,)))
    return m


def herm_part(a):
    """Return the Hermitian part (A + A*)/2 of a square matrix."""
    m = _square(a)
    return (m + m.conj().mT) / 2.0


def op_norm(a):
    """Largest singular value of ``a`` (0 for an empty matrix)."""
    m = as_complex_matrix(a)
    if m.size == 0:
        return _per_member(np.zeros(m.shape[:-2]), m)
    return _per_member(np.linalg.svd(m, compute_uv=False)[..., 0], m)


def _condition_number(sv, unit_anchor=False):
    """Condition numbers from descending singular values; inf when singular.

    The plain ratio is sigma_max / sigma_min.  The unit-anchored ratio
    max(sigma_max, 1) / sigma_min measures a factor I - X against the
    unit scale of I, so a uniformly tiny factor counts as ill conditioned
    (the plain ratio of a nonzero scalar is always 1).  Returns an array
    over the stack axes of ``sv`` (0-d for one matrix).
    """
    cond = np.full(sv.shape[:-1], np.inf)
    if sv.shape[-1]:
        top = np.maximum(sv[..., 0], 1.0) if unit_anchor else sv[..., 0]
        low = sv[..., -1]
        np.divide(top, low, out=cond, where=low != 0.0)
    return cond


def _require_regular(name, cond):
    _refuse(~(np.asarray(cond) < COND_LIMIT),
            "%s is singular to working precision (cond=%%g)" % name, cond)


class SvdFactor(object):
    """SVD ``a = u @ diag(sv) @ vh`` of a square matrix, factored once.

    ``cond`` is the plain or (with ``unit_anchor``) the unit-anchored
    condition number, and ``singular`` is true when it is not below
    COND_LIMIT.  ``solve`` and ``rsolve`` raise ValueError naming the
    matrix when it is singular.
    """

    def __init__(self, a, name="matrix", unit_anchor=False):
        m = _square(a, name)
        self.name = name
        self.u, self.sv, self.vh = np.linalg.svd(m)
        cond = _condition_number(self.sv, unit_anchor)
        self.cond = _per_member(cond, m)
        self.singular = _per_member(~(cond < COND_LIMIT), m)

    def solve(self, b):
        """The matrix x with ``a @ x = b``."""
        _require_regular(self.name, self.cond)
        return self.vh.conj().mT @ (
            (self.u.conj().mT @ b) / self.sv[..., :, None])

    def rsolve(self, b):
        """The matrix x with ``x @ a = b``."""
        _require_regular(self.name, self.cond)
        return ((b @ self.vh.conj().mT) / self.sv[..., None, :]) \
            @ self.u.conj().mT


def svd_solve(a, b, name="matrix"):
    """Solve ``a @ x = b`` once: LU for x, singular values for the cond.

    Returns ``(x, cond)`` with the plain cond = sigma_max / sigma_min and
    raises ValueError by the same rule as ``SvdFactor`` when ``a`` is
    singular to working precision; callers that solve more than once
    against the same matrix, or that treat singularity as a legitimate
    outcome, use ``SvdFactor`` instead.
    """
    m = _square(a, name)
    rhs = as_complex_matrix(b, "right-hand side")
    if rhs.shape[-2] != m.shape[-1]:
        raise ValueError("right-hand side has %d rows, expected %d"
                         % (rhs.shape[-2], m.shape[-1]))
    cond = _condition_number(np.linalg.svd(m, compute_uv=False))
    _require_regular(name, cond)
    return np.linalg.solve(m, rhs), _per_member(cond, m)


class Gram(object):
    """Hermitian positive definite weight H defining <x,y>_H = <Hx, y>.

    The matrix is validated (Hermitian within 1e-12 relative, positive
    definite) and its Cholesky factor is cached for the weighted margin
    and weighted norm computations.  The two 2-norms of the Hermitian
    test are computed only when m - m* is not exactly zero.
    """

    def __init__(self, matrix):
        m = _square(matrix, "gram matrix")
        skew = m - m.conj().T
        if skew.any() and op_norm(skew) > 1e-12 * max(op_norm(m), 1.0):
            raise ValueError("gram matrix is not Hermitian")
        m = (m + m.conj().T) / 2.0
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite")
        self.matrix = m
        self.cholesky = chol

    @property
    def dim(self):
        return self.matrix.shape[0]

    def weighted_norm_of_operator(self, a):
        """Operator norm of ``a`` in the H inner product.

        Equals the 2-norm of L* a L^{-*} where H = L L*.
        """
        m = _square(a)
        if m.shape[-1] != self.dim:
            raise ValueError("operator dimension %d does not match gram dimension %d"
                             % (m.shape[-1], self.dim))
        l = self.cholesky
        # L^* a L^{-*}: right-solve against L^*, using (L^*)^T = conj(L)
        right = np.linalg.solve(l.conj(), (l.conj().T @ m).mT).mT
        return op_norm(right)

    def squared_norms(self, rows):
        """Re(x^* H x), clipped at zero, for every row x of a 2-D array.

        One ``rows @ H.T`` product serves all rows, in the dtype numpy
        promotes the rows and H to.
        """
        x = np.asarray(rows)
        q = np.einsum("ij,ij->i", x.conj(), x @ self.matrix.T).real
        return np.maximum(q, 0.0)

    def weighted_vector_norm(self, x):
        """The H-norm of one vector: the one-row case of squared_norms."""
        v = np.asarray(x).reshape(1, -1)
        return float(math.sqrt(self.squared_norms(v)[0]))


def dissipativity_margin(a, gram=None):
    """Largest eigenvalue of the Hermitian part of ``a``.

    Without a gram this is lambda_max((A + A*)/2); ``a`` is dissipative
    (Re <Ax, x> <= 0 for all x) iff the result is <= 0.  With a gram H the
    margin is taken in the H inner product: lambda_max of the pencil
    (HA + A*H, 2H), reduced through the Cholesky factor of H.
    """
    m = _square(a)
    # eigvalsh sorts ascending, so the last eigenvalue is the largest
    if gram is None:
        return _per_member(np.linalg.eigvalsh(herm_part(m))[..., -1], m)
    if not isinstance(gram, Gram):
        gram = Gram(gram)
    if gram.dim != m.shape[-1]:
        raise ValueError("gram dimension %d does not match operator dimension %d"
                         % (gram.dim, m.shape[-1]))
    l = gram.cholesky
    w = gram.matrix @ m
    w = w + w.conj().mT
    # L^{-1} (HA + A*H) L^{-*}
    y = np.linalg.solve(l, w)
    y = np.linalg.solve(l, y.conj().mT).conj().mT
    y = (y + y.conj().mT) / 2.0
    return _per_member(np.linalg.eigvalsh(y)[..., -1] / 2.0, m)


# Diagonal Pade approximant of order (6, 6); coefficients of the numerator
# polynomial p with e^x ~ p(x)/p(-x),  b_k = (12-k)! 6! / (12! k! (6-k)!)
# scaled to integers.
_PADE6 = (665280.0, 332640.0, 75600.0, 10080.0, 840.0, 42.0, 1.0)

#: norm threshold after scaling; the (6,6) truncation error at 0.5 is ~2e-17
_EXPM_THETA = 0.5


def expm(a, t=1.0):
    """Matrix exponential e^{At} by scaling and squaring.

    Uses the diagonal (6,6) Pade approximant after scaling so that the
    1-norm of the scaled matrix is at most 0.5, then repeated squaring.
    Relative accuracy is ~1e-11 or better for ||At|| up to about 100;
    beyond that the result degrades gracefully and overflow raises.
    Each member of a stack gets its own number of squarings.

    Parameters
    ----------
    a : square matrix
    t : nonnegative time
    """
    m = _square(a)
    t = float(t)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError("t must be finite and nonnegative, got %r" % t)
    m = m * t
    n = m.shape[-1]
    if n == 0:
        return m.copy()
    # the 1-norm (largest column sum) of each member
    nrm = np.abs(m).sum(axis=-2).max(axis=-1)
    _refuse(~np.isfinite(nrm), "||At|| overflowed", kind=OverflowError)
    squarings = np.array(
        [math.ceil(math.log2(v / _EXPM_THETA)) if v > _EXPM_THETA else 0
         for v in nrm.ravel().tolist()], dtype=int).reshape(nrm.shape)
    if squarings.any():
        m = m / np.ldexp(1.0, squarings)[..., None, None]

    b = _PADE6
    ident = np.eye(n, dtype=m.dtype)
    m2 = m @ m
    m4 = m2 @ m2
    u = m @ (b[1] * ident + b[3] * m2 + b[5] * m4)
    v = b[0] * ident + b[2] * m2 + b[4] * m4 + b[6] * (m4 @ m2)
    x = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        live = squarings > k
        if live.all():
            x = x @ x
        else:
            x[live] = x[live] @ x[live]
    if not np.isfinite(x).all():
        _refuse(~np.isfinite(x).all(axis=(-2, -1)),
                "matrix exponential overflowed", kind=OverflowError)
    return x


ContractionReport = namedtuple(
    "ContractionReport", ["times", "norms", "tol", "passed"])
ContractionReport.__doc__ = """Norms of e^{At} at sampled times.

passed is true when every sampled norm (H-weighted when a gram was
given) is at most 1 + tol, the finite-dimensional Lumer-Phillips test.
For a stack, each norm and passed hold one entry per member.
"""


def contraction_certificate(a, gram=None, times=(0.1, 1.0, 10.0), tol=1e-10):
    """Sample ||e^{At}|| and certify the contraction property.

    Parameters
    ----------
    a : square matrix
    gram : optional Gram; when given the norms are H-weighted
    times : nonempty iterable of nonnegative times
    tol : slack added to 1 when deciding the pass flag
    """
    m = _square(a)
    times = tuple(float(s) for s in times)
    if not times:
        raise ValueError("times must be nonempty")
    if any(s < 0 for s in times):
        raise ValueError("times must be nonnegative")
    if gram is not None and not isinstance(gram, Gram):
        gram = Gram(gram)
    norms = []
    for s in times:
        e = expm(m, s)
        if gram is None:
            norms.append(op_norm(e))
        else:
            norms.append(gram.weighted_norm_of_operator(e))
    norms = tuple(norms)
    passed = _per_member(np.less_equal(norms, 1.0 + tol).all(axis=0), m)
    return ContractionReport(times, norms, tol, passed)

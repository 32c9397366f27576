"""Dense linear algebra and semigroup-theoretic primitives.

Every operator in this package is a dense matrix over the complex field;
a real one is carried as float64 (zero imaginary part) and numpy's
promotion makes a result complex128 only when an operand is, with
``as_complex_matrix`` the one coercion.  Every dissipativity,
accretivity, passivity and positive-definiteness verdict reads one
Hermitian-part rule: ``_hermitian`` forms (X + X*)/2, refusing a
non-finite one by name, and ``_herm_eigvalsh`` makes the package's one
eigensolver call.  A real matrix whose off-diagonal entries are all
exactly zero (``_exact_diagonal`` alone decides it) keeps its dense
carrier, but its Hermitian eigenvalues and products come from the
diagonal, with the dense operation's values; every other matrix takes
the dense path.  This module provides the shared plumbing: dissipativity
margins, operator norms, a matrix exponential (Higham's 2005 degree-13
scaling and squaring, with theta_13 = 5.37), contraction certificates,
SVD solves, and ``Gram``, a validated energy weight whose one use is the
weighted norms of a trajectory.

The primitives take one matrix or a stack of shape (..., n, n) through
the same code: a stack gives one value per member (an array over the
stack axes) where one matrix gives a Python scalar, and a validation
error on a stack names the index of the first member that fails.  The
randomized ``verify`` suites rely on this: they group their cases by
dimension and make one stacked call per group, since numpy's per-call
overhead, not arithmetic, is the cost of a tiny matrix.

One singularity rule serves the whole package: a matrix is singular to
working precision when the condition number from its singular values is
not below COND_LIMIT, anchored at unit scale for the loop factor
I - K D.  The Cayley and feedback constructions factor each matrix once
through ``SvdFactor``, which keeps the singular vectors; the one-shot
``svd_solve`` (singular values, then LU) is the Crank-Nicolson step's.
That step first tries ``_banded_inverse``, block-tridiagonal elimination
of a banded factor in the grid order handed over by its assembly, the
one place a matrix's sparsity is used; it certifies its own inverse, so
the rule needs no SVD there.  ``expm`` solves against its (13, 13) Pade
denominator with numpy directly.
"""

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "Gram",
    "ContractionReport",
    "as_complex_matrix",
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
    if not np.any(bad):
        return
    found = np.argwhere(bad)
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
        raise ValueError("%s must be square, got shape %s" % (name, m.shape))
    return m


def _exact_diagonal(m):
    """The diagonal of one nonempty real square matrix whose off-diagonal
    entries are all exactly zero; None for anything else (a stack, a
    complex or non-square matrix, or a single nonzero off-diagonal entry,
    however tiny).  The one diagonality decision of the package.
    """
    if np.iscomplexobj(m) or m.ndim != 2 or not 0 < len(m) == m.shape[1]:
        return None
    d = m.diagonal()
    return d if np.count_nonzero(m) == np.count_nonzero(d) else None


def _matmul(a, b):
    """``a @ b``, as a row or column scaling when ``a`` or ``b`` is an
    exact diagonal.

    The scaling gives the product's values (only the sign of a zero may
    differ, since the product adds exact zeros to each scaled entry); a
    real diagonal scales a complex operand exactly too.
    """
    d = _exact_diagonal(a)
    if d is not None and b.shape[-2:-1] == d.shape:
        return d[:, None] * b
    d = _exact_diagonal(b)
    if d is not None and a.shape[-1:] == d.shape:
        return a * d
    return a @ b


def _hermitian(m, name):
    """(m + m*)/2 of a matrix or a stack, or of a diagonal given as a
    vector, formed with overflow warnings silenced; a ValueError naming
    ``name`` refuses a non-finite result, so an overflow is neither
    accepted nor left to a LAPACK failure.
    """
    mh = m.conj() if m.ndim == 1 else m.conj().mT
    with np.errstate(over="ignore", invalid="ignore"):
        h = (m + mh) / 2.0
    if not np.isfinite(h).all():
        _refuse(~np.isfinite(h).reshape(h.shape[:-2] + (-1,)).all(axis=-1),
                "%s has a non-finite Hermitian part" % name)
    return h


def _herm_eigvalsh(m, name):
    """Ascending eigenvalues of ``_hermitian(m, name)``, per member; for
    an exact diagonal, its sorted entries with no eigensolver (the
    dense bits while LAPACK does not rescale, largest entry about 1e-146
    to 1e146, and the exact values outside).
    """
    d = _exact_diagonal(m)
    if d is not None:
        return np.sort(_hermitian(d, name))
    return np.linalg.eigvalsh(_hermitian(m, name))


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


#: rows per block of ``_banded_inverse``: timing cn_step on the simulate
#: generators of dims 111-767 (median of 15, 2-core VM, BLAS 1 thread),
#: blocks of 8 took 1.00-1.29x the time of blocks of 16, and blocks of 32
#: 0.94-1.08x
_BAND_BLOCK = 16


def _banded_inverse(f, order=None):
    """F^{-1} of one square F by block-tridiagonal elimination, or None.

    F is renumbered by ``order`` (the unknowns by grid position; their
    own order when None), cut into blocks of _BAND_BLOCK rows, and
    solved against the renumbering's permutation by block LU: each
    diagonal Schur block is factored by np.linalg.solve, with partial
    pivoting inside the block and none across blocks, and the rows are
    numbered back at the end.  The cost is O(n^2 _BAND_BLOCK) flops and
    about 8 numpy calls per block, against the dense LU's (8/3) n^3.

    X is returned only when it is certified: the probe
    ||F X v - v||_2 <= n eps ||F||_F ||X||_F ||v||_2 holds for two fixed
    random vectors v, and ||F||_F ||X||_F < COND_LIMIT / 100.  With no
    pivoting across blocks nothing bounds the growth of a general F's
    elimination, so the probe holds X to the residual that LU with
    partial pivoting and pivot growth g meets: X is the inverse of some
    F + E with ||E|| <= g n eps ||F||.  The second test is then the
    package's singularity rule: ||F||_F ||X||_F >= cond(F + E), and if
    cond(F) >= COND_LIMIT, sigma_min(F + E) <= (1 / COND_LIMIT +
    g n eps) ||F||, which keeps cond(F + E) at least COND_LIMIT / 100
    while g n eps < 9.9e-11 (n eps is 1.7e-13 at n = 767).  So a
    certified F has cond(F) < COND_LIMIT, with no SVD.

    Returns None for a stack, a matrix of one block (n <= _BAND_BLOCK),
    an exactly singular Schur block, and an X that fails either test
    (the elimination reads only the band, so the probe also refuses an
    F that is not block tridiagonal in ``order``); the caller then takes
    ``svd_solve``, and no input gets a worse step than its LU.
    """
    n = f.shape[-1]
    block = _BAND_BLOCK
    if f.ndim != 2 or n <= block:
        return None
    if order is None:
        order = np.arange(n)
    # rows of P, the renumbering (P F P^T)[i, j] = F[order[i], order[j]],
    # become those of (P F P^T)^{-1} P = P F^{-1}
    work = np.eye(n, dtype=f.dtype)[order]
    starts = range(0, n, block)
    gains = []
    # a singular F shows as non-finite entries, refused below unwarned
    with np.errstate(all="ignore"):
        for s in starts:
            e, lo = min(s + block, n), max(s - block, 0)
            hi = min(e + block, n)
            band = f[np.ix_(order[s:e], order[lo:hi])]
            schur = band[:, s - lo:e - lo]
            if s:
                schur = schur - band[:, :s - lo] @ gains[-1]
                work[s:e] -= band[:, :s - lo] @ work[lo:s]
            try:
                # [D^{-1} B | D^{-1}] for the Schur block D, B the block above
                solved = np.linalg.solve(schur, np.concatenate(
                    [band[:, e - lo:], np.eye(e - s)], axis=1))
            except np.linalg.LinAlgError:
                return None
            gains.append(solved[:, :hi - e])
            work[s:e] = solved[:, hi - e:] @ work[s:e]
        for s, gain in zip(starts[-2::-1], gains[-2::-1]):
            work[s:s + block] -= gain @ work[s + block:s + 2 * block]
        inverse = work[np.argsort(order)]
        del work
        size = np.linalg.norm(f) * np.linalg.norm(inverse)
        probe = np.random.default_rng(0).standard_normal((n, 2))
        residual = np.linalg.norm(f @ (inverse @ probe) - probe, axis=0)
        bound = n * np.finfo(float).eps * size * np.linalg.norm(probe, axis=0)
    if not (np.all(residual <= bound) and size < COND_LIMIT / 100.0):
        return None
    return inverse


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
    singular to working precision.  It is the Crank-Nicolson step's
    fallback for every factor that ``_banded_inverse`` does not certify;
    callers that solve more than once against the same matrix, or that
    treat singularity as a legitimate outcome, use ``SvdFactor`` instead.
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

    The matrix is validated once and kept as ``matrix``: Hermitian within
    1e-12 relative, with a finite Hermitian part, and positive definite,
    the smallest eigenvalue from ``_herm_eigvalsh`` above zero (for an
    exact diagonal d, d > 0, with no eigensolver).  The Hermitian test's
    2-norms run only on a nonzero skew part m - herm(m).
    """

    def __init__(self, matrix):
        m = _square(matrix, "gram matrix")
        if m.ndim != 2:
            raise ValueError("gram matrix must be one matrix, got shape %s"
                             % (m.shape,))
        h = _hermitian(m, "gram matrix")
        skew = m - h
        if skew.any() and op_norm(skew) > 0.5e-12 * max(op_norm(m), 1.0):
            raise ValueError("gram matrix is not Hermitian")
        if not (_herm_eigvalsh(h, "gram matrix") > 0.0).all():
            raise ValueError("gram matrix is not positive definite")
        self.matrix = h

    def squared_norms(self, rows):
        """Re(x^* H x), clipped at zero, for every row x of a 2-D array.

        One ``rows @ H.T`` product serves all rows, in the dtype numpy
        promotes the rows and H to; a real diagonal H scales the rows instead.
        """
        x = np.asarray(rows)
        q = np.einsum("ij,ij->i", x.conj(), _matmul(x, self.matrix.T)).real
        return np.maximum(q, 0.0)

    def weighted_vector_norm(self, x):
        """The H-norm of one vector: the one-row case of squared_norms."""
        v = np.asarray(x).reshape(1, -1)
        return float(math.sqrt(self.squared_norms(v)[0]))


def dissipativity_margin(a):
    """Largest eigenvalue of the Hermitian part of ``a``.

    This is lambda_max((A + A*)/2); ``a`` is dissipative (Re <Ax, x> <= 0
    for all x) iff the result is <= 0.  A generator G = A H with a Gram H
    needs no weighted margin: Re <HGx, x> = Re <Ay, y> with y = Hx, so G
    is dissipative in the H inner product iff A is plainly dissipative.
    An empty matrix has margin -inf, the max over no eigenvalues.
    """
    m = _square(a)
    return _per_member(
        _herm_eigvalsh(m, "matrix").max(axis=-1, initial=-np.inf), m)


# Numerator coefficients of the diagonal (13, 13) Pade approximant
# e^x ~ p(x)/p(-x), b_k = (26-k)! 13! / (26! k! (13-k)!), so b_0 = 1:
# with Higham's integer scaling (b_0 = 64764752532480000) the solve
# against the denominator rounds, and e^0 of a 1x1 matrix comes out as
# 1 - 2^-53 instead of 1.
_PADE13 = tuple(
    math.factorial(26 - k) * math.factorial(13)
    / (math.factorial(26) * math.factorial(k) * math.factorial(13 - k))
    for k in range(14))

#: largest 1-norm at which the (13, 13) approximant's backward error is
#: at most 2^-53 (Higham 2005)
_EXPM_THETA = 5.371920351148152


def expm(a, t=1.0):
    """Matrix exponential e^{At} by scaling and squaring.

    The degree-13 method of N. J. Higham, "The scaling and squaring
    method for the matrix exponential revisited", SIMAX 26:4 (2005):
    scale At by 2^-s so that its 1-norm is at most theta_13 = 5.37,
    evaluate the diagonal (13, 13) Pade approximant with six matrix
    products and one solve, then square s times.  In exact arithmetic
    the approximant's backward error is at most the unit roundoff 2^-53;
    the tests check agreement with scipy.linalg.expm within 1e-12
    relative up to ||At||_1 = 40 theta_13 (six squarings).  The rounding
    errors of the squarings grow with s, and an overflow of At or of a
    squaring raises OverflowError, with no numpy warning.  Stack members
    get their own s, all squared by one masked product (a 0-d mask for one
    matrix); a zero A, and any A at t = 0, gives the identity exactly.

    Parameters
    ----------
    a : square matrix
    t : nonnegative time
    """
    m = _square(a)
    t = float(t)
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError("t must be finite and nonnegative, got %r" % t)
    n = m.shape[-1]
    if n == 0:
        return m * t
    # an overflow is refused by name below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        m = m * t
        # the 1-norm (largest column sum) of each member
        nrm = np.abs(m).sum(axis=-2).max(axis=-1)
    _refuse(~np.isfinite(nrm), "||At|| overflowed", kind=OverflowError)
    squarings = np.array(
        [math.ceil(math.log2(v / _EXPM_THETA)) if v > _EXPM_THETA else 0
         for v in nrm.ravel().tolist()], dtype=int).reshape(nrm.shape)
    m = m / np.ldexp(1.0, squarings)[..., None, None]

    b = _PADE13
    ident = np.eye(n, dtype=m.dtype)
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = m @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
             + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    x = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(squarings.max(initial=0)):
            live = squarings > k
            x[live] = x[live] @ x[live]
    if not np.isfinite(x).all():
        _refuse(~np.isfinite(x).all(axis=(-2, -1)),
                "matrix exponential overflowed", kind=OverflowError)
    return x


ContractionReport = namedtuple(
    "ContractionReport", ["times", "norms", "tol", "passed"])
ContractionReport.__doc__ = """Norms of e^{At} at sampled times.

passed is true when every sampled norm is at most 1 + tol, the
finite-dimensional Lumer-Phillips test.  For a stack, each norm and
passed hold one entry per member.
"""


def contraction_certificate(a, *, times=(0.1, 1.0, 10.0), tol=1e-10):
    """Sample ||e^{At}|| and certify the contraction property.

    Parameters
    ----------
    a : square matrix
    times : nonempty iterable of finite nonnegative times (keyword only)
    tol : slack added to 1 when deciding the pass flag (keyword only)
    """
    m = _square(a)
    times = tuple(float(s) for s in times)
    if not times:
        raise ValueError("times must be nonempty")
    if not all(0.0 <= s < math.inf for s in times):
        raise ValueError("times must be finite and nonnegative")
    norms = tuple(op_norm(expm(m, s)) for s in times)
    passed = _per_member(np.less_equal(norms, 1.0 + tol).all(axis=0), m)
    return ContractionReport(times, norms, tol, passed)

"""Time integration, energy ledgers and finite-horizon input/output-map
norms.

Stepping is either the exact matrix exponential or the Crank-Nicolson
rational approximation; both map dissipative generators to contraction
steps, so energy ledgers certify rather than approximate.  A simulation
keeps the ledger, not the states.  A run of at least 16 dim steps goes
in chunks of 16: each chunk start is x + Q x of the one before, with
Q = S^16 - I kept apart from the identity.  A plain S^16 repeats its
rounding at every chunk and drifts about 10x further from a longdouble
ledger than one product per step; x + Q x drifts no further.

The input/output map on a horizon T is estimated by projecting inputs
onto piecewise constants and outputs onto per-step averages, which gives
a block lower-triangular Toeplitz matrix whose operator norm never
exceeds the true map norm and converges to it with O(1/nsteps) bias.
That norm comes from a matrix-free Golub-Kahan-Lanczos bidiagonalization
whose Ritz value is itself a lower bound and carries its own residual.
"""

import numbers
from collections import namedtuple

import numpy as np

from .numkernel import (
    Gram,
    _banded_inverse,
    _square,
    as_complex_matrix,
    dissipativity_margin,
    expm,
    op_norm,
    svd_solve,
)
from .sysnode import SystemNode

__all__ = [
    "Trajectory",
    "IoMapEstimate",
    "cn_step",
    "simulate_semigroup",
    "io_map_norm",
    "feedthrough_deviation",
]

_GKL_RTOL = 1e-5
_GKL_MAX_STEPS = 512
# states per step-and-ledger block, and rows per block of the simulate CSV:
# the one state buffer holds _LEDGER_BLOCK * dim * 8 bytes (16 if complex),
# 1.0 MB at dim 127, and each ledger temporary as much, whatever the
# number of steps
_LEDGER_BLOCK = 1024
# steps per chunk of a long trajectory, a power of two that divides
# _LEDGER_BLOCK
_CHUNK = 16


def cn_step(a, dt, order=None):
    """One-step Crank-Nicolson matrix (I - dt/2 A)^{-1}(I + dt/2 A).

    For dissipative A this is a contraction for every dt > 0.  Raises
    ValueError for an A with no rows, a dt that is not positive and
    finite, an ``order`` that does not permute A's unknowns, and an
    F = I - dt/2 A singular to working precision by the package's one
    rule (cond(F) not below COND_LIMIT).

    ``order`` lists A's unknowns by grid position (their own order when
    None).  An F whose inverse X numkernel._banded_inverse certifies in
    that order (the argument is in its docstring) gives S = 2X - I with
    no SVD; every other F (a stack, one of at most 16 rows, one not
    banded in the order, an uncertified one) gets S and the rule from
    numkernel.svd_solve.  The banded elimination pivots only inside its
    blocks.  For every simulate generator A = A_S H, with H the diagonal
    energy weight and A_S dissipative, H^{1/2} F H^{-1/2} =
    I - dt/2 H^{1/2} A_S H^{1/2} has Hermitian part at least I, and so
    does its renumbering; block LU of such a matrix is stable with no
    pivoting across blocks (J. W. Demmel, N. J. Higham and R. S.
    Schreiber, Numer. Linear Algebra Appl. 2, 1995), and the diagonal
    scaling by H^{1/2} only rescales the block LU factors of the
    renumbered F.  cn_step does not see H, which is why the inverse must
    pass its residual probe.  S itself is dense either way: a banded
    solve per step would cost the stepping loop some n/2 numpy calls
    where one product costs one.
    """
    m = _square(a, "A")
    if not m.shape[-1]:
        raise ValueError("A has no rows, got shape %s" % (m.shape,))
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive, got %g" % dt)
    if not np.isfinite(dt):
        raise ValueError("dt must be finite, got %r" % dt)
    if order is not None:
        order = np.asarray(order)
        if order.dtype.kind not in "iu" or not np.array_equal(
                np.sort(order), np.arange(m.shape[-1])):
            raise ValueError("order must permute A's %d unknowns"
                             % m.shape[-1])
    name = "I - (dt/2) A"
    ident = np.eye(m.shape[-1], dtype=m.dtype)
    # an overflowing dt/2 A is refused by name below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        factor = ident - (dt / 2.0) * m
    factor = as_complex_matrix(factor, name)
    inverse = _banded_inverse(factor, order)
    if inverse is None:
        return svd_solve(factor, ident + (dt / 2.0) * m, name)[0]
    # S = 2 F^{-1} - I, in the inverse's own buffer
    inverse *= 2.0
    inverse -= ident
    return inverse


Trajectory = namedtuple("Trajectory", ["times", "energy"])
Trajectory.__doc__ = """Energy ledger of a sampled semigroup trajectory.

times and energy are float64 arrays of one length; energy holds the
squared state norm (weighted when a Gram was supplied).  The states
themselves are not kept.
"""


IoMapEstimate = namedtuple(
    "IoMapEstimate", ["horizon", "nsteps", "norm_estimate", "method", "bias",
                      "iterations", "residual"])
IoMapEstimate.__doc__ = """Finite-horizon input/output-map norm estimate.

norm_estimate is the largest Ritz value of a Lanczos bidiagonalization
of the zero-order-hold Toeplitz discretization.  It lower-bounds the
Toeplitz operator norm, which lower-bounds the true map norm and
converges to it with O(1/nsteps) resolution bias, recorded as
bias = norm_estimate/nsteps.  method is "lanczos_bidiag"; iterations is
the number of bidiagonalization steps and residual the Ritz residual
||T^H u - norm_estimate v||, at most 1e-5 * norm_estimate unless the
step cap stopped the run.  The residual is checked after 4, 8, ..., 36,
44, 52, 60, 68, 80, ... steps, so iterations is one of these unless a
breakdown or the step cap ended the run.
"""


def _steps_of(T, dt):
    T = float(T)
    dt = float(dt)
    for name, value in (("T", T), ("dt", dt)):
        if not np.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    if dt <= 0.0:
        raise ValueError("dt must be positive, got %g" % dt)
    if T < dt:
        raise ValueError("T must be at least dt")
    nsteps = int(round(T / dt))
    # relative at every T: nsteps * dt rounds by a few eps T
    if abs(nsteps * dt - T) > 1e-9 * T:
        raise ValueError("dt = %g does not divide T = %g" % (dt, T))
    return nsteps


def simulate_semigroup(a, gram=None, x0=None, T=1.0, dt=1e-2,
                       stepper="expm", order=None):
    """March x' = Ax and record the (possibly weighted) squared norm.

    stepper is "expm" (exact) or "crank_nicolson"; the one-step matrix is
    built once and reused, so dt must divide T.  ``order`` goes to
    ``cn_step`` only: a wave's e^{A dt} in grid order fills with
    subnormals that slow every step.  The steps run in the dtype numpy
    promotes the one-step matrix and x0 to: float64 for a real generator
    and start, complex128 otherwise.  Each block of _LEDGER_BLOCK states
    is reduced to its energies before the next one overwrites it; the
    states are not kept.  Each energy, Gram.squared_norms (H = I for
    gram None), is nonnegative and, for A dissipative in the H inner
    product, nonincreasing up to roundoff.

    A run of nsteps >= 16 dim steps views each block as chunks of
    b = _CHUNK = 16 steps.  Q = S^b - I comes from Q = S - I by four
    doublings Q <- 2Q + Q Q, which cost 8 dim^3 flops, at most a quarter
    of the 2 nsteps dim^2 of the stepping.  Each chunk start is x + Q x
    of the one before, and each of the other b - 1 offsets of all chunks
    is one (chunks x dim) @ S^T product; the first state of a block is
    S times the last one of the block before.  A plain power P = S^b
    would repeat its own rounding, of order eps ||P||, at every chunk:
    against the states stepped in 80-bit longdouble (viscous wave, dims
    7 and 15, Crank-Nicolson, dt = 1e-3, 8,192 steps) its energies were
    off by up to 1.5-1.9e-13 of the current energy, one product per step
    by 1.1-1.9e-14, and x + Q x, whose rounding is of order eps ||Q||, by
    6.2-7.2e-15.  Shorter runs, and runs whose S^b overflows, take one
    np.matmul(S, x, out=) per step.

    An overflowing step e^{A dt} raises OverflowError naming dt, and
    states that overflow (a growing generator) raise OverflowError naming
    T at the first block whose energies are not finite, with no numpy
    warning.
    """
    m = as_complex_matrix(a, "A")
    if m.ndim != 2:
        raise ValueError("A must be one matrix, got shape %s" % (m.shape,))
    if not len(m):
        raise ValueError("A has no rows, got shape %s" % (m.shape,))
    if x0 is None:
        raise ValueError("x0 is required")
    x = np.asarray(x0).reshape(-1)
    if x.shape[0] != m.shape[0]:
        raise ValueError("x0 has dimension %d, expected %d"
                         % (x.shape[0], m.shape[0]))
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if not isinstance(gram, Gram):
        gram = Gram(np.eye(m.shape[0]) if gram is None else gram)
    if len(gram.matrix) != m.shape[0]:
        raise ValueError("operator dimension %d does not match gram "
                         "dimension %d" % (m.shape[0], len(gram.matrix)))
    nsteps = _steps_of(T, dt)
    if stepper == "expm":
        try:
            step = expm(m, float(dt))
        except OverflowError as exc:
            raise OverflowError("dt = %r is too large a step: %s"
                                % (float(dt), exc)) from exc
    elif stepper == "crank_nicolson":
        step = cn_step(m, float(dt), order)
    else:
        raise ValueError("unknown stepper %r" % (stepper,))
    # one cast here, so that matmul never mixes dtypes inside the loop
    step = step.astype(np.result_type(step, x), copy=False)

    dim = len(x)
    doublings = _CHUNK.bit_length() - 1
    # chunk when the doublings' 2 doublings dim^3 flops are at most a
    # quarter of the stepping's 2 nsteps dim^2
    chunk = _CHUNK if nsteps >= 4 * doublings * dim else 1
    power = step
    if chunk > 1:
        power = step - np.eye(dim, dtype=step.dtype)
        # a growing generator may overflow here; it steps one at a time
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(doublings):
                power = power @ power + 2.0 * power
        if not np.isfinite(power).all():
            chunk, power = 1, step

    times = float(dt) * np.arange(nsteps + 1)
    energy = np.empty(nsteps + 1)
    block = np.empty((min(_LEDGER_BLOCK, -(-(nsteps + 1) // chunk) * chunk),
                      dim), step.dtype)
    block[0] = x
    # row c * chunk + j of a block is offset j of chunk c; with chunk 1
    # every state is a chunk start and power is the step itself
    chunks = block.reshape(-1, chunk, dim)
    starts = chunks[:, 0]
    for start in range(0, nsteps + 1, _LEDGER_BLOCK):
        stop = min(start + _LEDGER_BLOCK, nsteps + 1)
        rows = block[:stop - start]
        # overflowing states are refused by T below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            if start:
                # the carry from the last state of the full block before
                np.matmul(step, block[-1], out=block[0])
            for c in range(1, -(-len(rows) // chunk)):
                np.matmul(power, starts[c - 1], out=starts[c])
                if chunk > 1:
                    starts[c] += starts[c - 1]
            for j in range(1, chunk):
                held = -(-(len(rows) - j) // chunk)
                np.matmul(chunks[:held, j - 1], step.T, out=chunks[:held, j])
            energy[start:stop] = gram.squared_norms(rows)
        if not np.isfinite(energy[start:stop]).all():
            raise OverflowError("the states overflowed before T = %r"
                                % float(T))
    return Trajectory(times, energy)


def _quadrature_matrices(a, dt):
    """(E, Theta/dt, Psi/dt^2), with E = e^{A dt}, Theta = int_0^dt e^{As}
    ds and Psi = int_0^dt (dt - s) e^{As} ds: the first block row of the
    exponential of the dimensionless [[A dt, I, 0], [0, 0, I], [0, 0, 0]]
    (C. F. Van Loan, IEEE TAC 23:3, 1978).  Exact up to expm accuracy;
    needing no inverse, singular A (the integrator's A = 0) is no special
    case.
    """
    n = a.shape[0]
    aug = np.zeros((3 * n, 3 * n), dtype=a.dtype)
    # an overflowing A dt is refused by expm, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(a, dt, out=aug[:n, :n])
    aug[:2 * n, n:] = np.eye(2 * n)
    f = expm(aug)
    return f[:n, :n], f[:n, n:2 * n], f[:n, 2 * n:]


def _toeplitz_blocks(node, T, nsteps):
    """ZOH input-average-output Toeplitz blocks of the finite-horizon map.

    Block 0 is D + dt C (Psi/dt^2) B and block k >= 1 is
    dt C (Theta/dt) E^{k-1} (Theta/dt) B (_quadrature_matrices).
    Projecting inputs onto piecewise constants and outputs onto step
    averages makes the assembled norm a lower bound of the true
    input/output-map norm.  nsteps must be an integer (not a bool) of at
    least 4.  A step T/nsteps below the smallest normal double loses bits
    in A dt and raises ValueError naming T.  As ||e^{A dt}||_2 <=
    e^{mu dt}, mu the dissipativity margin of A, a computed E above
    e^{max(mu, 0) dt} (1 + 1e-8) has lost that bound to rounding and
    raises OverflowError; the guard errs towards refusal.
    """
    if isinstance(nsteps, bool) or not isinstance(nsteps, numbers.Integral):
        raise ValueError("nsteps must be an integer, got %r" % (nsteps,))
    nsteps = int(nsteps)
    if nsteps < 4:
        raise ValueError("nsteps must be at least 4, got %d" % nsteps)
    T = float(T)
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite, got %r" % T)
    dt = T / nsteps
    if dt < np.finfo(float).tiny:
        raise ValueError("T = %r is too short a horizon for nsteps = %d: "
                         "the step is below the smallest normal double"
                         % (T, nsteps))
    e_step, theta, psi = _quadrature_matrices(node.a, dt)
    margin = dissipativity_margin(node.a)
    with np.errstate(over="ignore"):
        growth = np.exp(max(margin, 0.0) * dt)
    if op_norm(e_step) > growth * (1.0 + 1e-8):
        raise OverflowError("step exponential exceeds its bound e^(mu dt)")
    blocks = np.empty((nsteps, node.noutputs, node.ninputs),
                      dtype=np.result_type(node.a, node.b, node.c, node.d))
    # huge blocks overflow here unwarned; io_map_norm refuses them by name
    with np.errstate(over="ignore", invalid="ignore"):
        prop = theta @ node.b
        blocks[0] = node.d + dt * (node.c @ (psi @ node.b))
        ctheta = dt * (node.c @ theta)
        for k in range(1, nsteps):
            blocks[k] = ctheta @ prop
            prop = e_step @ prop
    return blocks


def _fft_kernel(blocks):
    """Spectrum of the blocks zero-padded to a power of two >= 2 nsteps.

    The padding makes the circular convolution agree with the linear one
    on the first nsteps samples.  Real blocks give the half spectrum.
    """
    nsteps = blocks.shape[0]
    size = 1
    while size < 2 * nsteps:
        size *= 2
    if np.isrealobj(blocks):
        return np.fft.rfft(blocks, n=size, axis=0)
    return np.fft.fft(blocks, n=size, axis=0)


def _block_convolve(kernel_fft, vec):
    """First nsteps samples of the block convolution of kernel and vec.

    A real vec takes kernel_fft as a half spectrum (rfft).  The adjoint
    Toeplitz operator is this same call with the per-frequency conjugate
    transpose of the kernel: that is the adjoint of the padded circulant,
    and the padding keeps its wrapped part out of the first nsteps samples.
    """
    if np.isrealobj(vec):
        size = 2 * (kernel_fft.shape[0] - 1)
        forward, inverse = np.fft.rfft, np.fft.irfft
    else:
        size = kernel_fft.shape[0]
        forward, inverse = np.fft.fft, np.fft.ifft
    yf = (kernel_fft @ forward(vec, n=size, axis=0)[..., None])[..., 0]
    return inverse(yf, n=size, axis=0)[:vec.shape[0]]


def _ritz(alphas, betas):
    """Largest singular value of the upper bidiagonal B_k and its residual.

    The residual beta_k |e_k^T p_1|, with p_1 the top left singular vector
    of B_k, is ||T^H u - theta v|| for the Ritz pair (u, v) = (U_k p_1,
    V_k q_1); T v = theta u holds exactly.  theta^2 and p_1 are the top
    eigenpair of the tridiagonal B_k B_k^T, which needs neither the right
    singular vectors nor the SVD's workspace; theta^2 has an error of
    order eps theta^2, so theta keeps its relative accuracy.
    """
    bidiag = np.diag(alphas) + np.diag(betas[:-1], 1)
    values, vectors = np.linalg.eigh(bidiag @ bidiag.T)
    return (float(np.sqrt(max(values[-1], 0.0))),
            float(betas[-1] * abs(vectors[-1, -1])))


def _next_check(k):
    """Step count of the Ritz check after the one at k steps.

    Every 4 steps up to 36, then about every k/8 (4, 8, ..., 36, 44, 52,
    60, 68, 80, ...), so the O(k^3) eigensolves of _ritz sum to a constant
    times the last one.  The checks are multiples of 4 and a Ritz value
    never falls as k grows (B_k leads B_{k+1}), so the run stops no
    earlier, and no lower, than checking every 4 steps would.
    """
    return max(k + 4, 4 * -(-9 * k // 32))


def _toeplitz_norm(blocks):
    """Largest singular value of the block lower-triangular Toeplitz operator.

    Golub-Kahan-Lanczos bidiagonalization T V_k = U_k B_k from a fixed
    random start, matrix-free through FFT block convolutions (of T^H
    instead when p < m, so that V lies on the smaller side).  Only V is
    stored and fully reorthogonalized by classical Gram-Schmidt, with a
    second pass only when the first left under 1/sqrt(2) of the norm it
    started from (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 1976);
    each U vector lives for one step.  Real blocks run in float64.
    Returns (theta, iterations, residual): theta, the largest Ritz value,
    lower-bounds the operator norm.  The Ritz residual is checked at the
    step counts of _next_check, from 4 on, and the run stops at the first
    check where it is at most _GKL_RTOL * theta, on breakdown (then theta
    is exact) or after min(_GKL_MAX_STEPS, nsteps p, nsteps m) steps,
    where the residual shows how far the run was from converging.
    """
    nsteps, p, m = blocks.shape
    fwd = _fft_kernel(blocks)
    adj = np.conj(np.transpose(fwd, (0, 2, 1)))
    if p < m:
        # ||T|| = ||T^H||: keep the stored basis on the smaller side, where
        # exhausting it ends in an exact breakdown
        fwd, adj, p, m = adj, fwd, m, p
    cap = min(_GKL_MAX_STEPS, nsteps * m)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(nsteps * m)
    if np.iscomplexobj(blocks):
        start = start + 1j * rng.standard_normal(nsteps * m)
    # rows past the last step are never written, so their pages never
    # become resident
    basis = np.empty((cap, nsteps * m), dtype=start.dtype)
    basis[0] = start / np.linalg.norm(start)
    alphas, betas = [], []
    u, beta = 0.0, 0.0
    check = 4
    for k in range(cap):
        w = _block_convolve(fwd, basis[k].reshape(nsteps, m)).ravel()
        w -= beta * u
        alpha = float(np.linalg.norm(w))
        if alpha <= 1e-14 * beta:
            # T maps the new v into span(U): the Krylov spaces are
            # invariant and B's norm is exact (a zero operator gives 0)
            alphas.append(0.0)
            betas.append(0.0)
            break
        u = w / alpha
        r = (_block_convolve(adj, u.reshape(nsteps, p)).ravel()
             - alpha * basis[k])
        before = np.linalg.norm(r)
        r -= (basis[:k + 1] @ r.conj()).conj() @ basis[:k + 1]
        beta = float(np.linalg.norm(r))
        if beta < before / np.sqrt(2.0):
            r -= (basis[:k + 1] @ r.conj()).conj() @ basis[:k + 1]
            beta = float(np.linalg.norm(r))
        alphas.append(alpha)
        betas.append(beta)
        if beta <= 1e-14 * alpha or k + 1 == cap:
            break
        if k + 1 == check:
            theta, residual = _ritz(alphas, betas)
            if residual <= _GKL_RTOL * theta:
                return theta, k + 1, residual
            check = _next_check(check)
        basis[k + 1] = r / beta
    theta, residual = _ritz(alphas, betas)
    return theta, len(alphas), residual


def io_map_norm(node, T, nsteps):
    """Norm estimate of the finite-horizon input/output map.

    Assembles the zero-order-hold Toeplitz discretization and returns its
    operator norm: a lower bound of the true L^2(0,T) map norm with
    O(1/nsteps) resolution bias (recorded in the estimate).  The norm is
    the top Ritz value of a deterministic matrix-free Lanczos
    bidiagonalization, reported with its step count and Ritz residual.
    The bidiagonalization runs on the blocks scaled in place by 2^-e, e
    the binary exponent of their largest part, and its results are scaled
    back by 2^e: exactly, so no map is too small or too large.  Non-finite
    blocks, and a norm that overflows when scaled back, raise OverflowError.
    A node with no inputs or no outputs has the zero map, answered as 0
    with no iterations once T and nsteps are validated.  A node with no
    state has the map D, whose blocks are D, 0, ..., 0.
    """
    if not isinstance(node, SystemNode):
        raise TypeError("io_map_norm expects a SystemNode")
    blocks = _toeplitz_blocks(node, T, nsteps)
    if blocks.size == 0:
        return IoMapEstimate(horizon=float(T), nsteps=int(nsteps),
                             norm_estimate=0.0, method="lanczos_bidiag",
                             bias=0.0, iterations=0, residual=0.0)
    # real and imaginary parts alike, with no temporary; a NaN propagates
    parts = blocks.view(np.float64)
    largest = max(parts.max(), -parts.min())
    if not np.isfinite(largest):
        raise OverflowError("Toeplitz blocks overflowed")
    exponent = int(np.frexp(largest)[1])
    np.ldexp(parts, -exponent, out=parts)
    theta, iterations, residual = _toeplitz_norm(blocks)
    with np.errstate(over="ignore"):
        scaled_back = np.ldexp((theta, residual), exponent)
    if not np.isfinite(scaled_back).all():
        raise OverflowError("input/output-map norm overflowed")
    norm, residual = scaled_back.tolist()
    return IoMapEstimate(horizon=float(T), nsteps=int(nsteps),
                         norm_estimate=norm, method="lanczos_bidiag",
                         bias=norm / int(nsteps), iterations=iterations,
                         residual=residual)


def feedthrough_deviation(node, t_list, nsteps):
    """Distance from the input/output map to instantaneous feedthrough.

    For each horizon in t_list, the io_map_norm estimate of the node with
    D = 0, whose map is the node's own less D.  For delay-free nodes with
    bounded blocks this grows linearly in the horizon.
    """
    if not isinstance(node, SystemNode):
        raise TypeError("feedthrough_deviation expects a SystemNode")
    node = SystemNode(node.a, node.b, node.c, np.zeros_like(node.d))
    return [io_map_norm(node, horizon, nsteps).norm_estimate
            for horizon in t_list]

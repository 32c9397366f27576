"""Time integration, energy ledgers and finite-horizon input/output-map
norms.

Stepping is either the exact matrix exponential or the Crank-Nicolson
rational approximation; both map dissipative generators to contraction
steps, so energy ledgers certify rather than approximate.  A simulation
keeps the ledger, not the states.

The input/output map on a horizon T is estimated by projecting inputs
onto piecewise constants and outputs onto per-step averages, which gives
a block lower-triangular Toeplitz matrix whose operator norm never
exceeds the true map norm and converges to it with O(1/nsteps) bias.
That norm comes from a matrix-free Golub-Kahan-Lanczos bidiagonalization
whose Ritz value is itself a lower bound and carries its own residual.
"""

from collections import namedtuple

import numpy as np

from .numkernel import (
    Gram,
    _require_regular_given,
    _square,
    as_complex_matrix,
    expm,
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
_GKL_CHECK_EVERY = 4
_GKL_MAX_STEPS = 512
# states per step-and-ledger block, and rows per block of the simulate CSV:
# the one state buffer holds _LEDGER_BLOCK * dim * 8 bytes (16 if complex),
# 1.0 MB at dim 127, and each ledger temporary as much, whatever the
# number of steps
_LEDGER_BLOCK = 1024


def cn_step(a, dt):
    """One-step Crank-Nicolson matrix (I - dt/2 A)^{-1}(I + dt/2 A).

    For dissipative A this is a contraction for every dt > 0.  Raises
    ValueError when F = I - dt/2 A is singular to working precision by
    the package's one rule (cond(F) not below COND_LIMIT).  The LU solve
    of F X = I + dt/2 A = 2I - F gives F^{-1} = (X + I)/2 for free, and
    ||F||_F ||(X + I)/2||_F, an upper bound on cond(F) = ||F||_2
    ||F^{-1}||_2, decides the rule with no SVD when it is below
    COND_LIMIT / 100.  That is sound: the LU solve is backward stable, so
    the bound is at least the cond of some F + E with ||E|| <= g n eps
    ||F|| (g the pivot growth), and when cond(F) >= COND_LIMIT,
    sigma_min(F + E) <= (1 / COND_LIMIT + g n eps) ||F||, which keeps
    that cond above COND_LIMIT / 100 while g n eps < 9.9e-11 (n eps is
    1.7e-13 at n = 767).  Otherwise, and when the LU fails, the
    values-only SVD of F decides (numkernel._require_regular_given).
    For dissipative A, ||F^{-1}||_2 <= 1, so the bound decides unless
    n (1 + dt/2 ||A||_2) nears 1e10.
    """
    m = _square(a, "A")
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive, got %g" % dt)
    name = "I - (dt/2) A"
    ident = np.eye(m.shape[-1], dtype=m.dtype)
    # an overflowing dt/2 A is refused by name below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        factor = ident - (dt / 2.0) * m
        step = ident + (dt / 2.0) * m
    factor = as_complex_matrix(factor, name)
    try:
        # the solve replaces its right-hand side I + dt/2 A, which is freed
        step = np.linalg.solve(factor, step)
    except np.linalg.LinAlgError:
        _require_regular_given(factor, None, name)
        raise
    _require_regular_given(factor, (step + ident) / 2.0, name)
    return step


class Trajectory(object):
    """Energy ledger of a sampled semigroup trajectory.

    times and energy share one length, nsamples.  energy holds the
    squared state norm (weighted when a Gram was supplied); the states
    themselves are not kept.
    """

    def __init__(self, dt, times, energy):
        self.dt = float(dt)
        self.times = np.asarray(times, dtype=float)
        self.energy = np.asarray(energy, dtype=float)
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.energy.shape != self.times.shape:
            raise ValueError("times and energy must share one length")
        if (self.energy < -1e-15).any():
            raise ValueError("energy entries must be nonnegative")

    @property
    def nsamples(self):
        return self.times.shape[0]


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
step cap stopped the run.
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
    if abs(nsteps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("dt = %g does not divide T = %g" % (dt, T))
    return nsteps


def simulate_semigroup(a, gram=None, x0=None, T=1.0, dt=1e-2,
                       stepper="expm"):
    """March x' = Ax and record the (possibly weighted) squared norm.

    stepper is "expm" (exact) or "crank_nicolson"; the one-step matrix is
    built once and reused, so dt must divide T.  The steps run in the
    dtype numpy promotes the one-step matrix and x0 to: float64 for a
    real generator and start, complex128 otherwise.  Each block of
    _LEDGER_BLOCK states is reduced to its energies before the next one
    overwrites it; the states are not kept.  For A dissipative in the
    supplied inner product the energy is nonincreasing up to roundoff.
    """
    m = as_complex_matrix(a, "A")
    if m.ndim != 2:
        raise ValueError("A must be one matrix, got shape %s" % (m.shape,))
    if x0 is None:
        raise ValueError("x0 is required")
    x = np.asarray(x0).reshape(-1)
    if x.shape[0] != m.shape[0]:
        raise ValueError("x0 has dimension %d, expected %d"
                         % (x.shape[0], m.shape[0]))
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if gram is not None:
        gram = gram if isinstance(gram, Gram) else Gram(gram)
        gram.check_dim(m.shape[0])
    nsteps = _steps_of(T, dt)
    if stepper == "expm":
        step = expm(m, float(dt))
    elif stepper == "crank_nicolson":
        step = cn_step(m, float(dt))
    else:
        raise ValueError("unknown stepper %r" % (stepper,))
    # one cast here, so that matmul never mixes dtypes inside the loop
    step = step.astype(np.result_type(step, x), copy=False)

    times = float(dt) * np.arange(nsteps + 1)
    energy = np.empty(nsteps + 1)
    block = np.empty((min(_LEDGER_BLOCK, nsteps + 1),) + x.shape, step.dtype)
    block[0] = x
    for start in range(0, nsteps + 1, _LEDGER_BLOCK):
        stop = min(start + _LEDGER_BLOCK, nsteps + 1)
        rows = block[:stop - start]
        # row -1 holds the last state of the full block before: the carry
        for k in range(1 if start == 0 else 0, stop - start):
            np.matmul(step, block[k - 1], out=block[k])
        if gram is None:
            energy[start:stop] = np.einsum("ij,ij->i", rows.conj(), rows).real
        else:
            energy[start:stop] = gram.squared_norms(rows)
    return Trajectory(dt, times, energy)


def _quadrature_matrices(a, b, dt):
    """(E, Phi, Theta, Psi2) step integrals from one augmented exponential.

    E = e^{A dt}, Phi = int e^{As} ds B, Theta = int e^{As} ds,
    Psi2 = int (dt - s) e^{As} ds B; all exact up to expm accuracy.  The
    augmented form needs no inverse, so singular A (the wave Cayley node)
    is no special case.
    """
    n, m = a.shape[0], b.shape[1]
    w = m + n
    aug = np.zeros((n + 2 * w, n + 2 * w), dtype=np.result_type(a, b))
    aug[:n, :n] = a
    aug[:n, n:n + m] = b
    aug[:n, n + m:n + w] = np.eye(n)
    aug[n:n + w, n + w:] = np.eye(w)
    f = expm(aug, dt)
    e_step = f[:n, :n]
    phi = f[:n, n:n + m]
    theta = f[:n, n + m:n + w]
    psi2 = f[:n, n + w:n + w + m]
    return e_step, phi, theta, psi2


def _toeplitz_blocks(node, T, nsteps):
    """ZOH input-average-output Toeplitz blocks of the finite-horizon map.

    Block 0 is D + (1/dt) C Psi2; block k >= 1 is
    (1/dt) C Theta e^{A (k-1) dt} Phi.  Projecting inputs onto piecewise
    constants and outputs onto step averages makes the assembled norm a
    lower bound of the true input/output-map norm.
    """
    nsteps = int(nsteps)
    if nsteps < 4:
        raise ValueError("nsteps must be at least 4, got %d" % nsteps)
    dt = float(T) / nsteps
    if dt <= 0.0:
        raise ValueError("T must be positive")
    e_step, phi, theta, psi2 = _quadrature_matrices(node.a, node.b, dt)
    blocks = np.empty((nsteps, node.noutputs, node.ninputs),
                      dtype=np.result_type(node.a, node.b, node.c, node.d))
    blocks[0] = node.d + (1.0 / dt) * (node.c @ psi2)
    ctheta = (1.0 / dt) * (node.c @ theta)
    prop = phi
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
    V_k q_1); T v = theta u holds exactly.
    """
    bidiag = np.diag(alphas) + np.diag(betas[:-1], 1)
    left, sing, _ = np.linalg.svd(bidiag)
    return float(sing[0]), float(betas[-1] * abs(left[-1, 0]))


def _toeplitz_norm(blocks):
    """Largest singular value of the block lower-triangular Toeplitz operator.

    Golub-Kahan-Lanczos bidiagonalization T V_k = U_k B_k from a fixed
    random start, matrix-free through FFT block convolutions (of T^H
    instead when p < m, so that V lies on the smaller side).  Only V is
    stored and fully reorthogonalized (Gram-Schmidt twice); each U vector
    lives for one step.  Real blocks run in float64.  Returns
    (theta, iterations, residual): theta, the largest Ritz value,
    lower-bounds the operator norm.  The Ritz residual is checked every
    _GKL_CHECK_EVERY steps and the run stops once it is at most
    _GKL_RTOL * theta, on breakdown (then theta is exact) or after
    min(_GKL_MAX_STEPS, nsteps p, nsteps m) steps, where the residual
    shows how far the run was from converging.
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
        for _ in range(2):
            r -= (basis[:k + 1] @ r.conj()).conj() @ basis[:k + 1]
        beta = float(np.linalg.norm(r))
        alphas.append(alpha)
        betas.append(beta)
        if beta <= 1e-14 * alpha or k + 1 == cap:
            break
        if (k + 1) % _GKL_CHECK_EVERY == 0:
            theta, residual = _ritz(alphas, betas)
            if residual <= _GKL_RTOL * theta:
                return theta, k + 1, residual
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
    """
    if not isinstance(node, SystemNode):
        raise TypeError("io_map_norm expects a SystemNode")
    blocks = _toeplitz_blocks(node, T, nsteps)
    norm, iterations, residual = _toeplitz_norm(blocks)
    return IoMapEstimate(horizon=float(T), nsteps=int(nsteps),
                         norm_estimate=norm, method="lanczos_bidiag",
                         bias=norm / int(nsteps), iterations=iterations,
                         residual=residual)


def feedthrough_deviation(node, t_list, nsteps):
    """Distance from the input/output map to instantaneous feedthrough.

    For each horizon in t_list, the norm of the Toeplitz discretization
    with the block-diagonal feedthrough D removed.  For delay-free nodes
    with bounded blocks this grows linearly in the horizon.
    """
    if not isinstance(node, SystemNode):
        raise TypeError("feedthrough_deviation expects a SystemNode")
    deviations = []
    for horizon in t_list:
        blocks = _toeplitz_blocks(node, horizon, nsteps)
        blocks[0] = blocks[0] - node.d
        deviations.append(_toeplitz_norm(blocks)[0])
    return deviations

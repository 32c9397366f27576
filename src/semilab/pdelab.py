"""Mimetic 1-D discretizations of the wave, damped-wave and
degenerate-parabolic extended operators.

All constructions live on a staggered grid over (0, 1): scalar unknowns
with Dirichlet conditions sit on interior nodes xi_i = i h, flux-like
unknowns on cell midpoints xi_{i-1/2}.  The forward difference G (nodes
to midpoints, zero boundary values) and its negative transpose Dv
(midpoints to nodes) satisfy Dv = -G^T entrywise, so the discrete
integration-by-parts identity is exact and the wave operator
ceil(0 & Dv \\ G & 0) is skew at machine precision, not approximately.

The degenerate family samples beta(xi) = xi^{-alpha} at midpoints only
(the smallest midpoint is h/2 > 0, so no regularization is needed) and
realizes the boundary coupling x1(1) = -kappa x2(1) by eliminating the
ghost boundary value, which makes the discrete quadratic form equal
-kappa |x2(1)|^2 exactly in the h-weighted inner product.
"""

import numbers

import numpy as np

from .cayley import AccretiveOperator
from .feedback import internal_loop
from .numkernel import Gram
from .sysnode import ExtendedOperator

__all__ = [
    "Grid1D",
    "PdeCoefficients",
    "grad_div_pair",
    "wave_ext",
    "wave_viscous_ext",
    "wave_structural_ext",
    "wave_combined_ext",
    "degenerate_ext",
    "degenerate_as1",
    "degenerate_loop_path",
    "energy_gram",
    "beta_midpoints",
    "sine_start",
]


class Grid1D(object):
    """Uniform staggered grid on (0, 1) with n_cells cells.

    Interior nodes xi_i = i h (i = 1 .. n-1) carry Dirichlet scalar
    unknowns; midpoints xi_{i-1/2} (i = 1 .. n) carry flux unknowns.
    """

    def __init__(self, n_cells):
        if isinstance(n_cells, bool) or \
                not isinstance(n_cells, numbers.Integral):
            raise ValueError("n_cells must be an integer, got %r"
                             % (n_cells,))
        n = int(n_cells)
        if n < 2:
            raise ValueError("n_cells must be at least 2, got %d" % n)
        self.n_cells = n
        self.h = 1.0 / n

    @property
    def interior_nodes(self):
        return self.h * np.arange(1, self.n_cells)

    @property
    def midpoints(self):
        return self.h * (np.arange(1, self.n_cells + 1) - 0.5)


def _sample(coefficient, points, name):
    """Broadcast a scalar, callable or array coefficient onto grid points.

    A callable is evaluated with overflow warnings off: a sample that
    overflows is refused below by name.
    """
    if callable(coefficient):
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(coefficient(points), dtype=float)
    else:
        values = np.asarray(coefficient, dtype=float)
    if values.ndim == 0:
        values = np.full(points.shape, float(values))
    if values.shape != points.shape:
        raise ValueError("%s must provide %d samples, got shape %s"
                         % (name, len(points), values.shape))
    if not np.isfinite(values).all():
        raise ValueError("%s has non-finite samples" % name)
    return values


class PdeCoefficients(object):
    """Per-point coefficient samples for the PDE constructions.

    rho (mass density, per interior node) and young (Young's modulus, per
    midpoint) must be bounded away from zero; the recorded floor is the
    smallest sample.  k_v (viscous, per node) and k_s (structural, per
    midpoint) are nonnegative.  alpha_exp in (0, 1) is the degeneracy
    exponent of beta(xi) = xi^{-alpha}, kappa >= 0 the boundary coupling,
    and s_fun (per midpoint) the positive multiplier s(xi).

    Scalars and callables are broadcast/sampled onto the grid; arrays are
    validated against the expected size.
    """

    def __init__(self, grid, rho=1.0, young=1.0, k_v=0.0, k_s=0.0,
                 alpha_exp=0.5, kappa=0.0, s_fun=1.0):
        if not isinstance(grid, Grid1D):
            grid = Grid1D(grid)
        self.grid = grid
        self.rho = _sample(rho, grid.interior_nodes, "rho")
        self.young = _sample(young, grid.midpoints, "young")
        self.k_v = _sample(k_v, grid.interior_nodes, "k_v")
        self.k_s = _sample(k_s, grid.midpoints, "k_s")
        self.s_fun = _sample(s_fun, grid.midpoints, "s_fun")
        self.alpha_exp = float(alpha_exp)
        self.kappa = float(kappa)
        if not 0.0 < self.alpha_exp < 1.0:
            raise ValueError("alpha_exp must lie in (0, 1), got %g"
                             % self.alpha_exp)
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and nonnegative, got %g"
                             % self.kappa)
        for key in ("k_v", "k_s"):
            if (getattr(self, key) < 0.0).any():
                raise ValueError("%s must be nonnegative" % key)
        floor = min(self.rho.min(), self.young.min(), self.s_fun.min())
        if floor <= 0.0:
            raise ValueError("rho, young and s_fun must be bounded away "
                             "from zero; smallest sample is %g" % floor)
        self.positivity_floor = float(floor)


def _forward_difference(grid):
    """The one difference stencil: the n-square (x_i - x_{i-1})/h from
    nodes xi_1 .. xi_n (xi_n = 1) to midpoints, x(0) = 0 eliminated."""
    n = grid.n_cells
    h = grid.h
    d1 = np.zeros((n, n))
    idx = np.arange(n)
    d1[idx, idx] = 1.0 / h
    d1[idx[1:], idx[:-1]] = -1.0 / h
    return d1


def grad_div_pair(grid):
    """Forward-difference gradient G and its exact negative adjoint Dv.

    G, the stencil without the node xi = 1, maps n-1 interior node values
    to n midpoint values with zero boundary values; Dv = -G^T maps
    midpoint values back to interior nodes.  Both are float64.
    """
    g = np.ascontiguousarray(_forward_difference(grid)[:, :-1])
    return g, -g.T


def _wave_order(grid):
    """The wave state (interior nodes, then midpoints) by grid position."""
    return np.argsort(np.concatenate([grid.interior_nodes, grid.midpoints]))


def energy_gram(grid, coeffs):
    """Energy weight H = diag(1/rho, young) on (momentum, strain) states.

    A rho so small that 1/rho overflows is refused by name.
    """
    with np.errstate(over="ignore"):
        inverse = 1.0 / coeffs.rho
    if not np.isfinite(inverse).all():
        raise ValueError("rho is too small: 1/rho overflows (smallest "
                         "sample %r)" % float(coeffs.rho.min()))
    return Gram(np.diag(np.concatenate([inverse, coeffs.young])))


def sine_start(grid, degenerate=False):
    """sin(pi xi) as the degenerate x, else as wave momentum (zero strain)."""
    if degenerate:
        return np.sin(np.pi * grid.midpoints)
    return np.concatenate([np.sin(np.pi * grid.interior_nodes),
                           np.zeros(grid.n_cells)])


def beta_midpoints(grid, alpha_exp):
    """Samples of beta(xi) = xi^{-alpha} at the cell midpoints."""
    return grid.midpoints ** (-float(alpha_exp))


def wave_ext(grid):
    """Skew extended operator ceil(0 & Dv \\ G & 0) of the 1-D wave."""
    g, dv = grad_div_pair(grid)
    n1, n2 = g.shape[1], g.shape[0]
    return ExtendedOperator(np.zeros((n1, n1)), dv, g, np.zeros((n2, n2)))


def _damped_wave(grid, coeffs, keys, require_uniform):
    """The wave with one damping channel per key, in key order.

    "k_s" is the structural channel at the midpoints (A12 block Dv) and
    "k_v" the viscous one at the nodes (A12 block I).  A21 = -A12^T keeps
    the extended operator skew, so the loop through the accretive
    S = diag(samples) is dissipative; with require_uniform every
    coefficient must be uniformly positive, and S uniformly accretive.
    """
    g, dv = grad_div_pair(grid)
    nn, nm = g.shape[1], g.shape[0]
    for key in keys:
        if require_uniform and getattr(coeffs, key).min() <= 0.0:
            raise ValueError("%s must be uniformly positive for a uniformly "
                             "accretive loop operator" % key)
    a11 = np.block([[np.zeros((nn, nn)), dv], [g, np.zeros((nm, nm))]])
    a12 = np.block([[dv if key == "k_s" else np.eye(nn) for key in keys],
                    [np.zeros((nm, nm if key == "k_s" else nn))
                     for key in keys]])
    ext = ExtendedOperator(a11, a12, np.negative(a12.T, order="C"),
                           np.zeros((a12.shape[1],) * 2))
    s = np.diag(np.concatenate([getattr(coeffs, key) for key in keys]))
    return ext, energy_gram(grid, coeffs), AccretiveOperator(s)


def wave_viscous_ext(grid, coeffs, require_uniform=False):
    """Viscously damped wave: extended operator, energy Gram, S_v = diag(k_v).

    State (momentum at nodes, strain at midpoints), loop channel at the
    nodes; blocks ceil(0 & Dv & I \\ G & 0 & 0 \\ -I & 0 & 0).
    """
    return _damped_wave(grid, coeffs, ("k_v",), require_uniform)


def wave_structural_ext(grid, coeffs, require_uniform=False):
    """Structurally damped wave: extended operator, energy Gram, S_s = diag(k_s).

    State (velocity-like at nodes, strain at midpoints), loop channel at
    the midpoints; the loop channel feeds Dv into the first state row and
    taps G from the first state column, so the loop yields
    ceil(Dv S_s G & Dv \\ G & 0).
    """
    return _damped_wave(grid, coeffs, ("k_s",), require_uniform)


def wave_combined_ext(grid, coeffs, require_uniform=True):
    """Wave with both dampings; loop channel (structural midpoints, viscous nodes).

    S_vs = diag(k_s, k_v) is uniformly accretive only when both
    coefficients are uniformly positive, and the contraction argument
    needs exactly that, so a vanishing coefficient raises by default.
    """
    return _damped_wave(grid, coeffs, ("k_s", "k_v"), require_uniform)


def degenerate_ext(grid, coeffs):
    """Degenerate-parabolic extended operator with coupled boundary.

    Realizes ceil(0 & d/dxi & 0 \\ d/dxi & 0 & M_beta* \\ 0 & -M_beta & 0)
    with x1 on midpoints, x2 on nodes xi_1 .. xi_n (x2(0) = 0 eliminated)
    and the loop channel e on midpoints; beta is sampled at midpoints.
    The coupling x1(1) = -kappa x2(1) is eliminated into the last node
    row, so Re <A_ext v, v> equals -kappa |x2(1)|^2 exactly in the
    h-weighted inner product.
    """
    n = grid.n_cells
    d1 = _forward_difference(grid)
    beta = np.diag(beta_midpoints(grid, coeffs.alpha_exp))
    zeros_n = np.zeros((n, n))
    a11 = np.block([[zeros_n, d1], [-d1.T, zeros_n]])
    a11[-1, -1] = -coeffs.kappa / grid.h
    a12 = np.vstack([zeros_n, beta])
    a21 = np.hstack([zeros_n, -beta])
    return ExtendedOperator(a11, a12, a21, zeros_n)


def degenerate_as1(grid, coeffs):
    """Direct assembly of the degenerate diffusion operator A_{S,1}.

    Builds d/dxi ( d(xi) d/dxi x ) on the midpoint unknowns with
    diffusivity d = 1/(s^{-1} + beta^2) sampled at midpoints, flux
    boundary condition (d x')(0) = 0 and the Robin coupling
    x(1) = -kappa (d x')(1) eliminated into the last flux entry.
    """
    n = grid.n_cells
    h = grid.h
    d1 = _forward_difference(grid)
    beta = beta_midpoints(grid, coeffs.alpha_exp)
    # a subnormal s has 1/s = inf, which gives d = 0, its limit as s -> 0
    with np.errstate(over="ignore", divide="ignore"):
        diff = 1.0 / (1.0 / coeffs.s_fun + beta ** 2)
        # Robin elimination at xi = 1 shrinks the last flux coefficient
        diff[n - 1] = 1.0 / (1.0 / diff[n - 1] + coeffs.kappa / h)
    return d1 @ (diff[:, None] * -d1.T)


def degenerate_loop_path(grid, coeffs):
    """A_{S,1} through two internal loops, for comparison with degenerate_as1.

    First loop: degenerate_ext with S = I, giving the operator on
    (x1, x2) with the -beta^2 damping.  That operator is repartitioned
    with x2 as the new loop channel and closed through diag(s), which
    eliminates x2 and leaves the diffusion operator on x1.
    """
    n = grid.n_cells
    ext = degenerate_ext(grid, coeffs)
    stage1 = internal_loop(ext, np.eye(n))
    if stage1.a_s is None:
        raise ValueError("first-stage loop unexpectedly unsolvable")
    as0 = stage1.a_s
    ext2 = ExtendedOperator(as0[:n, :n], as0[:n, n:], as0[n:, :n], as0[n:, n:])
    stage2 = internal_loop(ext2, np.diag(coeffs.s_fun))
    if stage2.a_s is None:
        raise ValueError("second-stage loop unexpectedly unsolvable")
    return stage2.a_s

"""Reference implementations the tests compare the package against.

These are direct, point-by-point versions of what the package computes
by faster routes: torus distances and ball averages over explicit index
sets, kernels sampled on the grid (with image sums and cell averages
near the singularity) for checking spectral multipliers by spatial
convolution, the Poisson kernel at a point, the Bessel kernel by
quadrature of its subordination integral, Fourier symbols, boundary
points, corkscrew points, distances to a Lipschitz graph and surface
ball measures by a scan over every sample, the composite maximal bound,
membership tests for the half-space and domain approach regions, the
inclusion sampler with every distance computed, the annuli surrogate
with one ball mean per (height, annulus) pair, and the divergence set
swept over a stored Poisson field.
No runner uses them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, kv

from fatou_lab.errors import CoverageError, ParameterError, SingularityError
from fatou_lab.extension import HalfSpaceField, annuli_surrogate, dyadic_heights
from fatou_lab.fractal import PointSet
from fatou_lab.grid import (Grid, GridFunction, ball_mean_all_centers,
                            nearest_index, wrapped_abs_delta)
from fatou_lab.kernels import (_norm_sq, _series_prefactor, bessel_kernel,
                               riesz_constant)
from fatou_lab.lipschitz import (InclusionReport, LipschitzGraph,
                                 graph_distance_batch, surface_density)
from fatou_lab.maximal import (ApproachRegionSpec, dilated_mitigated_max,
                               hl_max_q, poisson_tangential_max,
                               window_extreme)
from fatou_lab.potentials import dyadic_scales, sharp_maximal
from fatou_lab.rng import stream


@dataclass(frozen=True)
class KernelSpec:
    """kind in {poisson, bessel, riesz}; order is alpha, scale is the Poisson t."""

    kind: str
    dim: int
    order: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poisson", "bessel", "riesz"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if self.kind == "bessel" and not self.order > 0:
            raise ParameterError("bessel kernel needs order > 0")
        if self.kind == "riesz" and not (0 < self.order < self.dim):
            raise ParameterError(
                f"riesz order must lie in (0, {self.dim}), got {self.order}")
        if self.kind == "poisson" and not self.scale > 0:
            raise ParameterError("poisson kernel needs scale > 0")


class DomainError(ValueError):
    """A geometric map was applied outside its domain."""


def wrapped_delta(a, b, extent: float):
    """Signed torus displacement a - b per axis, in [-extent/2, extent/2)."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return (d + extent / 2.0) % extent - extent / 2.0


def torus_distance(x, y, extent: float):
    """Euclidean torus distance between points whose last axis holds the
    coordinates; a point of a 1-D torus may be a scalar."""
    return np.hypot.reduce(np.atleast_1d(wrapped_abs_delta(x, y, extent)), axis=-1)


def _ball_indices(grid: Grid, center, radius: float):
    """Flat indices of grid points strictly inside the torus ball."""
    h = grid.h
    c = np.asarray(center, dtype=np.float64).reshape(grid.dim)
    kmax = int(math.ceil(radius / h)) + 1
    o = np.arange(-kmax, kmax + 1)
    axes = [base + o for base in np.floor(c / h).astype(int)]
    idx = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    keep = torus_distance(idx * h, c, grid.extent) < radius
    return np.unique(np.ravel_multi_index(tuple((idx[keep] % grid.n).T), grid.shape))


def ball_average(f: GridFunction, center, radius: float, q: float = 1.0) -> float:
    """q-power mean of |f| over grid points in the torus ball Delta(center, radius).

    Falls back to the nearest grid point's value when no grid point lies
    strictly inside the ball.
    """
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if radius <= 0:
        raise ParameterError(f"radius must be positive, got {radius}")
    idx = _ball_indices(f.grid, center, radius)
    if idx.size == 0:
        near = nearest_index(f.grid, np.reshape(center, f.grid.dim))
        return float(np.abs(f.samples[near]))
    vals = np.abs(f.samples[idx]) ** q
    return float(np.mean(vals) ** (1.0 / q))


def kernel_symbol(spec: KernelSpec, xi) -> float:
    """Fourier multiplier at frequency xi (cycles per unit length)."""
    mag = math.sqrt(_norm_sq(xi))
    if spec.kind == "bessel":
        return (1.0 + 4.0 * math.pi ** 2 * mag * mag) ** (-spec.order / 2.0)
    if spec.kind == "riesz":
        if mag == 0.0:
            raise SingularityError("riesz symbol is singular at xi = 0")
        return (2.0 * math.pi * mag) ** (-spec.order)
    return math.exp(-2.0 * math.pi * spec.scale * mag)


def _cell_average_at_origin(spec: KernelSpec, h: float) -> float:
    """Average of the (singular, integrable) kernel over the central cell.

    dim 1 integrates the interval directly; dim 2 integrates the square
    cell exactly in polar coordinates (r up to (h/2)/cos(theta) on each
    eighth of the square).
    """
    n = spec.dim
    if n == 1:
        if spec.kind == "riesz":
            g = riesz_constant(1, spec.order)
            a = spec.order - 1
            return g * (2.0 / h) * (h / 2.0) ** (a + 1) / (a + 1)

        def rad(r: float) -> float:
            return bessel_kernel(1, spec.order, r)

        total, _ = quad(rad, 0.0, h / 2.0, epsabs=0.0, epsrel=1e-9, limit=200)
        return 2.0 / h * total
    if spec.kind == "riesz":
        a = spec.order
        g = riesz_constant(2, spec.order)

        def outer_r(theta: float) -> float:
            return ((h / 2.0) / math.cos(theta)) ** a / a

        total, _ = quad(outer_r, 0.0, math.pi / 4.0, epsabs=0.0,
                        epsrel=1e-10, limit=100)
        return 8.0 * g * total / (h * h)

    def outer(theta: float) -> float:
        rmax = (h / 2.0) / math.cos(theta)
        val, _ = quad(lambda r: bessel_kernel(2, spec.order, (r, 0.0)) * r,
                      0.0, rmax, epsabs=0.0, epsrel=1e-9, limit=200)
        return val

    total, _ = quad(outer, 0.0, math.pi / 4.0, epsabs=0.0, epsrel=1e-8,
                    limit=100)
    return 8.0 * total / (h * h)


_POISSON_C = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi)}


def poisson_kernel(n: int, t: float, x) -> float:
    """c_n * t / (t^2 + |x|^2)^((n+1)/2), normalized to unit mass."""
    if not t > 0:
        raise ParameterError(f"t must be positive, got {t}")
    if n not in _POISSON_C:
        raise ParameterError(f"n must be 1 or 2, got {n}")
    return _POISSON_C[n] * t / (t * t + _norm_sq(x)) ** ((n + 1) / 2.0)


class NumericError(ArithmeticError):
    """A quadrature failed to converge."""


def _cosh_integrand(w: float, r: float, c: float) -> float:
    expo = -r * math.cosh(w) + c * w
    return math.exp(expo) if expo > -745.0 else 0.0


def _bessel_unnormalized(n: int, alpha: float, r: float) -> float:
    """Integral over t of exp(-pi r^2/t - t/(4 pi)) t^((alpha-n)/2) dt/t.

    Evaluated after u = log t, recentered at the peak u* = log(2 pi r),
    where the exponent collapses to -r cosh(w) + c w on finite limits.
    """
    c = (alpha - n) / 2.0
    if r == 0.0:
        if alpha <= n:
            raise SingularityError("bessel kernel is singular at the origin")
        return (4.0 * math.pi) ** c * gamma(c)
    if r > 740.0:
        return 0.0  # below double-precision underflow
    cut = max(25.0, math.log(1500.0 / r))
    lo, err_lo = quad(_cosh_integrand, -cut, 0.0, args=(r, c),
                      epsabs=0.0, epsrel=1e-10, limit=300)
    hi, err_hi = quad(_cosh_integrand, 0.0, cut, args=(r, c),
                      epsabs=0.0, epsrel=1e-10, limit=300)
    val = lo + hi
    if not np.isfinite(val) or (val > 0 and (err_lo + err_hi) > 1e-6 * val):
        raise NumericError(
            f"bessel quadrature failed at r={r} (value {val}, err {err_lo + err_hi})")
    return (2.0 * math.pi * r) ** c * val


@functools.cache
def bessel_normalization(n: int, alpha: float) -> float:
    """c_alpha with ||G_alpha||_L1 = 1, computed once per (n, alpha) and cached.

    Radially integrates the quadrature (unnormalized) kernel after the
    substitution r = e^v, keeping this path independent of the K_nu
    closed form of fatou_lab.kernels.bessel_kernel.
    """
    omega = 2.0 if n == 1 else 2.0 * math.pi

    def radial_log(v: float) -> float:
        r = math.exp(v)
        return _bessel_unnormalized(n, alpha, r) * r ** n

    # the integrand decays like e^{alpha v} towards -inf; size the cut so
    # the truncated tail is below 1e-12 of the total
    v_lo = min(-45.0, -30.0 / alpha)
    total, err = quad(radial_log, v_lo, 8.0, epsabs=0.0, epsrel=1e-10, limit=400)
    mass = omega * total
    if not (np.isfinite(mass) and mass > 0):
        raise NumericError(f"bessel normalization failed for (n={n}, alpha={alpha})")
    return 1.0 / mass


def bessel_kernel_quadrature(n: int, alpha: float, x) -> float:
    """G_alpha at a point by adaptive quadrature of its subordination
    integral (after the substitution u = log t), normalized numerically."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if n not in (1, 2):
        raise ParameterError(f"n must be 1 or 2, got {n}")
    r = math.sqrt(_norm_sq(x))
    return bessel_normalization(n, alpha) * _bessel_unnormalized(n, alpha, r)


def _poisson_values(n: int, t: float, r: np.ndarray) -> np.ndarray:
    return _POISSON_C[n] * t / (t * t + r * r) ** ((n + 1) / 2.0)


def _bessel_values(n: int, alpha: float, r: np.ndarray) -> np.ndarray:
    nu = (n - alpha) / 2.0
    out = _series_prefactor(n, alpha) * r ** (-nu) * kv(nu, r)
    return np.where(np.isfinite(out), out, 0.0)


def _refine_near_singularity(spec: KernelSpec, grid: Grid, signed: np.ndarray,
                             vals: np.ndarray) -> None:
    """Replace point samples adjacent to the singularity by cell averages.

    The kernel is strongly convex near 0, where the midpoint rule loses
    mass; averaging the nearest cells restores the discrete mass to the
    level of the low-frequency symbol contract.
    """
    h = grid.h
    near = np.nonzero((np.abs(signed) <= 4.0 * h) & (np.abs(signed) > 0))[0]
    if spec.kind == "bessel":
        def f(x):
            return _bessel_values(spec.dim, spec.order,
                                  np.asarray([abs(x)]))[0]
    else:
        def f(x):
            return riesz_constant(spec.dim, spec.order) * abs(x) ** (
                spec.order - spec.dim)
    for i in near:
        x = signed[i]
        lo, hi = abs(x) - h / 2.0, abs(x) + h / 2.0
        total, _ = quad(f, lo, hi, epsabs=0.0, epsrel=1e-10, limit=100)
        vals[i] = total / h


def _refine_near_singularity_2d(spec: KernelSpec, grid: Grid,
                                vals: np.ndarray) -> None:
    """2-D analogue: tensor Gauss-Legendre cell averages near the origin.

    Every refined cell excludes the singularity itself, so the integrand
    is smooth there and a fixed-order rule converges geometrically.
    """
    h, n = grid.h, grid.n
    nodes, weights = np.polynomial.legendre.leggauss(12)
    nodes = nodes / 2.0  # cell-normalized coordinates in (-1/2, 1/2)
    w2 = np.outer(weights, weights) / 4.0
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    if spec.kind == "bessel":
        def f(r):
            return _bessel_values(2, spec.order, r)
    else:
        def f(r):
            return riesz_constant(2, spec.order) * r ** (spec.order - 2)
    for i in range(-8, 9):
        for j in range(-8, 9):
            if i == 0 and j == 0:
                continue
            if i * i + j * j > 64:
                continue
            rr = np.hypot((i + u) * h, (j + v) * h)
            vals[(i % n) * n + (j % n)] = float(np.sum(f(rr) * w2))


def sampled_kernel(spec: KernelSpec, grid: Grid, normalize: bool = True) -> GridFunction:
    """Kernel sampled on the torus for grid convolution.

    Integrable kernels (Poisson, Bessel) are periodized: image sums make
    the sampled kernel the torus version of the kernel rather than its
    nearest-image truncation, and unit discrete mass is enforced when
    normalize is set so constants convolve exactly.  The Riesz kernel is
    not integrable at infinity, so it keeps nearest-image values (it is
    only applied to mean-compensated data).  The origin sample of a
    singular kernel is the cell average over the central cell.
    """
    if spec.dim != grid.dim:
        raise ParameterError(f"kernel dim {spec.dim} != grid dim {grid.dim}")
    # signed sample coordinates, wrapped as whole index offsets so that
    # each is exactly h times an integer
    signed = grid.h * wrapped_delta(np.arange(grid.n), 0, grid.n)
    axes = np.meshgrid(*[grid.axis_coords()] * grid.dim, indexing="ij")
    r = torus_distance(np.stack(axes, axis=-1), 0.0, grid.extent).reshape(-1)
    if spec.kind == "poisson":
        if grid.dim == 1:
            # exact periodization: sum of images has the closed form
            # (1/L) (1 - rho^2) / (1 - 2 rho cos(2 pi x / L) + rho^2)
            rho = math.exp(-2.0 * math.pi * spec.scale / grid.extent)
            theta = 2.0 * math.pi * grid.axis_coords() / grid.extent
            vals = (1.0 - rho * rho) / (
                (1.0 - 2.0 * rho * np.cos(theta) + rho * rho) * grid.extent)
        else:
            x0, x1 = np.meshgrid(signed, signed, indexing="ij")
            vals = np.zeros(grid.shape)
            for q0 in range(-2, 3):
                for q1 in range(-2, 3):
                    rr = np.hypot(x0 + q0 * grid.extent, x1 + q1 * grid.extent)
                    vals += _poisson_values(2, spec.scale, rr)
        vals = vals.reshape(-1)
    elif spec.kind == "bessel":
        vals = np.empty_like(r)
        pos = r > 0
        vals[pos] = _bessel_values(spec.dim, spec.order, r[pos])
        vals[~pos] = _cell_average_at_origin(spec, grid.h)
        if spec.order <= spec.dim:
            if grid.dim == 1:
                _refine_near_singularity(spec, grid, signed, vals)
            else:
                _refine_near_singularity_2d(spec, grid, vals)
        images = max(1, int(math.ceil(40.0 / grid.extent)))
        if grid.dim == 1:
            for q in range(1, images + 1):
                vals += _bessel_values(spec.dim, spec.order,
                                       np.abs(signed + q * grid.extent))
                vals += _bessel_values(spec.dim, spec.order,
                                       np.abs(signed - q * grid.extent))
        else:
            x0, x1 = np.meshgrid(signed, signed, indexing="ij")
            for q0 in range(-images, images + 1):
                for q1 in range(-images, images + 1):
                    if q0 == 0 and q1 == 0:
                        continue
                    # skip rings whose nearest point already underflows
                    ring = grid.extent * math.hypot(max(abs(q0) - 0.5, 0.0),
                                                    max(abs(q1) - 0.5, 0.0))
                    if ring > 30.0:
                        continue
                    rr = np.hypot(x0 + q0 * grid.extent, x1 + q1 * grid.extent)
                    vals += _bessel_values(spec.dim, spec.order, rr).reshape(-1)
    else:
        vals = np.empty_like(r)
        pos = r > 0
        vals[pos] = riesz_constant(spec.dim, spec.order) * r[pos] ** (
            spec.order - spec.dim)
        vals[~pos] = _cell_average_at_origin(spec, grid.h)
        if grid.dim == 1:
            _refine_near_singularity(spec, grid, signed, vals)
        else:
            _refine_near_singularity_2d(spec, grid, vals)
    if normalize and spec.kind in ("poisson", "bessel"):
        mass = float(np.sum(vals)) * grid.h ** grid.dim
        vals = vals / mass
    return GridFunction(grid, vals)


def composite_max(f: GridFunction, p: float, r: float, beta: float,
                  alpha_L: float = 0.5, J: int = 20) -> GridFunction:
    """The paper's weighted assembly that dominates tangential maxima of
    annuli-model fields:

    sum_j 2^{-alpha_L j} M_{p,beta,j}(w)  +  (sum_j 2^{-alpha_L j}) *
    (N_{*,beta} applied to the Poisson extension of f  +  M_r f),
    with w the annuli surrogate built on the sharp maximal function of f
    at smoothness alpha = n(1-beta)/p.  Terms whose dilated scan range is
    empty at this grid's height ladder contribute zero.
    """
    if not (1.0 < r < p):
        raise ParameterError(f"need 1 < r < p, got r={r}, p={p}")
    if not (0.0 < beta < 1.0):
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    g = f.grid
    alpha = g.dim * (1.0 - beta) / p
    heights = dyadic_heights(1.0, grid=g)
    sharp = sharp_maximal(f, alpha, dyadic_scales(g))
    w_field = annuli_surrogate(sharp, heights, alpha_L, r, J)
    total = np.zeros(g.size)
    geo = 0.0
    for j in range(J + 1):
        weight = 2.0 ** (-alpha_L * j)
        geo += weight
        try:
            term = dilated_mitigated_max(w_field, p, beta, j)
        except CoverageError:
            continue
        total += weight * term.samples
    spec = ApproachRegionSpec(beta=beta, aperture=1.0, t_max=heights[0])
    total += geo * (poisson_tangential_max(f, spec).samples
                    + hl_max_q(f, r).samples)
    return GridFunction(g, total)


def region_contains(spec: ApproachRegionSpec, x0, t: float, x,
                    grid: Grid | None = None, extent: float = 1.0) -> bool:
    """Membership of (t, x) in the region with vertex x0, torus metric."""
    if t <= 0:
        raise ParameterError(f"t must be positive, got {t}")
    dist = float(torus_distance(x, x0, grid.extent if grid is not None else extent))
    return dist < spec.radius(t)


@dataclass(frozen=True)
class BoundaryPoint:
    """Q = (lift, x) with lift = phi(x) at grid resolution."""

    x: np.ndarray
    lift: float


def phi_at(graph: LipschitzGraph, x) -> float:
    """Profile value at the grid sample nearest to a base point, given as
    grid.dim finite coordinates."""
    grid = graph.phi.grid
    xa = np.asarray(x, dtype=np.float64).reshape(-1)
    if xa.size != grid.dim or not np.all(np.isfinite(xa)):
        raise ParameterError(
            f"base point must have {grid.dim} finite coordinate(s), got {x}")
    return float(graph.phi.samples[nearest_index(grid, xa)])


def boundary_point(graph: LipschitzGraph, x) -> BoundaryPoint:
    return BoundaryPoint(x=np.atleast_1d(np.asarray(x, dtype=np.float64)),
                         lift=phi_at(graph, x))


def corkscrew(graph: LipschitzGraph, x0, t: float) -> np.ndarray:
    """(phi(x0) + t, x0): an interior point with clearance at least
    lipschitz.corkscrew_kappa(M) t."""
    if not (math.isfinite(t) and t > 0):
        raise ParameterError(f"t must be finite and positive, got {t}")
    return np.concatenate([[phi_at(graph, x0) + t],
                           np.atleast_1d(np.asarray(x0, dtype=np.float64))])


def surface_ball_measure(graph: LipschitzGraph, Q: BoundaryPoint,
                         r: float) -> float:
    """sigma of the surface ball: lipschitz.surface_density summed over
    the base samples whose lifts fall inside the ambient ball around Q."""
    g = graph.phi.grid
    if not (4.0 * g.h * (1.0 - 1e-12) <= r <= g.extent / 4.0 * (1.0 + 1e-12)):
        raise ParameterError(f"r must lie in [4h, extent/4], got {r}")
    axes = np.meshgrid(*[g.axis_coords()] * g.dim, indexing="ij")
    lateral = sum(wrapped_abs_delta(a.reshape(-1), xa, g.extent) ** 2
                  for a, xa in zip(axes, Q.x))
    inside = lateral + (graph.phi.samples - Q.lift) ** 2 < r * r
    return float(np.sum(surface_density(graph)[inside]) * g.h ** g.dim)


def graph_distance(graph: LipschitzGraph, X) -> float:
    """Distance from X = (t, x) to the sampled boundary points
    (phi(x_i), x_i), by a scan over every sample."""
    X = np.asarray(X, dtype=np.float64).reshape(-1)
    g = graph.phi.grid
    axes = np.meshgrid(*[g.axis_coords()] * g.dim, indexing="ij")
    lateral = sum(wrapped_abs_delta(a.reshape(-1), xa, g.extent) ** 2
                  for a, xa in zip(axes, X[1:]))
    return float(np.sqrt(np.min(lateral + (X[0] - graph.phi.samples) ** 2)))


def flatten(graph: LipschitzGraph, X, direction: str = "forward") -> np.ndarray:
    """(t, x) <-> (t -+ phi(x), x); forward requires X strictly above the graph."""
    X = np.asarray(X, dtype=np.float64).reshape(-1)
    lift = phi_at(graph, X[1:])
    if direction == "forward":
        if X[0] <= lift:
            raise DomainError("point is not strictly above the graph")
        return np.concatenate([[X[0] - lift], X[1:]])
    if direction == "inverse":
        return np.concatenate([[X[0] + lift], X[1:]])
    raise ParameterError(f"unknown direction {direction!r}")


def domain_region_contains(graph: LipschitzGraph, beta: float, c: float,
                           Q0: BoundaryPoint, X) -> bool:
    """Membership in the domain approach region with widening constant c."""
    if not (0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if c <= 0:
        raise ParameterError(f"c must be positive, got {c}")
    X = np.asarray(X, dtype=np.float64).reshape(-1)
    if X[0] <= phi_at(graph, X[1:]):
        return False
    d = graph_distance(graph, X)
    if d <= 0.0:
        return False
    gap = float(torus_distance(X[1:], Q0.x, graph.phi.grid.extent))
    sep = math.hypot(gap, X[0] - Q0.lift)
    bound = (1.0 + c) * (d ** beta if d <= 1.0 else d)
    return sep < bound


def region_inclusion_full_scan(graph: LipschitzGraph, beta: float, c: float,
                               samples: int, seed: int = 0,
                               target_aperture: float | None = None
                               ) -> InclusionReport:
    """lipschitz.region_inclusion_check with the distance of every drawn
    sample computed: the same draws, no prefilter and no certificate."""
    g = graph.phi.grid
    rng = stream(seed)
    checked, violations, witnesses = 0, 0, []
    attempts, max_attempts = 0, 60 * samples
    n, phi = g.n, graph.phi.samples
    if target_aperture is None:
        target_aperture = 1.0 + c
    while checked < samples and attempts < max_attempts:
        batch = min(65536, max_attempts - attempts)
        attempts += batch
        i0 = rng.integers(0, n, size=batch)
        gap = np.exp(rng.uniform(np.log(g.h / 4.0), 0.0, size=batch))
        reach = (1.0 + c) * gap ** beta * 1.2
        lateral = rng.uniform(-1.0, 1.0, size=batch) * reach
        ix = ((i0 * g.h + lateral) / g.h).round().astype(int) % n
        x = ix * g.h
        t = phi[ix] + gap
        q0x = i0 * g.h
        dx = wrapped_abs_delta(x, q0x, g.extent)
        sep = np.hypot(dx, t - phi[i0])
        d = graph_distance_batch(graph, t, x)
        member = (d > 0) & (sep < (1.0 + c) * np.where(d <= 1.0, d ** beta, d))
        ok = dx < target_aperture * np.where(gap <= 1.0, gap ** beta, gap)
        take = np.nonzero(member)[0][: samples - checked]
        checked += take.size
        bad = take[~ok[take]]
        violations += bad.size
        for b in bad[: max(0, 16 - len(witnesses))]:
            witnesses.append((float(q0x[b]), float(t[b]), float(x[b])))
    return InclusionReport(checked=checked, violations=violations,
                           witnesses=tuple(witnesses))


def annuli_surrogate_per_pair(f: GridFunction, heights, alpha_L: float,
                              r: float, J: int) -> HalfSpaceField:
    """extension.annuli_surrogate with its ball mean recomputed for every
    (height, annulus) pair, each height summed over j in its own loop."""
    if not (0.0 < alpha_L <= 1.0):
        raise ParameterError(f"alpha_L must lie in (0, 1], got {alpha_L}")
    if r < 1.0:
        raise ParameterError(f"r must be >= 1, got {r}")
    if J < 1:
        raise ParameterError(f"J must be >= 1, got {J}")
    g = f.grid
    hts = tuple(float(t) for t in heights)
    cap = g.extent / 4.0
    weights = 2.0 ** (-alpha_L * np.arange(J + 1))
    vals = np.zeros((len(hts), g.size))
    for k, t in enumerate(hts):
        acc = np.zeros(g.size)
        for j in range(J + 1):
            rad = min(2.0 ** (j + 1) * t, cap)
            acc += weights[j] * ball_mean_all_centers(f, rad, r)
        vals[k] = acc
    return HalfSpaceField(g, hts, vals)


def annuli_tail_bound(f: GridFunction, alpha_L: float, J: int) -> float:
    """2^(-alpha_L J) / (1 - 2^(-alpha_L)) max|f|, the sum over j >= J of
    2^(-alpha_L j) max|f|: a bound on the annuli terms j > J that
    annuli_surrogate drops, as no ball mean exceeds max|f|."""
    return 2.0 ** (-alpha_L * J) / (1.0 - 2.0 ** (-alpha_L)) * float(
        np.max(np.abs(f.samples)))


def divergence_set(u: HalfSpaceField, f_ref: GridFunction,
                   spec: ApproachRegionSpec, eps: float) -> PointSet:
    """Grid points whose localized region oscillation against f_ref exceeds eps.

    Scans sampled region points with height at most spec.t_max; the set
    shrinks as eps grows and grows as t_max grows.
    """
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    scan = [k for k, t in enumerate(u.heights)
            if t <= spec.t_max * (1.0 + 1e-12)]
    g = u.grid
    osc = np.zeros(g.size)
    for k in scan:
        rad = spec.radius(u.heights[k])
        hi = window_extreme(u.values[k], g, rad, mode="max")
        lo = window_extreme(u.values[k], g, rad, mode="min")
        np.maximum(osc, hi - f_ref.samples, out=osc)
        np.maximum(osc, f_ref.samples - lo, out=osc)
    flat = np.nonzero(osc > eps)[0]
    coords = g.h * np.stack(np.unravel_index(flat, g.shape), axis=1)
    return PointSet(points=coords[:, 0] if g.dim == 1 else coords, grid=g)

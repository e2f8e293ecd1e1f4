"""Lipschitz graph domains: distance, the corkscrew clearance constant,
the inclusion of domain approach regions into flattened half-space
regions, surface density, boundary norms and the boundary maximal
operator.

The domain is the epigraph of a sampled profile phi on the periodic
base grid.  The certified Lipschitz constant is the maximum discrete
slope between adjacent samples; profiles violating a declared constant
are rejected at construction.  Boundary scans only read the graph data.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import GridMismatchError, ParameterError
from .extension import annuli_surrogate, dyadic_heights
from .grid import GridFunction, lp_norm, wrapped_abs_delta
from .maximal import ApproachRegionSpec, tangential_max
from .potentials import slobodeckij_seminorm
from .rng import stream


@dataclass(frozen=True)
class LipschitzGraph:
    """Sampled boundary profile with certified Lipschitz constant M."""

    phi: GridFunction
    M: float


def _max_discrete_slope(phi: GridFunction) -> float:
    arr = phi.as_array()
    steps = [np.abs(arr - np.roll(arr, -1, axis=a)).max() for a in range(arr.ndim)]
    return float(max(steps) / phi.grid.h)


def lipschitz_graph(phi: GridFunction, M: float | None = None) -> LipschitzGraph:
    """Certify the discrete Lipschitz constant; reject declared-M violations."""
    slope = _max_discrete_slope(phi)
    if M is None:
        M = slope
    elif not (math.isfinite(M) and M >= 0):
        raise ParameterError(f"declared M must be finite and >= 0, got {M}")
    elif slope > M * (1.0 + 1e-9):
        raise ParameterError(
            f"profile has discrete slope {slope:.6g} exceeding declared M={M}")
    return LipschitzGraph(phi=phi, M=float(M))


def graph_distance_batch(graph: LipschitzGraph, ts, xs) -> np.ndarray:
    """Distances from the points (ts[k], xs[k]) to the sampled boundary
    points (phi(x_i), x_i), for dim-1 bases: upper bounds of the true
    distances, within O(h (1 + M))."""
    g = graph.phi.grid
    if g.dim != 1:
        raise ParameterError("batch distance is implemented for dim=1 bases")
    return _kernels.min_dist_graph_1d(np.asarray(ts, float), np.asarray(xs, float),
                                      graph.phi.samples, g.h, g.extent)


def corkscrew_kappa(M: float) -> float:
    """Interior-clearance constant of the corkscrew point (phi(x0) + t, x0):
    its distance to the graph is at least kappa(M) t."""
    if M <= 1.0:
        return 0.5
    return min(0.25, 1.0 / (2.0 * (M - 1.0)))


@dataclass(frozen=True)
class InclusionReport:
    checked: int
    violations: int
    witnesses: tuple


def _b(s: np.ndarray, beta: float) -> np.ndarray:
    """The approach-region profile b(s): s^beta for s <= 1, s beyond."""
    return np.where(s <= 1.0, s ** beta, s)


def _certified_members(graph: LipschitzGraph, beta: float, c: float,
                       sep: np.ndarray, t: np.ndarray,
                       ix: np.ndarray) -> np.ndarray:
    """Samples (t, ix h) at separation sep from their vertex that are
    members of the domain region by a certificate, without a distance
    query.

    A sample is a member once d > rho = b^-1(sep / (1 + c)).  The columns
    ix +- K, K = ceil(rho / h) + 1, hold every profile sample within rho
    sideways, so d >= min(K h, t - max phi over them), a circular window
    max (_kernels.circ_window_max).  The bound is compared in b, as the
    membership test is, with a relative margin of 1e-9 for the rounding
    of d and b; False means undecided.
    """
    g = graph.phi.grid
    y = sep / (1.0 + c)
    rho = np.where(y <= 1.0, np.minimum(y, 1.0) ** (1.0 / beta), y)
    K = np.minimum(np.ceil(rho / g.h) + 1.0, g.n // 2).astype(np.int64)
    wmax = _kernels.circ_window_max(graph.phi.samples, ix, K)
    low = np.maximum(np.minimum(K * g.h, t - wmax), 0.0)
    return sep * (1.0 + 1e-9) < (1.0 + c) * _b(low, beta)


def region_inclusion_check(graph: LipschitzGraph, beta: float, c: float,
                           samples: int, seed: int,
                           target_aperture: float | None = None
                           ) -> InclusionReport:
    """Sample the domain region and verify it flattens into the widened
    half-space region.

    Sample base coordinates sit on the grid, where the sampled-boundary
    distance is exactly dominated by the vertical gap, so the inclusion
    holds without discretization slack.  target_aperture overrides the
    aperture 1 + c of the flattened target region; shrinking it serves
    as a negative control.
    """
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if not (math.isfinite(beta) and 0.0 < beta <= 1.0):
        raise ParameterError(f"beta must lie in (0, 1], got {beta}")
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(f"c must be finite and positive, got {c}")
    if target_aperture is not None and not (math.isfinite(target_aperture)
                                            and target_aperture > 0.0):
        raise ParameterError(
            f"target_aperture must be finite and positive, got {target_aperture}")
    g = graph.phi.grid
    if g.dim != 1:
        raise ParameterError("inclusion sampling is implemented for dim=1 bases")
    rng = stream(seed)
    checked = 0
    violations = 0
    witnesses = []
    attempts = 0
    max_attempts = 60 * samples
    n = g.n
    phi = graph.phi.samples
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
        # d <= |tv|, the vertical gap to the sample below x, and the
        # membership bound grows with d: beyond it a sample cannot be a
        # member, so its distance query is skipped and d stays 0
        tv = np.abs(t - phi[ix])
        live = np.nonzero(sep < (1.0 + c) * _b(tv, beta) * (1.0 + 1e-12))[0]
        certified = _certified_members(graph, beta, c, sep[live], t[live],
                                       ix[live])
        ask = live[~certified]
        d = np.zeros(batch)
        d[ask] = graph_distance_batch(graph, t[ask], x[ask])
        member = (d > 0) & (sep < (1.0 + c) * _b(d, beta))
        member[live[certified]] = True
        # flattened coordinates: the vertical gap is exact for on-grid x
        ok = dx < target_aperture * _b(gap, beta)
        member_idx = np.nonzero(member)[0]
        take = member_idx[: samples - checked]
        checked += take.size
        bad = take[~ok[take]]
        violations += bad.size
        for b in bad[: max(0, 16 - len(witnesses))]:
            witnesses.append((float(q0x[b]), float(t[b]), float(x[b])))
    return InclusionReport(checked=checked, violations=violations,
                           witnesses=tuple(witnesses))


def _grad_norm_sq(phi: GridFunction) -> np.ndarray:
    arr, h = phi.as_array(), phi.grid.h
    grads = [(np.roll(arr, -1, axis=a) - np.roll(arr, 1, axis=a)) / (2 * h)
             for a in range(arr.ndim)]
    return sum(grad * grad for grad in grads).reshape(-1)


def surface_density(graph: LipschitzGraph) -> np.ndarray:
    """Area-formula density sqrt(1 + |grad phi|^2) at every base sample."""
    return np.sqrt(1.0 + _grad_norm_sq(graph.phi))


def lp_norm_sigma(graph: LipschitzGraph, f: GridFunction, p: float) -> float:
    """L^p norm of boundary data against the surface measure."""
    dens = surface_density(graph)
    hpow = f.grid.h ** f.grid.dim
    return float((hpow * np.sum(np.abs(f.samples) ** p * dens)) ** (1.0 / p))


def boundary_seminorm(f: GridFunction, s: float, p: float) -> float:
    """Chart-pullback Sobolev norm (||f||_p^p + [f]_{s,p}^p)^(1/p) of
    boundary data on the base grid, 0 <= s < 1: the L^p norm and the
    Slobodeckij seminorm; s = 0 reduces to the L^p norm."""
    if not (math.isfinite(p) and p >= 1):
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    if not 0 <= s < 1:
        raise ParameterError(f"s must lie in [0, 1), got {s}")
    total = lp_norm(f, p) ** p
    if s > 0:
        total += slobodeckij_seminorm(f, s, p) ** p
    return float(total ** (1.0 / p))


def boundary_tangential_max(graph: LipschitzGraph, f: GridFunction,
                            beta: float, c: float, alpha_L: float,
                            p0: float, J: int) -> GridFunction:
    """Flattened localization bound: annuli surrogate (alpha_L, p0, J) of
    the chart pullback, swept by the tangential maximal operator at
    aperture 1 + c.  f must lie on the profile's grid."""
    if f.grid != graph.phi.grid:
        raise GridMismatchError(
            f"grids differ: data {f.grid} vs profile {graph.phi.grid}")
    if not (math.isfinite(c) and c > 0.0):
        raise ParameterError(f"c must be finite and positive, got {c}")
    heights = dyadic_heights(1.0, grid=f.grid)
    w = annuli_surrogate(f, heights, alpha_L, p0, J)
    spec = ApproachRegionSpec(beta=beta, aperture=1.0 + c, t_max=heights[0])
    return tangential_max(w, spec)

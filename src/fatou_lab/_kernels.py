"""The hot numerical kernels, in NumPy.

Every function is deterministic and single-threaded.  Windows are
circular (torus wrap) and given by an integer halfwidth ``K``: the window
at index ``i`` is the 2K+1 samples ``i-K .. i+K`` modulo N.
"""

import numpy as np
from scipy.ndimage import maximum_filter1d, minimum_filter1d


def circ_max_1d(values: np.ndarray, halfwidth: int) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.float64)
    if halfwidth <= 0:
        return v.copy()
    size = 2 * halfwidth + 1
    if size >= v.shape[0]:
        return np.full_like(v, v.max())
    return maximum_filter1d(v, size=size, mode="wrap")


def circ_min_1d(values: np.ndarray, halfwidth: int) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.float64)
    if halfwidth <= 0:
        return v.copy()
    size = 2 * halfwidth + 1
    if size >= v.shape[0]:
        return np.full_like(v, v.min())
    return minimum_filter1d(v, size=size, mode="wrap")


def circ_sum_1d(values: np.ndarray, halfwidth: int) -> np.ndarray:
    """Windowed circular sum; window capped at the full circle."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    n = v.shape[0]
    if halfwidth <= 0:
        return v.copy()
    if 2 * halfwidth + 1 >= n:
        return np.full_like(v, v.sum())
    k = halfwidth
    ext = np.concatenate([v[-k:], v, v[:k]])
    cs = np.concatenate([[0.0], np.cumsum(ext)])
    return cs[2 * k + 1:] - cs[:n]


def slobodeckij_1d(f: np.ndarray, h: float, extent: float, sigma: float, p: float,
                   mask: np.ndarray | None = None) -> float:
    """Double sum over distinct pairs of |f_i-f_j|^p / d_ij^{1+sigma p} * h^2."""
    v = np.ascontiguousarray(f, dtype=np.float64)
    n = v.shape[0]
    if mask is not None:
        m = np.ascontiguousarray(mask, dtype=np.float64)
    else:
        m = None
    total = 0.0
    for d in range(1, n):
        dist = h * min(d, n - d)
        w = dist ** (-(1.0 + sigma * p))
        diff = np.abs(v - np.roll(v, -d)) ** p
        if m is not None:
            diff = diff * m * np.roll(m, -d)
        total += w * float(diff.sum())
    return total * h * h


def slobodeckij_2d(f: np.ndarray, h: float, extent: float, sigma: float, p: float,
                   mask: np.ndarray | None = None) -> float:
    """Same pair sum on the 2-torus; weight h^4 / d^{2+sigma p}."""
    v = np.ascontiguousarray(f, dtype=np.float64)
    n = v.shape[0]
    m = np.ascontiguousarray(mask, dtype=np.float64) if mask is not None else None
    total = 0.0
    for d0 in range(n):
        a0 = h * min(d0, n - d0)
        r0 = np.roll(v, -d0, axis=0)
        rm0 = np.roll(m, -d0, axis=0) if m is not None else None
        for d1 in range(n):
            if d0 == 0 and d1 == 0:
                continue
            a1 = h * min(d1, n - d1)
            dist = np.hypot(a0, a1)
            w = dist ** (-(2.0 + sigma * p))
            diff = np.abs(v - np.roll(r0, -d1, axis=1)) ** p
            if m is not None:
                diff = diff * m * np.roll(rm0, -d1, axis=1)
            total += w * float(diff.sum())
    return total * h ** 4


def min_dist_graph_1d(qt: np.ndarray, qx: np.ndarray, phi: np.ndarray,
                      h: float, extent: float) -> np.ndarray:
    """Min Euclidean distance from (t, x) queries to graph samples (phi_j, j*h).

    Base displacements use the torus metric on [0, extent); the samples
    tile it, N*h = extent.  Exact pruned sweep: a sample at lateral
    distance l can only win if l^2 < u - L^2, where u is the squared
    distance to the sample left of the query and L the query's vertical
    clearance to [min phi, max phi].  Queries are sorted by that reach and
    the samples at offset d = 1 .. N/2 on both sides, which lie at least
    (d-1)h away, are visited only for the queries that can still reach
    them.  Every candidate's squared distance is formed by the same float
    expressions as a dense scan, so the minimum is the same number.
    """
    qt = np.ascontiguousarray(qt, dtype=np.float64)
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    n = phi.shape[0]
    m = qt.shape[0]
    half = n // 2
    # samples extended by half a period on each side, so that index
    # j0 + half +- d needs no wrap
    xs = h * np.arange(n)
    ext = np.r_[np.arange(n - half, n), np.arange(n), np.arange(half)]
    xs_e, phi_e = xs[ext], phi[ext]

    def sq_dist(t, x, j):
        # |x - x_j|, torus min, t - phi_j, dx*dx + dt*dt; in place
        dx = x - xs_e[j]
        np.abs(dx, out=dx)
        np.minimum(dx, extent - dx, out=dx)
        dx *= dx
        dt = t - phi_e[j]
        dt *= dt
        dx += dt
        return dx

    with np.errstate(invalid="ignore"):
        # the clip also catches floor(x/h) rounding up to N and non-finite
        # queries; any j0 within h of the query keeps the (d-1)h bound
        j0 = np.floor(np.mod(qx, extent) / h).astype(np.int64)
        j0 = np.clip(j0, 0, n - 1) + half
        best = sq_dist(qt, qx, j0)
        clear = np.maximum(np.maximum(qt - phi.max(), phi.min() - qt), 0.0)
        # inflated to cover the rounding of dx, (d-1)h and the square root
        slack = 16.0 * np.finfo(np.float64).eps * (np.abs(qx) + extent)
        reach = np.sqrt(np.maximum(best - clear * clear, 0.0)) * (1.0 + 1e-12)
        reach += slack
    order = np.argsort(reach)
    reach = reach[order]
    qt_s, qx_s, j0_s = qt[order], qx[order], j0[order]
    best_s = best[order]
    for d in range(1, half + 1):
        lo = int(np.searchsorted(reach, (d - 1) * h, side="right"))
        if lo == m:
            break
        t, x, j, b = qt_s[lo:], qx_s[lo:], j0_s[lo:], best_s[lo:]
        np.minimum(b, sq_dist(t, x, j + d), out=b)
        np.minimum(b, sq_dist(t, x, j - d), out=b)
    best[order] = best_s
    return np.sqrt(best)

"""Reference computations written apart from the package.

Every function here works on plain NumPy arrays with its own multipliers,
windows and loops, so a fault in a package layer cannot also hide in the
reference it is checked against.  Ball and window membership means
"strictly inside, by a relative margin of 1e-12": with dyadic heights
and grid steps, points on the circle of radius r occur exactly, and the
margin keeps rounding in r from deciding their membership.
"""

import math

import numpy as np

MARGIN = 1.0 - 1e-12


def rel_err(a, b) -> float:
    """Largest |a - b| relative to the largest |b|."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def lp(x, h: float, dim: int, p: float) -> float:
    return float((h ** dim * np.sum(np.abs(x) ** p)) ** (1.0 / p))


def halfwidth(radius: float, h: float) -> int:
    """Largest K >= 0 with K h strictly inside the radius."""
    k = int(radius / h) + 1
    while k > 0 and k * h >= radius * MARGIN:
        k -= 1
    return k


def dyadic_ladder(level: int) -> list:
    """Heights 1, 1/2, ..., down to about h/4, as the experiments use them."""
    return [2.0 ** -k for k in range(level + 3)]


# -- 1-D spectral multipliers and window sweeps ------------------------------


def bessel_1d(g: np.ndarray, h: float, alpha: float) -> np.ndarray:
    xi = np.fft.fftfreq(g.size, d=h)
    mult = (1.0 + 4.0 * math.pi ** 2 * xi * xi) ** (-alpha / 2.0)
    return np.fft.ifft(np.fft.fft(g) * mult).real


def poisson_1d(f: np.ndarray, h: float, heights) -> list:
    xi = np.abs(np.fft.fftfreq(f.size, d=h))
    spec = np.fft.fft(f)
    return [np.fft.ifft(spec * np.exp(-2.0 * math.pi * t * xi)).real
            for t in heights]


def window_max_1d(a: np.ndarray, k: int) -> np.ndarray:
    """Circular max over i-k..i+k by an explicit loop over offsets."""
    if 2 * k + 1 >= a.size:
        return np.full_like(a, a.max())
    out = a.copy()
    for j in range(1, k + 1):
        np.maximum(out, np.roll(a, j), out=out)
        np.maximum(out, np.roll(a, -j), out=out)
    return out


def tangential_1d(rows, heights, h: float, beta: float, aperture: float,
                  t_max: float) -> np.ndarray:
    out = np.zeros(rows[0].size)
    for row, t in zip(rows, heights):
        if t > t_max * (1.0 + 1e-12):
            continue
        radius = aperture * (t ** beta if t <= 1.0 else t)
        np.maximum(out, window_max_1d(np.abs(row), halfwidth(radius, h)), out=out)
    return out


def sharp_maximal_1d(f: np.ndarray, h: float, alpha: float) -> np.ndarray:
    """Fractional sharp maximal function, one least-squares fit per ball.

    Balls have dyadic radii r in [4h, extent/4] and centres on the
    stride-r/2 lattice; each point takes the largest
    (2r)^-alpha * mean |f - P| over the balls that contain it, with P the
    least-squares polynomial of degree floor(alpha) on the ball.
    """
    n = f.size
    extent = n * h
    degree = min(int(math.floor(alpha)), 3)
    radii = []
    r = extent / 4.0
    while r >= 4.0 * h * MARGIN:
        radii.append(r)
        r /= 2.0
    out = np.zeros(n)
    for r in radii:
        stride = max(1, int(round(r / (2.0 * h))))
        k = halfwidth(r, h)
        offs = np.arange(-k, k + 1)
        design = np.vander(offs * h / r, degree + 1, increasing=True)
        for c in range(0, n, stride):
            idx = (c + offs) % n
            vals = f[idx]
            coef = np.linalg.lstsq(design, vals, rcond=None)[0]
            e = (2.0 * r) ** (-alpha) * np.mean(np.abs(vals - design @ coef))
            out[idx] = np.maximum(out[idx], e)
    return out


# -- ratios of the band experiments --------------------------------------------


def unit_l2(g: np.ndarray, h: float) -> np.ndarray:
    return g / lp(g, h, 1, 2.0)


def nagel_stein_ratio(g: np.ndarray, h: float, alpha: float, beta: float,
                      aperture: float, p: float) -> float:
    """||N f||_p / ||g||_p with f = J_alpha g and N the tangential maximal
    function of the Poisson extension over the dyadic ladder, t <= 1."""
    level = int(round(math.log2(g.size)))
    heights = dyadic_ladder(level)
    f = bessel_1d(g, h, alpha)
    nt = tangential_1d(poisson_1d(f, h, heights), heights, h, beta, aperture, 1.0)
    return lp(nt, h, 1, p) / lp(g, h, 1, p)


def dorronsoro_ratio(g: np.ndarray, h: float, alpha: float, beta: float,
                     aperture: float, p: float) -> float:
    """||N f||_p / (||f||_p + ||f^#_alpha||_p)."""
    level = int(round(math.log2(g.size)))
    heights = dyadic_ladder(level)
    f = bessel_1d(g, h, alpha)
    nt = tangential_1d(poisson_1d(f, h, heights), heights, h, beta, aperture, 1.0)
    sharp = sharp_maximal_1d(f, h, alpha)
    return lp(nt, h, 1, p) / (lp(f, h, 1, p) + lp(sharp, h, 1, p))


# -- graph distance --------------------------------------------------------------


def graph_distance_brute(qt, qx, phi: np.ndarray, h: float,
                         extent: float) -> np.ndarray:
    """Minimum over every profile sample of the distance to (phi_j, j h)."""
    xs = h * np.arange(phi.size)
    out = np.empty(len(qt))
    for i, (t, x) in enumerate(zip(qt, qx)):
        dx = np.abs(xs - x)
        dx = np.minimum(dx, extent - dx)
        out[i] = math.sqrt(float(np.min(dx * dx + (t - phi) ** 2)))
    return out


def corkscrew_kappa(M: float) -> float:
    """Clearance constant of the point (phi(x0) + t, x0) above a graph of
    Lipschitz constant M."""
    return 0.5 if M <= 1.0 else min(0.25, 1.0 / (2.0 * (M - 1.0)))


# -- Slobodeckij pair sums at p = 2 -------------------------------------------------


def slobodeckij_p2(f: np.ndarray, h: float, sigma: float) -> float:
    """[f]_{sigma,2} by the autocorrelation identity
    sum_i |f_i - f_{i+d}|^2 = 2 (R(0) - R(d)), with R from one FFT."""
    dim = f.ndim
    n = f.shape[0]
    R = np.fft.ifftn(np.abs(np.fft.fftn(f)) ** 2).real
    lag = h * np.minimum(np.arange(n), n - np.arange(n))
    if dim == 1:
        dist = lag
    else:
        dist = np.hypot(lag[:, None], lag[None, :])
    flat_dist = dist.reshape(-1)[1:]
    flat_R = R.reshape(-1)[1:]
    weights = flat_dist ** (-(dim + 2.0 * sigma))
    total = float(np.sum(weights * 2.0 * (R.reshape(-1)[0] - flat_R)))
    return math.sqrt(total * h ** (2 * dim))


# -- 2-D balls at sampled points ------------------------------------------------------


def _wrapped_offsets(n: int, i: int) -> np.ndarray:
    """Signed torus offsets j - i in [-n/2, n/2) for every index j."""
    return (np.arange(n) - i + n // 2) % n - n // 2


def disc_mask(n: int, h: float, point, radius: float) -> np.ndarray:
    """Grid points strictly inside the torus disc around a grid point."""
    o0 = _wrapped_offsets(n, point[0])
    o1 = _wrapped_offsets(n, point[1])
    d2 = (o0[:, None] ** 2 + o1[None, :] ** 2) * h * h
    return d2 < (radius * MARGIN) ** 2


def tangential_2d(rows, heights, h: float, beta: float, aperture: float,
                  t_max: float) -> np.ndarray:
    """sup of |u| over the region of every boundary point: one shifted copy
    of each slice per offset inside the disc."""
    n = rows[0].shape[0]
    out = np.zeros((n, n))
    for row, t in zip(rows, heights):
        if t > t_max * (1.0 + 1e-12):
            continue
        radius = aperture * (t ** beta if t <= 1.0 else t)
        a = np.abs(row)
        for o0, o1 in zip(*np.nonzero(disc_mask(n, h, (0, 0), radius))):
            np.maximum(out, np.roll(a, (-int(o0), -int(o1)), axis=(0, 1)), out=out)
    return out


def hl_max_2d_at(f: np.ndarray, h: float, q: float, points) -> np.ndarray:
    """max over dyadic radii in [h, extent/4] of the q-power disc mean of |f|."""
    n = f.shape[0]
    out = np.zeros(len(points))
    r = n * h / 4.0
    while r >= h * MARGIN:
        for m, pt in enumerate(points):
            vals = np.abs(f[disc_mask(n, h, pt, r)]) ** q
            out[m] = max(out[m], float(np.mean(vals)) ** (1.0 / q))
        r /= 2.0
    return out


def sharp_maximal_2d_at(f: np.ndarray, h: float, alpha: float,
                        points) -> np.ndarray:
    """The 2-D fractional sharp maximal function at sampled points: the
    largest (pi r^2)^(-alpha/2) mean |f - P| over lattice discs that
    contain the point, P fitted by least squares on the disc."""
    n = f.shape[0]
    extent = n * h
    degree = min(int(math.floor(alpha)), 3)
    powers = [(a, b) for a in range(degree + 1) for b in range(degree + 1)
              if a + b <= degree]
    out = np.zeros(len(points))
    r = extent / 4.0
    while r >= 4.0 * h * MARGIN:
        stride = max(1, int(round(r / (2.0 * h))))
        lattice = np.arange(0, n, stride)
        k = halfwidth(r, h)
        box = np.arange(-k, k + 1)
        o0, o1 = np.meshgrid(box, box, indexing="ij")
        keep = (o0 * o0 + o1 * o1) * h * h < (r * MARGIN) ** 2
        o0, o1 = o0[keep], o1[keep]
        design = np.stack([(o0 * h / r) ** a * (o1 * h / r) ** b
                           for a, b in powers], axis=1)
        for m, pt in enumerate(points):
            # lattice centres whose disc holds the point
            d0 = (pt[0] - lattice + n // 2) % n - n // 2
            d1 = (pt[1] - lattice + n // 2) % n - n // 2
            near = (d0[:, None] ** 2 + d1[None, :] ** 2) * h * h < (r * MARGIN) ** 2
            for i0, i1 in zip(*np.nonzero(near)):
                vals = f[(lattice[i0] + o0) % n, (lattice[i1] + o1) % n]
                coef = np.linalg.lstsq(design, vals, rcond=None)[0]
                e = (math.pi * r * r) ** (-alpha / 2.0) * float(
                    np.mean(np.abs(vals - design @ coef)))
                out[m] = max(out[m], e)
        r /= 2.0
    return out

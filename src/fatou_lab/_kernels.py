"""The hot numerical kernels, in NumPy.

Every function is deterministic.  Windows are circular (torus wrap) and
given by an integer halfwidth ``K``: the window at index ``i`` is the
2K+1 samples ``i-K .. i+K`` modulo N.

Window extremes double: the max (or min) over 2^j samples from each
index, for j = 0, 1, ..., overwritten in place, until 2^j <= 2K+1 <
2^(j+1); two such windows cover each window of 2K+1.  One walk (_levels)
serves whole rows, a stack of them at once (_circ_folds), and single
windows (circ_window_max).  Max and min do not round, so the result is
exact, in O(N log K) time.
Given a workspace, a call takes at most 128 KB of scratch beyond it.

At p = 2 the Slobodeckij pair sum is one torus convolution, O(N^n log N):
sum_d w_d sum_i (v_i - v_{i+d})^2 = 2[v.v sum(w) - v.(w*v)]
with v centred on its mean first, which keeps ~1e-10 relative accuracy
on very smooth data (Bessel order 4, sigma = 0.9).  Other p loop over offsets.
"""

import numpy as np

# samples per chunk of the low levels: two buffers of 64 KB, which stay in
# cache and small beside the arrays of a streamed 2^16-sample sweep
_CHUNK = 1 << 13
_LOW_SPAN = _CHUNK // 8  # windows up to this long are built chunk by chunk


def _circ_folds(values, halfwidths, fold, work, out):
    """Circular window extremes along the rows of values, for several
    halfwidths from one walk of the doubling levels (_levels).

    values, work and out are (rows, n) float arrays, fold is np.maximum or
    np.minimum; halfwidths are not empty and ascend, 0 <= 2K+1 < n.

    values is read during this call only; the returned iterator writes,
    for each halfwidth in turn, the window extreme into out and yields the
    halfwidth.  It uses out as scratch between yields, so each result must
    be taken before the next is asked for.  out may be values; work may
    alias neither.
    """
    # 2^j <= 2K+1 < 2^(j+1) at 2^j = 1 << bit_length(K)
    levels = _levels(values, [1 << int(k).bit_length() for k in halfwidths],
                     fold, work, out)

    def serve():
        for k, span in zip(halfwidths, levels):
            # [i-K, i-K+span) and [i+K+1-span, i+K] cover the window of i
            # when it is shorter than 2 span
            _fold_rolled(work, -k, k + 1 - span, fold, out)
            yield k

    return serve()


def _levels(values, spans, fold, work, spare):
    """Doubling levels of the rows of values, in place in work: level s
    holds at column i the fold of the s samples from i on (circular), as
    in the sparse table of Bender & Farach-Colton (LATIN 2000), but only
    the current level is kept.  spans ascend, powers of two up to n.

    Levels up to _LOW_SPAN are built now, chunk by chunk in a small
    scratch that stays in cache, so values is read during this call only.
    The returned iterator doubles work in place, with
    spare[:, :spans[-1] // 2] as scratch, up to each span and yields it.
    """
    span = min(_LOW_SPAN, spans[0])
    _low_levels(values, span, fold, work)
    flat = work.reshape(-1)

    def walk(span):
        for s in spans:
            while span < s:
                # the last span columns wrap to the row's start
                fold(work[:, -span:], work[:, :span], out=spare[:, :span])
                fold(flat[:-span], flat[span:], out=flat[:-span])
                work[:, -span:] = spare[:, :span]
                span *= 2
            yield s

    return walk(span)


def _low_levels(values, span, fold, work):
    """work[r, i] = fold of values[r, i .. i+span-1 mod n], span a power
    of two, by blocks of at most _CHUNK samples with their halo."""
    rows, n = values.shape
    halo = span - 1
    cols = n if n + halo <= _CHUNK else _CHUNK - halo
    block = min(rows, max(1, _CHUNK // (cols + halo)))
    # two buffers: a fold whose output overlaps its input runs unvectorised
    scratch = np.empty((2, block * (cols + halo)))
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        for c0 in range(0, n, cols):
            c1 = min(c0 + cols, n)
            width = c1 - c0 + halo
            size = (r1 - r0) * width
            s = scratch[0, :size].reshape(r1 - r0, width)
            head = min(n - c0, width)
            s[:, :head] = values[r0:r1, c0:c0 + head]
            s[:, head:] = values[r0:r1, :width - head]
            # flat shifts: a column that reads into the next row lies past
            # the valid part of its own row
            src, dst = scratch[0, :size], scratch[1, :size]
            step = 1
            while 2 * step < span:
                fold(src[:-step], src[step:], out=dst[:-step])
                src, dst = dst, src
                step *= 2
            # the last level goes into work; at span 1, fold(x, x) is x
            last, half = src.reshape(r1 - r0, width), span // 2
            fold(last[:, :c1 - c0], last[:, half:half + c1 - c0],
                 out=work[r0:r1, c0:c1])


def _fold_rolled(b, a, c, fold, out):
    """out[:, i] = fold(b[:, (i + a) % n], b[:, (i + c) % n]), by slices
    that do not wrap."""
    n = b.shape[1]
    cuts = sorted({0, n, -a % n, -c % n})
    for lo, hi in zip(cuts, cuts[1:]):
        x, y = (lo + a) % n, (lo + c) % n
        fold(b[:, x:x + hi - lo], b[:, y:y + hi - lo], out=out[:, lo:hi])


def _circ_extreme(values, halfwidth: int, out, work, fold) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.float64)
    if out is None:
        out = np.empty_like(v)
    n = v.shape[-1]
    rows = (-1, n)
    if halfwidth <= 0:
        np.copyto(out, v)
    elif 2 * halfwidth + 1 >= n:
        np.copyto(out, fold.reduce(v, axis=-1, keepdims=True))
    else:
        if work is None:
            work = np.empty_like(v)
        next(_circ_folds(v.reshape(rows), [halfwidth], fold,
                         work.reshape(rows), out.reshape(rows)))
    return out


def circ_max_1d(values: np.ndarray, halfwidth: int, out: np.ndarray | None,
                work: np.ndarray | None) -> np.ndarray:
    """Max over every circular window of values, an (n,) array or a
    (rows, n) stack, window by window along the last axis; written into
    out unless it is None, and out may be values itself.  work, unless
    None, is scratch of values' size."""
    return _circ_extreme(values, halfwidth, out, work, np.maximum)


def circ_min_1d(values: np.ndarray, halfwidth: int, out: np.ndarray | None,
                work: np.ndarray | None) -> np.ndarray:
    """As circ_max_1d, with min."""
    return _circ_extreme(values, halfwidth, out, work, np.minimum)


def circ_window_max(values: np.ndarray, centers: np.ndarray,
                    halfwidths: np.ndarray) -> np.ndarray:
    """Max over the circular windows centers[i] +- halfwidths[i].

    centers lie in [0, N) and halfwidths in [0, N // 2].  The queries of
    level 2^j <= 2K+1 < 2^(j+1) are answered when the walk (_levels)
    reaches that level L, by two gathers, max(L[c-K], L[c+K+1-2^j]) mod N,
    so beside the queries this holds one level and half a level of scratch.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(1, -1)
    c = np.asarray(centers, dtype=np.int64)
    k = np.asarray(halfwidths, dtype=np.int64)
    j = np.frexp(k)[1].astype(np.int8)  # bit_length(K): 2^j <= 2K+1
    spans = [1 << x for x in np.flatnonzero(np.bincount(j)).tolist()] or [1]
    out = np.empty(k.shape)
    level, spare = np.empty_like(v), np.empty((1, spans[-1] // 2))
    for s in _levels(v, spans, np.maximum, level, spare):
        q = np.flatnonzero(j == s.bit_length() - 1)
        cq, kq = c[q], k[q]
        out[q] = np.maximum(np.take(level, cq - kq, mode="wrap"),
                            np.take(level, cq + kq + 1 - s, mode="wrap"))
    return out


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


def _pair_loop(v: np.ndarray, w: np.ndarray, p: float) -> float:
    """sum over torus offsets d != 0 of w_d sum_i |v_i - v_{i+d}|^p."""
    axes = tuple(range(v.ndim))
    total = 0.0
    for off in np.argwhere(w):
        diff = np.abs(v - np.roll(v, tuple(-off), axis=axes)) ** p
        total += w[tuple(off)] * float(diff.sum())
    return total


def slobodeckij_sum(v: np.ndarray, h: float, sigma: float, p: float) -> float:
    """Sum over x != y of |v_x - v_y|^p / |x-y|^{n+sigma p} h^{2n} on the
    torus; exactly 0.0 for constant data."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.min() == v.max():
        return 0.0
    lags = [h * np.minimum(np.arange(k), k - np.arange(k)) for k in v.shape]
    dist = np.sqrt(sum(lag * lag for lag in np.ix_(*lags)))
    w = np.where(dist > 0, dist, np.inf) ** -(v.ndim + sigma * p)
    if p != 2.0:
        return _pair_loop(v, w, p) * h ** (2 * v.ndim)
    u = v - v.mean()
    conv = np.fft.irfftn(np.fft.rfftn(w) * np.fft.rfftn(u), s=v.shape,
                         axes=range(v.ndim))
    total = np.sum(u * u * w.sum()) - np.vdot(u, conv)
    return max(2.0 * float(total), 0.0) * h ** (2 * v.ndim)


def min_dist_graph_1d(qt: np.ndarray, qx: np.ndarray, phi: np.ndarray,
                      h: float, extent: float) -> np.ndarray:
    """Min Euclidean distance from (t, x) queries to graph samples (phi_j, j*h).

    Base displacements use the torus metric on [0, extent); the samples
    tile it, N*h = extent.  Exact two-phase sweep.

    Phase 1 prunes sideways: a sample at lateral distance l can only win if
    l^2 < u - L^2, where u is the squared distance to the sample left of
    the query and L the query's vertical clearance to [min phi, max phi].
    Queries are sorted by that reach, and the samples at offset
    d = 1 .. B on both sides, which lie at least (d-1)h away, are visited
    only for the queries that can still reach them.  B = 2^floor(log2(N)/2),
    about sqrt(N).

    Phase 2 takes the queries whose reach is still above B*h.  The profile
    is cut into ceil(N/B) blocks of B samples, each with its min and max
    phi.  Phase 1 has covered the query's own block; the other blocks are
    visited at block offsets D = +-1, +-2, .. up to half the torus.  A block
    is scanned only if lat^2 + gap^2 < best, with lat the torus distance
    from x to the block's x-span and gap the distance from t to the block's
    phi range; a query leaves once every block left lies at least
    sqrt(best) away sideways.  lat is shrunk by a slack that covers the
    rounding of the lateral displacements, and rounding is monotone, so
    fl(t - max phi) <= fl(t - phi_j) and each bound is <= every candidate
    in its block: a pruned block holds no candidate below best.

    Every candidate's squared distance is formed by the same float
    expressions as a dense scan, so the minimum is the same number.
    Non-finite queries give inf or NaN for every sample, as in a dense
    scan.  Scanned blocks are gathered at most 2^14 candidates at a time,
    so working memory stays O(queries).
    """
    qt = np.ascontiguousarray(qt, dtype=np.float64)
    qx = np.ascontiguousarray(qx, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    n = phi.shape[0]
    m = qt.shape[0]
    half = n // 2
    b = 1 << (n.bit_length() - 1) // 2
    # samples extended by half a period on each side, so that index
    # j0 + half +- d needs no wrap
    xs = h * np.arange(n)
    ext = np.r_[np.arange(n - half, n), np.arange(n), np.arange(half)]
    xs_e, phi_e = xs[ext], phi[ext]

    def sq_dist(t, x, j):
        # |x - x_j|, torus min, t - phi_j, dx*dx + dt*dt; in place
        dx = xs_e[j]
        np.subtract(x, dx, out=dx)
        np.abs(dx, out=dx)
        np.minimum(dx, extent - dx, out=dx)
        dx *= dx
        dt = phi_e[j]
        np.subtract(t, dt, out=dt)
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
    for d in range(1, min(b, half) + 1):
        lo = int(np.searchsorted(reach, (d - 1) * h, side="right"))
        if lo == m:
            break
        t, x, j, bs = qt_s[lo:], qx_s[lo:], j0_s[lo:], best_s[lo:]
        np.minimum(bs, sq_dist(t, x, j + d), out=bs)
        np.minimum(bs, sq_dist(t, x, j - d), out=bs)
    lo = int(np.searchsorted(reach, b * h, side="right"))
    if b < half and lo < m:
        with np.errstate(invalid="ignore"):
            _block_sweep(qt_s[lo:], qx_s[lo:], j0_s[lo:] - half,
                         slack[order[lo:]], best_s[lo:], phi, h, extent, b,
                         sq_dist)
    best[order] = best_s
    return np.sqrt(best)


def _block_sweep(qt, qx, j0, slack, best, phi, h, extent, b, sq_dist):
    """Phase 2 of min_dist_graph_1d: lower best over the blocks of b
    samples other than the block of each query's sample j0, in place."""
    n = phi.shape[0]
    nb = -(-n // b)
    first = np.arange(0, n, b)
    lo, hi = h * first, h * (np.minimum(first + b, n) - 1)
    mid, width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    top = np.maximum.reduceat(phi, first)
    bottom = np.minimum.reduceat(phi, first)
    # the short last block shortens a lateral path by b - (n mod b) samples
    pad = nb * b - n
    q = np.arange(qt.shape[0])
    home, x = j0 // b, np.mod(qx, extent)
    for D in range(1, nb // 2 + 1):
        # every block at offset >= D lies at least ((D-1)b - pad)h away
        far = np.maximum(max((D - 1) * b - pad, 0) * h - slack, 0.0)
        keep = far * far < best[q]
        q, home, x, slack = q[keep], home[keep], x[keep], slack[keep]
        t = qt[q]
        for side in (D, -D) if 2 * D < nb else (D,):
            k = (home + side) % nb
            lat = np.abs(x - mid[k])
            np.minimum(lat, extent - lat, out=lat)
            lat -= width[k] + slack
            np.maximum(lat, 0.0, out=lat)
            gap = np.maximum(np.maximum(t - top[k], bottom[k] - t), 0.0)
            hit = lat * lat + gap * gap < best[q]
            qi = q[hit]
            cand = _block_min(qt[qi], qx[qi], first[k[hit]] + n // 2, b,
                              sq_dist)
            best[qi] = np.minimum(best[qi], cand)


def _block_min(t, x, first, b, sq_dist):
    """Least squared distance from each query (t, x) to the b extended
    samples from index first, at most 2^14 candidates at a time."""
    out = np.empty(t.shape[0])
    lane = np.arange(b)
    step = (1 << 14) // b
    for i in range(0, t.shape[0], step):
        s = slice(i, i + step)
        j = first[s, None] + lane
        out[s] = sq_dist(t[s, None], x[s, None], j).min(axis=1)
    return out

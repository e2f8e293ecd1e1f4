"""Layer tracing installed from outside the package, for the traced run only.

Each traced function is replaced by a wrapper in every ``fatou_lab``
module that holds a reference to it, so calls made through names that a
module bound at import time (``from .grid import ball_mean_all_centers``)
are seen as well as calls through a module attribute
(``_kernels.min_dist_graph_1d``).  Spans are kept in memory; a layer's
self time is its span time minus the time of the spans nested directly
inside it.  Work counts are computed from call arguments, not measured.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict

# layer -> [(module, attribute)], in the order the per-layer table lists them
LAYERS = {
    "graph_distance": [("fatou_lab._kernels", "min_dist_graph_1d")],
    "inclusion_sampling": [("fatou_lab.lipschitz", "region_inclusion_check")],
    "spectral": [("fatou_lab.potentials", "bessel_smooth"),
                 ("fatou_lab.extension", "poisson_extend"),
                 ("fatou_lab.grid", "fft_convolve"),
                 ("fatou_lab.potentials", "spectral_derivative")],
    "window_sweep": [("fatou_lab._kernels", "circ_max_1d"),
                     ("fatou_lab._kernels", "circ_min_1d"),
                     ("fatou_lab._kernels", "circ_sum_1d"),
                     ("fatou_lab.maximal", "maximum_filter"),
                     ("fatou_lab.maximal", "minimum_filter")],
    "maximal_ops": [("fatou_lab.maximal", "tangential_max"),
                    ("fatou_lab.maximal", "hl_max_q"),
                    ("fatou_lab.maximal", "dilated_mitigated_max")],
    "ball_means": [("fatou_lab.grid", "ball_mean_all_centers")],
    "annuli": [("fatou_lab.extension", "annuli_surrogate")],
    "sharp_maximal": [("fatou_lab.potentials", "sharp_maximal")],
    "slobodeckij": [("fatou_lab.potentials", "slobodeckij_seminorm")],
    "kernel_quadrature": [("fatou_lab.kernels", "bessel_kernel"),
                          ("fatou_lab.kernels", "bessel_l1_norm"),
                          ("fatou_lab.kernels", "riesz_kernel")],
    "fractal": [("fatou_lab.fractal", "box_dimension"),
                ("fatou_lab.fractal", "divergence_set"),
                ("fatou_lab.fractal", "cantor_measure"),
                ("fatou_lab.fractal", "integrate_against")],
    "report": [("fatou_lab.report", "emit_report")],
}

# computed work counts: name -> (unit, better)
COUNTS = {
    "graph_distance.queries": ("count", "lower"),
    "graph_distance.pairs": ("count", "lower"),
    "inclusion_sampling.accept_ratio": ("ratio", "higher"),
    "slobodeckij.pairs": ("count", "lower"),
    "spectral.points": ("count", "lower"),
    "window_sweep.points": ("count", "lower"),
    "ball_means.points": ("count", "lower"),
    "report.bytes": ("B", "lower"),
}


def _count(layer, attr, args, result, counts):
    """Add the work of one call, computed from its arguments and result."""
    if layer == "graph_distance":
        queries = len(args[0])
        counts["graph_distance.queries"] += queries
        counts["graph_distance.pairs"] += queries * len(args[2])
    elif layer == "inclusion_sampling":
        counts["inclusion_sampling.checked"] += result.checked
    elif layer == "spectral":
        slices = len(args[1]) if attr == "poisson_extend" else 1
        counts["spectral.points"] += args[0].grid.size * slices
    elif layer == "window_sweep":
        counts["window_sweep.points"] += args[0].size
    elif layer == "ball_means":
        counts["ball_means.points"] += args[0].grid.size
    elif layer == "slobodeckij":
        size = args[0].grid.size
        counts["slobodeckij.pairs"] += size * (size - 1)
    elif layer == "report":
        counts["report.bytes"] += sum(os.path.getsize(p) for p in result)


class Tracer:
    """Records (layer, start, end, parent) spans around wrapped calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = defaultdict(float)
        self._installed = []
        self._round_start = 0

    def _wrap(self, layer, attr, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            queries_before = counts["graph_distance.queries"]
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            _count(layer, attr, args, result, counts)
            if layer == "inclusion_sampling":
                counts["inclusion_sampling.queries"] += (
                    counts["graph_distance.queries"] - queries_before)
            return result

        return traced

    def install(self):
        """Replace every traced function in every loaded fatou_lab module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fatou_lab"
                                         or name.startswith("fatou_lab."))]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(layer, attr, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._installed.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()

    def start_round(self):
        """Begin a round: counts restart, spans keep accumulating."""
        self.counts.clear()
        self._round_start = len(self.spans)

    def round_summary(self):
        """Per-layer self time and calls of the current round, plus its
        computed work counts."""
        first = self._round_start
        child = [0.0] * (len(self.spans) - first)
        for layer, start, end, parent in self.spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for i, (layer, start, end, _) in enumerate(self.spans[first:]):
            out[f"{layer}.self_s"] += (end - start) - child[i]
            out[f"{layer}.calls"] += 1
        for name in COUNTS:
            out[name] = self.counts.get(name, 0.0)
        queries = self.counts.get("inclusion_sampling.queries", 0.0)
        out["inclusion_sampling.accept_ratio"] = (
            self.counts["inclusion_sampling.checked"] / queries if queries else 0.0)
        return out

    def dump(self, path):
        """Write every recorded span as a JSON line: layer, start, end, parent."""
        with open(path, "w") as fh:
            for layer, start, end, parent in self.spans:
                fh.write(json.dumps([layer, start, end, parent]) + "\n")

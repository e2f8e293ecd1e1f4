import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from fatou_lab.errors import ParameterError, SingularityError
from fatou_lab.grid import fft_convolve, from_callable, make_grid
from fatou_lab.kernels import bessel_kernel, bessel_l1_norm, riesz_kernel
from reference import (KernelSpec, bessel_kernel_quadrature, kernel_symbol,
                       poisson_kernel, sampled_kernel)

PAIRS = [(1, 0.25), (1, 0.5), (1, 1.0), (1, 1.5),
         (2, 0.25), (2, 0.5), (2, 1.0), (2, 1.5)]


def test_poisson_kernel_values():
    assert poisson_kernel(1, 1.0, 0.0) == pytest.approx(1 / math.pi)
    assert poisson_kernel(1, 1.0, 1.0) == pytest.approx(1 / (2 * math.pi))
    assert poisson_kernel(2, 0.5, (0.0, 0.0)) == pytest.approx(0.6366198, abs=1e-6)
    for t in (0.0, math.nan):
        with pytest.raises(ParameterError):
            poisson_kernel(1, t, 0.5)


def test_poisson_unit_mass_numeric():
    # oracle fixing c_n: fine-grid quadrature of the kernel mass
    for n in (1, 2):
        if n == 1:
            total, _ = quad(lambda x: poisson_kernel(1, 0.3, x), -np.inf,
                            np.inf, limit=300)
        else:
            total, _ = quad(lambda r: 2 * math.pi * r
                            * poisson_kernel(2, 0.3, (r, 0.0)), 0, np.inf,
                            limit=300)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_bessel_closed_form_n1_alpha2():
    for x in (0.1, 0.7, 2.5):
        expect = 0.5 * math.exp(-x)
        assert bessel_kernel(1, 2.0, x) == pytest.approx(expect, rel=1e-12)
        assert bessel_kernel_quadrature(1, 2.0, x) == pytest.approx(expect, rel=1e-6)


def test_bessel_riesz_ratio_near_origin():
    for n, a in PAIRS:
        if a >= n:
            continue
        x = (1e-3, 0.0) if n == 2 else 1e-3
        ratio = bessel_kernel(n, a, x) / riesz_kernel(n, a, x)
        assert 0.9 <= ratio <= 1.0


def test_bessel_decay_bound():
    # |G_a(x)| <= C |x|^{-(n-a)} e^{-|x|/2} with a fixed C across the tail
    for n, a in ((2, 1.0), (1, 0.5)):
        xs = np.linspace(4.0, 12.0, 9)
        vals = [bessel_kernel(n, a, (x, 0.0) if n == 2 else x)
                for x in xs]
        bounds = xs ** (-(n - a)) * np.exp(-xs / 2.0)
        assert np.all(np.asarray(vals) <= 2.0 * bounds)


def test_bessel_singularity_and_routes():
    for kernel in (bessel_kernel, bessel_kernel_quadrature):
        with pytest.raises(SingularityError):
            kernel(1, 0.5, 0.0)
        with pytest.raises(SingularityError):
            kernel(2, 2.0, (0.0, 0.0))
        with pytest.raises(SingularityError):
            kernel(2, 1.5, (0.0, 0.0))
    for alpha in (math.nan, 0.0, -1.0):
        with pytest.raises(ParameterError, match="alpha must be positive"):
            bessel_kernel(1, alpha, 0.5)
    # alpha > n is finite at the origin, equal to the quadrature oracle
    v1 = bessel_kernel_quadrature(1, 1.5, 0.0)
    v2 = bessel_kernel(1, 1.5, 0.0)
    assert v1 == pytest.approx(v2, rel=1e-9)


def test_route_agreement():
    # the closed form against the quadrature oracle of tests/reference.py
    for n, a in PAIRS:
        for r in (1e-3, 0.1, 1.0, 3.0):
            x = (r, 0.0) if n == 2 else r
            q = bessel_kernel_quadrature(n, a, x)
            s = bessel_kernel(n, a, x)
            assert q == pytest.approx(s, rel=1e-6)


def test_bessel_unit_mass():
    for n, a in PAIRS:
        assert bessel_l1_norm(n, a) == pytest.approx(1.0, abs=1e-4)


def test_quadrature_loads_scipy_integrate_on_first_use():
    # a fresh interpreter: this process already holds scipy.  The closed
    # form loads scipy.special, the mass quadrature scipy.integrate.
    code = "\n".join([
        "import sys",
        "import fatou_lab.cli, fatou_lab.experiments",
        "loaded = lambda: ('scipy.special' in sys.modules,",
        "                  'scipy.integrate' in sys.modules)",
        "print(*loaded())",
        "from fatou_lab.kernels import bessel_kernel, bessel_l1_norm",
        "print(bessel_kernel(1, 1.5, 0.3).hex())",
        "print(*loaded())",
        "print(bessel_l1_norm(1, 1.5).hex())",
        "print(*loaded())"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == [
        "False", "False", bessel_kernel(1, 1.5, 0.3).hex(), "True", "False",
        bessel_l1_norm(1, 1.5).hex(), "True", "True"]


def test_a_verify_run_imports_no_scipy(tmp_path):
    # a fresh interpreter: this process already holds scipy.  Window
    # extremes are NumPy code, and scipy.special loads with the first
    # closed-form Bessel kernel.
    code = "\n".join([
        "import sys",
        "from fatou_lab import cli, kernels",
        "cli.main(['verify', '--experiment', 'nagel-stein-bound', '--levels',",
        f"          '8,10', '--seeds', '0', '--output-dir', {str(tmp_path)!r}])",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "print(kernels.bessel_kernel(1, 1.5, 0.3).hex())",
        "print('scipy.special' in sys.modules)"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split("\n")[-4:] == [
        "[]", bessel_kernel(1, 1.5, 0.3).hex(), "True", ""]
    assert any(tmp_path.iterdir())


def test_riesz_homogeneity():
    for n, a in ((1, 0.5), (2, 1.0), (2, 0.3)):
        x = (0.2, 0.1) if n == 2 else 0.37
        v1 = riesz_kernel(n, a, x)
        x2 = tuple(2 * v for v in x) if n == 2 else 2 * x
        assert riesz_kernel(n, a, x2) == pytest.approx(2.0 ** (-(n - a)) * v1)
    assert riesz_kernel(1, 0.5, 4.0) / riesz_kernel(1, 0.5, 1.0) == pytest.approx(0.5)


def test_riesz_constant_against_quadrature():
    # oracle: the t-integral with the bessel normalization but no e^{-t} cutoff
    for n, a in ((1, 0.5), (2, 1.0)):
        c_alpha = 1.0 / ((4 * math.pi) ** (a / 2) * math.gamma(a / 2))
        for r in (0.5, 1.0):
            val, _ = quad(lambda t, rr=r: math.exp(-math.pi * rr * rr / t)
                          * t ** ((a - n) / 2 - 1), 0, np.inf, limit=300)
            assert c_alpha * val == pytest.approx(
                riesz_kernel(n, a, (r, 0.0) if n == 2 else r), rel=1e-8)


def test_riesz_errors():
    with pytest.raises(SingularityError):
        riesz_kernel(1, 0.5, 0.0)
    for alpha in (1.5, math.nan):
        with pytest.raises(ParameterError):
            riesz_kernel(1, alpha, 0.5)


def test_kernel_symbol_values():
    assert kernel_symbol(KernelSpec("bessel", 1, order=2.0), 0.0) == 1.0
    assert kernel_symbol(KernelSpec("poisson", 1, scale=1.0), 1.0) == \
        pytest.approx(math.exp(-2 * math.pi), rel=1e-12)
    assert kernel_symbol(KernelSpec("riesz", 2, order=1.0),
                         (1.0 / (2 * math.pi), 0.0)) == pytest.approx(1.0)
    with pytest.raises(SingularityError):
        kernel_symbol(KernelSpec("riesz", 1, order=0.5), 0.0)


def test_pointwise_domination():
    rng = np.random.Generator(np.random.Philox(key=7))
    for n, a in PAIRS:
        if a >= n:
            continue
        for r in np.exp(rng.uniform(math.log(1e-3), math.log(8.0), size=125)):
            x = (r, 0.0) if n == 2 else r
            g = bessel_kernel(n, a, x)
            assert 0 < g <= riesz_kernel(n, a, x)


def test_symbol_spatial_consistency():
    g = make_grid(1, 12, 4.0)
    for a in (0.5, 1.0, 1.5):
        samp = sampled_kernel(KernelSpec("bessel", 1, order=a), g,
                              normalize=False)
        disc = np.fft.rfft(samp.samples) * g.h
        for k in range(0, 9):
            expect = kernel_symbol(KernelSpec("bessel", 1, order=a),
                                   k / g.extent)
            assert disc[k].real == pytest.approx(expect, abs=1e-4)


def test_symbol_spatial_consistency_2d():
    # the spatial-quadrature route converges at O(h^alpha) in dim 2: the
    # strict low-frequency tolerance holds for alpha = 1.5 at this size,
    # and the error must shrink with refinement for the singular orders
    g7 = make_grid(2, 7, 4.0)
    samp = sampled_kernel(KernelSpec("bessel", 2, order=1.5), g7,
                          normalize=False)
    disc = np.fft.fft2(samp.as_array()) * g7.h ** 2
    for k0 in range(4):
        for k1 in range(4):
            expect = kernel_symbol(KernelSpec("bessel", 2, order=1.5),
                                   (k0 / 4.0, k1 / 4.0))
            assert disc[k0, k1].real == pytest.approx(expect, abs=1e-4)
    worsts = []
    for lev in (6, 7):
        g = make_grid(2, lev, 4.0)
        samp = sampled_kernel(KernelSpec("bessel", 2, order=0.5), g,
                              normalize=False)
        disc = np.fft.fft2(samp.as_array()) * g.h ** 2
        worsts.append(max(
            abs(disc[k0, k1].real
                - kernel_symbol(KernelSpec("bessel", 2, order=0.5),
                                (k0 / 4.0, k1 / 4.0)))
            for k0 in range(4) for k1 in range(4)))
    assert worsts[1] < worsts[0]
    assert worsts[1] < 6e-4


@pytest.mark.parametrize("spec", [KernelSpec("bessel", 1, order=0.5),
                                  KernelSpec("riesz", 1, order=0.5)],
                         ids=["bessel", "riesz"])
def test_sampled_kernel_symmetric_near_singularity(spec):
    # on a non-dyadic extent the cells at +-4h are both refined: the
    # kernel is even, so the samples at index m and N - m agree
    g = make_grid(1, 10, 2.7)
    vals = sampled_kernel(spec, g).samples
    for m in range(1, 9):
        assert vals[g.n - m] == pytest.approx(vals[m], rel=1e-12)


def test_poisson_semigroup_on_eigenfunction():
    g = make_grid(1, 10, 1.0)
    f = from_callable(g, lambda x: np.cos(2 * np.pi * x))
    for t in (0.01, 0.1, 0.5):
        pk = sampled_kernel(KernelSpec("poisson", 1, scale=t), g)
        out = fft_convolve(f, pk)
        expect = math.exp(-2 * math.pi * t) * f.samples
        assert np.abs(out.samples - expect).max() <= 1e-6


def test_kernel_spec_validation():
    with pytest.raises(ParameterError):
        KernelSpec("heat", 1)
    with pytest.raises(ParameterError):
        KernelSpec("bessel", 1, order=0.0)
    with pytest.raises(ParameterError):
        KernelSpec("riesz", 1, order=1.0)
    with pytest.raises(ParameterError):
        KernelSpec("poisson", 2, scale=0.0)

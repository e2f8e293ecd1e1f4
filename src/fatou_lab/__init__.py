"""fatou-lab: a desk-scale harmonic analysis laboratory.

Kernels and smoothing operators, tangential approach regions and their
maximal functions, half-space extensions, fractional-dimensional
measures, and Lipschitz graph geometry, with a verification suite for
the inequality-level claims these objects satisfy.
"""

__version__ = "0.1.0"

# the kernel implementation in use; perfbench/run.py records it
BACKEND = "numpy"

__all__ = ["BACKEND", "__version__"]

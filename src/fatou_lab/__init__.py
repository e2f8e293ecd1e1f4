"""fatou-lab: a desk-scale harmonic analysis laboratory.

Kernels and smoothing operators, tangential approach regions and their
maximal functions, half-space extensions, fractional-dimensional
measures, and Lipschitz graph geometry, with a verification suite for
the inequality-level claims these objects satisfy.

Importing the package pins glibc's malloc thresholds (mmap at 32 MiB,
trim at 64 MiB; see _pin_malloc_thresholds), so the 16 MB of pocketfft
scratch a 2^20-sample transform takes is reused from the heap instead of
being mapped and faulted in afresh on every call.  Under another libc
the allocator is left alone.  No float depends on it.
"""

import ctypes
import os

__version__ = "0.1.0"

# the kernel implementation in use; perfbench/run.py records it
BACKEND = "numpy"

__all__ = ["BACKEND", "__version__"]

# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# the largest mmap threshold glibc accepts on 64-bit (HEAP_MAX_SIZE / 2),
# the ceiling its own dynamic threshold climbs to
_MMAP_THRESHOLD = 32 << 20
# twice that, the trim threshold glibc pairs with its dynamic threshold
_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at their dynamic ceiling.

    glibc maps every block above the mmap threshold afresh and unmaps it
    on free, and trims the heap top above the trim threshold; both move
    with the largest block freed so far.  Pinned, blocks up to 32 MiB come
    from the heap and up to 64 MiB of freed heap stays mapped.  Under a
    libc other than glibc, or when mallopt refuses (returns 0), nothing
    changes and nothing is raised.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return  # no confstr here, or a libc that does not know the name
    if not (libc or "").startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_malloc_thresholds()

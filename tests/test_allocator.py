"""Importing fatou_lab pins glibc's malloc thresholds, so a 2^20-sample
transform reuses heap memory instead of faulting in fresh pages; under
another libc the allocator is left alone."""

import ctypes
import os
import subprocess
import sys

import pytest

import fatou_lab


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the thresholds are pinned under glibc only")
def test_a_2_20_transform_stops_faulting_once_warm():
    # a fresh interpreter: this process's heap history is the test run's
    code = "\n".join([
        "import resource",
        "import fatou_lab",
        "import numpy as np",
        "spec = np.zeros((1 << 19) + 1, dtype=complex)",
        "np.fft.irfft(spec)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "for _ in range(3):",
        "    np.fft.irfft(spec)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    # unpinned, each call maps its 16 MB afresh: about 4000 faults a call
    assert int(proc.stdout) < 1000


def _no_cdll(*args, **kwargs):
    raise AssertionError("ctypes.CDLL was called")


def test_an_unknown_libc_name_leaves_the_allocator_alone(monkeypatch):
    def confstr(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", _no_cdll)
    assert fatou_lab._pin_malloc_thresholds() is None


def test_another_libc_leaves_the_allocator_alone(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)
    monkeypatch.setattr(ctypes, "CDLL", _no_cdll)
    assert fatou_lab._pin_malloc_thresholds() is None


def test_a_refused_mmap_threshold_sets_no_trim_threshold(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0

    class Libc:
        pass

    Libc.mallopt = staticmethod(mallopt)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
    fatou_lab._pin_malloc_thresholds()
    assert calls == [(-3, 32 << 20)]

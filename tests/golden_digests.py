"""Golden SHA-256 digests of the suite's reports and stdout, and of the
sharp maximal function's floats.

``tests/golden/suite.sha256`` holds one digest per report file that
``fatou-lab suite`` writes and one for its stdout.
``tests/golden/sharp_maximal.sha256`` holds one digest of
``samples.tobytes()`` per case of ``sharp_cases``, which the battery does
not reach.  Each file starts with a header that names the numpy version,
``platform.machine()`` and the Python version the digests were made with:
FFT and libm floats may differ elsewhere.  ``tests/test_golden.py``
compares fresh runs against them and skips in another environment.

Regenerate both files, only in a change that means to alter a report or
those floats, with

    PYTHONPATH=src python tests/golden_digests.py

and name the changed files and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import platform
import tempfile
from pathlib import Path

import numpy as np

from fatou_lab import cli
from fatou_lab.experiments import white_noise
from fatou_lab.grid import make_grid
from fatou_lab.potentials import dyadic_scales, sharp_maximal

PATH = Path(__file__).resolve().parent / "golden" / "suite.sha256"
SHARP_PATH = PATH.with_name("sharp_maximal.sha256")
STDOUT = "stdout"  # the name the suite's stdout is listed under


def environment() -> str:
    return (f"numpy {np.__version__}, {platform.machine()}, "
            f"python {platform.python_version()}")


def digests(output_dir, stdout: str) -> dict:
    """{file name: SHA-256} of every file in output_dir, and of stdout
    under STDOUT."""
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(Path(output_dir).iterdir())}
    out[STDOUT] = hashlib.sha256(stdout.encode()).hexdigest()
    return out


def sharp_cases():
    """(name, f, alpha): seed-0 white noise on 1-D grids of levels 8-14
    and 2-D grids of levels 5-8, at alpha 0.25, 0.5 and 0.9; each is run
    over all its grid's dyadic_scales."""
    for dim, levels in ((1, range(8, 15)), (2, range(5, 9))):
        for level in levels:
            f = white_noise(make_grid(dim, level, 1.0), 0)
            for alpha in (0.25, 0.5, 0.9):
                yield f"dim{dim}-level{level}-alpha{alpha}", f, alpha


def sharp_digests() -> dict:
    """{case name: SHA-256 of the sharp maximal function's samples}."""
    return {name: hashlib.sha256(sharp_maximal(
                f, alpha, dyadic_scales(f.grid)).samples.tobytes()).hexdigest()
            for name, f, alpha in sharp_cases()}


def read(path=PATH) -> tuple:
    """(environment, digests) as path records them."""
    header, *lines = path.read_text().splitlines()
    return header.removeprefix("# "), {
        name: digest for digest, name in (ln.split("  ", 1) for ln in lines)}


def write(path, table: dict) -> None:
    path.write_text(f"# {environment()}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in table.items()))
    print(f"wrote {len(table)} digests to {path}")


def main() -> None:
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout):
            cli.main(["suite", "--output-dir", tmp])
        write(PATH, digests(tmp, stdout.getvalue()))
    write(SHARP_PATH, sharp_digests())


if __name__ == "__main__":
    main()

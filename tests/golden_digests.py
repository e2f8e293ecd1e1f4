"""Golden SHA-256 digests of the suite's reports and stdout.

``tests/golden/suite.sha256`` holds one digest per report file that
``fatou-lab suite`` writes and one for its stdout, under a header that
names the numpy version, ``platform.machine()`` and the Python version
they were made with: FFT and libm floats may differ elsewhere.
``tests/test_golden.py`` compares a suite run against them and skips
in another environment.

Regenerate the file, only in a change that means to alter a report, with

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

PATH = Path(__file__).resolve().parent / "golden" / "suite.sha256"
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


def read() -> tuple:
    """(environment, digests) as PATH records them."""
    header, *lines = PATH.read_text().splitlines()
    return header.removeprefix("# "), {
        name: digest for digest, name in (ln.split("  ", 1) for ln in lines)}


def main() -> None:
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout):
            cli.main(["suite", "--output-dir", tmp])
        table = digests(tmp, stdout.getvalue())
    PATH.write_text(f"# {environment()}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in table.items()))
    print(f"wrote {len(table)} digests to {PATH}")


if __name__ == "__main__":
    main()

"""Run the CLI chain with scipy blocked: the package needs numpy alone.

    python3 scripts/cli_without_scipy.py

Sets ``sys.modules["scipy"] = None`` before mpsys is imported, so any
import of scipy or of one of its modules raises ``ImportError``.  Then,
in a temporary directory, it runs ``generate`` twice, ``cascade``,
``factor --mode problem2``, ``agler`` and ``check --what
closely-connected`` through ``mpsys.cli.run``, printing each command with
its exit code.  It exits 0 when every command exits 0, and 1 otherwise.
The package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

CHAIN = (
    ("generate", "conservative", "--n-params", "2", "--dim-x", "2", "--seed", "11",
     "--out", "b2.json"),
    ("generate", "conservative", "--n-params", "2", "--dim-x", "2", "--seed", "13",
     "--out", "b1.json"),
    ("cascade", "b2.json", "b1.json", "--out", "casc.json"),
    ("factor", "casc.json", "--mode", "problem2", "--out-dir", "p2"),
    ("agler", "casc.json"),
    ("check", "casc.json", "--what", "closely-connected"),
)


def main() -> int:
    sys.modules["scipy"] = None
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from mpsys.cli import run

    failed = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in CHAIN:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run(list(argv))
                print(" ".join(argv), "->", code)
                failed += code != 0
        finally:
            os.chdir(cwd)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

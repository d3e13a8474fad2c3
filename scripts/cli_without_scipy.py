"""Run the CLI chain with scipy blocked: the package needs numpy alone.

    python3 scripts/cli_without_scipy.py

Sets ``sys.modules["scipy"] = None`` before mpsys is imported, so any
import of scipy or of one of its modules raises ``ImportError``.  Then,
in a temporary directory, it writes a germ file and runs ``CHAIN``
through ``mpsys.cli.run``, printing each command with its exit code.  The
chain reaches every command and every mode of ``generate``, ``check`` and
``factor``: 14 pairs.  It exits 0 when every command exits 0, and 1
otherwise.  The package is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GERM = {"schema_version": "1", "kind": "germ", "n_params": 2, "dim_u": 1, "dim_y": 1,
        "coeffs": [{"index": [1, 1], "matrix": [[[0.5, 0.0]]]},
                   {"index": [2, 0], "matrix": [[[0.25, 0.0]]]}]}

CHAIN = (
    ("generate", "conservative", "--n-params", "2", "--dim-x", "2", "--seed", "11",
     "--out", "b2.json"),
    ("generate", "conservative", "--n-params", "2", "--dim-x", "2", "--seed", "13",
     "--out", "b1.json"),
    ("cascade", "b2.json", "b1.json", "--out", "casc.json"),
    ("factor", "casc.json", "--mode", "problem2", "--out-dir", "p2"),
    ("decompose", "casc.json", "--x2", "p2/witness_x2.json", "--out-dir", "dec"),
    ("agler", "casc.json"),
    ("check", "casc.json", "--what", "conservative"),
    ("check", "casc.json", "--what", "dissipative"),
    ("check", "casc.json", "--what", "closely-connected"),
    ("check", "casc.json", "--what", "unitary-part"),
    ("check", "casc.json", "--what", "multiplicity"),
    ("factor", "casc.json", "--mode", "left", "--out-dir", "left"),
    ("factor", "casc.json", "--mode", "right", "--out-dir", "right"),
    # theta of a cascade of two stateless systems is homogeneous of degree 2
    ("generate", "conservative", "--n-params", "2", "--dim-x", "0", "--seed", "4",
     "--out", "h1.json"),
    ("generate", "conservative", "--n-params", "2", "--dim-x", "0", "--seed", "5",
     "--out", "h2.json"),
    ("cascade", "h2.json", "h1.json", "--out", "hom.json"),
    ("factor", "hom.json", "--mode", "homogeneous", "--out-dir", "hom"),
    ("generate", "germ-realization", "--germ", "germ.json", "--out", "real.json"),
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
            Path("germ.json").write_text(json.dumps(GERM))
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

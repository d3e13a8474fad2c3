"""Where the benchmark finds the program and where it may write.

Every path is relative to the checkout that holds this directory, so the
benchmark reads and writes only inside that checkout.  The package is
imported from the checkout's ``src/`` and nowhere else: a copy of
``mpsys`` installed in site-packages must not stand in for the code under
test.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# OpenBLAS thread count for every benchmark process: one caller on small
# matrices, so more threads only add scheduling noise.
BLAS_THREADS = 1


class LayoutError(RuntimeError):
    """Raised when the checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    """Put ``src/`` first on sys.path; refuse to run without it."""
    if not (SRC / "mpsys" / "__init__.py").is_file():
        raise LayoutError(f"no mpsys package under {SRC}; run from a full checkout")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Fail unless ``module`` was loaded from the checkout's ``src/``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LayoutError(f"{module.__name__} was imported from {origin}, not {SRC}")


def remove_scratch(path: Path) -> None:
    """Delete a scratch directory under WORK_DIR, and WORK_DIR once empty."""
    shutil.rmtree(path)
    try:
        WORK_DIR.rmdir()
    except OSError:  # another run still has its directory there
        pass

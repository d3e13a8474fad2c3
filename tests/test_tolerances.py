"""The tolerance policy lives in one module: ``mpsys.tolerances``."""

import re
from pathlib import Path

import mpsys

FLOAT_EXPONENT = re.compile(r"\d(\.\d+)?e-\d+")


def test_no_threshold_literal_outside_the_tolerances_module():
    package = Path(mpsys.__file__).parent
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "tolerances.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FLOAT_EXPONENT.search(line)
    ]
    assert found == []

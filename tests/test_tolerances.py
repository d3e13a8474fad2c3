"""The tolerance policy lives in one module: ``mpsys.tolerances``."""

import ast
import re
from pathlib import Path

import mpsys
from mpsys import tolerances

FLOAT_EXPONENT = re.compile(r"\d(\.\d+)?e-\d+")
PACKAGE = Path(mpsys.__file__).parent


def test_no_threshold_literal_outside_the_tolerances_module():
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "tolerances.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if FLOAT_EXPONENT.search(line)
    ]
    assert found == []


def test_every_threshold_is_imported_by_another_module():
    # one constant per decision: a constant no module reads decides nothing
    constants = {name for name in vars(tolerances) if name.isupper()}
    imported = {
        alias.name
        for path in PACKAGE.glob("*.py") if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
        for alias in node.names
    }
    assert constants and constants <= imported, sorted(constants - imported)

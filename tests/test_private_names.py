"""No module under src/cyclescreen imports an underscore-prefixed name from
another cyclescreen module: a name that two modules share is public where it
is defined. tests/ is exempt, since its references reach into the modules
they check.
"""

import ast
from pathlib import Path

import cyclescreen

PACKAGE = Path(cyclescreen.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """'<file>:<line>: <name>' for each `_`-prefixed name the file imports
    from a cyclescreen module, relatively or by its absolute name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "cyclescreen":
            continue
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}: {alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_another_modules_private_name():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in _private_imports(path)] == []

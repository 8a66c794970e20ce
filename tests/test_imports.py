"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "dedsum").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that no other
    expression of it reads."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nimport numpy as np\nnp.zeros(gcd(1, 2))\n"
    assert unused_imports(source) == ["lcm", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []

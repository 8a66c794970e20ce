"""Every name a module of the package imports is used in that module,
every private top-level name of the package is read in it, and every
package name that the README or a docstring or comment cites exists."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import dedsum
import dedsum.scans

PACKAGE = Path(__file__).parent.parent / "src" / "dedsum"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
README = Path(__file__).parent.parent / "README.md"

# A name in backticks: one identifier or a dotted chain of them.
CITED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


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


def unread_private_names(sources: list[str]) -> list[str]:
    """The private names, not dunders, that a top-level def, class or
    assignment of one of sources binds and that no expression of any of
    them reads, by name or as an attribute."""
    bound, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(n for n in bound - read if n.startswith("_") and not n.endswith("__"))


def test_the_check_sees_a_private_name_that_nothing_reads():
    kernel = (
        "__all__ = []\n_LIMIT = 3\n_SEEN: int = 4\n_a, _b = 1, 2\n_c = 0\n_c = 1\n"
        "def _kernel(x):\n    return x + _a\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n    pass\n"
        "class _Row:\n    pass\n"
        "def public(x):\n    return isinstance(x, _Row) and _kernel(_SEEN)\n"
    )
    caller = "import kernel\nkernel._LIMIT.bit_length()\n"
    assert unread_private_names([kernel, caller]) == ["_Gone", "_b", "_c", "_dead"]
    assert unread_private_names([kernel]) == ["_Gone", "_LIMIT", "_b", "_c", "_dead"]


def test_the_package_reads_every_private_name_it_binds():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def docs_and_comments(source: str) -> str:
    """The docstrings and the comments of source, one after another."""
    nodes = (ast.Module, ast.ClassDef, ast.FunctionDef)
    docs = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(ast.parse(source))
        if isinstance(node, nodes)
    ]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return "\n".join(docs + [token.string for token in tokens if token.type == tokenize.COMMENT])


def unresolved_names(text: str) -> list[str]:
    """The names in backticks in text that cite the package but name
    nothing in it: a private name, looked up in every module, or a
    dotted name that starts with dedsum or one of its modules."""
    modules = {path.stem: importlib.import_module(f"dedsum.{path.stem}") for path in MODULES}
    missing = set()
    for name in CITED.findall(text):
        head, *rest = name.split(".")
        if head == "dedsum":
            roots, path = [dedsum], rest
        elif head in modules:
            roots, path = [modules[head]], rest
        elif head.startswith("_"):
            roots, path = modules.values(), [head, *rest]
        else:
            continue
        if not any(resolves(root, path) for root in roots):
            missing.add(name)
    return sorted(missing)


def resolves(obj, path: list[str]) -> bool:
    for part in path:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_the_check_sees_a_name_that_is_gone():
    text = (
        "`_no_such_kernel`, `scans._Batch.flag`, `dedsum.scans._gone`, `dedekind`,"
        " `scans._Batch.bt`, `dedsum.report.parse_csv`, `_Batch.a_inv`, `_bs_pairs`,"
        " `fractions.Fraction`, `cap`"
    )
    assert unresolved_names(text) == ["_no_such_kernel", "dedsum.scans._gone", "scans._Batch.flag"]
    source = '"""`_gone_from_docstring`"""\nx = "`_in_a_string`"  # `_gone_from_comment`\n'
    assert unresolved_names(docs_and_comments(source)) == ["_gone_from_comment", "_gone_from_docstring"]


def test_the_readme_cites_only_names_that_exist():
    assert unresolved_names(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_docstrings_and_comments_cite_only_names_that_exist(path):
    assert unresolved_names(docs_and_comments(path.read_text(encoding="utf-8"))) == []


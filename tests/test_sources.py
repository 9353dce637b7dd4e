import ast
import pathlib
import warnings

import pytest

import cwdyn

SOURCES = sorted(pathlib.Path(cwdyn.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_compiles_without_warnings(path):
    # invalid string escapes warn at compile time (SyntaxWarning on 3.12+)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _unused_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _unused_imports(tree) == []


def test_unused_import_check_sees_them():
    tree = ast.parse("import os\nimport numpy as np\nfrom a import b, c as d\n"
                     "from __future__ import annotations\nnp.zeros(b)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "d")]

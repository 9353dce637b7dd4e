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

import ast
import dataclasses
import importlib
import inspect
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


def _private_names(tree) -> set:
    """Private module-level functions, classes and assigned names."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in out if n.startswith("_") and not n.startswith("__")}


def _references(tree) -> set:
    """Names read, attributes read and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def test_private_names_are_used_by_the_library():
    # a private helper that only tests reach is dead library code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    refs = set().union(*(_references(t) for t in trees.values()))
    unused = sorted(f"{name}:{n}" for name, t in trees.items()
                    for n in _private_names(t) if n not in refs)
    assert unused == []


def test_private_name_check_sees_them():
    tree = ast.parse("_A = 1\n_B: int = 2\ndef _f():\n    return _A\n"
                     "class _C:\n    pass\n__all__ = []\n")
    assert _private_names(tree) == {"_A", "_B", "_f", "_C"}
    assert {"_A"} <= _references(tree) and "_f" not in _references(tree)


# the per-shift scalar chain DP that the block table replaced; its
# reference copy lives in tests/test_cwmetric.py
_RETIRED = ("sub_engine", "_rho_block", "_chain_raw")


def _spelled(tree, names) -> list:
    """(line, name) of every def, class, attribute, name or argument spelled
    as one of names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        else:
            continue
        if name in names:
            out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_per_shift_block_engine(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED) == []


def test_retired_name_check_sees_them():
    tree = ast.parse("class E:\n    def sub_engine(self):\n        self._rho_block = 1\n"
                     "def f(_chain_raw):\n    return E().sub_engine\n")
    assert _spelled(tree, _RETIRED) == [(2, "sub_engine"), (3, "_rho_block"),
                                        (4, "_chain_raw"), (5, "sub_engine")]


# the per-pair scalar crossing selection that the grid crossing pass of
# sector_parametrization replaced; its reference copy lives in
# tests/test_sectors.py
_RETIRED_SECTORS = ("_select_crossing",)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_per_pair_crossing_selection(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED_SECTORS) == []


def test_retired_sector_name_check_sees_it():
    tree = ast.parse("def _select_crossing(sys):\n    return sectors._select_crossing\n")
    assert _spelled(tree, _RETIRED_SECTORS) == [(1, "_select_crossing"),
                                                (2, "_select_crossing")]


# the scalar/array twins that one vectorized chart_distance and torus_norm,
# one north-south colatitude map and one local-arc frame replaced
_RETIRED_TWINS = ("chart_distance_arr", "_torus_norm_arr", "_is_half_lattice", "_ns_colat")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_chart_primitive_twins(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED_TWINS) == []


# the dict-based union-find that the SCC-id pair graph of the class merge
# replaced; its reference copy lives in tests/test_chainrec.py
_RETIRED_CHAINREC = ("_Union",)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dict_union_find(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED_CHAINREC) == []


def test_retired_chainrec_name_check_sees_it():
    tree = ast.parse("class _Union:\n    pass\nuf = chainrec._Union(ids)\n")
    assert _spelled(tree, _RETIRED_CHAINREC) == [(1, "_Union"), (3, "_Union")]


# public names that only tests read; MarkedContinuum.point(mark) does
_RETIRED_TEST_ONLY = ("point_p", "point_q")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_test_only_mark_points(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED_TEST_ONLY) == []


# parameters that had one value in use outside tests (now constants) and unused ones
_RETIRED_PARAMS = {
    "models.make_model": ("resolution", "horizon"),
    "models.is_spine": ("tol",),
    "cwmetric.constants_for": ("tail",),
    "cwmetric.calibrate": ("max_m", "c"),
    "cwmetric._pieces_of": ("sys",),
    "holonomy.default_params": ("tol",),
    "periodic.plan_katok": ("gamma",),
    "periodic.katok_iterate": ("tol",),
    "periodic._step_continuum": ("sys",),
    "periodic.verify_periodic": ("tol",),
    "sectors.enclosing_sector": ("margin",),
    "sectors._sector_from_seed": ("resolution",),
    "sectors.find_sectors": ("region",),
    "acceptance._family": ("lo", "hi"),
    "acceptance._rational_match": ("tol", "max_den", "cap"),
}

# fields that had one value in use, and result state that nothing read
_RETIRED_FIELDS = {
    "models.SystemModel": ("resolution",),
    "holonomy.HolonomyParams": ("resolution",),
    "chainrec.ChainClassGraph": ("scc_labels", "classes", "order", "roles"),
    "sectors.SectorRecord": ("seed",),
}


def _resolve(dotted):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"cwdyn.{module}"), name)


@pytest.mark.parametrize("dotted", sorted(_RETIRED_PARAMS))
def test_retired_parameters_are_gone(dotted):
    params = inspect.signature(_resolve(dotted)).parameters
    assert [p for p in _RETIRED_PARAMS[dotted] if p in params] == []


@pytest.mark.parametrize("dotted", sorted(_RETIRED_FIELDS))
def test_retired_fields_are_gone(dotted):
    names = {f.name for f in dataclasses.fields(_resolve(dotted))}
    assert [f for f in _RETIRED_FIELDS[dotted] if f in names] == []

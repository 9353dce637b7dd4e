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


# the per-pair scalar crossing selection and the chunked all-pairs crossing
# pass that the closed-form grid crossings of sector_parametrization
# replaced; the reference copy lives in tests/test_sectors.py
_RETIRED_SECTORS = ("_select_crossing", "_block_crossings", "_PAIR_CHUNK")


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


# the per-pair ring scan and its one-path diameter check that the block
# table's lockstep ring steps replaced; the reference copy lives in
# tests/_reference.py
_RETIRED_SCAN = ("_scan", "_exceeds")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_per_pair_ring_scan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _spelled(tree, _RETIRED_SCAN) == []


def test_retired_scan_name_check_sees_it():
    tree = ast.parse("class T:\n    def _scan(self, b):\n        return self._exceeds(b)\n")
    assert _spelled(tree, _RETIRED_SCAN) == [(2, "_scan"), (3, "_exceeds")]


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
    "models._arc_frame": ("t",),
    "cwmetric.constants_for": ("tail",),
    "cwmetric.calibrate": ("max_m", "c"),
    "cwmetric._pieces_of": ("sys",),
    "holonomy.default_params": ("tol",),
    "periodic.plan_katok": ("gamma",),
    "periodic.find_return": ("search_budget",),
    "periodic.katok_iterate": ("tol", "max_steps"),
    "periodic.verify_periodic": ("tol",),
    "sectors.enclosing_sector": ("margin", "margin_budget"),
    "sectors._sector_from_seed": ("resolution",),
    "sectors.find_sectors": ("region",),
    "continua._dedupe_points": ("group",),
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


# -- public names a caller outside the tests reaches -------------------------

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _read(node) -> tuple:
    """The names a node refers to: a name read, an attribute, an imported
    name or a string constant (a table of stage names refers by string)."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.ImportFrom):
        return tuple(alias.name for alias in node.names)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return ()


def _overrides(module, cls, name) -> bool:
    klass = getattr(importlib.import_module(f"cwdyn.{module}"), cls)
    return any(hasattr(base, name) for base in klass.__mro__[1:])


def _public_units(module, tree) -> dict:
    """id(node) -> dotted name of each public module-level function and
    class and each public method that overrides no base class's."""
    units = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            units[id(node)] = f"{module}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("_") \
                        and not (node.bases and _overrides(module, node.name, item.name)):
                    units[id(item)] = f"{module}.{node.name}.{item.name}"
    return units


def _uses(node, units, owners=()) -> list:
    """(name, dotted names of the units that enclose it) of each reference."""
    if id(node) in units:
        owners += (units[id(node)],)
    out = [(name, owners) for name in _read(node)]
    for child in ast.iter_child_nodes(node):
        out += _uses(child, units, owners)
    return out


def _unreferenced(trees: dict, outside: set) -> list:
    """Public library names that no caller reaches.

    A name is reached from outside (names in ``outside``) or from library
    code outside its own definition and outside every unreached
    definition, so a caller that only tests reach keeps nothing alive.
    ``trees`` maps module names to parsed modules; re-exports in the
    package ``__init__`` are not uses.
    """
    units, uses = {}, []
    for module, tree in trees.items():
        found = _public_units(module, tree)
        units.update(found)
        if module != "__init__":
            uses += _uses(tree, found)
    by_name = {}
    for name, owners in uses:
        by_name.setdefault(name, []).append(set(owners))
    dead = set()
    while True:
        now = set()
        for label in units.values():
            name = label.rsplit(".", 1)[1]
            reached = any(not owners & (dead | {label}) for owners in by_name.get(name, ()))
            if name not in outside and not reached:
                now.add(label)
        if now == dead:
            return sorted(dead)
        dead = now


def test_public_names_are_used_by_the_library():
    # a public function, class or method that only tests call is dead
    # library code; perfbench calls the library as a user would
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    outside = {name for p in PERFBENCH.rglob("*.py")
               for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
               for name in _read(node)}
    assert _unreferenced(trees, outside) == []


def test_public_name_check_sees_them():
    # g is reached only from f, which nothing reaches; h only from itself;
    # K.m by nothing; K.n by its string name
    trees = {"a": ast.parse("def f():\n    return g()\ndef g():\n    return 1\n"
                            "def h():\n    return h()\n"
                            "class K:\n    def m(self):\n        return K\n"
                            "    def n(self):\n        return 0\n"),
             "b": ast.parse("from a import K\nSTAGES = ('n',)\nK()\n"),
             "__init__": ast.parse("from a import f, g, h\n")}
    assert _unreferenced(trees, set()) == ["a.K.m", "a.f", "a.g", "a.h"]
    assert _unreferenced(trees, {"f"}) == ["a.K.m", "a.h"]

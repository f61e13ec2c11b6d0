import ast
import dataclasses
import importlib
import inspect
import pathlib
import subprocess
import sys
import warnings

import pytest

import adframe
from adframe import (AdPoint, IrreduciblePair, adpt_hom, adpt_space,
                     ads_adpt_iso, ads_hom, ads_space, build_ado,
                     build_ado_hom, enumerate_points, eta_map,
                     generate_random)
from adframe.frames import AxiomCheck
from adframe.finord import FinLattice

from helpers import SIERPINSKI

SOURCES = sorted(pathlib.Path(adframe.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_sources_compile_without_warnings():
    assert SOURCES
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def test_package_runs_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from adframe import build_ado, make_space, validate_adframe\n"
        "frame = build_ado(make_space(2, [[], [1], [0, 1]], pairs=[[1, 0]]))\n"
        "assert validate_adframe(frame).ok\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_names_resolve():
    """Every function the benchmark's tracer wraps is still a callable of
    its module; the table is read with ``ast``, so numpy is not imported."""
    tracer = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                          for t in node.targets))
    assert layers
    for module, names in layers.items():
        home = importlib.import_module(f"adframe.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_points_pairs_and_law_checks_are_plain_tuples():
    """Points, pairs and law checks are built, compared and hashed by
    ``tuple`` itself, so a point hashes as the tuple of its two ints and
    sets, dicts and sorts see them as those tuples."""
    for cls in (AdPoint, IrreduciblePair, AxiomCheck):
        assert issubclass(cls, tuple)
        for name in ("__init__", "__eq__", "__hash__"):
            assert getattr(cls, name) is getattr(tuple, name), (cls, name)
    assert hash(AdPoint(5, 9)) == hash((5, 9))


def test_indented_json_has_one_writer():
    """No ``json.dump`` or ``json.dumps`` call in ``src/`` passes
    ``indent``: indented documents are written by ``cli._emit_json``."""
    stray = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert stray == []


def test_no_unused_imports():
    """Every name a module imports is used in it; the package's
    ``__init__.py`` files only re-export, so they are exempt."""
    unused = []
    for path in sorted(p for folder in ("src", "tests", "demos")
                       for p in (ROOT / folder).rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_a_lattice_stores_its_order_once():
    """A ``FinLattice`` holds its order as up- and down-masks only, and no
    join or meet table is kept or built anywhere in ``src/``."""
    assert tuple(f.name for f in dataclasses.fields(FinLattice)) == (
        "m", "labels", "bot", "top", "up_masks", "down_masks")
    stray = [f"{path.name}: {name}" for path in SOURCES
             for name in ("join_table", "meet_table", "_bound_table")
             if name in path.read_text()]
    assert stray == []


def test_derived_values_have_one_home():
    """An object stores what is derived from it only through
    ``finord.kept``.  The one weak-keyed table is the hom table that
    ``bounded_lattice_homs`` keeps on a lattice, the one weak-valued table
    is the label-family table of ``lattice_from_labels``, and the only
    function caches are the three ``enumerate_*`` pools of ``theorems``.
    No context variable holds state across calls.  A new cache goes
    through ``kept``."""
    pools = {("theorems.py", f"enumerate_{pool}")
             for pool in ("topologies", "preorders", "spaces")}
    homes = {"__setattr__": {("finord.py", "kept")},
             "WeakKeyDictionary": {("frames.py", "bounded_lattice_homs")},
             "WeakValueDictionary": {("finord.py", None)},
             "cache": pools, "lru_cache": set(), "cached_property": set(),
             "ContextVar": set()}
    stray = []

    def visit(path, node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name) else None)
            if name in homes and (path.name, inner) not in homes[name]:
                stray.append(f"{path.name}:{child.lineno}: {name} in {inner}")
            visit(path, child, inner)

    for path in SOURCES:
        visit(path, ast.parse(path.read_text()), None)
    assert stray == []


def _named(tree):
    """The identifiers a syntax tree names: variables, attributes and
    string constants (the benchmark's tracer lists its layers as strings)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)})


def test_every_definition_is_used_outside_the_tests():
    """Every top-level function and class of ``src/adframe`` is named in
    ``src/adframe`` outside its own definition and ``__init__.py``, or in
    ``demos/`` or ``perfbench/``; a definition named only by unused ones
    is unused too.  Library that only the tests use lives in
    ``tests/helpers.py``."""
    outside = set().union(*(_named(ast.parse(path.read_text()))
                            for folder in ("demos", "perfbench")
                            for path in (ROOT / folder).rglob("*.py")))
    tops = [node for path in SOURCES if path.name != "__init__.py"
            for node in ast.parse(path.read_text()).body]
    names = [_named(node) for node in tops]
    unused: set = set()
    changed = True
    while changed:
        changed = False
        for i, node in enumerate(tops):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and i not in unused
                    and node.name not in outside
                    and not any(node.name in names[j] for j in range(len(tops))
                                if j != i and j not in unused)):
                unused.add(i)
                changed = True
    assert sorted(tops[i].name for i in unused) == []


def test_a_map_is_a_tuple_of_indices():
    """A map between finite spaces has one representation, the tuple of
    its point indices.  No class in ``src/adframe`` wraps one, and the
    package exports none of the old wrappers nor the old name of
    ``space_from_json``.  The four constructions of maps return tuples,
    and the two of the pair-space side take the pair spaces and the
    spectrum they read, not a variant to rebuild them from."""
    old = {"Eta", "SpectrumMap", "AdsMap", "AdsAdptIso"}
    defined = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert defined & old == set()
    assert set(adframe.__all__) & (old | {"validate_space"}) == set()
    hom = build_ado_hom((0, 1), SIERPINSKI, SIERPINSKI)
    spectrum, ads = adpt_space(build_ado(SIERPINSKI)), ads_space(SIERPINSKI)
    for value in (adpt_hom(hom, spectrum, spectrum), eta_map(spectrum),
                  ads_hom((0, 1), ads, ads), ads_adpt_iso(ads, spectrum)):
        assert type(value) is tuple and all(type(i) is int for i in value)
    for construction in (ads_hom, ads_adpt_iso):
        assert "variant" not in inspect.signature(construction).parameters


def _stray(gone, folders=("src", "tests", "demos")):
    """Where the files of ``folders``, this one aside, define, import or
    name one of ``gone``, as "path: name" lines."""
    here = pathlib.Path(__file__).resolve()
    stray = []
    for path in sorted(p for folder in folders for p in (ROOT / folder).rglob("*.py")):
        if path.resolve() == here:
            continue
        tree = ast.parse(path.read_text())
        named = _named(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named |= {alias.asname or alias.name for alias in node.names}
        stray += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(named & gone)]
    return stray


def test_one_decoder_and_one_up_set_construction():
    """A mask's members are listed by ``bits_of`` alone, and an up-set
    family is built by ``upset_family`` from a preorder's rows alone: no
    file of ``src/``, ``tests/`` or ``demos/`` defines, imports or names the
    generator decoder ``iter_bits`` or ``_poset_shell``, the space that
    wrapped a bare preorder.  This file names them only to look for them."""
    assert _stray({"iter_bits", "_poset_shell"}) == []


def test_one_point_route_and_no_mutated_family():
    """The library finds points by one route, ``enumerate_points(frame)``,
    and generates no mutated frames: the brute-force spectrum, the
    mutation table and the "mutated" family live in ``tests/helpers.py``,
    and no file of ``src/`` or ``demos/`` defines or names them, nor the
    old algorithm names or the prime route's private name."""
    moved = {"_enumerate_bruteforce", "is_cp_filter", "is_cpc_filter",
             "point_conditions_ok", "min_of_filter", "point_sort_key",
             "_BRUTE_GATE", "_enumerate_prime", "_flip", "_mutation_table",
             "_mutations", "mutated", "bruteforce", "prime"}
    assert _stray(moved, folders=("src", "demos")) == []
    assert list(inspect.signature(enumerate_points).parameters) == ["frame"]
    with pytest.raises(ValueError) as exc:
        generate_random("adframe", {"family": "mutated"})
    assert str(exc.value) == "unknown adframe family 'mutated'"

"""The package namespace: every public name resolves on first use, importing it loads no submodule, and every annotation resolves."""

import ast
import importlib
import inspect
import typing
from collections import defaultdict

import pytest

import plft_forest
from helpers import REPO, run_python

# the names bench/workloads.py reads off the package
BENCH_NAMES = (
    "GaussianRational", "OrphanParams", "Plft", "ancestor_chain", "ancestors_of_rational", "apply_word",
    "census_row", "decompose_special", "evaluate_plft_cf", "harmonic_double_sum", "is_descendant_rational",
    "orphan_root_cf", "plft_cf_expand", "ratio_series", "replay_chain", "root_by_iteration", "summatory_h",
)


MODULES = ("plft", "cf", "census", "complex_forest", "cli", "errors")
PACKAGE = REPO / "src" / "plft_forest"


def _public_names():
    """Every public name a library module binds at its top level, with that module."""
    homes = {}
    for module in MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            homes.update((name, module) for name in targets if not name.startswith("_"))
    return homes


PUBLIC = _public_names()


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_name_is_the_object_of_its_home_module(name):
    # an exported name resolves to its module's object; any other public
    # name stays in its module, and the package does not offer it
    home = importlib.import_module(f"plft_forest.{PUBLIC[name]}")
    assert hasattr(home, name)
    if name not in plft_forest.__all__:
        assert not hasattr(plft_forest, name)
        return
    assert plft_forest._HOME[name] == PUBLIC[name]
    value = getattr(plft_forest, name)
    assert value is getattr(home, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == home.__name__


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from plft_forest import *", namespace)
    assert set(plft_forest.__all__) <= namespace.keys()
    assert set(plft_forest.__all__) <= set(dir(plft_forest))
    assert set(BENCH_NAMES) <= set(plft_forest.__all__) <= PUBLIC.keys()


def _readers_under(*tops):
    """For every name a program under ``tops`` reads, as a variable or an attribute, the files that read it.

    Read from the syntax tree, so a name that appears only in a string,
    such as a metric called ``complex_forest.complex_parent.calls``, or
    only where it is bound, as in its own ``def``, is not counted.
    """
    readers = defaultdict(set)
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue  # the export table itself
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers[node.id].add(path)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers[node.attr].add(path)
    return readers


def test_every_export_has_a_caller():
    # the library exports only what another library module, the benchmark
    # or the scripts use; a read inside the name's own module does not count
    readers = _readers_under("src", "bench", "scripts")
    unread = [name for name in plft_forest.__all__ if not readers[name] - {PACKAGE / f"{plft_forest._HOME[name]}.py"}]
    assert unread == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        plft_forest.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from plft_forest import no_such_name  # noqa: F401


def test_import_loads_no_submodule():
    proc = run_python("-c", "import sys, plft_forest; print(sorted(n for n in sys.modules if n.startswith('plft_forest')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['plft_forest']\n"


@pytest.mark.parametrize("module", MODULES)
def test_every_annotation_resolves(module):
    home = importlib.import_module(f"plft_forest.{module}")
    for value in vars(home).values():
        if getattr(value, "__module__", None) != home.__name__:
            continue
        members = vars(value).values() if inspect.isclass(value) else ()
        for fn in (value, *members):
            if inspect.isfunction(fn) or inspect.isclass(fn):
                typing.get_type_hints(fn)

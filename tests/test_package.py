"""The package namespace: every public name resolves on first use, importing it loads no submodule, and every annotation resolves."""

import ast
import importlib
import inspect
import typing

import pytest

import plft_forest
from helpers import REPO, run_python

# the names bench/workloads.py reads off the package
BENCH_NAMES = (
    "GaussianRational", "OrphanParams", "Plft", "ancestor_chain", "ancestors_of_rational", "apply_word",
    "census_row", "decompose_special", "evaluate_plft_cf", "harmonic_double_sum", "is_descendant_rational",
    "orphan_root_cf", "plft_cf_expand", "ratio_series", "replay_chain", "root_by_iteration", "summatory_h",
)


@pytest.mark.parametrize("name", plft_forest.__all__)
def test_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"plft_forest.{plft_forest._HOME[name]}")
    value = getattr(plft_forest, name)
    assert value is getattr(home, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == home.__name__


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from plft_forest import *", namespace)
    assert set(plft_forest.__all__) <= namespace.keys()
    assert set(plft_forest.__all__) <= set(dir(plft_forest))
    assert set(BENCH_NAMES) <= set(plft_forest.__all__)


def _names_read_under(*tops):
    """Every name a program under ``tops`` reads, as a variable or an attribute.

    Read from the syntax tree, so a name that appears only in a string,
    such as a metric called ``complex_forest.complex_parent.calls``, or
    only where it is bound, as in its own ``def``, is not counted.
    """
    read = set()
    for top in tops:
        for path in sorted((REPO / top).rglob("*.py")):
            if path == REPO / "src" / "plft_forest" / "__init__.py":
                continue  # the export table itself
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_export_has_a_caller():
    # the library exports only what the library, the benchmark or the scripts use
    read = _names_read_under("src", "bench", "scripts")
    assert sorted(set(plft_forest.__all__) - read) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        plft_forest.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from plft_forest import no_such_name  # noqa: F401


def test_import_loads_no_submodule():
    proc = run_python("-c", "import sys, plft_forest; print(sorted(n for n in sys.modules if n.startswith('plft_forest')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['plft_forest']\n"


MODULES = ("plft", "cf", "census", "complex_forest", "cli", "errors")


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

"""Exact arithmetic on the forest of positive linear fractional transformations.

Importing the package loads none of its submodules.  Each public name
is resolved on first use (PEP 562): the submodule that defines it is
imported then, and the name is kept in the package namespace, so a
program pays only for the parts of the library it touches.
"""

from importlib import import_module

_EXPORTS = {
    "cf": """
        ancestors_of_rational cf_of_rational decompose_special evaluate_plft_cf is_descendant_rational
        orphan_root_cf plft_cf_expand
    """,
    "census": """
        census_row census_rows h_closed h_direct harmonic_double_sum harmonic_double_sum_reference nu2
        ratio_series summatory_h
    """,
    "complex_forest": "GaussianRational OrphanParams ancestor_chain ancestor_runs is_complex_orphan replay_chain",
    "errors": "InternalInvariantError",
    "plft": "IDENTITY LEFT RIGHT Plft RunSteps apply_word format_word root_by_iteration word_of_runs",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())

"""The package surface: every export is a name some run uses.

A name in ``fdmkit.__all__`` must be referenced in a module of the package
other than ``__init__.py``, so that an exported second copy of some math
that no run calls cannot grow back unnoticed.  The exceptions are listed
below, each with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import fdmkit

# exports no module of the package calls, and why they stay
UNREFERENCED_EXPORTS = {
    "check_trace_invariants": "user entry point: the descent and "
                              "feasibility audit of a trace",
    "lasso_lift": "user entry point: a lasso point in the doubled variables",
    "lasso_project_back": "user entry point: a doubled lasso point mapped "
                          "back to the lasso",
    "projected_gradient": "planned caller: the stationarity stop of boxed "
                          "quadratics",
    "weighted_dual_norm_sq": "planned caller: the stationarity stop of boxed "
                             "quadratics",
    "hoffman_theta_bruteforce": "planned caller: the Hoffman route to kappa_f",
    "kappa_from_theta": "planned caller: the Hoffman route to kappa_f",
}


def _package_references() -> set:
    """Every name and attribute read in the modules other than __init__."""
    refs = set()
    for path in Path(fdmkit.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_export_resolves_once():
    counts = Counter(fdmkit.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert [name for name in counts if not hasattr(fdmkit, name)] == []


def test_every_export_is_referenced_in_the_package():
    refs = _package_references()
    unreferenced = {name for name in fdmkit.__all__ if name not in refs}
    assert unreferenced - set(UNREFERENCED_EXPORTS) == set()


def test_allow_list_is_current():
    # an entry that is no longer exported, or has gained a caller, goes
    refs = _package_references()
    assert set(UNREFERENCED_EXPORTS) <= set(fdmkit.__all__)
    assert set(UNREFERENCED_EXPORTS) & refs == set()

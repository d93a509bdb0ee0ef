"""The package surface: every export and public method is a name some run uses.

A name in ``fdmkit.__all__``, and a public method or property of a class
defined in the package, must be referenced in a module of the package other
than ``__init__.py``, so that a second copy of some math that no run calls
cannot grow back unnoticed.  The exceptions are listed below, each with its
reason.
"""

import ast
import subprocess
import sys
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

# public methods and properties no module of the package reads, and why they stay
UNREAD_METHODS = {
    "Problem.coord_gradient": "the tests' scalar reference for the "
                              "coordinate gradients of a run",
    "SvmDualProblem.primal_value": "user entry point: the hinge-loss primal "
                                   "objective",
    "SvmDualProblem.primal_weights": "user entry point: the primal point of "
                                     "a dual point",
    "LassoBoxProblem.inner_value": "user entry point: the lasso objective in "
                                   "the original variables",
    "InvariantReport.all_ok": "the audit verdict the benchmark reads",
}


def _modules():
    return [path for path in Path(fdmkit.__file__).parent.glob("*.py")
            if path.name != "__init__.py"]


def _package_references() -> set:
    """Every name and attribute read in the modules other than __init__."""
    refs = set()
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _public_methods() -> dict:
    """``{"Class.method": method}`` for every public method or property of
    a class defined in the package."""
    methods = {}
    for path in _modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods.update({f"{node.name}.{f.name}": f.name
                                for f in node.body
                                if isinstance(f, ast.FunctionDef)
                                and not f.name.startswith("_")})
    return methods


def test_every_export_resolves_once():
    counts = Counter(fdmkit.__all__)
    assert [name for name, c in counts.items() if c > 1] == []
    assert [name for name in counts if not hasattr(fdmkit, name)] == []


def test_import_loads_no_numpy_until_an_export_is_read():
    # so the fdmkit command can set its BLAS thread default before numpy loads
    code = ("import sys, fdmkit; before = 'numpy' in sys.modules; missing = "
            "[name for name in fdmkit.__all__ if not hasattr(fdmkit, name)]; "
            "print(before, missing, 'numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "False [] True"


def test_every_export_is_referenced_in_the_package():
    refs = _package_references()
    unreferenced = {name for name in fdmkit.__all__ if name not in refs}
    assert unreferenced - set(UNREFERENCED_EXPORTS) == set()


def test_allow_list_is_current():
    # an entry that is no longer exported, or has gained a caller, goes
    refs = _package_references()
    assert set(UNREFERENCED_EXPORTS) <= set(fdmkit.__all__)
    assert set(UNREFERENCED_EXPORTS) & refs == set()


def test_every_public_method_is_read_in_the_package():
    refs = _package_references()
    unread = {key for key, name in _public_methods().items() if name not in refs}
    assert unread - set(UNREAD_METHODS) == set()


def test_method_allow_list_is_current():
    # an entry that is gone, or is now read in the package, goes
    methods = _public_methods()
    assert set(UNREAD_METHODS) <= set(methods)
    assert {methods[key] for key in UNREAD_METHODS} & _package_references() == set()

"""Combinatorial dynamics laboratory.

Flows are finite multivalued maps on the top cells of a regular CW complex.
The package classifies attractor candidates by their explosion behaviour,
builds isolating blocks, and checks the cohomological constraints that the
catalog of example flows was designed to witness.

Public names load their module on first use (PEP 562), so importing the
package, or one of its modules, compiles only what is asked for.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("AlgebraError", "cohomology_ranks", "homology",
                "poincare_polynomial", "poly_to_string"),
    "attractor": ("AttractorReport", "NotIsolatedError", "VERDICTS",
                  "analyze", "classify"),
    "blocks": ("IsolatingBlock", "NoBlockError", "build_block",
               "conley_euler"),
    "catalog": ("CatalogError", "analysis", "build", "names"),
    "complexes": ("CellComplex", "ComplexError", "ConleyError",
                  "named_space"),
    "constructions": ("ConstructionError",),
    "flow": ("CombinatorialFlow", "FlowError", "rest_flow"),
    "theorems": ("CheckResult", "TheoremError", "check_ids", "run"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))

"""Combinatorial dynamics laboratory.

Flows are finite multivalued maps on the top cells of a regular CW complex.
The package classifies attractor candidates by their explosion behaviour,
builds isolating blocks, and checks the cohomological constraints that the
catalog of example flows was designed to witness.
"""

from .algebra import (AlgebraError, cohomology_ranks, homology,
                      poincare_polynomial, poly_to_string)
from .attractor import (AttractorReport, NotIsolatedError, VERDICTS, analyze,
                        classify)
from .blocks import (BlockError, IsolatingBlock, NoBlockError, build_block,
                     conley_euler, section_components)
from .catalog import CatalogError, analysis, build, names, refine_flow
from .complexes import CellComplex, CellMap, ComplexError
from .constructions import ConstructionError
from .flow import CombinatorialFlow, FlowError, LimitEnclosure, rest_flow
from .theorems import CheckResult, TheoremError, check_ids, run

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "AttractorReport", "BlockError", "CatalogError",
    "CellComplex", "CellMap", "CheckResult", "CombinatorialFlow",
    "ComplexError", "ConstructionError", "FlowError", "IsolatingBlock",
    "LimitEnclosure", "NoBlockError", "NotIsolatedError", "TheoremError",
    "VERDICTS", "analysis", "analyze", "build", "build_block", "check_ids",
    "classify", "cohomology_ranks", "conley_euler", "homology",
    "names", "poincare_polynomial", "poly_to_string", "refine_flow",
    "rest_flow", "run", "section_components", "__version__",
]

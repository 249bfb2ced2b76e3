"""Solver and verification workbench for constrained Horn clauses.

The package analyzes systems of Horn clauses whose constraints are linear
over the rationals.  It provides:

* an abstract solver over interval boxes with alternating forward/backward
  refinement (:mod:`chclab.solver`),
* query-answer program transformations that emulate the alternation
  (:mod:`chclab.qa`),
* exact reference semantics — finite-universe ground fixpoints
  (:mod:`chclab.concrete`) and derivation trees (:mod:`chclab.trees`) —
  used to cross-check the abstract results,
* a small text format for systems and models (:mod:`chclab.parser`).

The ``chclab`` console script exposes all of it; see ``chclab --help``.
"""

from .depgraph import dependency_order
from .linlogic import ResourceLimitError
from .parser import ParseError, parse_model, parse_system
from .solver import alternate, check_model

__all__ = [
    "ParseError",
    "ResourceLimitError",
    "alternate",
    "check_model",
    "dependency_order",
    "parse_model",
    "parse_system",
]

__version__ = "0.1.0"

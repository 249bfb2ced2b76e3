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
Its subcommands import only the modules they use.  ``concrete``, ``qa``
and ``trees``, which ``import chclab.cli`` no longer loads, are imported
on first attribute access, so ``chclab.qa`` works after a bare
``import chclab``.
"""

import importlib

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

_LAZY = frozenset({"concrete", "qa", "trees"})


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

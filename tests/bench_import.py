"""Modules of ``bench/``, imported for the gate scripts of ``tests/``.

``tests/executed.py``, ``tests/wide_family.py`` and
``tests/work_census.py`` run the benchmark's workloads and measure
functions; ``bench/`` must stay as it is, so an import writes no
bytecode there and puts ``bench/`` on ``sys.path`` only while it runs.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_modules(*names: str) -> tuple:
    """The modules ``names`` of ``bench/``, in order.  ``sys.path`` and
    ``sys.dont_write_bytecode`` are restored after, also when an import
    fails."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return tuple(importlib.import_module(name) for name in names)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved

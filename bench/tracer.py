"""Outside-in layer trace of chclab.

Wrappers go around the public functions of chclab's modules.  Several
modules import those functions by name (``solver`` imports ``clause_post``
and ``cube_is_sat``, ``cli`` imports ``alternate``, ...), so patching only
the defining module would miss most calls: :meth:`Tracer.install` rebinds
every ``chclab.*`` module attribute that is the same function object, and
wraps the ``RefinedModel.as_dict`` method on its class.

Each wrapped call records a span (name, start, end, parent) in memory.
:meth:`Tracer.fold` turns the spans of one pass into per-function calls,
total time and self time (duration minus the time its child spans cover),
plus counts taken from return values.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (module, attribute) of every traced function, in the layer order of the
# report; "Class.method" names a method.
TARGETS = (
    ("parser", "parse_system"),
    ("linlogic", "to_dnf"),
    ("linlogic", "fm_eliminate"),
    ("linlogic", "cube_is_sat"),
    ("linlogic", "project_to_box"),
    ("domain", "formula_box"),
    ("domain", "clause_post"),
    ("domain", "clause_pre_restricted"),
    ("depgraph", "dependency_order"),
    ("solver", "analyze_forward"),
    ("solver", "analyze_backward"),
    ("solver", "alternate"),
    ("solver", "certify_trace"),
    ("solver", "check_model"),
    ("solver", "goal_disjoint"),
    ("solver", "RefinedModel.as_dict"),
    ("qa", "qa_transform"),
    ("qa", "qa_two_step"),
    ("qa", "qa_iterated"),
)

# Functions whose distinct argument tuples are counted: calls that repeat
# an earlier argument tuple are what a cache could save.
DISTINCT = {
    "linlogic.project_to_box",
    "domain.formula_box",
    "domain.clause_post",
    "domain.clause_pre_restricted",
}


@dataclass
class FnStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    # Counts from return values; which ones apply depends on the function.
    items: int = 0  # cubes of to_dnf, rounds of alternate
    peak: int = 0  # largest constraint count of an fm_eliminate result
    empty: int = 0  # unsat cube_is_sat / project_to_box results
    errors: int = 0  # calls that raised, e.g. a DNF cap hit


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.stats: dict[str, FnStats] = {}
        self.keys: dict[str, set[int]] = {name: set() for name in DISTINCT}
        self.open_check_model = 0
        self.check_model_cubes = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever chclab's modules bind it."""
        import chclab

        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "chclab" or name.startswith("chclab."))
        ]
        for module_name, attr in TARGETS:
            owner = getattr(chclab, module_name)
            name = f"{module_name}.{attr}"
            self.stats[name] = FnStats()
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, stats = self.spans, self.stack, self.stats
        keys = self.keys.get(name)
        is_to_dnf = name == "linlogic.to_dnf"
        is_check_model = name == "solver.check_model"
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(hash(_freeze(args, kwargs)))
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            if is_check_model:
                self.open_check_model += 1
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[name].errors += 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if is_check_model:
                    self.open_check_model -= 1
            if count is not None:
                count(stats[name], result)
            if is_to_dnf and self.open_check_model:
                self.check_model_cubes += len(result)
            return result

        return wrapper

    # -- accounting ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all spans and counts, e.g. at the start of a pass."""
        self.spans.clear()
        self.stack.clear()
        for name in self.stats:
            self.stats[name] = FnStats()
        for seen in self.keys.values():
            seen.clear()
        self.open_check_model = 0
        self.check_model_cubes = 0

    def fold(self) -> None:
        """Fold the recorded spans into calls, total and self times.

        A span left open by an interrupted instance ends now.
        """
        now = time.perf_counter_ns()
        spans = self.spans
        for name, start, end, parent in spans:
            duration = (end or now) - start
            s = self.stats[name]
            s.calls += 1
            s.total_ns += duration
            s.self_ns += duration
            if parent >= 0:
                self.stats[spans[parent][0]].self_ns -= duration
        spans.clear()
        self.stack.clear()
        self.open_check_model = 0

    def self_ns(self) -> int:
        return sum(s.self_ns for s in self.stats.values())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything folded since the last reset."""
        st = self.stats
        ms = 1e-6

        def share(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {"parser.parse_system.self_ms": st["parser.parse_system"].self_ns * ms}
        fm = st["linlogic.fm_eliminate"]
        out["linlogic.fm_eliminate.calls"] = fm.calls
        out["linlogic.fm_eliminate.self_ms"] = fm.self_ns * ms
        out["linlogic.fm_eliminate.peak_cons"] = fm.peak
        sat = st["linlogic.cube_is_sat"]
        out["linlogic.cube_is_sat.calls"] = sat.calls
        out["linlogic.cube_is_sat.self_ms"] = sat.self_ns * ms
        out["linlogic.cube_is_sat.unsat_ratio"] = share(sat.empty, sat.calls)
        proj = st["linlogic.project_to_box"]
        out["linlogic.project_to_box.calls"] = proj.calls
        out["linlogic.project_to_box.self_ms"] = proj.self_ns * ms
        out["linlogic.project_to_box.unsat_ratio"] = share(proj.empty, proj.calls)
        out["linlogic.project_to_box.distinct_ratio"] = share(
            len(self.keys["linlogic.project_to_box"]), proj.calls
        )
        dnf = st["linlogic.to_dnf"]
        out["linlogic.to_dnf.calls"] = dnf.calls
        out["linlogic.to_dnf.self_ms"] = dnf.self_ns * ms
        out["linlogic.to_dnf.cubes"] = dnf.items
        out["linlogic.to_dnf.cap_hits"] = dnf.errors
        for fn in ("formula_box", "clause_post", "clause_pre_restricted"):
            s = st[f"domain.{fn}"]
            out[f"domain.{fn}.calls"] = s.calls
            out[f"domain.{fn}.self_ms"] = s.self_ns * ms
            out[f"domain.{fn}.distinct_ratio"] = share(len(self.keys[f"domain.{fn}"]), s.calls)
        dep = st["depgraph.dependency_order"]
        out["depgraph.dependency_order.calls"] = dep.calls
        out["depgraph.dependency_order.self_ms"] = dep.self_ns * ms
        out["solver.analyze_forward.self_ms"] = st["solver.analyze_forward"].self_ns * ms
        out["solver.analyze_backward.self_ms"] = st["solver.analyze_backward"].self_ns * ms
        out["solver.alternate.rounds"] = st["solver.alternate"].items
        out["solver.certify_trace.total_ms"] = st["solver.certify_trace"].total_ns * ms
        out["solver.check_model.total_ms"] = st["solver.check_model"].total_ns * ms
        out["solver.check_model.cubes"] = self.check_model_cubes
        out["solver.RefinedModel.as_dict.total_ms"] = st["solver.RefinedModel.as_dict"].total_ns * ms
        out["solver.goal_disjoint.total_ms"] = st["solver.goal_disjoint"].total_ns * ms
        out["qa.qa_transform.self_ms"] = st["qa.qa_transform"].self_ns * ms
        out["qa.qa_two_step.total_ms"] = st["qa.qa_two_step"].total_ns * ms
        out["qa.qa_iterated.total_ms"] = st["qa.qa_iterated"].total_ns * ms
        return out


def _count_cubes(s: FnStats, result) -> None:
    s.items += len(result)


def _count_rounds(s: FnStats, result) -> None:
    s.items += result[1].rounds_used


def _count_peak(s: FnStats, result) -> None:
    s.peak = max(s.peak, len(result.cons))


def _count_unsat(s: FnStats, result) -> None:
    if result is None or result is False:
        s.empty += 1


_COUNTERS = {
    "linlogic.to_dnf": _count_cubes,
    "linlogic.fm_eliminate": _count_peak,
    "linlogic.cube_is_sat": _count_unsat,
    "linlogic.project_to_box": _count_unsat,
    "solver.alternate": _count_rounds,
}


def _freeze(args, kwargs):
    """A hashable stand-in for an argument tuple (lists become tuples)."""
    return tuple(tuple(a) if isinstance(a, list) else a for a in args) + tuple(
        sorted(kwargs.items())
    )

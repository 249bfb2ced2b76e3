"""Abstract syntax for constrained Horn clause systems.

The object model is intentionally small and immutable:

* linear terms over named variables with exact rational coefficients,
* negation-free formulas built from linear comparisons with ``and``/``or``,
* clauses ``B1, ..., Bn | phi -> H`` whose head is either a predicate
  application or the distinguished 0-ary falsity predicate,
* systems bundling declarations, clauses, an optional finite universe
  (used by the enumerating reference semantics) and an optional goal.

Every record is a ``typing.NamedTuple``, so it hashes as the tuple of
its fields and clauses and formulas can live in sets.  The formula nodes
also compare their class: ``And((a, b))`` differs from ``Or((a, b))`` and
``true`` from ``false``.  Pretty-printers produce text that re-parses to
an equal object.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Union


def rat(value: int | str | Fraction) -> int | Fraction:
    """``value`` by the one number rule of the package: an ``int`` when it
    is integral, else a ``Fraction`` with a denominator above 1.  The two
    compare and hash alike, so the rule never changes an answer."""
    value = value if type(value) is int else Fraction(value)
    return value.numerator if value.denominator == 1 else value


# ---------------------------------------------------------------------------
# Linear terms
# ---------------------------------------------------------------------------


class LinTerm(NamedTuple):
    """A linear expression ``sum(coeff * var) + const`` over rationals.

    ``coeffs`` is kept sorted by variable name with zero coefficients
    dropped, so structural equality coincides with mathematical equality.
    Every coefficient and the constant follow the rule of :func:`rat`.
    """

    coeffs: tuple[tuple[str, int | Fraction], ...] = ()
    const: int | Fraction = 0

    @staticmethod
    def make(
        coeffs: Mapping[str, int | Fraction] | Iterable[tuple[str, int | Fraction]] = (),
        const: int | Fraction = 0,
    ) -> LinTerm:
        if isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        acc: dict[str, int | Fraction] = {}
        for var, c in coeffs:
            acc[var] = acc.get(var, 0) + rat(c)
        # Two fractions can add up to an integer.
        items = tuple(sorted((v, rat(c)) for v, c in acc.items() if c != 0))
        return LinTerm(items, rat(const))

    @staticmethod
    def var(name: str) -> LinTerm:
        return LinTerm(((name, 1),))

    @property
    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def as_var(self) -> str | None:
        """Return the variable name if this term is a bare variable."""
        if self.const == 0 and len(self.coeffs) == 1 and self.coeffs[0][1] == 1:
            return self.coeffs[0][0]
        return None

    def __neg__(self) -> LinTerm:
        return LinTerm(tuple((v, -c) for v, c in self.coeffs), -self.const)

    def rename(self, mapping: Mapping[str, str]) -> LinTerm:
        pairs = [(mapping.get(v, v), c) for v, c in self.coeffs]
        # Distinct names keep every coefficient as it is: only the order
        # can change.  A renaming that merges variables adds them up.
        if len({v for v, _ in pairs}) == len(pairs):
            return LinTerm(tuple(sorted(pairs)), self.const)
        return LinTerm.make(pairs, self.const)

    def __str__(self) -> str:
        if not self.coeffs:
            return str(self.const)
        parts: list[str] = []
        for i, (v, c) in enumerate(self.coeffs):
            mag = abs(c)
            piece = v if mag == 1 else f"{mag!s}*{v}"
            if i == 0:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(f"+ {piece}" if c > 0 else f"- {piece}")
        if self.const != 0:
            parts.append(
                f"+ {self.const!s}"
                if self.const > 0
                else f"- {-self.const!s}"
            )
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Linear comparisons and formulas
# ---------------------------------------------------------------------------


class Rel(enum.Enum):
    """Comparison of a linear term against zero."""

    LE = "<="
    LT = "<"
    EQ = "="

    def holds(self, value: int | Fraction) -> bool:
        if self is Rel.LE:
            return value <= 0
        if self is Rel.LT:
            return value < 0
        return value == 0


class LinConstraint(NamedTuple):
    """The comparison ``term rel 0``."""

    term: LinTerm
    rel: Rel

    @property
    def vars(self) -> frozenset[str]:
        return self.term.vars

    def rename(self, mapping: Mapping[str, str]) -> LinConstraint:
        return LinConstraint(self.term.rename(mapping), self.rel)

    def key(self) -> tuple:
        """Deterministic sort key."""
        return (self.rel.value, self.term.coeffs, self.term.const)

    def formula(self) -> "Lin":
        return Lin(self)

    def __str__(self) -> str:
        if not self.term.coeffs:
            return f"{self.term.const!s} {self.rel.value} 0"
        lhs = str(LinTerm(self.term.coeffs))
        return f"{lhs} {self.rel.value} {-self.term.const!s}"


# A NamedTuple compares as the tuple of its fields, whatever its class.
# The formula nodes compare their class too, and are always truthy, as
# ``true`` and ``false`` hold no field.  Conjunctions and disjunctions
# compare and print their items from an explicit stack, so that a deep
# formula does not exhaust the call stack.


def _node_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _connective_eq(self, other) -> bool:
    pairs = [(self, other)]
    while pairs:
        f, g = pairs.pop()
        if type(g) is not type(f):
            return False
        if isinstance(f, (And, Or)):
            if len(g.items) != len(f.items):
                return False
            pairs += zip(f.items, g.items)
        elif not tuple.__eq__(f, g):
            return False
    return True


def _node_ne(self, other) -> bool:
    return not self == other


def _node_bool(self) -> bool:
    return True


def _connective_repr(self) -> str:
    """The NamedTuple repr, ``And(items=(...))``, without recursion."""
    out: list[str] = []
    stack: list = [self]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, (And, Or)):
            # A one-item tuple prints its trailing comma.
            stack.append(",))" if len(g.items) == 1 else "))")
            for k in range(len(g.items) - 1, -1, -1):
                stack.append(g.items[k])
                if k:
                    stack.append(", ")
            stack.append(f"{type(g).__name__}(items=(")
        else:
            out.append(repr(g))
    return "".join(out)


class TrueF(NamedTuple):
    __eq__, __ne__, __hash__, __bool__ = _node_eq, _node_ne, tuple.__hash__, _node_bool

    def __str__(self) -> str:
        return "true"


class FalseF(NamedTuple):
    __eq__, __ne__, __hash__, __bool__ = _node_eq, _node_ne, tuple.__hash__, _node_bool

    def __str__(self) -> str:
        return "false"


class Lin(NamedTuple):
    con: LinConstraint
    __eq__, __ne__, __hash__, __bool__ = _node_eq, _node_ne, tuple.__hash__, _node_bool

    def __str__(self) -> str:
        return str(self.con)


class And(NamedTuple):
    items: tuple["Formula", ...]
    __eq__, __ne__, __hash__, __bool__ = _connective_eq, _node_ne, tuple.__hash__, _node_bool
    __repr__ = _connective_repr

    def __str__(self) -> str:
        return format_formula(self)


class Or(NamedTuple):
    items: tuple["Formula", ...]
    __eq__, __ne__, __hash__, __bool__ = _connective_eq, _node_ne, tuple.__hash__, _node_bool
    __repr__ = _connective_repr

    def __str__(self) -> str:
        return format_formula(self)


Formula = Union[TrueF, FalseF, Lin, And, Or]

TRUE = TrueF()
FALSE = FalseF()


def lin(term: LinTerm, rel: Rel) -> Lin:
    return Lin(LinConstraint(term, rel))


def conj(items: Iterable[Formula]) -> Formula:
    """Conjunction with flattening; drops ``true``, short-circuits ``false``."""
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, TrueF):
            continue
        if isinstance(f, FalseF):
            return FALSE
        if isinstance(f, And):
            flat.extend(f.items)
        else:
            flat.append(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(items: Iterable[Formula]) -> Formula:
    """Disjunction with flattening; drops ``false``, short-circuits ``true``."""
    flat: list[Formula] = []
    for f in items:
        if isinstance(f, FalseF):
            continue
        if isinstance(f, TrueF):
            return TRUE
        if isinstance(f, Or):
            flat.extend(f.items)
        else:
            flat.append(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def formula_vars(f: Formula) -> frozenset[str]:
    return frozenset(v for c in iter_formula_constraints(f) for v, _ in c.term.coeffs)


def fold_formula(f: Formula, leaf, node):
    """The value of ``f`` computed bottom up with an explicit stack, so
    that a deep formula does not exhaust the call stack: ``leaf(g)`` is
    the value of each atom or constant and ``node(g, values)`` that of
    each conjunction or disjunction, given the values of its items."""
    done: list = []
    # A connective is pushed again as a 1-tuple under its items, to be
    # folded once they are.
    stack: list = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            (g,) = g
            split = len(done) - len(g.items)
            items = done[split:]
            del done[split:]
            done.append(node(g, items))
        elif isinstance(g, (And, Or)):
            stack.append((g,))
            stack += reversed(g.items)
        else:
            done.append(leaf(g))
    return done[0]


def _negate_leaf(f: Formula) -> Formula:
    if isinstance(f, TrueF):
        return FALSE
    if isinstance(f, FalseF):
        return TRUE
    t, r = f.con.term, f.con.rel
    if r is Rel.LE:  # not (t <= 0)  <=>  -t < 0
        return lin(-t, Rel.LT)
    if r is Rel.LT:  # not (t < 0)  <=>  -t <= 0
        return lin(-t, Rel.LE)
    # not (t = 0)  <=>  t < 0  or  -t < 0
    return disj([lin(t, Rel.LT), lin(-t, Rel.LT)])


def negate_formula(f: Formula) -> Formula:
    """Negation-free complement (De Morgan over comparisons)."""
    return fold_formula(
        f, _negate_leaf, lambda g, items: disj(items) if isinstance(g, And) else conj(items)
    )


# ---------------------------------------------------------------------------
# Predicates, clauses, systems
# ---------------------------------------------------------------------------

FALSITY_NAME = "false"


class PredDecl(NamedTuple):
    name: str
    arity: int
    is_false: bool = False

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


class PredApp(NamedTuple):
    """A predicate applied to argument *variables* (post-normalization)."""

    pred: PredDecl
    args: tuple[str, ...]

    def __str__(self) -> str:
        if not self.args:
            return self.pred.name
        return f"{self.pred.name}({', '.join(self.args)})"


class Clause(NamedTuple):
    """``body | constraint -> head`` with pairwise-distinct argument variables."""

    body: tuple[PredApp, ...]
    constraint: Formula
    head: PredApp

    @property
    def vars(self) -> frozenset[str]:
        vs = set(formula_vars(self.constraint))
        for app in (*self.body, self.head):
            vs.update(app.args)
        return frozenset(vs)

    def __str__(self) -> str:
        return format_clause(self)


class System(NamedTuple):
    """A conjunction of constrained Horn clauses and its goal.

    ``decls`` always contains the distinguished falsity declaration
    (exactly one entry has ``is_false``), even when no integrity
    constraint mentions it.  ``universe`` is optional.  ``goal`` holds
    the goal as body-less clauses whose heads are the goal atoms: the
    entry ``goal app : guard`` is the clause ``app :- guard``, and a
    system without goal entries has the one goal clause ``false.``
    (:meth:`make`).
    """

    decls: tuple[PredDecl, ...]
    clauses: tuple[Clause, ...]
    universe: tuple[Fraction, ...] | None
    goal: tuple[Clause, ...]

    @staticmethod
    def make(decls, clauses, universe=None, goal=()) -> "System":
        """Build a system, appending a falsity declaration if absent; with
        no goal clauses, the goal is the falsity atom."""
        ds = tuple(decls)
        falsity = next((d for d in ds if d.is_false), None)
        if falsity is None:
            name = FALSITY_NAME
            while any(d.name == name for d in ds):
                name += "_"
            falsity = PredDecl(name, 0, is_false=True)
            ds += (falsity,)
        goal = tuple(goal) or (Clause((), TRUE, PredApp(falsity, ())),)
        return System(ds, tuple(clauses), universe, goal)

    @property
    def falsity(self) -> PredDecl:
        for d in self.decls:
            if d.is_false:
                return d
        raise ValueError("system lacks a falsity declaration")

    def __str__(self) -> str:
        return format_system(self)


def param_vars(arity: int) -> tuple[str, ...]:
    """Canonical parameter names used for per-predicate formulas."""
    return tuple(f"X{i + 1}" for i in range(arity))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Render in full constraint syntax (commas for conjunction).  The
    pieces of the text are emitted from an explicit stack, so that a deep
    formula neither exhausts the call stack nor copies its text once per
    level."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, str):
            out.append(g)
        elif isinstance(g, (And, Or)):
            # An item of the other connective is parenthesized.
            sep, nested = (", ", Or) if isinstance(g, And) else ("; ", And)
            for k in range(len(g.items) - 1, -1, -1):
                h = g.items[k]
                stack += (")", h, "(") if isinstance(h, nested) else (h,)
                if k:
                    stack.append(sep)
        else:
            out.append(str(g))
    return "".join(out)


def _format_body_item(f: Formula) -> str:
    # A body item must not contain a top-level comma, and bare true/false
    # literals are only legal inside a parenthesized sub-formula.
    if isinstance(f, (And, TrueF, FalseF)):
        return f"({format_formula(f)})"
    return format_formula(f)


def format_clause(clause: Clause) -> str:
    items = [str(app) for app in clause.body]
    c = clause.constraint
    if isinstance(c, And):
        items.extend(_format_body_item(g) for g in c.items)
    elif not isinstance(c, TrueF):
        items.append(_format_body_item(c))
    head = str(clause.head)
    if items:
        return f"{head} :- {', '.join(items)}."
    return f"{head}."


def format_goal(goal: Clause) -> str:
    if isinstance(goal.constraint, TrueF):
        return f"goal {goal.head}."
    return f"goal {goal.head} : {format_formula(goal.constraint)}."


def format_system(system: System) -> str:
    lines: list[str] = []
    for d in system.decls:
        if not d.is_false:
            lines.append(f"pred {d.name}/{d.arity}.")
    if system.universe is not None:
        vals = ", ".join(str(v) for v in system.universe)
        lines.append(f"universe {{{vals}}}.")
    for clause in system.clauses:
        lines.append(format_clause(clause))
    lines.extend(format_goal(goal) for goal in system.goal)
    return "\n".join(lines) + "\n"


def format_model(model: Mapping[str, Formula], system: System) -> str:
    """Render a per-predicate model in ``model p : <formula>.`` lines.

    Formulas range over the canonical parameters ``X1 .. Xn`` of each
    predicate.
    """
    lines = []
    for d in system.decls:
        f = model.get(d.name, FALSE)
        lines.append(f"model {d.name} : {format_formula(f)}.")
    return "\n".join(lines) + "\n"


def iter_formula_constraints(f: Formula) -> Iterator[LinConstraint]:
    """The atoms of ``f`` in pre-order, walked with an explicit stack so
    that a deep formula does not exhaust the call stack."""
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, Lin):
            yield f.con
        elif isinstance(f, (And, Or)):
            stack.extend(reversed(f.items))

"""Parser for the textual Horn-clause format.

The surface syntax (UTF-8, ``#`` comments to end of line)::

    pred IDENT/NAT.                     # declaration, lowercase name
    universe {RAT, RAT, ...}.           # optional finite universe
    HEAD :- ITEM, ITEM, ... .           # clause (":- body" optional)
    goal PREDAPP (: CFORM)? .           # optional goal entries

A ``HEAD`` is ``p(T1, ..., Tn)``, a bare 0-ary ``p``, or the keyword
``false``.  A body ``ITEM`` is a predicate application or a constraint;
top-level commas conjoin items, ``;`` disjoins within an item, and
parenthesized sub-formulas may use both (comma binding tighter), nested
at most ``MAX_NESTING`` (100) levels deep.
Comparisons are ``<=  <  >=  >  =  !=`` between linear terms; ``!=`` is
expanded into a disjunction of strict comparisons, so stored formulas
are negation-free.  Rationals are ``p/q`` or decimal literals; variables
are capitalized identifiers.

``normalize_clause`` rewrites every parsed clause so that all predicate
argument positions hold pairwise-distinct variables, introducing fresh
variables and equality conjuncts for constants, compound terms and
repeated variables.

The text is tokenized by one ``findall`` of the token pattern, blanks and
comments included, and the running sum of the token lengths gives each
token's offset.  A sum short of the text's length means that some
character matches no token; only then does a ``finditer`` pass of the
same pattern find it, to report it at its own offset.  Blanks and
comments are then dropped, and the descent walks the token strings with
an index, telling a token's kind by its first character as the pattern
does: a decimal digit (``str.isdecimal``, which is ``\\d``) starts a
number, an ASCII letter an identifier or a variable, anything else an
operator.  :func:`error_at` turns an offset into the line and column of
a :class:`ParseError` when one is raised.  Both sides of a comparison
are summed into one table of coefficients, integer literals staying
``int``, so each constraint and each argument term builds its
``LinTerm`` once, its numbers held by :func:`~chclab.syntax.rat`, and a
bare variable argument is kept as its name.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, compress
from typing import NamedTuple

from .syntax import (
    FALSE,
    FALSITY_NAME,
    TRUE,
    Clause,
    Formula,
    Lin,
    LinConstraint,
    LinTerm,
    PredApp,
    PredDecl,
    Rel,
    System,
    conj,
    disj,
    formula_vars,
    param_vars,
    rat,
)

KEYWORDS = {"pred", "universe", "goal", "model", "true", "false"}

# Constraints nest parentheses at most this deep, which keeps the descent
# and the recursive formula walkers after it inside Python's recursion
# limit.  A deeper opening parenthesis is a ParseError at its position.
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# Blanks and comments, numbers, identifiers and variables, operators.  No
# alternative matches the empty string.
_TOKEN_RE = re.compile(
    r"""
    \s+ | \#[^\n]*
  | \d+(?:\.\d+)?
  | [A-Za-z][A-Za-z0-9_]*
  | :- | <= | >= | != | [.,;:(){}+\-*/=<>]
    """,
    re.VERBOSE,
)


def error_at(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at the line and column of ``offset``."""
    start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - start + 1)


def tokenize(text: str) -> tuple[list[str], list[int]]:
    """The tokens of ``text`` without blanks and comments, and the offset
    of each, both ending in the end-of-input token ``""`` at ``len(text)``."""
    parts = _TOKEN_RE.findall(text)
    starts = list(accumulate(map(len, parts), initial=0))
    if starts[-1] != len(text):
        end = 0
        for m in _TOKEN_RE.finditer(text):
            if m.start() != end:
                break
            end = m.end()
        raise error_at(text, end, f"unexpected character {text[end]!r}")
    keep = [not (p.isspace() or p[0] == "#") for p in parts]
    tokens = list(compress(parts, keep))
    offsets = list(compress(starts, keep))
    tokens.append("")
    offsets.append(len(text))
    return tokens, offsets


# ---------------------------------------------------------------------------
# Raw (pre-normalization) clause shapes
# ---------------------------------------------------------------------------


class RawApp(NamedTuple):
    pred: PredDecl
    args: tuple[str | LinTerm, ...]  # a bare variable argument is its name


class RawClause(NamedTuple):
    body: tuple[RawApp, ...]
    constraint: Formula
    head: RawApp


def _fresh_names(raw: RawClause):
    """Variable names ``V0``, ``V1``, ... that ``raw`` does not use.  The
    names ``raw`` uses are collected when the first one is asked for."""
    used = _raw_vars(raw)
    i = 0
    while True:
        name = f"V{i}"
        i += 1
        if name not in used:
            used.add(name)
            yield name


def _linterm(acc: dict[str, int | Fraction], sign: int) -> LinTerm:
    """``sign`` times the term accumulated in ``acc`` (see
    :meth:`_Parser.add_linterm`), which this consumes."""
    const = acc.pop("", 0)
    coeffs = tuple((v, rat(sign * acc[v])) for v in sorted(acc) if acc[v])
    return LinTerm(coeffs, rat(sign * const))


def _raw_vars(raw: RawClause) -> set[str]:
    vs = set(formula_vars(raw.constraint))
    for app in (*raw.body, raw.head):
        for t in app.args:
            if isinstance(t, str):
                vs.add(t)
            else:
                vs.update(t.vars)
    return vs


def normalize_clause(raw: RawClause) -> Clause:
    """Rewrite ``raw`` so every argument position is a distinct variable.

    A bare variable is kept at its first argument occurrence; any other
    argument (constant, compound term, or repeated variable) is replaced
    by a fresh variable ``Vk`` with an equality conjunct appended to the
    constraint.  Body atoms are processed before the head.
    """
    fresh = _fresh_names(raw)
    seen: set[str] = set()
    extra: list[Formula] = []
    apps: list[PredApp] = []
    for app in (*raw.body, raw.head):
        out: list[str] = []
        for term in app.args:
            v = term if isinstance(term, str) else term.as_var()
            if v is None or v in seen:
                v = next(fresh)
                extra.append(_equals(v, term))
            seen.add(v)
            out.append(v)
        apps.append(PredApp(app.pred, tuple(out)))
    head = apps.pop()
    return Clause(body=tuple(apps), constraint=conj([raw.constraint, *extra]), head=head)


def _equals(w: str, term: str | LinTerm) -> Formula:
    """``w = term`` for a fresh variable ``w``, stored as ``w - term = 0``."""
    if isinstance(term, str):
        term = LinTerm.var(term)
    # ``w`` is fresh, so no coefficient merges.
    coeffs = sorted([(w, 1), *((v, -c) for v, c in term.coeffs)])
    return Lin(LinConstraint(LinTerm(tuple(coeffs), -term.const), Rel.EQ))


# ---------------------------------------------------------------------------
# Parser proper
# ---------------------------------------------------------------------------

# A token's kind follows from its first character, as in ``_TOKEN_RE``:
# ``t[:1].isdecimal()`` for a number, ``"a" <= t < "{"`` for an identifier
# and ``"A" <= t < "["`` for a variable (``{`` and ``[`` follow ``z`` and
# ``Z``).  The end-of-input token ``""`` is none of them.


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens, self.offsets = tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current constraint
        self.decls: list[PredDecl] = []
        self.by_name: dict[str, PredDecl] = {}
        self.falsity = PredDecl(FALSITY_NAME, 0, is_false=True)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        # ``text`` is never empty, so the end of input never matches.
        return self.tokens[self.pos] == text

    def expect(self, text: str) -> None:
        t = self.tokens[self.pos]
        if t != text:
            raise self.fail(f"expected {text!r}, found {t or 'end of input'!r}")
        self.pos += 1

    def fail(self, message: str, at: int | None = None) -> ParseError:
        """A :class:`ParseError` at the token with index ``at``, by default
        the next one."""
        return error_at(self.text, self.offsets[self.pos if at is None else at], message)

    # -- terms and formulas -------------------------------------------------

    def parse_rat(self) -> int | Fraction:
        """A number: an ``int`` for an integer literal, else a ``Fraction``."""
        t = self.tokens[self.pos]
        if not t[:1].isdecimal():
            raise self.fail(f"expected number, found {t!r}")
        self.pos += 1
        if not self.at("/"):
            return Fraction(t) if "." in t else int(t)
        if "." in t:
            raise self.fail("decimal numerator in rational", self.pos - 1)
        self.pos += 1
        d = self.tokens[self.pos]
        if not d[:1].isdecimal() or "." in d:
            raise self.fail("expected integer denominator")
        self.pos += 1
        if int(d) == 0:
            raise self.fail("zero denominator", self.pos - 1)
        return Fraction(int(t), int(d))

    def add_factor(self, acc: dict[str, int | Fraction], sign: int) -> None:
        t = self.tokens[self.pos]
        if t[:1].isdecimal():
            value = self.parse_rat()
            name = ""
            if self.at("*"):
                self.pos += 1
                name = self.tokens[self.pos]
                if not "A" <= name < "[":
                    raise self.fail("expected variable after '*'")
                self.pos += 1
        elif "A" <= t < "[":
            self.pos += 1
            name, value = t, 1
            if self.at("*"):
                self.pos += 1
                if "A" <= self.tokens[self.pos] < "[":
                    raise self.fail("non-linear term (variable product)")
                value = self.parse_rat()
        else:
            raise self.fail(f"expected term, found {t or 'end of input'!r}")
        acc[name] = acc.get(name, 0) + sign * value

    def add_linterm(self, acc: dict[str, int | Fraction], sign: int) -> None:
        """Add ``sign`` times the next linear term to ``acc``, which maps
        each variable to its coefficient and ``""`` to the constant."""
        op = "+"
        if self.at("-"):
            self.pos += 1
            op = "-"
        while True:
            self.add_factor(acc, sign if op == "+" else -sign)
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return
            self.pos += 1

    def parse_arg(self) -> str | LinTerm:
        """A predicate argument: a bare variable is kept as its name."""
        t = self.tokens[self.pos]
        if "A" <= t < "[" and self.tokens[self.pos + 1] in (",", ")"):
            self.pos += 1
            return t
        acc: dict[str, int | Fraction] = {}
        self.add_linterm(acc, 1)
        return _linterm(acc, 1)

    # Each comparator as the relation of its stored term to zero, and the
    # sign of ``lhs - rhs`` in that term: ``a >= b`` is kept as ``b - a <= 0``.
    _RELS = {"<=": (Rel.LE, 1), "<": (Rel.LT, 1), ">=": (Rel.LE, -1), ">": (Rel.LT, -1),
             "=": (Rel.EQ, 1), "!=": (Rel.LT, 1)}

    def parse_comparison(self) -> Formula:
        acc: dict[str, int | Fraction] = {}
        self.add_linterm(acc, 1)
        t = self.tokens[self.pos]
        if t not in self._RELS:
            raise self.fail(f"expected comparator, found {t or 'end of input'!r}")
        rel, sign = self._RELS[t]
        self.pos += 1
        self.add_linterm(acc, -1)
        term = _linterm(acc, sign)
        if t == "!=":
            return disj([Lin(LinConstraint(term, rel)), Lin(LinConstraint(-term, rel))])
        return Lin(LinConstraint(term, rel))

    def parse_cprim(self) -> Formula:
        t = self.tokens[self.pos]
        if t == "(":
            if self.depth == MAX_NESTING:
                raise self.fail(f"parentheses nested deeper than {MAX_NESTING} levels")
            self.pos += 1
            self.depth += 1
            f = self.parse_cform()
            self.depth -= 1
            self.expect(")")
            return f
        if t == "true":
            self.pos += 1
            return TRUE
        if t == "false":
            self.pos += 1
            return FALSE
        if "a" <= t < "{":
            raise self.fail(f"unexpected identifier {t!r} in constraint")
        return self.parse_comparison()

    def chain(self, sep: str, item, combine):
        """``combine`` of the list of one or more ``item()`` separated by ``sep``."""
        items = [item()]
        while self.at(sep):
            self.pos += 1
            items.append(item())
        return combine(items)

    def parse_cform(self) -> Formula:
        """Full constraint grammar: ``,`` conjunction binds tighter than ``;``."""
        return self.chain(";", lambda: self.chain(",", self.parse_cprim, conj), disj)

    # -- predicates ----------------------------------------------------------

    def lookup(self, name: str, at: int) -> PredDecl:
        decl = self.by_name.get(name)
        if decl is None:
            raise self.fail(f"use of undeclared predicate {name!r}", at)
        return decl

    def parse_predapp(self) -> RawApp:
        at = self.pos
        t = self.tokens[at]
        self.pos += 1
        decl = self.lookup(t, at)
        args: tuple[str | LinTerm, ...] = ()
        if self.at("("):
            self.pos += 1
            args = self.chain(",", self.parse_arg, tuple)
            self.expect(")")
        if len(args) != decl.arity:
            raise self.fail(
                f"predicate {decl.name!r} expects {decl.arity} argument(s), got {len(args)}",
                at,
            )
        return RawApp(decl, args)

    def parse_head(self) -> RawApp:
        t = self.tokens[self.pos]
        if t == FALSITY_NAME:
            self.pos += 1
            return RawApp(self.falsity, ())
        if not "a" <= t < "{":
            raise self.fail(f"expected clause head, found {t or 'end of input'!r}")
        return self.parse_predapp()

    # -- statements ----------------------------------------------------------

    def parse_decl(self) -> PredDecl:
        self.expect("pred")
        at = self.pos
        t = self.tokens[at]
        if not "a" <= t < "{":
            raise self.fail("expected predicate name after 'pred'")
        if t in KEYWORDS:
            raise self.fail(f"{t!r} is reserved")
        self.pos += 1
        self.expect("/")
        n = self.tokens[self.pos]
        if not n[:1].isdecimal() or "." in n:
            raise self.fail("expected arity (a natural number)")
        self.pos += 1
        self.expect(".")
        if t in self.by_name:
            raise self.fail(f"predicate {t!r} declared twice", at)
        decl = PredDecl(t, int(n))
        self.decls.append(decl)
        self.by_name[t] = decl
        return decl

    def parse_universe(self) -> list[Fraction]:
        self.expect("universe")
        self.expect("{")
        values = self.chain(",", self._signed_rat, list)
        self.expect("}")
        self.expect(".")
        return values

    def _signed_rat(self) -> Fraction:
        if self.at("-"):
            self.pos += 1
            return -Fraction(self.parse_rat())
        return Fraction(self.parse_rat())

    def parse_goal(self) -> tuple[int, RawApp, Formula]:
        keyword = self.pos
        self.expect("goal")
        app = self.parse_head()
        guard: Formula = TRUE
        if self.at(":"):
            self.pos += 1
            guard = self.parse_cform()
        self.expect(".")
        return keyword, app, guard

    def parse_clause(self) -> RawClause:
        head = self.parse_head()
        body: list[RawApp] = []
        items: list[Formula] = []
        if self.at(":-"):
            self.pos += 1
            while True:
                t = self.tokens[self.pos]
                if t == FALSITY_NAME:
                    raise self.fail("the falsity predicate cannot appear in a clause body")
                if "a" <= t < "{" and t != "true":
                    body.append(self.parse_predapp())
                else:
                    # One body item: a ";"-chain of primaries.  Top-level
                    # commas belong to the clause body.
                    items.append(self.chain(";", self.parse_cprim, disj))
                if self.at(","):
                    self.pos += 1
                    continue
                break
        self.expect(".")
        return RawClause(tuple(body), conj(items), head)

    def parse_system(self) -> System:
        raw_clauses: list[RawClause] = []
        raw_goals: list[tuple[int, RawApp, Formula]] = []
        universe: list[Fraction] | None = None
        while t := self.tokens[self.pos]:
            if t == "pred":
                self.parse_decl()
            elif t == "universe":
                if universe is not None:
                    raise self.fail("duplicate universe declaration")
                universe = self.parse_universe()
            elif t == "goal":
                raw_goals.append(self.parse_goal())
            elif "a" <= t < "{":
                raw_clauses.append(self.parse_clause())
            else:
                raise self.fail(f"unexpected token {t!r}")
        clauses = tuple(normalize_clause(rc) for rc in raw_clauses)
        goal = tuple(self._normalize_goal(*raw) for raw in raw_goals)
        uni = tuple(sorted(set(universe))) if universe is not None else None
        return System.make(self.decls, clauses, uni, goal)

    def _normalize_goal(self, keyword: int, app: RawApp, guard: Formula) -> Clause:
        """The goal entry ``goal app : guard`` as the body-less clause
        ``app :- guard``, normalized as every clause is; the guard may
        mention only the goal arguments."""
        goal = normalize_clause(RawClause((), guard, app))
        extra = formula_vars(goal.constraint) - set(goal.head.args)
        if extra:
            raise self.fail(
                "goal constraint may only mention the goal arguments "
                f"(foreign: {', '.join(sorted(extra))})",
                keyword,
            )
        return goal


def parse_system(text: str) -> System:
    """Parse and normalize a full system."""
    return _Parser(text).parse_system()


def parse_model(text: str, system: System) -> dict[str, Formula]:
    """Parse a model file: one ``model p : <formula>.`` line per predicate.

    Formulas must range over the canonical parameters ``X1 .. Xn`` of the
    predicate.  Missing predicates default to ``false``.
    """
    p = _Parser(text)
    p.by_name = {d.name: d for d in system.decls if not d.is_false}
    out: dict[str, Formula] = {}
    while p.peek():
        p.expect("model")
        at = p.pos
        t = p.peek()
        if not "a" <= t < "{":
            raise p.fail("expected predicate name after 'model'")
        p.pos += 1
        if t == FALSITY_NAME:
            decl = system.falsity
        else:
            decl = p.lookup(t, at)
        p.expect(":")
        f = p.parse_cform()
        p.expect(".")
        if decl.name in out:
            raise p.fail(f"duplicate model entry for {decl.name!r}", at)
        allowed = set(param_vars(decl.arity))
        extra = formula_vars(f) - allowed
        if extra:
            raise p.fail(
                f"model formula for {decl.name!r} uses unknown variables "
                f"{', '.join(sorted(extra))} (parameters are X1..X{decl.arity})",
                at,
            )
        out[decl.name] = f
    for d in system.decls:
        out.setdefault(d.name, FALSE)
    return out

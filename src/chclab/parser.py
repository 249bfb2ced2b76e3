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

The text is tokenized in one pass of the token pattern.  A token keeps
only its offset in the text; :func:`error_at` turns an offset into the
line and column of a :class:`ParseError` when one is raised, and a
character no token matches is reported at its own offset.  Both sides
of a comparison are summed into one table of coefficients, integer
literals staying ``int``, so each constraint and each argument term
builds its ``LinTerm`` once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .syntax import (
    FALSE,
    FALSITY_NAME,
    TRUE,
    Clause,
    Formula,
    GoalEntry,
    GoalSpec,
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


class Token(NamedTuple):
    kind: str  # IDENT | VAR | NUM | OP | EOF
    text: str
    offset: int  # where the token starts in the text


_TOKEN_RE = re.compile(
    r"""
    (?P<SKIP>\s+|\#[^\n]*)
  | (?P<NUM>\d+(?:\.\d+)?)
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<OP>:-|<=|>=|!=|[.,;:(){}+\-*/=<>])
    """,
    re.VERBOSE,
)


def error_at(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at the line and column of ``offset``."""
    start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - start + 1)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    end = 0
    for m in _TOKEN_RE.finditer(text):
        pos, nxt = m.span()
        if pos != end:
            break
        end = nxt
        if m.lastgroup != "SKIP":
            tokens.append(Token(m.lastgroup, m.group(), pos))
    if end < len(text):
        raise error_at(text, end, f"unexpected character {text[end]!r}")
    tokens.append(Token("EOF", "", end))
    return tokens


# ---------------------------------------------------------------------------
# Raw (pre-normalization) clause shapes
# ---------------------------------------------------------------------------


class RawApp(NamedTuple):
    pred: PredDecl
    args: tuple[LinTerm, ...]


class RawClause(NamedTuple):
    body: tuple[RawApp, ...]
    constraint: Formula
    head: RawApp


def _fresh_names(used: set[str]):
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
    coeffs = tuple((v, Fraction(sign * acc[v])) for v in sorted(acc) if acc[v])
    return LinTerm(coeffs, Fraction(sign * const))


def _raw_vars(raw: RawClause) -> set[str]:
    vs = set(formula_vars(raw.constraint))
    for app in (*raw.body, raw.head):
        for t in app.args:
            vs.update(t.vars)
    return vs


def normalize_clause(raw: RawClause) -> Clause:
    """Rewrite ``raw`` so every argument position is a distinct variable.

    A bare variable is kept at its first argument occurrence; any other
    argument (constant, compound term, or repeated variable) is replaced
    by a fresh variable ``Vk`` with an equality conjunct appended to the
    constraint.  Body atoms are processed before the head.
    """
    for app in raw.body:
        if app.pred.is_false:
            raise ValueError("the falsity predicate cannot appear in a clause body")
    used = _raw_vars(raw)
    fresh = _fresh_names(used)
    seen: set[str] = set()
    extra: list[Formula] = []

    def norm_app(app: RawApp) -> PredApp:
        out: list[str] = []
        for term in app.args:
            v = term.as_var()
            if v is not None and v not in seen:
                seen.add(v)
                out.append(v)
            else:
                w = next(fresh)
                seen.add(w)
                # ``w - term = 0``; ``w`` is fresh, so no coefficient merges.
                coeffs = sorted([(w, Fraction(1)), *((v, -c) for v, c in term.coeffs)])
                extra.append(Lin(LinConstraint(LinTerm(tuple(coeffs), -term.const), Rel.EQ)))
                out.append(w)
        return PredApp(app.pred, tuple(out))

    body = tuple(norm_app(a) for a in raw.body)
    head = norm_app(raw.head)
    return Clause(body=body, constraint=conj([raw.constraint, *extra]), head=head)


# ---------------------------------------------------------------------------
# Parser proper
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current constraint
        self.decls: list[PredDecl] = []
        self.by_name: dict[str, PredDecl] = {}
        self.falsity = PredDecl(FALSITY_NAME, 0, is_false=True)

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        # ``text`` is never empty, so the EOF token never matches.
        return self.tokens[self.pos].text == text

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text:
            got = t.text or "end of input"
            raise self.fail(f"expected {text!r}, found {got!r}")
        return self.next()

    def fail(self, message: str, t: Token | None = None) -> ParseError:
        """A :class:`ParseError` at token ``t``, by default the next one."""
        return error_at(self.text, (t or self.peek()).offset, message)

    # -- terms and formulas -------------------------------------------------

    def parse_rat(self) -> int | Fraction:
        """A number: an ``int`` for an integer literal, else a ``Fraction``."""
        t = self.peek()
        if t.kind != "NUM":
            raise self.fail(f"expected number, found {t.text!r}")
        self.next()
        if not self.at("/"):
            return Fraction(t.text) if "." in t.text else int(t.text)
        if "." in t.text:
            raise self.fail("decimal numerator in rational", t)
        self.next()
        d = self.peek()
        if d.kind != "NUM" or "." in d.text:
            raise self.fail("expected integer denominator")
        self.next()
        if int(d.text) == 0:
            raise self.fail("zero denominator", d)
        return Fraction(int(t.text), int(d.text))

    def add_factor(self, acc: dict[str, int | Fraction], sign: int) -> None:
        t = self.peek()
        if t.kind == "NUM":
            value = self.parse_rat()
            name = ""
            if self.at("*"):
                self.next()
                v = self.peek()
                if v.kind != "VAR":
                    raise self.fail("expected variable after '*'")
                self.next()
                name = v.text
        elif t.kind == "VAR":
            self.next()
            name, value = t.text, 1
            if self.at("*"):
                self.next()
                n = self.peek()
                if n.kind == "VAR":
                    raise self.fail("non-linear term (variable product)", n)
                value = self.parse_rat()
        else:
            raise self.fail(f"expected term, found {t.text or 'end of input'!r}")
        acc[name] = acc.get(name, 0) + sign * value

    def add_linterm(self, acc: dict[str, int | Fraction], sign: int) -> None:
        """Add ``sign`` times the next linear term to ``acc``, which maps
        each variable to its coefficient and ``""`` to the constant."""
        op = "+"
        if self.at("-"):
            op = self.next().text
        while True:
            self.add_factor(acc, sign if op == "+" else -sign)
            op = self.tokens[self.pos].text
            if op != "+" and op != "-":
                return
            self.next()

    def parse_linterm(self) -> LinTerm:
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
        t = self.peek()
        if t.text not in self._RELS:
            raise self.fail(f"expected comparator, found {t.text or 'end of input'!r}")
        rel, sign = self._RELS[t.text]
        self.next()
        self.add_linterm(acc, -1)
        term = _linterm(acc, sign)
        if t.text == "!=":
            return disj([Lin(LinConstraint(term, rel)), Lin(LinConstraint(-term, rel))])
        return Lin(LinConstraint(term, rel))

    def parse_cprim(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            if self.depth == MAX_NESTING:
                raise self.fail(f"parentheses nested deeper than {MAX_NESTING} levels")
            self.next()
            self.depth += 1
            f = self.parse_cform()
            self.depth -= 1
            self.expect(")")
            return f
        if t.kind == "IDENT" and t.text == "true":
            self.next()
            return TRUE
        if t.kind == "IDENT" and t.text == "false":
            self.next()
            return FALSE
        if t.kind == "IDENT":
            raise self.fail(f"unexpected identifier {t.text!r} in constraint")
        return self.parse_comparison()

    def chain(self, sep: str, item, combine):
        """``combine`` of the list of one or more ``item()`` separated by ``sep``."""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        return combine(items)

    def parse_cform(self) -> Formula:
        """Full constraint grammar: ``,`` conjunction binds tighter than ``;``."""
        return self.chain(";", lambda: self.chain(",", self.parse_cprim, conj), disj)

    # -- predicates ----------------------------------------------------------

    def lookup(self, name: str, tok: Token) -> PredDecl:
        decl = self.by_name.get(name)
        if decl is None:
            raise self.fail(f"use of undeclared predicate {name!r}", tok)
        return decl

    def parse_predapp(self) -> RawApp:
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail("expected predicate name")
        self.next()
        decl = self.lookup(t.text, t)
        args: tuple[LinTerm, ...] = ()
        if self.at("("):
            self.next()
            args = self.chain(",", self.parse_linterm, tuple)
            self.expect(")")
        if len(args) != decl.arity:
            raise self.fail(
                f"predicate {decl.name!r} expects {decl.arity} argument(s), got {len(args)}",
                t,
            )
        return RawApp(decl, args)

    def parse_head(self) -> RawApp:
        t = self.peek()
        if t.kind == "IDENT" and t.text == FALSITY_NAME:
            self.next()
            return RawApp(self.falsity, ())
        if t.kind != "IDENT":
            raise self.fail(f"expected clause head, found {t.text or 'end of input'!r}")
        return self.parse_predapp()

    # -- statements ----------------------------------------------------------

    def parse_decl(self) -> PredDecl:
        self.expect("pred")
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail("expected predicate name after 'pred'")
        if t.text in KEYWORDS:
            raise self.fail(f"{t.text!r} is reserved", t)
        self.next()
        self.expect("/")
        n = self.peek()
        if n.kind != "NUM" or "." in n.text:
            raise self.fail("expected arity (a natural number)")
        self.next()
        self.expect(".")
        if t.text in self.by_name:
            raise self.fail(f"predicate {t.text!r} declared twice", t)
        decl = PredDecl(t.text, int(n.text))
        self.decls.append(decl)
        self.by_name[t.text] = decl
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
            self.next()
            return -Fraction(self.parse_rat())
        return Fraction(self.parse_rat())

    def parse_goal(self) -> tuple[Token, RawApp, Formula]:
        keyword = self.peek()
        self.expect("goal")
        app = self.parse_head()
        guard: Formula = TRUE
        if self.at(":"):
            self.next()
            guard = self.parse_cform()
        self.expect(".")
        return keyword, app, guard

    def parse_clause(self) -> RawClause:
        head = self.parse_head()
        body: list[RawApp] = []
        items: list[Formula] = []
        if self.at(":-"):
            self.next()
            while True:
                t = self.peek()
                if t.kind == "IDENT" and t.text == FALSITY_NAME:
                    raise self.fail("the falsity predicate cannot appear in a clause body", t)
                if t.kind == "IDENT" and t.text != "true":
                    body.append(self.parse_predapp())
                else:
                    # One body item: a ";"-chain of primaries.  Top-level
                    # commas belong to the clause body.
                    items.append(self.chain(";", self.parse_cprim, disj))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(".")
        return RawClause(tuple(body), conj(items), head)

    def parse_system(self) -> System:
        raw_clauses: list[RawClause] = []
        raw_goals: list[tuple[Token, RawApp, Formula]] = []
        universe: list[Fraction] | None = None
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "IDENT" and t.text == "pred":
                self.parse_decl()
            elif t.kind == "IDENT" and t.text == "universe":
                if universe is not None:
                    raise self.fail("duplicate universe declaration", t)
                universe = self.parse_universe()
            elif t.kind == "IDENT" and t.text == "goal":
                raw_goals.append(self.parse_goal())
            elif t.kind == "IDENT":
                raw_clauses.append(self.parse_clause())
            else:
                raise self.fail(f"unexpected token {t.text!r}")
        decls = tuple([*self.decls, self.falsity])
        clauses = tuple(normalize_clause(rc) for rc in raw_clauses)
        goal = None
        if raw_goals:
            goal = GoalSpec(tuple(self._normalize_goal(*raw) for raw in raw_goals))
        uni = tuple(sorted(set(universe))) if universe is not None else None
        return System(decls=decls, clauses=clauses, universe=uni, goal=goal)

    def _normalize_goal(self, keyword: Token, app: RawApp, guard: Formula) -> GoalEntry:
        # Reuse clause normalization on a synthetic body-less clause.
        raw = RawClause((), guard, app)
        norm = normalize_clause(raw)
        entry = GoalEntry(norm.head, norm.constraint)
        extra = formula_vars(entry.guard) - set(entry.app.args)
        if extra:
            raise self.fail(
                "goal constraint may only mention the goal arguments "
                f"(foreign: {', '.join(sorted(extra))})",
                keyword,
            )
        return entry


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
    while p.peek().kind != "EOF":
        p.expect("model")
        t = p.peek()
        if t.kind != "IDENT":
            raise p.fail("expected predicate name after 'model'")
        p.next()
        if t.text == FALSITY_NAME:
            decl = system.falsity
        else:
            decl = p.lookup(t.text, t)
        p.expect(":")
        f = p.parse_cform()
        p.expect(".")
        if decl.name in out:
            raise p.fail(f"duplicate model entry for {decl.name!r}", t)
        allowed = set(param_vars(decl.arity))
        extra = formula_vars(f) - allowed
        if extra:
            raise p.fail(
                f"model formula for {decl.name!r} uses unknown variables "
                f"{', '.join(sorted(extra))} (parameters are X1..X{decl.arity})",
                t,
            )
        out[decl.name] = f
    for d in system.decls:
        out.setdefault(d.name, FALSE)
    return out

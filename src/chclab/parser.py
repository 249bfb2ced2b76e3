"""Parser for the textual Horn-clause format.

The surface syntax (UTF-8, ``#`` comments to end of line)::

    pred IDENT/NAT.                     # declaration, lowercase name
    universe {RAT, RAT, ...}.           # optional finite universe
    HEAD :- ITEM, ITEM, ... .           # clause (":- body" optional)
    goal PREDAPP (: CFORM)? .           # optional goal entries

A ``HEAD`` is ``p(T1, ..., Tn)``, a bare 0-ary ``p``, or the keyword
``false``.  A body ``ITEM`` is a predicate application or a constraint;
top-level commas conjoin items, ``;`` disjoins within an item, and
parenthesized sub-formulas may use both (comma binding tighter).
Comparisons are ``<=  <  >=  >  =  !=`` between linear terms; ``!=`` is
expanded into a disjunction of strict comparisons, so stored formulas
are negation-free.  Rationals are ``p/q`` or decimal literals; variables
are capitalized identifiers.

``normalize_clause`` rewrites every parsed clause so that all predicate
argument positions hold pairwise-distinct variables, introducing fresh
variables and equality conjuncts for constants, compound terms and
repeated variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # IDENT | VAR | NUM | OP | EOF
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>\#[^\n]*)
  | (?P<NUM>\d+(?:\.\d+)?)
  | (?P<IDENT>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z][A-Za-z0-9_]*)
  | (?P<OP>:-|<=|>=|!=|[.,;:(){}+\-*/=<>])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind not in ("WS", "COMMENT"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Raw (pre-normalization) clause shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawApp:
    pred: PredDecl
    args: tuple[LinTerm, ...]


@dataclass(frozen=True)
class RawClause:
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
                extra.append(Lin(LinConstraint(LinTerm.var(w) - term, Rel.EQ)))
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
        self.tokens = tokenize(text)
        self.pos = 0
        self.decls: list[PredDecl] = []
        self.by_name: dict[str, PredDecl] = {}
        self.falsity = PredDecl(FALSITY_NAME, 0, is_false=True)

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "EOF"

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "EOF":
            got = t.text or "end of input"
            raise ParseError(f"expected {text!r}, found {got!r}", t.line, t.col)
        return self.next()

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # -- terms and formulas -------------------------------------------------

    def parse_rat(self) -> Fraction:
        t = self.peek()
        if t.kind != "NUM":
            raise self.fail(f"expected number, found {t.text!r}")
        self.next()
        value = Fraction(t.text)
        if self.at("/"):
            if "." in t.text:
                raise ParseError("decimal numerator in rational", t.line, t.col)
            self.next()
            d = self.peek()
            if d.kind != "NUM" or "." in d.text:
                raise self.fail("expected integer denominator")
            self.next()
            if int(d.text) == 0:
                raise ParseError("zero denominator", d.line, d.col)
            value = Fraction(int(t.text), int(d.text))
        return value

    def parse_factor(self) -> LinTerm:
        t = self.peek()
        if t.kind == "NUM":
            value = self.parse_rat()
            if self.at("*"):
                self.next()
                v = self.peek()
                if v.kind != "VAR":
                    raise self.fail("expected variable after '*'")
                self.next()
                return LinTerm.var(v.text).scale(value)
            return LinTerm.constant(value)
        if t.kind == "VAR":
            self.next()
            if self.at("*"):
                self.next()
                n = self.peek()
                if n.kind == "VAR":
                    raise ParseError("non-linear term (variable product)", n.line, n.col)
                value = self.parse_rat()
                return LinTerm.var(t.text).scale(value)
            return LinTerm.var(t.text)
        raise self.fail(f"expected term, found {t.text or 'end of input'!r}")

    def parse_linterm(self) -> LinTerm:
        negate = False
        if self.at("-"):
            self.next()
            negate = True
        term = self.parse_factor()
        if negate:
            term = -term
        while self.at("+") or self.at("-"):
            op = self.next().text
            nxt = self.parse_factor()
            term = term + nxt if op == "+" else term - nxt
        return term

    _RELS = {
        "<=": lambda l, r: Lin(LinConstraint(l - r, Rel.LE)),
        "<": lambda l, r: Lin(LinConstraint(l - r, Rel.LT)),
        ">=": lambda l, r: Lin(LinConstraint(r - l, Rel.LE)),
        ">": lambda l, r: Lin(LinConstraint(r - l, Rel.LT)),
        "=": lambda l, r: Lin(LinConstraint(l - r, Rel.EQ)),
    }

    def parse_comparison(self) -> Formula:
        lhs = self.parse_linterm()
        t = self.peek()
        if t.text == "!=":
            self.next()
            rhs = self.parse_linterm()
            return disj(
                [
                    Lin(LinConstraint(lhs - rhs, Rel.LT)),
                    Lin(LinConstraint(rhs - lhs, Rel.LT)),
                ]
            )
        builder = self._RELS.get(t.text)
        if builder is None:
            raise self.fail(f"expected comparator, found {t.text or 'end of input'!r}")
        self.next()
        rhs = self.parse_linterm()
        return builder(lhs, rhs)

    def parse_cprim(self) -> Formula:
        t = self.peek()
        if t.text == "(":
            self.next()
            f = self.parse_cform()
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

    def parse_cform(self) -> Formula:
        """Full constraint grammar: ``,`` conjunction binds tighter than ``;``."""
        disjuncts = [self._parse_cconj()]
        while self.at(";"):
            self.next()
            disjuncts.append(self._parse_cconj())
        return disj(disjuncts)

    def _parse_cconj(self) -> Formula:
        conjuncts = [self.parse_cprim()]
        while self.at(","):
            self.next()
            conjuncts.append(self.parse_cprim())
        return conj(conjuncts)

    def parse_body_formula(self) -> Formula:
        # One body item: a ";"-chain of primaries.  Top-level commas belong
        # to the clause body, so they are not consumed here.
        disjuncts = [self.parse_cprim()]
        while self.at(";"):
            self.next()
            disjuncts.append(self.parse_cprim())
        return disj(disjuncts)

    # -- predicates ----------------------------------------------------------

    def lookup(self, name: str, tok: Token) -> PredDecl:
        decl = self.by_name.get(name)
        if decl is None:
            raise ParseError(f"use of undeclared predicate {name!r}", tok.line, tok.col)
        return decl

    def parse_predapp(self) -> RawApp:
        t = self.peek()
        if t.kind != "IDENT":
            raise self.fail("expected predicate name")
        self.next()
        decl = self.lookup(t.text, t)
        args: list[LinTerm] = []
        if self.at("("):
            self.next()
            args.append(self.parse_linterm())
            while self.at(","):
                self.next()
                args.append(self.parse_linterm())
            self.expect(")")
        if len(args) != decl.arity:
            raise ParseError(
                f"predicate {decl.name!r} expects {decl.arity} argument(s), got {len(args)}",
                t.line,
                t.col,
            )
        return RawApp(decl, tuple(args))

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
            raise ParseError(f"{t.text!r} is reserved", t.line, t.col)
        self.next()
        self.expect("/")
        n = self.peek()
        if n.kind != "NUM" or "." in n.text:
            raise self.fail("expected arity (a natural number)")
        self.next()
        self.expect(".")
        if t.text in self.by_name:
            raise ParseError(f"predicate {t.text!r} declared twice", t.line, t.col)
        decl = PredDecl(t.text, int(n.text))
        self.decls.append(decl)
        self.by_name[t.text] = decl
        return decl

    def parse_universe(self) -> list[Fraction]:
        self.expect("universe")
        self.expect("{")
        values = [self._signed_rat()]
        while self.at(","):
            self.next()
            values.append(self._signed_rat())
        self.expect("}")
        self.expect(".")
        return values

    def _signed_rat(self) -> Fraction:
        if self.at("-"):
            self.next()
            return -self.parse_rat()
        return self.parse_rat()

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
                    raise ParseError(
                        "the falsity predicate cannot appear in a clause body",
                        t.line,
                        t.col,
                    )
                if t.kind == "IDENT" and t.text != "true":
                    body.append(self.parse_predapp())
                else:
                    items.append(self.parse_body_formula())
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
                    raise ParseError("duplicate universe declaration", t.line, t.col)
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
            raise ParseError(
                "goal constraint may only mention the goal arguments "
                f"(foreign: {', '.join(sorted(extra))})",
                keyword.line,
                keyword.col,
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
            raise ParseError(f"duplicate model entry for {decl.name!r}", t.line, t.col)
        allowed = set(param_vars(decl.arity))
        extra = formula_vars(f) - allowed
        if extra:
            raise ParseError(
                f"model formula for {decl.name!r} uses unknown variables "
                f"{', '.join(sorted(extra))} (parameters are X1..X{decl.arity})",
                t.line,
                t.col,
            )
        out[decl.name] = f
    for d in system.decls:
        out.setdefault(d.name, FALSE)
    return out

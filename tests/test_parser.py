"""Parser: grammar coverage, normalization, round-trips, error reporting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import formula_reference
import tokenize_reference
from chclab import ParseError, parse_model, parse_system
from chclab.linlogic import to_dnf
from chclab.parser import tokenize
from chclab.solver import alternate
from chclab.syntax import (
    FALSE,
    TRUE,
    And,
    Lin,
    LinConstraint,
    LinTerm,
    Or,
    Rel,
    format_formula,
    format_model,
    format_system,
    formula_vars,
    iter_formula_constraints,
    negate_formula,
)
from conftest import CORPUS
from fm_reference import scale
from formula_reference import rename_formula
from randgen import fuzz_text, random_acyclic_text, random_finite_text, wide_finite_text


def test_ladder_shape(ladder):
    names = {d.name: d.arity for d in ladder.decls}
    assert names == {"p": 1, "false": 0}
    assert ladder.universe == tuple(Fraction(i) for i in (1, 2, 3, 4, 5))
    assert len(ladder.clauses) == 5
    init = [c for c in ladder.clauses if not c.body]
    assert len(init) == 1 and init[0].head.pred.name == "p"
    (goal,) = ladder.goal
    assert goal.head.pred.name == "p" and not goal.body


def test_a_system_without_goal_entries_has_the_goal_false():
    system = parse_system("pred p/1.\np(0).\n")
    (goal,) = system.goal
    assert goal.head.pred == system.falsity and not goal.body and goal.constraint == TRUE
    text = format_system(system)
    assert text.endswith("\ngoal false.\n")
    assert parse_system(text) == system


def test_head_constants_become_equalities(ladder):
    # "p(1)." is stored with a fresh head variable constrained to equal 1.
    init = next(c for c in ladder.clauses if not c.body)
    (v,) = init.head.args
    cons = list(iter_formula_constraints(init.constraint))
    assert len(cons) == 1 and cons[0].rel is Rel.EQ
    assert formula_reference.eval_formula(init.constraint, {v: Fraction(1)})


def test_an_argument_that_sums_to_a_variable_is_that_variable():
    # ``X + 0`` and ``2*Y - Y`` are linear terms, not names, until
    # normalization finds that each is one variable and keeps it.
    system = parse_system("pred p/1.\np(X + 0) :- X = 1.\np(2*Y - Y) :- Y = 2.\n")
    assert system == parse_system("pred p/1.\np(X) :- X = 1.\np(Y) :- Y = 2.\n")


def test_a_false_constraint_prints_in_parentheses_and_parses_back():
    # A bare ``false`` in a body would name the falsity predicate.
    system = parse_system("pred p/1.\np(X) :- (false).\n")
    assert system.clauses[0].constraint == FALSE
    text = format_system(system)
    assert "\np(X) :- (false).\n" in text
    assert parse_system(text) == system


def test_arg_positions_are_distinct_variables(corpus_systems):
    for _, system in corpus_systems:
        for clause in system.clauses:
            for app in (clause.head, *clause.body):
                assert len(set(app.args)) == len(app.args), str(clause)


def test_format_parse_round_trip(corpus_systems):
    for name, system in corpus_systems:
        text = format_system(system)
        again = parse_system(text)
        assert format_system(again) == text, name


@pytest.mark.parametrize(
    ("make", "seeds"),
    [
        (random_finite_text, 100),
        (random_acyclic_text, 100),
        (fuzz_text, 50),
        (wide_finite_text, 50),
    ],
    ids=["finite", "acyclic", "fuzz", "wide-finite"],
)
def test_format_parse_round_trip_on_generated_texts(make, seeds):
    for seed in range(seeds):
        system = parse_system(make(seed))
        assert parse_system(format_system(system)) == system, seed


# Texts a tokenizer can get wrong: no token at all, line ends other than
# "\n", blanks other than ASCII, and a character that no token matches at
# the start, in the middle and at the end.
HOSTILE_TEXTS = [
    "",
    "# only a comment",
    "# one comment\n\n   # and another\n",
    "pred p/1.\r\np(X) :- X = 0.\r\n",
    "pred\u00a0p/1.\u2003\np(X) :-\u3000X = \u0663.\n",
    "pred p/1.\r\n\tp(X) :-\tX = 0.\r\n\t",
    "\tpred\tp/1.\n\t\tp(X) :- X >= 1/2 # comment\n.",
    "@pred p/1.\n",
    "pred p/1.\np(X) :- X = 0 @ 1.\n",
    "pred p/1.\r\np(X) :- X = 0\r\n?",
    "pred p/1.\np(X) :- X = 0.\n\u00e9",
]


def test_tokenizer_matches_the_reference():
    texts = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.rglob("*.chc"))]
    for make in (random_finite_text, random_acyclic_text):
        texts += [make(seed) for seed in range(200)]
    texts += HOSTILE_TEXTS
    gaps = 0
    for text in texts:
        try:
            want = [(t.text, t.offset) for t in tokenize_reference.tokenize(text)]
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                tokenize(text)
            got = got.value
            assert (got.message, got.line, got.col) == (err.message, err.line, err.col), text
            gaps += 1
            continue
        assert list(zip(*tokenize(text))) == want, text
    assert len(texts) > 400 and gaps == 4


def _constraint(text: str):
    return parse_system(f"pred p/0.\np :- {text}.\n").clauses[0].constraint


def _exact(coeffs, const, rel) -> Lin:
    return Lin(LinConstraint(LinTerm(coeffs, const), rel))


def _held(value) -> bool:
    """Is ``value`` held by the number rule of :func:`chclab.syntax.rat`:
    an ``int`` when it is integral, else a ``Fraction`` with a
    denominator above 1?"""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def _atoms_held(f) -> int:
    """Assert the number rule on every coefficient and constant of the
    atoms of ``f``; the number of atoms."""
    count = 0
    for con in iter_formula_constraints(f):
        assert _held(con.term.const) and all(_held(c) for _, c in con.term.coeffs), repr(con)
        count += 1
    return count


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        (
            "2*X - 3*Y + 1/2 - X >= Z - 0.5",
            _exact((("X", -1), ("Y", 3), ("Z", 1)), -1, Rel.LE),
        ),
        ("X - X + 1 <= 2", _exact((), -1, Rel.LE)),
        ("-X*2/3 < 4", _exact((("X", Fraction(-2, 3)),), -4, Rel.LT)),
        (
            "X*3/1 + 1.0 <= 1/2 + 1/2 * Y",
            _exact((("X", 3), ("Y", Fraction(-1, 2))), Fraction(1, 2), Rel.LE),
        ),
        (
            "X != Y + 1",
            Or(
                (
                    _exact((("X", 1), ("Y", -1)), -1, Rel.LT),
                    _exact((("X", -1), ("Y", 1)), 1, Rel.LT),
                )
            ),
        ),
    ],
    ids=["mixed", "cancelled", "scaled", "integral", "neq"],
)
def test_linear_terms_accumulate_exactly(text, expected):
    got = _constraint(text)
    assert got == expected
    # Equal is not enough: an int coefficient compares equal to its
    # Fraction, but prints and hashes through another type.
    assert _atoms_held(got) > 0
    assert repr(got) == repr(expected)


def test_terms_follow_the_number_rule_over_the_corpus(corpus_systems):
    # The parser, Box.formula (through the model's formulas) and
    # negate_formula build every term the solve path lowers, and a
    # written model reads back through the parser.
    atoms = 0
    for _, system in corpus_systems:
        formulas = [c.constraint for c in (*system.clauses, *system.goal)]
        model = alternate(system)[1].witness.as_dict()
        formulas += model.values()
        formulas += [negate_formula(f) for f in formulas]
        formulas += parse_model(format_model(model, system), system).values()
        atoms += sum(map(_atoms_held, formulas))
    assert atoms > 500


def test_term_negation_and_renaming_match_the_general_route(corpus_systems):
    # ``-t`` and an injective ``rename`` skip the sorted rebuild of
    # ``make``, which ``scale`` of the tests runs; the result must print
    # and compare the same.
    def same(a: LinTerm, b: LinTerm) -> bool:
        return a == b and repr(a) == repr(b)

    count = 0
    for _, system in corpus_systems:
        for clause in system.clauses:
            for con in iter_formula_constraints(clause.constraint):
                t = con.term
                names = [v for v, _ in t.coeffs]
                mappings = [
                    {v: f"z{len(names) - k}" for k, v in enumerate(names)},  # reverses the order
                    {v: names[0] for v in names[1:]},  # merges every variable into one
                    dict(zip(names[1::2], names[::2])),  # merges neighbours in pairs
                ]
                assert same(-t, scale(t, -1))
                for m in mappings:
                    merged = LinTerm.make([(m.get(v, v), c) for v, c in t.coeffs], t.const)
                    assert same(t.rename(m), merged), (str(t), m)
                count += 1
    assert count > 100
    x_minus_y = LinTerm.make({"x": 1, "y": -1}, 2)
    assert same(x_minus_y.rename({"x": "z", "y": "z"}), LinTerm.make({}, 2))
    assert same(x_minus_y.rename({"x": "y", "y": "x"}), LinTerm.make({"y": 1, "x": -1}, 2))


def _seeded_formula(rng: random.Random, depth: int):
    """A raw And/Or tree over x, y and z that the smart constructors have
    not flattened: connectives of zero to three items, nested in their
    own kind, and constants among the atoms."""
    if depth == 0 or rng.random() < 0.3:
        k = rng.random()
        if k < 0.1:
            return TRUE
        if k < 0.2:
            return FALSE
        names = rng.sample(("x", "y", "z"), rng.randint(0, 2))
        term = LinTerm.make({v: rng.choice((-2, -1, 1, 3)) for v in names}, rng.randint(-3, 3))
        return Lin(LinConstraint(term, rng.choice(list(Rel))))
    kind = rng.choice((And, Or))
    return kind(tuple(_seeded_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))))


def test_formula_walkers_match_the_recursive_reference(corpus_systems):
    # The stack-based rename_formula and negate_formula return the trees
    # the recursive walkers returned, printed and compared alike.
    formulas = []
    for _, system in corpus_systems:
        formulas += [c.constraint for c in system.clauses]
        formulas += alternate(system)[1].witness.as_dict().values()
    rng = random.Random(14)
    formulas += [_seeded_formula(rng, 5) for _ in range(600)]
    for f in formulas:
        names = sorted(formula_vars(f))
        mappings = [
            dict(zip(names, reversed(names))),  # swaps names around
            {v: names[0] for v in names[1:]},  # merges every variable into one
            {v: v.lower() + "_" for v in names},
        ]
        for m in mappings:
            want = formula_reference.rename_formula_recursive(f, m)
            got = rename_formula(f, m)
            assert got == want and repr(got) == repr(want), (str(f), m)
        want = formula_reference.negate_formula(f)
        got = negate_formula(f)
        assert got == want and repr(got) == repr(want), str(f)
    assert len(formulas) > 800


def test_printer_evaluation_and_dnf_match_the_recursive_reference(corpus_systems):
    # The stack-based format_formula returns the text the recursive
    # printer returned, and to_dnf the same cubes in the same order.
    formulas = []
    for _, system in corpus_systems:
        formulas += [c.constraint for c in system.clauses]
        formulas += alternate(system)[1].witness.as_dict().values()
    rng = random.Random(15)
    formulas += [_seeded_formula(rng, 5) for _ in range(600)]
    sizes = set()
    for f in formulas:
        assert format_formula(f) == formula_reference.format_formula(f)
        want = formula_reference.to_dnf(f)
        got = to_dnf(f)
        assert got == want and repr(got) == repr(want), str(f)
        sizes.add(len(got))
    assert len(formulas) > 800 and {0, 1} < sizes


def test_formula_nodes_compare_their_class():
    # A NamedTuple compares as the tuple of its fields; the formula nodes
    # compare their class too, and ``true`` and ``false``, which hold no
    # field, are truthy.
    a = Lin(LinConstraint(LinTerm.var("x"), Rel.LE))
    b = Lin(LinConstraint(LinTerm.var("y"), Rel.LT))
    assert And((a, b)) != Or((a, b)) and not And((a, b)) == Or((a, b))
    assert And((a, b)) == And((a, b)) and not And((a, b)) != And((a, b))
    assert And((a, b)) != And((a,)) and Or((a,)) != Or((a, b))
    assert TRUE != FALSE and not TRUE == FALSE
    assert TRUE != () and a != (a.con,)
    assert bool(TRUE) and bool(FALSE)
    assert len({And((a, b)), Or((a, b)), TRUE, FALSE, a}) == 5


def test_neq_expands_to_disjunction():
    system = parse_system("pred p/1.\nfalse :- p(X), X != 2.\n")
    f = system.clauses[0].constraint
    parts = f.items if isinstance(f, And) else (f,)
    strict = [
        c
        for p in parts
        if isinstance(p, Or)
        for c in iter_formula_constraints(p)
    ]
    assert len(strict) == 2 and all(c.rel is Rel.LT for c in strict)


def test_semicolon_binds_looser_than_comma():
    a = parse_system("pred p/2.\np(X, Y) :- (X = 0, Y = 0; X = 1).\n")
    f = a.clauses[0].constraint
    assert isinstance(f, Or) and len(f.items) == 2
    assert isinstance(f.items[0], And)


def test_rationals_and_decimals():
    system = parse_system("pred p/1.\np(X) :- X = 1/2.\nfalse :- p(X), X > 0.5.\n")
    eqs = [
        c
        for c in iter_formula_constraints(system.clauses[0].constraint)
        if c.rel is Rel.EQ
    ]
    assert any(abs(c.term.const) == Fraction(1, 2) for c in eqs)
    signed = parse_system("pred p/1.\nuniverse {-1, 0, 1/2}.\n")
    assert signed.universe == (Fraction(-1), Fraction(0), Fraction(1, 2))


@pytest.mark.parametrize(
    ("text", "same_as"),
    [
        ("pred p/1.\np(X) :- X = \u0663.\n", "pred p/1.\np(X) :- X = 3.\n"),
        ("pred p/1.\np(X)\u00a0:-\u2003X = 3.\n", "pred p/1.\np(X) :- X = 3.\n"),
        ("pred p/\u0662.\np(X, Y).\n", "pred p/2.\np(X, Y).\n"),
    ],
    ids=["arabic-indic-digit", "unicode-blanks", "arabic-indic-arity"],
)
def test_unicode_digits_and_blanks_read_as_the_token_pattern_reads_them(text, same_as):
    # ``\d`` is any decimal digit and ``\s`` any blank, so the token kinds
    # follow ``str.isdecimal`` and ``str.isspace``, not ASCII.
    assert parse_system(text) == parse_system(same_as)


def test_true_literal_is_empty_constraint():
    system = parse_system("pred p/0.\np :- true.\n")
    clause = system.clauses[0]
    assert not clause.body
    assert format_system(system)  # formats without error


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("pred p/1.\np(X) :- q(X).\n", "undeclared"),
        ("pred p/1.\np(X, Y).\n", "expects 1 argument"),
        ("pred p/1.\np(X) :- false.\n", "cannot appear in a clause body"),
        ("pred true/1.\n", "reserved"),
        ("pred p/1.\npred p/2.\n", "declared twice"),
        ("pred p/1.\nuniverse {1}.\nuniverse {2}.\n", "duplicate universe"),
        ("pred p/1.\np(X) :- X = 1/0.\n", "zero denominator"),
        ("pred p/1.\np(X) :- X * X = 1.\n", "non-linear"),
        ("pred p/1.\ngoal p(X) : Y > 0.\n", "goal constraint"),
        ("pred p/1.\nuniverse {x}.\n", "expected number"),
        ("pred p/1.\np(X) :- X <= 1/x.\n", "expected integer denominator"),
        ("pred p/1.\np(X) :- X <= .\n", "expected term"),
        ("pred p/1.\np(X) :- X 1.\n", "expected comparator"),
        ("pred p/1.\np(X) :- (foo).\n", "unexpected identifier"),
        ("pred p/1.\ngoal 3.\n", "expected clause head"),
        ("pred p/x.\n", "expected arity"),
        ("pred p/1.\np(X) :- X = \u00b2.\n", "unexpected character '\u00b2'"),
        ("pred p/1.\np(X) :- X = \u00e9.\n", "unexpected character '\u00e9'"),
    ],
)
def test_rejects(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    ("text", "line", "col"),
    [
        ("pred p/1.\np(X) :- q(X).\n", 2, 9),
        ("pred p/1.\np(X) :- X = 0.\n  goal p(X) : Y > 0.\n", 3, 3),
        ("pred p/1.\n# a comment line\np(1) :- X @ 1.\n", 3, 11),
        ("pred p/1.\np(1)\n", 3, 1),
        ("pred p/1.\np(X) :- X = 1/0.\n", 2, 15),
        ("pred p/2.\np(X, Y) :- X * Y = 1.\n", 2, 16),
        ("pred p/1.\np(X) :- X = 1.5/2.\n", 2, 13),
        ("pred p/2.\np(X, Y) :- p(X).\n", 2, 12),
        ("pred p/1.\n\tp(1).\n\tp(X) :- q(X).\n", 3, 10),
        ("pred p/1.\np(X) :- " + "(" * 101 + "X = 0" + ")" * 101 + ".\n", 2, 109),
        ("pred p/1.\nuniverse {x}.\n", 2, 11),
        ("pred p/1.\np(X) :- X <= 1/x.\n", 2, 16),
        ("pred p/1.\np(X) :- X <= .\n", 2, 14),
        ("pred p/1.\np(X) :- X 1.\n", 2, 11),
        ("pred p/1.\np(X) :- (foo).\n", 2, 10),
        ("pred p/1.\ngoal 3.\n", 2, 6),
        ("pred p/x.\n", 1, 8),
        ("pred p/1.\np(X) :- X = \u00b2.\n", 2, 13),
        ("pred p/1.\np(X) :- X = \u00e9.\n", 2, 13),
    ],
    ids=[
        "clause",
        "goal",
        "after-comment",
        "missing-period",
        "zero-denominator",
        "variable-product",
        "decimal-numerator",
        "arity",
        "after-tab",
        "nesting",
        "universe-value",
        "denominator",
        "term",
        "comparator",
        "identifier",
        "clause-head",
        "arity-number",
        "superscript-digit",
        "non-ascii-letter",
    ],
)
def test_error_carries_position(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_model_round_trip(addition_loops):
    # Each formula prints as it parses: a disjunction or a conjunction,
    # one constraint and the constants.
    for text in (
        "model p1 : X1 <= 0; -X2 <= 0.\nmodel p2 : -X1 < 0.\nmodel false : false.\n",
        "model p1 : X1 <= 0, -X2 <= 0.\nmodel p2 : true.\nmodel false : false.\n",
    ):
        model = parse_model(text, addition_loops)
        assert set(model) == {"p1", "p2", "false"}
        again = parse_model(format_model(model, addition_loops), addition_loops)
        assert {k: str(v) for k, v in again.items()} == {k: str(v) for k, v in model.items()}
        assert str(model["p1"]) == text.split(" : ", 1)[1].split(".", 1)[0]


def test_model_rejects_unknown_and_duplicate(addition_loops):
    with pytest.raises(ParseError):
        parse_model("model nosuch : true.\n", addition_loops)
    with pytest.raises(ParseError):
        parse_model("model p1 : true.\nmodel p1 : true.\n", addition_loops)
    with pytest.raises(ParseError, match="expected predicate name after 'model'"):
        parse_model("model 3 : true.\n", addition_loops)
    with pytest.raises(ParseError, match="uses unknown variables"):
        parse_model("model p : X2 >= 0.\n", parse_system("pred p/1.\n"))

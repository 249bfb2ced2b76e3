"""Hostile inputs through ``cli.main``: every run ends in a documented exit
code, never in an exception, and ``solve`` never reports a false
certificate."""

from __future__ import annotations

import random

import pytest

from chclab.cli import main
from chclab.parser import MAX_NESTING
from conftest import CORPUS

# The exit codes the README lists.
DOCUMENTED = {0, 1, 2, 3, 10}
SEED = 20
DAMAGED = 12


def _nested(depth: int, alternate: bool) -> str:
    """``depth`` parentheses around ``X >= 0``; when ``alternate``, each
    level adds a comparison joined by ``,`` or ``;`` in turn."""
    f = "X >= 0"
    for i in range(depth):
        f = (f"(X >= {-i}, {f})" if i % 2 else f"(X <= {i}; {f})") if alternate else f"({f})"
    return f


def _one_clause(constraint: str) -> str:
    return f"pred p/1.\np(X) :- {constraint}.\nfalse :- p(X), X < 0.\n"


def _chain(n: int) -> str:
    lines = ["pred c0/1.", "c0(X) :- X = 0."]
    for i in range(1, n):
        lines += [f"pred c{i}/1.", f"c{i}(Y) :- c{i - 1}(X), Y = X + 1."]
    lines.append(f"false :- c{n - 1}(X), X < 0.")
    return "\n".join(lines) + "\n"


def _wide(arity: int) -> str:
    args = ", ".join(f"X{i}" for i in range(arity))
    return f"pred p/{arity}.\np({args}) :- X0 = 0.\nfalse :- p({args}), X0 > 0.\n"


def _damage(rng: random.Random, text: str) -> str:
    """One to three random deletions, insertions or replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars))
        op = rng.randrange(3)
        if op == 0:
            del chars[i]
        else:
            c = rng.choice("()<>=!:-.,;+*/ \n\t#XYpq019{}_")
            if op == 1:
                chars.insert(i, c)
            else:
                chars[i] = c
    return "".join(chars)


def hostile_inputs(seed: int) -> dict[str, bytes]:
    """Named file contents: deep nesting, long chains, huge numbers, many
    predicates, high arity, odd bytes and damaged corpus texts."""
    rng = random.Random(seed)
    corpus = sorted(CORPUS.glob("*.chc")) + sorted((CORPUS / "rand").glob("*.chc"))
    texts = {
        "nested-at-bound": _one_clause(_nested(MAX_NESTING, False)),
        "nested-past-bound": _one_clause(_nested(MAX_NESTING + 1, False)),
        "alternating-at-bound": _one_clause(_nested(MAX_NESTING, True)),
        "alternating-past-bound": _one_clause(_nested(MAX_NESTING + 1, True)),
        "nested-far-past-bound": _one_clause(_nested(3 * MAX_NESTING, False)),
        "semicolon-chain": _one_clause("; ".join(f"X = {i}" for i in range(300))),
        "comma-chain": _one_clause(", ".join(f"X >= {-i}" for i in range(500)) + ", X <= 0"),
        "literal-5000-digits": _one_clause(f"X = {'9' * 5000}"),
        "fraction-5000-digits": _one_clause(f"X <= {'7' * 5000}/{'3' * 5000}, X >= 1"),
        "product-5000-digits": _one_clause(f"X = 1{'0' * 2500} * 1{'0' * 2500}"),
        "predicate-chain-200": _chain(200),
        "arity-1000": _wide(1000),
    }
    out = {name: text.encode() for name, text in texts.items()}
    for path in rng.sample(corpus, 3):
        text = path.read_text(encoding="utf-8")
        out[f"crlf-{path.stem}"] = text.replace("\n", "\r\n").encode()
        out[f"tabs-{path.stem}"] = text.replace(" ", "\t").encode()
    text = rng.choice(corpus).read_bytes()
    at = rng.randrange(len(text))
    out["nul"] = text[:at] + b"\0" + text[at:]
    out["non-utf8"] = text[:at] + b"\xff\xfe" + text[at:]
    out["latin1-comment"] = text + b"# caf\xe9\n"
    for k in range(DAMAGED):
        path = rng.choice(corpus)
        out[f"damaged-{k}-{path.stem}"] = _damage(rng, path.read_text(encoding="utf-8")).encode()
    return out


INPUTS = hostile_inputs(SEED)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_hostile_input_exits_with_a_documented_code(tmp_path, capsys, name):
    data = INPUTS[name]
    system = tmp_path / "hostile.chc"
    system.write_bytes(data)
    model = tmp_path / "hostile.model"
    for mode in ("fwd", "alt", "qa2", "qa-iter"):
        argv = ["solve", str(system), "--mode", mode]
        if mode == "alt":
            argv += ["--model-out", str(model)]
        code = main(argv)
        assert code in DOCUMENTED and code != 1, (mode, capsys.readouterr().err)
    # A model the certified alternation wrote passes ``check``; without
    # one, the hostile text itself is the model file.
    if model.exists():
        assert main(["check", str(system), str(model)]) == 0, capsys.readouterr().err
    else:
        assert main(["check", str(system), str(system)]) in DOCUMENTED
    assert main(["qa", str(system)]) in DOCUMENTED
    if b"universe" in data:
        assert main(["oracle", str(system)]) in DOCUMENTED
    capsys.readouterr()

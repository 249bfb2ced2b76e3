"""The tokenizer that ``chclab.parser`` had before it tokenized with one
``findall``.

A reference for the differential test of ``chclab.parser.tokenize``: one
``finditer`` pass of a pattern with a named group per token kind, one
``Token`` per match, and an ``unexpected character`` error at the first
gap between matches.  The tokenizer must give the same token texts and
offsets, and report a gap at the same line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from chclab.parser import error_at


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

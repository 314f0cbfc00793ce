from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coracmg.tokenizer import token_counter, tokenize
from helpers import synthetic_corpus
from oracles import oracle_tokenize

GOLDEN = Path(__file__).parent / "data" / "tokenizer_golden.jsonl"


def golden_cases():
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.mark.parametrize("case", golden_cases(), ids=lambda c: repr(c["text"])[:40])
def test_golden(case):
    assert tokenize(case["text"]) == case["tokens"]


def test_enhance_examples():
    assert tokenize("bug-fix") == ["bug", "-", "fix"]
    assert tokenize("HttpClient") == ["http", "client"]
    assert tokenize("test_case") == ["test", "_", "case"]
    assert tokenize("handleRequest") == ["handle", "request"]
    assert tokenize("FIX") == tokenize("fix") == ["fix"]
    assert tokenize("") == []
    assert tokenize("a,b") == ["a", ",", "b"]


def _assert_matches_oracle(text):
    assert tokenize(text) == oracle_tokenize(text), text


def test_tokenize_matches_two_stage_oracle():
    fixed = [case["text"] for case in golden_cases()]
    # Non-ASCII capitals never split; digit-only runs have no case at all.
    fixed += ["ÄpfelÖl straßeÜber ÉCOLEParser", "2024 0x1F 3.14 v2 x2Y"]
    for record in synthetic_corpus(2, 50):
        fixed += [record.diff, record.message]
    for text in fixed:
        _assert_matches_oracle(text)

    # Random full-Unicode strings: other whitespace, symbols, scripts and cases.
    @settings(max_examples=500, derandomize=True)
    @given(st.text())
    def any_text(text):
        _assert_matches_oracle(text)

    any_text()


# Printable ASCII without whitespace-only surprises; plenty of case,
# digits and punctuation to stress every rule.
_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=60,
)


@settings(max_examples=300, derandomize=True)
@given(_text)
def test_idempotent_on_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


@settings(max_examples=300, derandomize=True)
@given(_text)
def test_token_shape(text):
    for token in tokenize(text):
        assert token, "empty token"
        assert not any(ch.isspace() for ch in token)
        assert not any(ch.isupper() for ch in token)
        # a token is either one symbol or a pure alphanumeric run
        is_alnum = all(ch.isalnum() for ch in token)
        assert is_alnum or (len(token) == 1 and not token.isalnum())


@settings(max_examples=300, derandomize=True)
@given(_text)
def test_order_preserving(text):
    tokens = tokenize(text)
    assert "".join(tokens) == "".join(text.split()).lower()


# Pieces on both sides of the whitespace rule: the separators \x1c-\x1f, NEL,
# NBSP, LINE SEPARATOR and the ideographic space split for str.split() and
# for the tokenizer alike; underscore, camelCase, digits and non-ASCII
# letters decide where a chunk's tokens start.
_CHUNKY = st.lists(
    st.one_of(
        st.sampled_from(
            [" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
        ),
        st.sampled_from(["_", "getX", "XMLParser", "x2Y", "42", "é", "ÄpfelÖl", "Ω", "-", "()"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=500, derandomize=True)
@given(_CHUNKY, _CHUNKY)
def test_token_counter_equals_counter_of_tokenize(first, second):
    count = token_counter()
    # The later texts find some or all of their chunks in the memo.
    for text in (first, second, second + " " + first, first):
        assert list(count(text).items()) == list(Counter(tokenize(text)).items()), text

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coracmg.tokenizer import tokenize
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

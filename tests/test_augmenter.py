from __future__ import annotations

import pytest

from coracmg.augmenter import PromptTemplate
from coracmg.errors import ConfigError, EmptyQuery, TooManyExamples
from coracmg.retriever import DocHandle, ExamplePair


def pair(idx: int, score: float, diff: str | None = None, message: str | None = None):
    return ExamplePair(
        diff=diff or f"diff --git a/f{idx} b/f{idx}\n+change {idx}",
        message=message or f"message number {idx}",
        handle=DocHandle(f"{idx:040x}", "acme/widgets"),
        hybrid_score=score,
    )


QUERY = "diff --git a/q b/q\n+the query change"
DEFAULT = PromptTemplate.default()


def test_direct_prompt_contains_diff_once():
    prompt = DEFAULT.render(QUERY, [])
    assert prompt.count(QUERY) == 1
    assert "{{" not in prompt
    assert "message" in prompt.lower()


def test_direct_prompt_is_deterministic():
    assert DEFAULT.render(QUERY, []) == DEFAULT.render(QUERY, [])


def test_empty_query_rejected():
    with pytest.raises(EmptyQuery):
        DEFAULT.render("", [])
    with pytest.raises(EmptyQuery):
        DEFAULT.render("", [pair(1, 0.5)])


def test_rag_prompt_structure():
    prompt = DEFAULT.render(QUERY, [pair(1, 0.9)])
    assert prompt.count("change 1") == 1
    assert prompt.count(QUERY) == 1
    assert prompt.index("change 1") < prompt.index(QUERY)


def test_rag_with_no_examples_equals_direct():
    # Zero examples drop the examples region whole: preamble, then the query block.
    direct = DEFAULT.preamble + DEFAULT.tail.replace("{{query_diff}}", QUERY)
    assert DEFAULT.render(QUERY, []) == direct


def test_examples_render_in_ascending_score_order():
    examples = [pair(1, 0.9), pair(2, 0.5), pair(3, 0.7)]
    prompt = DEFAULT.render(QUERY, examples)
    pos = {i: prompt.index(f"message number {i}") for i in (1, 2, 3)}
    assert pos[2] < pos[3] < pos[1]  # scores 0.5, 0.7, 0.9
    assert prompt.index(QUERY) > max(pos.values())


def test_too_many_examples():
    with pytest.raises(TooManyExamples):
        DEFAULT.render(QUERY, [pair(i, 0.1 * i) for i in range(6)])


def test_budget_evicts_lowest_scored_first():
    big = "x" * 4000
    examples = [
        pair(1, 0.9, diff=big + "high"),
        pair(2, 0.2, diff=big + "low"),
        pair(3, 0.5, diff=big + "mid"),
    ]
    full = DEFAULT.render(QUERY, examples, max_chars=1_000_000)
    assert "low" in full and "mid" in full and "high" in full
    trimmed = DEFAULT.render(QUERY, examples, max_chars=10_000)
    assert "low" not in trimmed  # score 0.2 went first
    assert "mid" in trimmed and "high" in trimmed
    assert QUERY in trimmed
    tiny = DEFAULT.render(QUERY, examples, max_chars=500)
    assert QUERY in tiny  # the query survives even when every example is gone
    assert "high" not in tiny


def test_template_round_trip_and_validation(tmp_path):
    text = (
        "Preamble line.\n"
        "{{#examples}}\n"
        "D: {{retrieved_diff}}\n"
        "M: {{retrieved_msg}}\n"
        "{{/examples}}\n"
        "Q: {{query_diff}}\n"
    )
    path = tmp_path / "tpl.txt"
    path.write_text(text)
    template = PromptTemplate.from_file(path)
    rendered = template.render("QDIFF", [pair(1, 0.5, diff="XDIFF", message="XMSG")])
    assert rendered == "Preamble line.\nD: XDIFF\nM: XMSG\nQ: QDIFF\n"
    assert template.render("QDIFF", []) == "Preamble line.\nQ: QDIFF\n"

    with pytest.raises(ConfigError):
        PromptTemplate.from_text("no markers {{query_diff}}")
    with pytest.raises(ConfigError):
        PromptTemplate.from_text(
            "{{#examples}}\n{{retrieved_diff}}\n{{/examples}}\nno query slot\n"
        )
    with pytest.raises(ConfigError):
        PromptTemplate.from_text(
            "{{#examples}}\n{{retrieved_diff}} {{retrieved_msg}} {{retrieved_msg}}\n"
            "{{/examples}}\n{{query_diff}}\n"
        )


def test_backslashes_in_diffs_survive_rendering():
    tricky = "diff --git a/w b/w\n+path = \"C:\\\\temp\\\\1\"\n+regex = r\"\\d+\""
    prompt = DEFAULT.render(QUERY, [pair(1, 0.5, diff=tricky)])
    assert tricky in prompt


def test_golden_snapshot_stability():
    examples = [pair(1, 0.3), pair(2, 0.8)]
    a = DEFAULT.render(QUERY, examples)
    b = DEFAULT.render(QUERY, list(reversed(examples)))
    assert a == b  # input order is irrelevant; score order governs

"""Prompt construction: compose the query diff and retrieved example pairs.

Template files are plain text with ``{{query_diff}}``, ``{{retrieved_diff}}``
and ``{{retrieved_msg}}`` placeholders.  The region between ``{{#examples}}``
and ``{{/examples}}`` marker lines repeats once per example pair; rendering
with zero examples drops the region entirely, which is exactly the direct
(no-augmentation) prompt.

Examples render in ascending relevance order so the strongest pair sits
next to the query.  ``fit`` keeps what fits a character budget, evicting
whole examples from the least relevant, never the query diff; ``render``
formats exactly the examples it is given.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, EmptyQuery, TooManyExamples, read_text
from .retriever import ExamplePair

MAX_EXAMPLES = 5
DEFAULT_MAX_PROMPT_CHARS = 48_000

_SECTION_OPEN = "{{#examples}}"
_SECTION_CLOSE = "{{/examples}}"
_EXAMPLE_SLOT = re.compile(r"\{\{(retrieved_diff|retrieved_msg)\}\}")
_QUERY_SLOT = re.compile(r"\{\{query_diff\}\}")


@dataclass(frozen=True)
class PromptTemplate:
    preamble: str
    example_block: str
    tail: str

    @classmethod
    def from_text(cls, text: str) -> "PromptTemplate":
        lines = text.split("\n")
        try:
            open_at = lines.index(_SECTION_OPEN)
            close_at = lines.index(_SECTION_CLOSE)
        except ValueError:
            raise ConfigError(
                f"template must contain {_SECTION_OPEN} and {_SECTION_CLOSE} marker lines"
            ) from None
        if close_at < open_at:
            raise ConfigError("examples section markers are out of order")
        # Marker lines splice out whole; preamble and block keep their
        # trailing newline so repeated blocks join cleanly.
        preamble = "\n".join(lines[:open_at] + [""])
        block = "\n".join(lines[open_at + 1 : close_at] + [""])
        tail = "\n".join(lines[close_at + 1 :])
        for slot in ("retrieved_diff", "retrieved_msg"):
            if block.count(f"{{{{{slot}}}}}") != 1:
                raise ConfigError(f"example block must contain {{{{{slot}}}}} exactly once")
        if len(_QUERY_SLOT.findall(tail)) != 1:
            raise ConfigError("template tail must contain {{query_diff}} exactly once")
        return cls(preamble=preamble, example_block=block, tail=tail)

    @classmethod
    def from_file(cls, path: str | Path) -> "PromptTemplate":
        text = read_text(path, ConfigError, "template ")
        try:
            return cls.from_text(text)
        except ConfigError as exc:
            raise ConfigError(f"template {path}: {exc}") from None

    @classmethod
    def default(cls) -> "PromptTemplate":
        text = (
            resources.files("coracmg.templates")
            .joinpath("default_prompt.txt")
            .read_text(encoding="utf-8")
        )
        return cls.from_text(text)

    def fit(self, query_diff: str, examples: list[ExamplePair], max_chars: int) -> list:
        """The examples a prompt of at most ``max_chars`` keeps, strongest first."""
        _check(query_diff, examples)
        ordered = sorted(examples, key=lambda ex: ex.hybrid_score)  # least relevant first
        # Each slot marker gives way to its text, so the rendered length adds up.
        block = len(self.example_block) - len("{{retrieved_diff}}{{retrieved_msg}}")
        sizes = [block + len(ex.diff) + len(ex.message) for ex in ordered]
        fixed = len(self.preamble) + len(self.tail) - len("{{query_diff}}") + len(query_diff)
        length = fixed + sum(sizes)
        while length > max_chars and ordered:
            ordered.pop(0)  # evict the least relevant example
            length -= sizes.pop(0)
        # A stable sort keeps tied examples in the order they render in.
        return sorted(ordered, key=lambda ex: ex.hybrid_score, reverse=True)

    def render(self, query_diff: str, examples: list[ExamplePair]) -> str:
        """The prompt holding every one of ``examples``, least relevant first."""
        _check(query_diff, examples)
        blocks = [
            _EXAMPLE_SLOT.sub(
                lambda m, ex=ex: ex.diff if m.group(1) == "retrieved_diff" else ex.message,
                self.example_block,
            )
            for ex in sorted(examples, key=lambda ex: ex.hybrid_score)
        ]
        return self.preamble + "".join(blocks) + _QUERY_SLOT.sub(lambda _: query_diff, self.tail)


def _check(query_diff: str, examples: list[ExamplePair]) -> None:
    if not query_diff:
        raise EmptyQuery("query diff is empty")
    if len(examples) > MAX_EXAMPLES:
        raise TooManyExamples(f"{len(examples)} examples exceed the maximum of {MAX_EXAMPLES}")

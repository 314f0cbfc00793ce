"""Prompt construction: compose the query diff and retrieved example pairs.

Template files are plain text with ``{{query_diff}}``, ``{{retrieved_diff}}``
and ``{{retrieved_msg}}`` placeholders.  The region between ``{{#examples}}``
and ``{{/examples}}`` marker lines repeats once per example pair; rendering
with zero examples drops the region entirely, which is exactly the direct
(no-augmentation) prompt.

Examples render in ascending relevance order so the strongest pair sits
next to the query.  When the rendered prompt exceeds the character budget,
whole examples are evicted starting from the least relevant; the query diff
is never truncated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError, EmptyQuery, TooManyExamples
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
        try:
            return cls.from_text(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, ConfigError) as exc:  # unreadable, not UTF-8, or invalid
            raise ConfigError(f"template {path}: {getattr(exc, 'strerror', None) or exc}") from None

    @classmethod
    def default(cls) -> "PromptTemplate":
        text = (
            resources.files("coracmg.templates")
            .joinpath("default_prompt.txt")
            .read_text(encoding="utf-8")
        )
        return cls.from_text(text)

    def render(
        self,
        query_diff: str,
        examples: list[ExamplePair],
        max_chars: int = DEFAULT_MAX_PROMPT_CHARS,
    ) -> str:
        if not query_diff:
            raise EmptyQuery("query diff is empty")
        if len(examples) > MAX_EXAMPLES:
            raise TooManyExamples(f"{len(examples)} examples exceed the maximum of {MAX_EXAMPLES}")
        ordered = sorted(examples, key=lambda ex: ex.hybrid_score)  # least relevant first
        while True:
            blocks = [
                _EXAMPLE_SLOT.sub(
                    lambda m, ex=ex: ex.diff if m.group(1) == "retrieved_diff" else ex.message,
                    self.example_block,
                )
                for ex in ordered
            ]
            rendered = self.preamble + "".join(blocks) + _QUERY_SLOT.sub(
                lambda _: query_diff, self.tail
            )
            if len(rendered) <= max_chars or not ordered:
                return rendered
            ordered = ordered[1:]  # evict the least relevant example


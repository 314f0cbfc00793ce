"""Tokenization used by every metric and by lexical retrieval.

``tokenize`` makes one scan over the text.  Each match is either a run of
Unicode alphanumerics or one non-whitespace symbol; whitespace separates
tokens and is dropped.  Then:

* symbol segmentation: every symbol, underscore included, is its own token
  ("bug-fix" -> ["bug", "-", "fix"]);
* camelCase decomposition: each alphanumeric run splits at case boundaries
  ("XMLParser" -> ["XML", "Parser"]);
* case folding: every piece is lowercased.

The function is pure and safe to call concurrently.
"""

from __future__ import annotations

import re

# An alphanumeric run (underscore counts as a symbol so identifiers like
# test_case split apart), or any other single non-whitespace character.
_TOKEN = re.compile(r"([^\W_]+)|(\S)")

# camelCase boundaries: lowercase->Uppercase, and the last capital of an
# uppercase run when followed by lowercase (XMLParser -> XML | Parser).
_CAMEL = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def tokenize(text: str) -> list[str]:
    """Split ``text`` into lowercased alphanumeric pieces and symbols.

    >>> tokenize("Fix HttpClient bug-fix.")
    ['fix', 'http', 'client', 'bug', '-', 'fix', '.']
    """
    out: list[str] = []
    for run, symbol in _TOKEN.findall(text):
        if run.islower():
            out.append(run)  # no capital, so nothing to split or fold
        elif run:
            for piece in _CAMEL.split(run):
                out.append(piece.lower())
        else:
            out.append(symbol)
    return out

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

No token spans whitespace, and ``str.split()`` and the ``\\S`` of ``re``
share one whitespace rule, so a text's tokens are its whitespace-separated
chunks' tokens, in order.  ``token_counter`` uses that to count the tokens
of many texts while tokenizing each distinct chunk once: code repeats
itself, so most chunks of a project's history have been seen before.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Callable

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


class _ChunkTokens(dict):
    """Chunk -> its tokens, tokenized on the first lookup of each chunk."""

    def __missing__(self, chunk: str) -> tuple[str, ...]:
        tokens = self[chunk] = tuple(tokenize(chunk))
        return tokens


def token_counter() -> Callable[[str], Counter]:
    """A function equal to ``Counter(tokenize(text))``, key order included.

    It looks each whitespace-separated chunk of ``text`` up in a memo of its
    own, so over all its calls each distinct chunk is tokenized once.  The
    memo grows with the distinct chunks; drop the function to free it.

    >>> count = token_counter()
    >>> list(count("x = getX(); y = getX();").items())
    [('x', 3), ('=', 2), ('get', 2), ('(', 2), (')', 2), (';', 2), ('y', 1)]
    """
    tokens = _ChunkTokens().__getitem__
    return lambda text: Counter(chain.from_iterable(map(tokens, text.split())))

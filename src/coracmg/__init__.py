"""Retrieval-augmented commit message generation toolkit.

Mines diff-message corpora from git history, retrieves the most similar
historical pairs with a hybrid BM25 + dense-embedding ranker, augments LLM
prompts with them, and evaluates generated messages with BLEU, Rouge-L,
METEOR and CIDEr over a code-aware tokenizer.
"""

from .diffs import CommitRecord, ParsedDiff, count_loc, diff_line_count, parse_diff
from .metrics import MetricReport, build_idf, cider, evaluate_corpus, gleu, meteor, rouge_l
from .retriever import DocHandle, ExamplePair, RetrievalIndex
from .tokenizer import tokenize

__version__ = "0.1.0"

__all__ = [
    "CommitRecord",
    "DocHandle",
    "ExamplePair",
    "MetricReport",
    "ParsedDiff",
    "RetrievalIndex",
    "__version__",
    "build_idf",
    "cider",
    "count_loc",
    "diff_line_count",
    "evaluate_corpus",
    "gleu",
    "meteor",
    "parse_diff",
    "rouge_l",
    "tokenize",
]

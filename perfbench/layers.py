"""Which coracmg entry points the traced run wraps, and the per-layer metrics.

Layers are the package modules.  Entry points are patched where their
callers look them up: a module that imported ``tokenize`` by name calls its
own binding, so each binding is wrapped.  Names whose module is gone (the
``kernels`` module is slated for removal) are skipped and read as zero.
"""

from __future__ import annotations

import importlib

from tracing import Tracer

# (module, class or None, attribute, span name, size of one call)
_ENTRY_POINTS = [
    ("corpus", None, "parse_diff", "diffs.parse_diff", None),
    ("corpus", None, "apply_filters", "corpus.filter", None),
    ("corpus", None, "preprocess_message", "corpus.preprocess", None),
    ("providers", "HashingEmbedder", "embed", "providers.embed", None),
    ("providers", "MockGenerator", "generate", "providers.generate", None),
    ("retriever", "RetrievalIndex", "build", "retriever.build",
     lambda args, index: sum(len(p) for p in index.partitions.values())),
    ("retriever", "RetrievalIndex", "save", "retriever.save", None),
    ("retriever", "RetrievalIndex", "load", "retriever.load", None),
    ("retriever", "RetrievalIndex", "retrieve", "retriever.retrieve", None),
    ("retriever", "RetrievalIndex", "score_partition", "retriever.score_partition",
     lambda args, candidates: len(candidates)),
    ("retriever", None, "fuse", "retriever.fuse", None),
    ("kernels", None, "bm25_accumulate", "kernels.bm25_accumulate",
     lambda args, _: len(args[0])),
    ("kernels", None, "lcs_length", "kernels.lcs_length", None),
    ("augmenter", "PromptTemplate", "render", "augmenter.render",
     lambda args, prompt: len(prompt)),
    ("metrics", None, "evaluate_corpus", "metrics.evaluate_corpus", None),
    ("metrics", None, "gleu", "metrics.gleu", None),
    ("metrics", None, "rouge_l", "metrics.rouge_l", None),
    ("metrics", None, "meteor", "metrics.meteor", None),
    ("metrics", None, "cider", "metrics.cider", None),
    ("metrics", None, "build_idf", "metrics.build_idf", None),
    ("harness", None, "run_experiment", "harness.run_experiment", None),
    ("harness", None, "sample_subset", "harness.sample_subset", None),
]
_TOKENIZE_USERS = ("tokenizer", "corpus", "retriever", "metrics", "harness", "providers")
PROCESS_COUNTER = "subprocess.popen"


def instrument(tracer: Tracer) -> None:
    """Patch every entry point to record spans into ``tracer``."""
    for mod_name, cls_name, attr, span, size in _ENTRY_POINTS:
        try:
            module = importlib.import_module(f"coracmg.{mod_name}")
        except ImportError:
            continue
        owner = getattr(module, cls_name) if cls_name else module
        if hasattr(owner, attr):
            tracer.wrap(owner, attr, span, size)
    chars = lambda args, _: len(args[0])  # noqa: E731
    for mod_name in _TOKENIZE_USERS:
        module = importlib.import_module(f"coracmg.{mod_name}")
        if hasattr(module, "tokenize"):
            tracer.wrap(module, "tokenize", "tokenizer.tokenize", chars)
    tracer.count_processes(PROCESS_COUNTER)


# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "corpus.ingest.s": "s",
    "corpus.ingest.commits": "count",
    "corpus.ingest.git_procs_per_commit": "ratio",
    "diffs.parse_diff.s": "s",
    "corpus.filter.s": "s",
    "corpus.filter.retained_ratio": "ratio",
    "tokenizer.tokenize.s": "s",
    "tokenizer.tokenize.calls": "count",
    "tokenizer.tokenize.chars": "count",
    "providers.embed.s": "s",
    "providers.embed.calls": "count",
    "providers.generate.s": "s",
    "providers.generate.calls": "count",
    "retriever.build.s": "s",
    "retriever.build.docs_per_s": "1/s",
    "retriever.save.s": "s",
    "retriever.load.s": "s",
    "retriever.index_bytes": "bytes",
    "retriever.retrieve.calls": "count",
    "retriever.retrieve.ms_p50": "ms",
    "retriever.retrieve.ms_p90": "ms",
    "retriever.retrieve.self_s": "s",
    "retriever.score_partition.s": "s",
    "retriever.fuse.s": "s",
    "retriever.candidates_per_query": "count",
    "kernels.bm25_accumulate.s": "s",
    "kernels.bm25_accumulate.postings_per_query": "count",
    "augmenter.render.s": "s",
    "augmenter.render.calls": "count",
    "augmenter.prompt_chars_p50": "count",
    "metrics.gleu.s": "s",
    "metrics.rouge_l.s": "s",
    "kernels.lcs_length.s": "s",
    "metrics.meteor.s": "s",
    "metrics.meteor.ms_p50": "ms",
    "metrics.meteor.top1pct_share": "ratio",
    "metrics.cider.s": "s",
    "metrics.build_idf.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.sample_subset.s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values from one traced pass; ``counts`` holds workload counts."""
    commits = counts.get("corpus.ingest.commits", 0)
    filtered = counts.get("corpus.filter.input", 0)
    queries = len(t.durations("retriever.score_partition"))
    retrieve_ms = [1000 * d for d in t.durations("retriever.retrieve")]
    meteor = sorted(t.durations("metrics.meteor"), reverse=True)
    top = meteor[: max(1, len(meteor) // 100)]
    return {
        "corpus.ingest.s": t.total("corpus.ingest"),
        "corpus.ingest.commits": commits,
        "corpus.ingest.git_procs_per_commit": _ratio(t.counts.get(PROCESS_COUNTER, 0), commits),
        "diffs.parse_diff.s": t.total("diffs.parse_diff"),
        "corpus.filter.s": t.total("corpus.filter"),
        "corpus.filter.retained_ratio": _ratio(counts.get("corpus.filter.retained", 0), filtered),
        "tokenizer.tokenize.s": t.total("tokenizer.tokenize"),
        "tokenizer.tokenize.calls": len(t.durations("tokenizer.tokenize")),
        "tokenizer.tokenize.chars": sum(t.sizes("tokenizer.tokenize")),
        "providers.embed.s": t.total("providers.embed"),
        "providers.embed.calls": len(t.durations("providers.embed")),
        "providers.generate.s": t.total("providers.generate"),
        "providers.generate.calls": len(t.durations("providers.generate")),
        "retriever.build.s": t.total("retriever.build"),
        "retriever.build.docs_per_s": _ratio(
            sum(t.sizes("retriever.build")), t.total("retriever.build")
        ),
        "retriever.save.s": t.total("retriever.save"),
        "retriever.load.s": t.total("retriever.load"),
        "retriever.index_bytes": counts.get("retriever.index_bytes", 0),
        "retriever.retrieve.calls": len(retrieve_ms),
        "retriever.retrieve.ms_p50": _quantile(retrieve_ms, 0.5),
        "retriever.retrieve.ms_p90": _quantile(retrieve_ms, 0.9),
        "retriever.retrieve.self_s": t.self_time("retriever.retrieve"),
        "retriever.score_partition.s": t.total("retriever.score_partition"),
        "retriever.fuse.s": t.total("retriever.fuse"),
        "retriever.candidates_per_query": _ratio(
            sum(t.sizes("retriever.score_partition")), queries
        ),
        "kernels.bm25_accumulate.s": t.total("kernels.bm25_accumulate"),
        "kernels.bm25_accumulate.postings_per_query": _ratio(
            sum(t.sizes("kernels.bm25_accumulate")), queries
        ),
        "augmenter.render.s": t.total("augmenter.render"),
        "augmenter.render.calls": len(t.durations("augmenter.render")),
        "augmenter.prompt_chars_p50": _quantile(t.sizes("augmenter.render"), 0.5),
        "metrics.gleu.s": t.total("metrics.gleu"),
        "metrics.rouge_l.s": t.total("metrics.rouge_l"),
        "kernels.lcs_length.s": t.total("kernels.lcs_length"),
        "metrics.meteor.s": sum(meteor),
        "metrics.meteor.ms_p50": 1000 * _quantile(meteor, 0.5),
        "metrics.meteor.top1pct_share": _ratio(sum(top), sum(meteor)),
        "metrics.cider.s": t.total("metrics.cider"),
        "metrics.build_idf.s": t.total("metrics.build_idf"),
        "harness.run_experiment.self_s": t.self_time("harness.run_experiment"),
        "harness.sample_subset.s": t.total("harness.sample_subset"),
    }
    return out

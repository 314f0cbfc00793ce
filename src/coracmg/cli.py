"""Command-line interface.

Pipeline commands: ingest -> filter -> stats -> index -> retrieve ->
experiment -> report, plus the tokenize/evaluate utilities and the one-shot
developer-facing suggest command.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus as corpus_mod
from . import harness, metrics, providers
from .augmenter import DEFAULT_MAX_PROMPT_CHARS, PromptTemplate
from .diffs import read_corpus, read_jsonl, write_jsonl
from .errors import ConfigError, CoracmgError, EmptyCorpus, InvalidInput, read_text
from .providers import GenerationClient, HashingEmbedder, ProviderConfig, query_embedder
from .retriever import RetrievalIndex, query_terms
from .tokenizer import tokenize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coracmg")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="mine commit records from a git clone")
    ingest.add_argument("--repo", required=True, help="path to a local git repository")
    ingest.add_argument("--branch", required=True)
    ingest.add_argument("--since", required=True, help="cutoff date, e.g. 2015-01-01")
    ingest.add_argument("--out", required=True)
    ingest.add_argument("--repo-name", help="override the owner/name detected from origin")

    filt = sub.add_parser("filter", help="preprocess messages and apply filters R1-R5")
    filt.add_argument("--in", dest="input", required=True)
    filt.add_argument("--out", required=True)
    filt.add_argument("--report", required=True)
    filt.add_argument(
        "--r2-mode",
        choices=["raw", "changed"],
        default="raw",
        help="count raw diff lines (default) or only added+deleted lines",
    )

    stats = sub.add_parser("stats", help="token-length and change-size statistics")
    stats.add_argument("--in", dest="input", required=True)

    tok = sub.add_parser("tokenize", help="print code-aware tokenizer output")
    tok.add_argument("--text", required=True)

    ev = sub.add_parser("evaluate", help="score hypotheses against references")
    ev.add_argument("--hyp", required=True, help="jsonl with a 'message' or 'generated' field")
    ev.add_argument("--ref", required=True, help="jsonl with a 'message' or 'reference' field")
    ev.add_argument("--out", required=True)

    idx = sub.add_parser("index", help="build the hybrid retrieval index")
    idx.add_argument("--in", dest="input", required=True)
    idx.add_argument("--out", required=True)
    idx.add_argument("--provider-config", default=None, help="embed with this provider")
    idx.add_argument(
        "--dimension",
        type=int,
        help=f"hashing embedder size (default {providers.DEFAULT_DIMENSION})",
    )
    idx.add_argument("--cache-dir", default=None, help="embedding cache (default <in>.embed_cache)")

    ret = sub.add_parser("retrieve", help="query the index for example pairs")
    ret.add_argument("--index", required=True)
    ret.add_argument("--query-diff", required=True, help="file containing the query diff")
    ret.add_argument("--repo", required=True)
    ret.add_argument("-k", type=int, default=3)
    ret.add_argument("--exclude-sha", default=None)
    ret.add_argument("--show-diff", action="store_true")
    ret.add_argument(
        "--provider-config",
        default=None,
        help="required when the index was built with a provider embedder",
    )

    exp = sub.add_parser("experiment", help="run a full experiment from a config file")
    exp.add_argument("--config", required=True)
    exp.add_argument(
        "--sweep-k",
        default=None,
        help="comma-separated k values; runs the rag method once per k",
    )

    sug = sub.add_parser("suggest", help="one-shot commit message suggestion")
    sug.add_argument("--repo", required=True)
    sug.add_argument("--diff", required=True, help="file containing the diff to describe")
    sug.add_argument("-k", type=int, default=1)
    sug.add_argument("--branch", default="HEAD")
    sug.add_argument("--since", default="1970-01-01")
    sug.add_argument("--provider-config", default=None, help="use a generation provider")
    sug.add_argument("--template", default=None)
    sug.add_argument("--max-prompt-chars", type=int, default=DEFAULT_MAX_PROMPT_CHARS)
    sug.add_argument("--verbose", action="store_true")

    rep = sub.add_parser("report", help="comparison table across experiment runs")
    rep.add_argument("--in", dest="input", required=True)
    rep.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args) -> int:
    records = corpus_mod.ingest_repo(
        args.repo, args.branch, args.since, repo_name=args.repo_name
    )
    count = write_jsonl(args.out, records)
    print(f"wrote {count} commit records to {args.out}")
    return 0


def _cmd_filter(args) -> int:
    records = [
        replace(rec, message=corpus_mod.preprocess_message(rec.message))
        for rec in read_jsonl(args.input)
    ]
    retained, report = corpus_mod.apply_filters(records, line_mode=args.r2_mode)
    write_jsonl(args.out, retained)
    Path(args.report).write_text(
        json.dumps(report.to_dict(), indent=2), encoding="utf-8"
    )
    print(
        f"retained {report.retained_count}/{report.input_count}; "
        + ", ".join(f"{r}={report.rejections[r]}" for r in corpus_mod.RULES)
    )
    return 0


def _cmd_stats(args) -> int:
    stats = corpus_mod.compute_stats(read_corpus(args.input))
    print(json.dumps(stats.to_dict(), indent=2))
    return 0


def _read_query(path: str, k: int) -> str:
    """The query diff of ``retrieve`` or ``suggest``, read once ``-k`` is known to be valid."""
    if k < 1:
        raise ConfigError(f"-k must be at least 1, not {k}")
    return read_text(path, InvalidInput)


def _cmd_tokenize(args) -> int:
    print(" ".join(tokenize(args.text)))
    return 0


def _read_messages(path: str, keys: tuple[str, ...]) -> list[str]:
    def message(obj) -> str:
        """The value of the first of ``keys`` that ``obj`` holds, which must be a str."""
        for key in keys:
            if isinstance(obj, dict) and key in obj:
                if type(obj[key]) is not str:
                    raise ValueError(f"key {key!r} holds {type(obj[key]).__name__}, not str")
                return obj[key]
        raise ValueError(f"has none of the keys {', '.join(keys)}")

    return list(read_jsonl(path, message))


def _cmd_evaluate(args) -> int:
    hyps = _read_messages(args.hyp, ("message", "generated"))
    refs = _read_messages(args.ref, ("message", "reference"))
    if len(hyps) != len(refs):
        raise InvalidInput(
            f"{args.hyp} has {len(hyps)} hypotheses but {args.ref} has {len(refs)} references"
        )
    report = metrics.evaluate_corpus(list(zip(hyps, refs)))
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
    print(_summary(report.means()))
    return 0


def _summary(means: dict) -> str:
    return " ".join(f"{key}={means[key]:.2f}" for key, _ in metrics.METRICS)


def _cmd_index(args) -> int:
    if args.provider_config:
        if args.dimension is not None:
            raise ConfigError("--dimension sizes the hashing embedder, not a provider's")
        cache = providers.embed_cache_dir(args.input, args.cache_dir)
        embedder = ProviderConfig.from_file(args.provider_config).embedder(cache)
    elif args.dimension is not None and args.dimension < 1:
        raise ConfigError(f"--dimension must be at least 1, not {args.dimension}")
    else:
        embedder = HashingEmbedder() if args.dimension is None else HashingEmbedder(args.dimension)
    index = RetrievalIndex.build(read_corpus(args.input), embedder)
    index.save(args.out)
    total = sum(len(p) for p in index.partitions.values())
    print(f"indexed {total} documents across {len(index.partitions)} projects into {args.out}")
    return 0


def _cmd_retrieve(args) -> int:
    query = _read_query(args.query_diff, args.k)
    index = RetrievalIndex.load(args.index)
    pc = ProviderConfig.from_file(args.provider_config) if args.provider_config else None
    embedder = query_embedder(index.embedder_id, index.dimension, pc)
    pairs = index.retrieve(
        query, args.k, args.repo, exclude_sha=args.exclude_sha, embedder=embedder
    )
    out = []
    for pair in pairs:
        item = {
            "sha": pair.handle.sha,
            "repo_full_name": pair.handle.repo_full_name,
            "hybrid_score": pair.hybrid_score,
            "message": pair.message,
        }
        if args.show_diff:
            item["diff"] = pair.diff
        out.append(item)
    print(json.dumps(out, indent=2, ensure_ascii=False))
    return 0


def _cmd_experiment(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config)
    if args.sweep_k:
        try:
            ks = [int(v) for v in args.sweep_k.split(",")]
        except ValueError:
            raise ConfigError(f"--sweep-k {args.sweep_k!r} is not a list of integers") from None
        results = harness.run_k_sweep(config, ks)
    else:
        results = [harness.run_experiment(config)]
    for result in results:
        failed = result.manifest["failed_count"]
        print(f"{result.label}: {_summary(result.manifest['metrics'])} ({failed} failures)")
    return 0


def _cmd_suggest(args) -> int:
    if args.max_prompt_chars < 1:
        raise ConfigError(f"--max-prompt-chars must be at least 1, not {args.max_prompt_chars}")
    query = _read_query(args.diff, args.k)
    query_terms(query)  # a query without a token is an error before any git process
    template = PromptTemplate.from_file(args.template) if args.template else None
    raw = [
        replace(rec, message=corpus_mod.preprocess_message(rec.message))
        for rec in corpus_mod.ingest_repo(args.repo, args.branch, args.since)
    ]
    retained, _ = corpus_mod.apply_filters(raw)
    if not retained:
        raise EmptyCorpus(
            f"no commit of {args.repo} on {args.branch} since {args.since} "
            "passes the corpus filters; cannot suggest"
        )
    embedder = HashingEmbedder()
    index = RetrievalIndex.build(retained, embedder)
    repo_name = retained[0].repo_full_name
    pairs = index.retrieve(query, args.k, repo_name, embedder=embedder)
    if args.verbose:
        for pair in pairs:
            print(f"  [{pair.hybrid_score:.3f}] {pair.handle.sha[:10]} {pair.message}")
    if args.provider_config:
        pc = ProviderConfig.from_file(args.provider_config)
        client = GenerationClient(pc.gen)
        template = template or PromptTemplate.default()
        kept = template.fit(query, pairs, args.max_prompt_chars)
        print(client.generate(template.render(query, kept), kept))
    else:
        # Offline default: the retrieval-copy baseline.
        print(pairs[0].message)
    return 0


def _cmd_report(args) -> int:
    # A run directory holds results.jsonl; an index directory has a manifest.json too.
    run_dirs = sorted({p.parent for p in Path(args.input).rglob("results.jsonl")})
    if not run_dirs:
        raise InvalidInput(f"no experiment runs (results.jsonl) found under {args.input}")
    results = [harness.ExperimentResult.load(d) for d in run_dirs]
    table = harness.render_report(results)
    Path(args.out).write_text(table, encoding="utf-8")
    print(f"wrote comparison of {len(results)} runs to {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "filter": _cmd_filter,
    "stats": _cmd_stats,
    "tokenize": _cmd_tokenize,
    "evaluate": _cmd_evaluate,
    "index": _cmd_index,
    "retrieve": _cmd_retrieve,
    "experiment": _cmd_experiment,
    "suggest": _cmd_suggest,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CoracmgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an output path under a missing directory or a file
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

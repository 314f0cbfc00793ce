"""The three workloads: set-up, one timed pass, and the output checks.

``rag-k3``      read path: reopen a saved 10k-document index and answer a
                query (``coracmg retrieve``), then a rag k=3 experiment
                with the echo mock (``coracmg experiment``).
``score``       metric path, no retrieval: ``evaluate_corpus`` over message
                pairs (``coracmg evaluate``).
``cold-start``  write path of ``coracmg suggest``: ingest a git fixture,
                preprocess, filter, build, save, load, retrieve once.

A pass returns the workload's two timings: ``answer_s`` (the one-shot
command's time to its answer) and ``items_per_s`` (units of work per
second).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import time
from dataclasses import replace
from pathlib import Path

import inputs
from coracmg import corpus, harness, metrics
from coracmg.diffs import write_jsonl
from coracmg.providers import HashingEmbedder
from coracmg.retriever import RetrievalIndex
from coracmg.tokenizer import tokenize
from helpers import make_diff, synthetic_corpus
from oracles import (
    oracle_cider,
    oracle_gleu,
    oracle_idf,
    oracle_meteor,
    oracle_rank,
    oracle_rouge_l,
)

K = 3
DIMENSION = 256
WORKERS = min(2, len(os.sched_getaffinity(0)))


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _top_k_matches_oracle(records, query_diff, query_sha, repo, got_shas, embedder) -> bool:
    """Exhaustive ranking of ``repo``'s partition from freshly embedded documents."""
    docs = [
        {
            "sha": r.sha,
            "date": r.date,
            "diff": r.diff,
            "tokens": tokenize(r.diff),
            "vector": [float(v) for v in embedder.embed(r.diff)],
        }
        for r in records
        if r.repo_full_name == repo
    ]
    qvec = [float(v) for v in embedder.embed(query_diff)]
    ranked = oracle_rank(docs, tokenize(query_diff), qvec, exclude_sha=query_sha)
    expected = [d["sha"] for d in ranked if d["diff"] != query_diff][:K]
    return expected == got_shas


class RagK3:
    """Set-up builds and saves the index; a pass reopens it and runs an experiment."""

    SUBSET = 24
    ORACLE_QUERIES = 2
    REOPENS = 3  # a reopen is short; a pass reports the mean of three

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.corpus = work / "corpus.jsonl"
        self.index_dir = work / "index"
        self.out_dir = work / "run"

    def setup(self) -> dict:
        self.records = synthetic_corpus(4, 2500, seed=self.seed)
        write_jsonl(self.corpus, self.records)
        index = RetrievalIndex.build(self.records, HashingEmbedder(DIMENSION))
        index.save(self.index_dir)
        self.query = random.Random(self.seed).choice(self.records)
        return {"retriever.index_bytes": _dir_bytes(self.index_dir)}

    def run(self, span) -> dict:
        q = self.query
        answers, reopen_s = set(), []
        for _ in range(self.REOPENS):
            started = time.perf_counter()
            index = RetrievalIndex.load(self.index_dir)
            pairs = index.retrieve(
                q.diff, K, q.repo_full_name, exclude_sha=q.sha,
                embedder=HashingEmbedder(index.dimension),
            )
            reopen_s.append(time.perf_counter() - started)
            answers.add(tuple(p.handle.sha for p in pairs))
            del index
            gc.collect()
        config = harness.ExperimentConfig(
            corpus=str(self.corpus),
            out_dir=str(self.out_dir),
            method="rag",
            k=K,
            subset_size=self.SUBSET,
            seed=self.seed,
            generator="echo-mock",
            index=str(self.index_dir),
            workers=WORKERS,
        )
        started = time.perf_counter()
        result = harness.run_experiment(config)
        run_s = time.perf_counter() - started
        failed = sum(1 for row in result.rows if row["status"] != "ok")
        return {
            "answer_s": sum(reopen_s) / len(reopen_s),
            "items_per_s": len(result.rows) / run_s,
            "attempted": len(result.rows) + self.REOPENS,
            "failed": failed,
            "output": (
                sorted(answers),
                hashlib.sha256((self.out_dir / "results.jsonl").read_bytes()).hexdigest(),
            ),
            "rows": result.rows,
            "counts": {},
        }

    def check(self, passes: list[dict]) -> dict:
        outputs = {json.dumps(p["output"]) for p in passes}
        require(len(outputs) == 1, "results.jsonl or the reopen answer differ between passes")
        answers, _ = passes[0]["output"]
        require(len(answers) == 1, "reopen answers differ within a pass")
        answer = list(answers[0])
        embedder = HashingEmbedder(DIMENSION)
        q = self.query
        require(
            _top_k_matches_oracle(self.records, q.diff, q.sha, q.repo_full_name, answer, embedder),
            f"reopen answer for {q.sha} differs from oracle_rank",
        )
        rows = [r for r in passes[0]["rows"] if r["status"] == "ok"]
        for row in random.Random(self.seed + 1).sample(rows, min(self.ORACLE_QUERIES, len(rows))):
            record = next(r for r in self.records if r.sha == row["sha"])
            got = [item["sha"] for item in row["retrieved"]]
            require(
                _top_k_matches_oracle(
                    self.records, record.diff, record.sha, record.repo_full_name, got, embedder
                ),
                f"experiment row {row['sha']} top-{K} differs from oracle_rank",
            )
        return {"results_sha256": passes[0]["output"][1], "oracle_queries": 1 + self.ORACLE_QUERIES}


def _alignments(hyp: list[str], ref: list[str]) -> int:
    """How many alignments ``oracle_align`` enumerates for this pair."""
    total = 1
    for tok in set(hyp) & set(ref):
        h, r = hyp.count(tok), ref.count(tok)
        m = min(h, r)
        total *= math.comb(h, m) * math.perm(r, m)
    return total


class Score:
    """Set-up renders the seeded message pairs; a pass scores them all."""

    ORACLE_ALIGNMENT_LIMIT = 2000
    TOLERANCE = 1e-9

    def __init__(self, work: Path, seed: int):
        self.seed = seed

    def setup(self) -> dict:
        self.pairs = [(h, r) for _, h, r in inputs.message_pairs(self.seed)]
        return {}

    def run(self, span) -> dict:
        started = time.perf_counter()
        report = metrics.evaluate_corpus(self.pairs)
        wall = time.perf_counter() - started
        return {
            "answer_s": wall,
            "items_per_s": len(self.pairs) / wall,
            "attempted": len(self.pairs),
            "failed": 0,
            "output": [s.to_dict() for s in report.per_sample],
            "counts": {},
        }

    def check(self, passes: list[dict]) -> dict:
        outputs = {json.dumps(p["output"]) for p in passes}
        require(len(outputs) == 1, "per-pair scores differ between passes")
        self._check_vocabulary()
        scores = passes[0]["output"]
        tokenized = [(tokenize(h), tokenize(r)) for h, r in self.pairs]
        weights, n_docs = oracle_idf([r for _, r in tokenized])
        skipped = 0
        for (hyp, ref), got in zip(tokenized, scores):
            expected = {
                "bleu": 100.0 * oracle_gleu(hyp, ref),
                "rouge_l": 100.0 * oracle_rouge_l(hyp, ref),
                "cider": oracle_cider(hyp, ref, weights, n_docs),
            }
            if _alignments(hyp, ref) <= self.ORACLE_ALIGNMENT_LIMIT:
                expected["meteor"] = 100.0 * oracle_meteor(hyp, ref)
            else:
                skipped += 1
            for name, value in expected.items():
                require(
                    abs(got[name] - value) <= self.TOLERANCE,
                    f"{name} {got[name]!r} != oracle {value!r} for {hyp} / {ref}",
                )
        return {"pairs": len(self.pairs), "meteor_not_enumerable": skipped}

    def _check_vocabulary(self) -> None:
        # The seeded permutation keeps the token pattern only under these two rules.
        owner: dict[str, str] = {}
        for cls, pool in inputs.VOCAB.items():
            require(
                len({len(tokenize(w)) for w in pool}) == 1,
                f"vocabulary class {cls} mixes token counts",
            )
            for word in pool:
                for tok in tokenize(word):
                    if tok.isalnum():
                        require(owner.setdefault(tok, word) == word, f"token {tok!r} is shared")


class ColdStart:
    """Set-up imports the seeded git fixture; a pass runs the suggest path on it."""

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.repo = work / "fixture"
        self.index_dir = work / "index"

    def setup(self) -> dict:
        shutil.rmtree(self.repo, ignore_errors=True)
        stream = inputs.fixture_stream(self.seed)
        subprocess.run(["git", "init", "-q", "-b", "main", str(self.repo)], check=True)
        subprocess.run(
            ["git", "-C", str(self.repo), "fast-import", "--quiet"], input=stream, check=True
        )
        rng = random.Random(self.seed)
        self.query = make_diff(
            path=f"src/mod0_0{inputs.LANG_EXTS[0]}",
            added=[inputs.code_line(rng) for _ in range(8)],
            deleted=[inputs.code_line(rng) for _ in range(3)],
            context=[inputs.code_line(rng) for _ in range(3)],
        )
        return {}

    def run(self, span) -> dict:
        started = time.perf_counter()
        with span("corpus.ingest"):
            raw = list(corpus.ingest_repo(self.repo, "main", "2000-01-01"))
        records = [replace(r, message=corpus.preprocess_message(r.message)) for r in raw]
        retained, report = corpus.apply_filters(records)
        embedder = HashingEmbedder(DIMENSION)
        RetrievalIndex.build(retained, embedder).save(self.index_dir)
        index = RetrievalIndex.load(self.index_dir)
        pairs = index.retrieve(self.query, K, retained[0].repo_full_name, embedder=embedder)
        wall = time.perf_counter() - started
        counts = {
            "corpus.ingest.commits": len(raw),
            "corpus.filter.input": report.input_count,
            "corpus.filter.retained": report.retained_count,
            "retriever.index_bytes": _dir_bytes(self.index_dir),
        }
        return {
            "answer_s": wall,
            "items_per_s": len(raw) / wall,
            "attempted": len(raw),
            "failed": 0,
            "output": ([p.handle.sha for p in pairs], report.to_dict()),
            "raw": raw,
            "report": report,
            "counts": counts,
        }

    def check(self, passes: list[dict]) -> dict:
        outputs = {json.dumps(p["output"]) for p in passes}
        require(len(outputs) == 1, "suggest output differs between passes")
        raw, report = passes[0]["raw"], passes[0]["report"]
        require(len(raw) == inputs.FIXTURE_COMMITS, f"ingested {len(raw)} commits")
        require(report.reconciles(), f"filter report does not reconcile: {report.to_dict()}")
        require(
            all(n > 0 for n in report.rejections.values()),
            f"a filter rule rejected nothing: {report.to_dict()}",
        )
        require(len(passes[0]["output"][0]) == K, "suggest returned fewer than k pairs")
        files = {f for r in raw for f in r.files}
        require("assets/logo.png" in files, "binary file missing from ingested records")
        require(any(f.startswith("src/moved_") for f in files), "rename missing")
        require(any("\ufffd" in r.message for r in raw), "non-UTF-8 message not decoded")
        require("new file mode" in raw[-1].diff, "root commit diff missing")
        return {"filter": report.to_dict()}


WORKLOADS = {"rag-k3": RagK3, "score": Score, "cold-start": ColdStart}


def check_backends() -> str:
    """Both kernel backends give identical bytes, when the compiled one exists."""
    import numpy as np

    try:
        from coracmg import _fallback, _speedups
    except ImportError:
        return "skipped: compiled extension not built"
    rng = np.random.default_rng(0)
    norm = (0.5 + rng.random(2000)).astype(np.float64)
    pure, compiled = np.zeros(2000), np.zeros(2000)
    for _ in range(50):
        ids = np.sort(rng.choice(2000, size=300, replace=False)).astype(np.int32)
        tfs = rng.integers(1, 9, size=300).astype(np.float64)
        idf = float(rng.random() * 3 + 0.1)
        _fallback.bm25_accumulate(ids, tfs, idf, 2.2, norm, pure)
        _speedups.bm25_accumulate(ids, tfs, idf, 2.2, norm, compiled)
    require(pure.tobytes() == compiled.tobytes(), "bm25_accumulate differs between backends")
    for _ in range(200):
        a = rng.integers(0, 20, size=rng.integers(0, 40)).astype(np.int32)
        b = rng.integers(0, 20, size=rng.integers(0, 40)).astype(np.int32)
        require(
            _fallback.lcs_length(list(a), list(b)) == _speedups.lcs_length(a, b),
            "lcs_length differs between backends",
        )
    return "identical"


def check_names(spec_path: Path, key: str, names) -> None:
    """The metric names printed are the ones BENCHMARK.json lists, in order."""
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        listed = [m["name"] for m in spec[key]]
        require(listed == list(names), f"metric names differ from BENCHMARK.json {key}")

"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import json
import re
import socket
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from coracmg.corpus import apply_filters, ingest_repo
from coracmg.diffs import count_loc, parse_diff, write_jsonl
from coracmg.harness import ExperimentConfig, render_report, run_experiment, run_k_sweep
from coracmg.metrics import build_idf, cider, gleu, meteor, rouge_l
from coracmg.providers import HashingEmbedder
from coracmg.retriever import RetrievalIndex
from coracmg.tokenizer import tokenize
from helpers import git, synthetic_corpus, twin_corpus
from oracles import (
    oracle_cider,
    oracle_gleu,
    oracle_idf,
    oracle_docs,
    oracle_meteor,
    oracle_rank,
    oracle_rouge_l,
)
from test_corpus import _violator_corpus
from test_diffs import _numstat_expected
from test_metrics import random_pair


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"[PASS] {name} ({elapsed:.2f}s < {budget_seconds:.0f}s)")


def test_c1_tokenizer_golden_vectors():
    with criterion("C1 tokenizer golden vectors", 1.0):
        golden = Path(__file__).parent / "data" / "tokenizer_golden.jsonl"
        cases = [json.loads(line) for line in golden.read_text().splitlines() if line]
        assert len(cases) >= 30
        for case in cases:
            assert tokenize(case["text"]) == case["tokens"], case["text"]
        # the five documented behaviors, verbatim
        assert tokenize("bug-fix") == ["bug", "-", "fix"]
        assert tokenize("HttpClient") == ["http", "client"]
        assert tokenize("test_case") == ["test", "_", "case"]
        assert tokenize("handleRequest") == ["handle", "request"]
        assert tokenize("FIX") == tokenize("fix") == ["fix"]


def test_c2_metric_oracle_equivalence():
    with criterion("C2 metric oracle equivalence (>=200 pairs, 1e-9)", 30.0):
        import random

        rng = random.Random(2024)
        pairs = [random_pair(rng) for _ in range(200)]
        refs = [r for _, r in pairs if r]
        table = build_idf(refs)
        weights, n_docs = oracle_idf(refs)
        for hyp, ref in pairs:
            assert abs(gleu(hyp, ref) - oracle_gleu(hyp, ref)) < 1e-9
            assert abs(rouge_l(hyp, ref) - oracle_rouge_l(hyp, ref)) < 1e-9
            assert abs(meteor(hyp, ref) - oracle_meteor(hyp, ref)) < 1e-9
            assert abs(
                cider(hyp, ref, table) - oracle_cider(hyp, ref, weights, n_docs)
            ) < 1e-9
        # identity scores the maximum; disjoint scores zero
        for _ in range(50):
            x = [rng.choice("fix add npe cache".split()) for _ in range(rng.randrange(4, 13))]
            assert gleu(x, x) == 1.0
            assert rouge_l(x, x) == 1.0
            assert meteor(x, x) == pytest.approx(1 - 0.5 * (1 / len(x)) ** 3, abs=1e-12)
            other = ["zzz"] * len(x)
            assert gleu(x, other) == 0.0
            assert rouge_l(x, other) == 0.0
            assert meteor(x, other) == 0.0
            assert cider(x, other, table) == 0.0
        ident = ["fix", "the", "cache", "retry", "logic"]
        assert cider(ident, ident, table) == pytest.approx(100.0, abs=1e-9)


def test_c3_retrieval_matches_bruteforce():
    with criterion("C3 retrieval == brute force on 20 partitions, k in {1,3,5}", 60.0):
        sizes = [1000] + [40 + 17 * i for i in range(19)]
        assert len(sizes) == 20 and max(sizes) <= 1000
        records = []
        for part_idx, size in enumerate(sizes):
            records.extend(
                r.__class__(**{**r.__dict__, "repo_full_name": f"acme/part{part_idx}"})
                for r in synthetic_corpus(1, size, seed=100 + part_idx)
            )
        # reassign unique shas across the whole corpus
        records = [
            r.__class__(**{**r.__dict__, "sha": f"{i:040x}"}) for i, r in enumerate(records)
        ]
        embedder = HashingEmbedder(64)
        index = RetrievalIndex.build(records, embedder)
        assert len(index.partitions) == 20

        by_repo: dict[str, list] = {}
        for rec in records:
            by_repo.setdefault(rec.repo_full_name, []).append(rec)

        for part_idx, (repo, members) in enumerate(sorted(by_repo.items())):
            docs = oracle_docs(index, repo)
            query = members[part_idx % len(members)]
            qvec = [float(v) for v in embedder.embed(query.diff)]
            expected = oracle_rank(docs, tokenize(query.diff), qvec, exclude_sha=query.sha)
            expected = [d for d in expected if d["diff"] != query.diff]
            for k in (1, 3, 5):
                got = index.retrieve(
                    query.diff, k, repo, exclude_sha=query.sha, embedder=embedder
                )
                assert [p.handle.sha for p in got] == [d["sha"] for d in expected[:k]], (
                    f"partition {repo} k={k}"
                )
            # leakage guard: query byte-identical to an indexed diff
            victim = members[(part_idx + 1) % len(members)]
            ranked = oracle_rank(docs, tokenize(victim.diff),
                                 [float(v) for v in embedder.embed(victim.diff)])
            ranked_admissible = [d for d in ranked if d["diff"] != victim.diff]
            got = index.retrieve(victim.diff, 1, repo, embedder=embedder)
            assert got[0].handle.sha == ranked_admissible[0]["sha"]
            assert got[0].diff != victim.diff


def test_c4_filter_pipeline():
    with criterion("C4 filter pipeline per-rule counts reconcile", 5.0):
        records = _violator_corpus()
        assert len(records) == 50
        retained, report = apply_filters(records)
        assert report.rejections == {"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": 2}
        assert report.retained_count == 43
        assert report.input_count == 50
        assert report.reconciles()
        again, reapplied = apply_filters(retained)
        assert len(again) == len(retained)
        assert sum(reapplied.rejections.values()) == 0


def test_c5_end_to_end_offline(tmp_path, monkeypatch):
    with criterion("C5 offline experiment: 0 provider calls, twin BLEU=CIDEr=100", 120.0):
        connects = []

        def forbidden(sock, address):
            connects.append(address)
            raise AssertionError("network call attempted during offline run")

        # Any HTTP client reaches the network through a socket connect.
        monkeypatch.setattr(socket.socket, "connect", forbidden)
        monkeypatch.setattr(socket.socket, "connect_ex", forbidden)

        records = twin_corpus(5, 50, seed=77)  # 500 commits, every one has a twin
        assert len(records) == 500
        corpus_path = tmp_path / "twins.jsonl"
        write_jsonl(corpus_path, records)
        index = RetrievalIndex.build(records, HashingEmbedder(64))
        index_dir = tmp_path / "twins.index"
        index.save(index_dir)

        result = run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(tmp_path / "run"),
                method="rag",
                k=1,
                generator="retrieval-copy",
                index=str(index_dir),
                seed=7,
            )
        )
        assert result.manifest["failed_count"] == 0
        assert len(result.rows) == 500
        assert result.manifest["metrics"]["bleu"] == pytest.approx(100.0, abs=1e-9)
        assert result.manifest["metrics"]["cider"] == pytest.approx(100.0, abs=1e-9)
        assert connects == []


def test_c6_determinism(tmp_path):
    with criterion("C6 byte-identical results across identical runs", 120.0):
        records = synthetic_corpus(3, 40, seed=55)
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_path, records)
        index = RetrievalIndex.build(records, HashingEmbedder(64))
        index_dir = tmp_path / "corpus.index"
        index.save(index_dir)

        def run(name):
            run_experiment(
                ExperimentConfig(
                    corpus=str(corpus_path),
                    out_dir=str(tmp_path / name),
                    method="rag",
                    k=3,
                    generator="echo-mock",
                    index=str(index_dir),
                    subset_size=60,
                    seed=123,
                )
            )
            return (tmp_path / name / "results.jsonl").read_bytes()

        assert run("first") == run("second")


def test_c7_paper_scale_substitute(tmp_path):
    # The published LLM score tables and the k-sweep curve depend on
    # proprietary models and the full private corpus; they are not
    # reproducible at desk scale.  The substituted property: the sweep
    # harness runs k=1..5 offline and its report arithmetic is exact.
    with criterion("C7 k-sweep 1..5 emits well-formed series + exact deltas", 120.0):
        records = synthetic_corpus(2, 30, seed=88)
        corpus_path = tmp_path / "corpus.jsonl"
        write_jsonl(corpus_path, records)
        index = RetrievalIndex.build(records, HashingEmbedder(64))
        index_dir = tmp_path / "corpus.index"
        index.save(index_dir)

        sweep = run_k_sweep(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(tmp_path / "sweep"),
                method="rag",
                k=1,
                generator="echo-mock",
                index=str(index_dir),
                subset_size=40,
                seed=11,
            ),
            ks=(1, 2, 3, 4, 5),
        )
        assert [r.manifest["config"]["k"] for r in sweep] == [1, 2, 3, 4, 5]
        direct = run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(tmp_path / "direct"),
                method="direct",
                generator="echo-mock",
                generator_text="update parser cache retry logic",
                subset_size=40,
                seed=11,
            )
        )
        report = render_report([direct] + sweep)
        series_rows = [
            line for line in report.splitlines() if re.match(r"\| [1-5] \|", line)
        ]
        assert len(series_rows) == 5  # the five-point series
        base = direct.manifest["metrics"]
        keys = ("bleu", "rouge_l", "meteor", "cider")
        checked = 0
        for line in report.splitlines():
            m = re.match(r"\| rag-k(\d)-echo-mock \|", line)
            if not m:
                continue
            k = int(m.group(1))
            cells = [c.strip() for c in line.split("|")[2:-1]]
            enhanced = sweep[k - 1].manifest["metrics"]
            for key, cell in zip(keys, cells):
                arrow = re.match(r"[\d.]+ \((↑|↓)(\d+)%\)", cell)
                assert arrow, cell
                got = int(arrow.group(2)) * (1 if arrow.group(1) == "↑" else -1)
                assert got == round(100 * (enhanced[key] - base[key]) / base[key])
                checked += 1
        assert checked == 20  # 5 runs x 4 metrics


def test_c8_diff_parser_vs_git(numstat_repo):
    with criterion("C8 diff parser matches git --numstat on 25 fixtures", 60.0):
        shas = git(numstat_repo, "log", "--format=%H").split()
        assert len(shas) == 25
        for sha in shas:
            diff = git(numstat_repo, "show", sha, "--no-color", "--format=")
            parsed = parse_diff(diff)
            expected = _numstat_expected(numstat_repo, sha)
            got = {fc.path: (fc.added, fc.deleted) for fc in parsed.file_changes}
            assert set(got) == set(expected)
            for path, (added, deleted) in expected.items():
                if added is None:
                    assert got[path] == (0, 0)
                else:
                    assert got[path] == (added, deleted)
        # loc invariant corpus-wide over real mined records
        for rec in ingest_repo(numstat_repo, "main", "1970-01-01"):
            assert rec.loc == count_loc(parse_diff(rec.diff))
            assert set(rec.files) == set(parse_diff(rec.diff).files)

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import re
import threading
import time

import pytest

from coracmg import diffs, harness
from coracmg.augmenter import PromptTemplate
from coracmg.diffs import read_corpus, write_jsonl
from coracmg.errors import ConfigError, CorpusTooSmall, InvalidInput, ManifestMismatch
from coracmg.harness import (
    ExperimentConfig,
    ExperimentResult,
    render_report,
    run_experiment,
    run_k_sweep,
    sample_subset,
)
from coracmg.providers import EmbeddingClient, HashingEmbedder
from coracmg.retriever import RetrievalIndex
from fake_provider import Reply
from helpers import make_diff, make_record, synthetic_corpus, twin_corpus
from oracles import oracle_docs, oracle_rank, record_languages, reference_sample_subset


def _materialize(tmp_path, records, name="corpus"):
    corpus_path = tmp_path / f"{name}.jsonl"
    write_jsonl(corpus_path, records)
    embedder = HashingEmbedder(64)
    index = RetrievalIndex.build(records, embedder)
    index_dir = tmp_path / f"{name}.index"
    index.save(index_dir)
    return corpus_path, index_dir


# -- sampling ----------------------------------------------------------------


def test_sample_whole_corpus():
    records = synthetic_corpus(2, 10)
    assert sample_subset(records, len(records), seed=1) == records


def test_sample_deterministic():
    records = synthetic_corpus(3, 20)
    a = sample_subset(records, 12, seed=7)
    b = sample_subset(records, 12, seed=7)
    c = sample_subset(records, 12, seed=8)
    assert a == b
    assert [r.sha for r in a] != [r.sha for r in c]


def test_sample_covers_all_languages():
    exts = [".java", ".cpp", ".scala", ".ts", ".py", ".lua", ".go", ".rs", ".erl"]
    records = []
    for i, ext in enumerate(exts * 6):
        records.append(make_record(i, path=f"src/m{i}{ext}", message=f"edit module {i} for clarity please"))
    subset = sample_subset(records, 20, seed=3)
    covered = set()
    for rec in subset:
        covered |= record_languages(rec)
    assert len(covered) == 9


def test_sample_too_small():
    records = synthetic_corpus(1, 5)
    with pytest.raises(CorpusTooSmall, match="^requested 6 records from a corpus of 5$"):
        sample_subset(records, 6, seed=0)
    with pytest.raises(CorpusTooSmall, match="^3 records cannot cover the 4 languages in the corpus$"):
        sample_subset(records, 3, seed=0)


_LANGUAGE_EXTS = [".java", ".cpp", ".scala", ".ts", ".py", ".lua", ".go", ".rs"]


def _language_corpus(n_langs: int) -> list:
    """Records in ``n_langs`` languages, some with two languages and one with none."""
    exts = _LANGUAGE_EXTS[:n_langs]
    records = synthetic_corpus(2, 30, seed=n_langs, languages=exts)
    for i in range(3):
        first, second = exts[i % n_langs], exts[(i + 1) % n_langs]
        two = make_diff(f"src/a{i}{first}") + make_diff(f"src/b{i}{second}")
        records.insert(7 * i, make_record(100 + i, diff=two))
    return records + [make_record(200, path="README.md")]


def test_sample_subset_picks_what_the_reference_picks():
    for n_langs in range(1, len(_LANGUAGE_EXTS) + 1):
        records = _language_corpus(n_langs)
        assert len(set().union(*map(record_languages, records))) == n_langs
        for n in (n_langs, n_langs + 3, len(records)):
            for seed in range(50):
                assert sample_subset(records, n, seed) == reference_sample_subset(records, n, seed)
        for n in (n_langs - 1, len(records) + 1):  # cannot cover every language; too many
            with pytest.raises(CorpusTooSmall) as got:
                sample_subset(records, n, 0)
            with pytest.raises(CorpusTooSmall) as expected:
                reference_sample_subset(records, n, 0)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_experiment_samples_what_sample_subset_draws_from_read_corpus(tmp_path, seed):
    records = synthetic_corpus(4, 10, seed=seed)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    languages = len(set().union(*map(record_languages, records)))
    assert languages == 5
    for n in (1, languages, 24, len(records), len(records) + 1):
        config = ExperimentConfig(
            corpus=str(corpus_path), out_dir=str(tmp_path / f"n{n}"), subset_size=n, seed=seed
        )
        try:
            expected = sample_subset(read_corpus(corpus_path), n, seed)
        except CorpusTooSmall as exc:
            with pytest.raises(CorpusTooSmall) as got:
                run_experiment(config)
            assert str(got.value) == str(exc)
            continue
        rows = run_experiment(config).rows
        assert [(r["sha"], r["reference"]) for r in rows] == sorted(
            (rec.sha, rec.message) for rec in expected
        )


# -- experiments ---------------------------------------------------------------


def test_manifest_hashes_the_corpus_bytes_the_run_parsed(tmp_path, monkeypatch):
    records = synthetic_corpus(2, 10)
    corpus_path, index_dir = _materialize(tmp_path, records)
    original = corpus_path.read_bytes()
    config = dict(
        corpus=str(corpus_path), method="rag", k=2, subset_size=6, seed=1,
        generator="echo-mock", index=str(index_dir),
    )
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "before"), **config))
    sample = harness.sample_subset

    def rewrite_then_sample(parsed, n, seed):  # the file changes once it has been read
        corpus_path.write_bytes(original[: parsed[-1].start])
        return sample(parsed, n, seed)

    monkeypatch.setattr(harness, "sample_subset", rewrite_then_sample)
    result = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "during"), **config))
    assert corpus_path.read_bytes() != original
    assert result.manifest["corpus_sha256"] == hashlib.sha256(original).hexdigest()
    assert (tmp_path / "during" / "results.jsonl").read_bytes() == (
        tmp_path / "before" / "results.jsonl"
    ).read_bytes()


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(corpus="c", out_dir="o", method="rag")  # k missing
    with pytest.raises(ConfigError):
        ExperimentConfig(corpus="c", out_dir="o", method="direct", k=2)
    with pytest.raises(ConfigError):
        ExperimentConfig(corpus="c", out_dir="o", method="sideways")
    with pytest.raises(ConfigError):
        ExperimentConfig(corpus="c", out_dir="o", generator="gpt9000")
    with pytest.raises(ConfigError, match="needs an index directory"):
        ExperimentConfig(corpus="c", out_dir="o", generator="retrieval-copy")
    with pytest.raises(ConfigError, match="needs an index directory"):
        ExperimentConfig(corpus="c", out_dir="o", method="rag", k=3)
    # A direct echo-mock run, the default, retrieves nothing.
    assert ExperimentConfig(corpus="c", out_dir="o").generator == "echo-mock"
    with pytest.raises(
        ConfigError,
        match="unknown generator 'constant-mock'; choose one of provider, echo-mock, retrieval-copy",
    ):
        ExperimentConfig(corpus="c", out_dir="o", generator="constant-mock")


def test_direct_constant_mock_smoke(tmp_path):
    records = synthetic_corpus(2, 8, seed=21)
    corpus_path, _ = _materialize(tmp_path, records)
    config = ExperimentConfig(
        corpus=str(corpus_path),
        out_dir=str(tmp_path / "run"),
        method="direct",
        generator="echo-mock",
        generator_text="apply the standard fix",
        subset_size=10,
        seed=5,
    )
    result = run_experiment(config)
    assert len(result.rows) == 10
    assert all(r["status"] == "ok" for r in result.rows)
    assert (tmp_path / "run" / "results.jsonl").exists()
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "report.md").exists()
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["method"] == "direct"
    shas = [r["sha"] for r in result.rows]
    assert shas == sorted(shas)
    # A direct prompt keeps no example, so the mock writes its text.
    assert {r["generated"] for r in result.rows} == {"apply the standard fix"}
    assert all(r["retrieved"] == [] for r in result.rows)
    assert manifest["embedder_id"] is None


def _run(config: dict, out_dir) -> tuple[ExperimentResult, bytes]:
    result = run_experiment(ExperimentConfig(**config, out_dir=str(out_dir)))
    return result, (out_dir / "results.jsonl").read_bytes()


def test_direct_and_rag_echo_mock_differ_offline(tmp_path, monkeypatch):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(4, 30, seed=3))
    direct_config = dict(corpus=str(corpus_path), subset_size=40, seed=3)
    rag_config = dict(direct_config, method="rag", k=3, index=str(index_dir))
    rag, rag_bytes = _run(rag_config, tmp_path / "rag")
    copy, copy_bytes = _run(dict(rag_config, generator="retrieval-copy"), tmp_path / "copy")
    assert rag_bytes == copy_bytes  # every prompt kept its strongest example

    def no_index(*args):
        raise AssertionError("a direct echo-mock run loaded an index")

    monkeypatch.setattr(RetrievalIndex, "load", no_index)
    direct, direct_bytes = _run(direct_config, tmp_path / "direct")
    assert direct.manifest["config"]["index"] is None
    assert all(r["retrieved"] == [] and r["generated"] == "update code" for r in direct.rows)
    assert [r["sha"] for r in direct.rows] == [r["sha"] for r in rag.rows]  # one subset
    assert direct_bytes != rag_bytes
    for key in ("bleu", "rouge_l", "meteor", "cider"):
        assert direct.manifest["metrics"][key] != rag.manifest["metrics"][key]


def test_prompt_budget_decides_what_echo_mock_copies(tmp_path, monkeypatch):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 20, seed=3))
    config = dict(
        corpus=str(corpus_path), method="rag", k=3, index=str(index_dir), seed=3,
        generator_text="no example was kept",
    )
    full, _ = _run(config, tmp_path / "full")
    kept_counts = []
    fit = PromptTemplate.fit

    def counting_fit(self, *args):
        kept = fit(self, *args)
        kept_counts.append(len(kept))
        return kept

    monkeypatch.setattr(PromptTemplate, "fit", counting_fit)
    # Below the zero-example prompt: every example is evicted, as in a direct run.
    none, _ = _run(dict(config, max_prompt_chars=10), tmp_path / "none")
    assert set(kept_counts) == {0}
    assert all(len(r["retrieved"]) == 3 for r in none.rows)
    assert {r["generated"] for r in none.rows if r["status"] == "ok"} == {"no example was kept"}
    # Room for one or two of the three: the strongest is still the one copied.
    kept_counts.clear()
    some, _ = _run(dict(config, max_prompt_chars=1_200), tmp_path / "some")
    assert set(kept_counts) == {1, 2}
    assert [r["generated"] for r in some.rows] == [r["generated"] for r in full.rows]
    assert "no example was kept" not in {r["generated"] for r in full.rows}


def test_retrieval_copy_on_twin_corpus_scores_100(tmp_path):
    records = twin_corpus(2, 10, seed=3)
    corpus_path, index_dir = _materialize(tmp_path, records)
    config = ExperimentConfig(
        corpus=str(corpus_path),
        out_dir=str(tmp_path / "run"),
        method="direct",
        generator="retrieval-copy",
        index=str(index_dir),
        seed=1,
    )
    result = run_experiment(config)
    assert all(r["status"] == "ok" for r in result.rows)
    assert result.manifest["metrics"]["bleu"] == pytest.approx(100.0, abs=1e-9)
    assert result.manifest["metrics"]["cider"] == pytest.approx(100.0, abs=1e-9)
    for row in result.rows:
        assert row["generated"] == row["reference"]


def test_retrieval_copy_generate_matches_bruteforce(tmp_path):
    from coracmg.tokenizer import tokenize

    records = synthetic_corpus(1, 60, seed=17)
    embedder = HashingEmbedder(64)
    index = RetrievalIndex.build(records, embedder)
    repo = records[0].repo_full_name
    docs = oracle_docs(index, repo)
    query = records[30]
    got = index.retrieve(query.diff, 1, repo, exclude_sha=query.sha, embedder=embedder)[0].message
    qvec = [float(v) for v in embedder.embed(query.diff)]
    ranked = oracle_rank(docs, tokenize(query.diff), qvec, exclude_sha=query.sha)
    ranked = [d for d in ranked if d["diff"] != query.diff]
    assert got == ranked[0]["message"]


def test_retrieval_copy_skips_identical_top_candidate():
    twin_a = make_record(0, added=["identical body line"])
    twin_b = make_record(1, added=["identical body line"], message="the twin message wins here")
    other = make_record(2, added=["unrelated content entirely"])
    assert twin_a.diff == twin_b.diff
    embedder = HashingEmbedder(64)
    index = RetrievalIndex.build([twin_b, other], embedder)
    # query is byte-identical to twin_b's diff: its pair is skipped and the
    # second-ranked candidate supplies the message
    got = index.retrieve(twin_a.diff, 1, twin_a.repo_full_name, embedder=embedder)[0].message
    assert got == other.message


def test_echo_mock_k1_equals_retrieval_copy(tmp_path):
    records = synthetic_corpus(2, 12, seed=31)
    corpus_path, index_dir = _materialize(tmp_path, records)
    shared = dict(corpus=str(corpus_path), index=str(index_dir), seed=2)
    echo = run_experiment(
        ExperimentConfig(
            out_dir=str(tmp_path / "echo"), method="rag", k=1, generator="echo-mock", **shared
        )
    )
    copy = run_experiment(
        ExperimentConfig(
            out_dir=str(tmp_path / "copy"), method="direct", generator="retrieval-copy", **shared
        )
    )
    for a, b in zip(echo.rows, copy.rows):
        assert a["sha"] == b["sha"]
        assert a["generated"] == b["generated"]


def test_deterministic_results_files(tmp_path):
    records = synthetic_corpus(2, 10, seed=41)
    corpus_path, index_dir = _materialize(tmp_path, records)

    def run(out):
        return run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(tmp_path / out),
                method="rag",
                k=2,
                generator="echo-mock",
                index=str(index_dir),
                subset_size=15,
                seed=99,
            )
        )

    run("one")
    run("two")
    a = (tmp_path / "one" / "results.jsonl").read_bytes()
    b = (tmp_path / "two" / "results.jsonl").read_bytes()
    assert a == b


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_second_run_on_the_same_corpus_writes_the_rows_a_full_read_writes(
    tmp_path, monkeypatch, seed
):
    for n in (1, 5, 24, 0):
        monkeypatch.setattr(diffs, "_checked", ("", []))
        work = tmp_path / f"n{n}"
        work.mkdir()
        # One subset commit covers one language only.
        records = synthetic_corpus(4, 10, seed=seed, languages=[".py"] if n == 1 else None)
        corpus_path, index_dir = _materialize(work, records)
        config = dict(
            corpus=str(corpus_path), method="rag", k=3, index=str(index_dir),
            subset_size=n, seed=seed,
        )
        cold, cold_bytes = _run(config, work / "cold")
        warm, warm_bytes = _run(config, work / "warm")
        assert [r.manifest["corpus_lines"] for r in (cold, warm)] == ["parsed", "cached"]
        assert warm_bytes == cold_bytes
        assert len(warm.rows) == (n or len(records))
        assert warm.manifest["corpus_sha256"] == cold.manifest["corpus_sha256"]
        assert sorted(p.name for p in work.iterdir()) == [  # nothing is written beside the corpus
            "cold", "corpus.index", "corpus.jsonl", "warm",
        ]


def test_runtime_seconds_is_not_moved_by_a_wall_clock_step(tmp_path, monkeypatch):
    corpus_path, _ = _materialize(tmp_path, synthetic_corpus(2, 4, seed=7))
    clock = iter(range(10**6, 0, -3600))  # the wall clock goes back an hour at each read
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    result, _ = _run(dict(corpus=str(corpus_path), seed=7), tmp_path / "run")
    assert 0 <= result.manifest["runtime_seconds"] < 3600


def test_manifest_counts_the_examples_rows_went_without(tmp_path):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 4, seed=7))
    config = dict(corpus=str(corpus_path), method="rag", index=str(index_dir), seed=7)
    full, _ = _run(dict(config, k=3), tmp_path / "full")
    starved, _ = _run(dict(config, k=3, max_prompt_chars=10), tmp_path / "starved")
    short, _ = _run(dict(config, k=4), tmp_path / "short")  # a project holds 3 other commits
    counts = [
        (r.manifest["ok_count"], r.manifest["short_retrieval_count"],
         r.manifest["dropped_examples_count"])
        for r in (full, starved, short)
    ]
    assert counts == [(8, 0, 0), (8, 0, 8), (8, 8, 0)]
    # The counts stay out of the rows, which a manifest without them still reports.
    assert {key for row in full.rows for key in row} == {
        "sha", "repo_full_name", "reference", "generated", "retrieved", "scores", "status",
    }
    manifest_path = tmp_path / "full" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for key in ("corpus_lines", "short_retrieval_count", "dropped_examples_count"):
        del manifest[key]
    manifest_path.write_text(json.dumps(manifest))
    loaded = ExperimentResult.load(tmp_path / "full")
    assert loaded.rows == full.rows
    assert render_report([loaded]) == render_report([full])


def test_failures_recorded_not_fatal(tmp_path):
    # A repo with a single commit cannot retrieve anything once its own
    # sha is excluded; that row fails, the run keeps going.
    records = synthetic_corpus(1, 6, seed=51)
    lonely = make_record(999, repo="acme/lonely", message="the only commit in this repo")
    records.append(lonely)
    corpus_path, index_dir = _materialize(tmp_path, records)
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="rag",
            k=1,
            generator="echo-mock",
            index=str(index_dir),
            seed=1,
        )
    )
    by_sha = {r["sha"]: r for r in result.rows}
    assert by_sha[lonely.sha]["status"].startswith("error:")
    assert result.manifest["failed_count"] == 1
    ok = [r for r in result.rows if r["status"] == "ok"]
    assert len(ok) == 6
    assert all(r["scores"] is not None for r in ok)

    # The run's report.md shows its label, seed, commits, failures and means.
    keys = ("bleu", "rouge_l", "meteor", "cider")
    report = (tmp_path / "run" / "report.md").read_text()
    assert "- seed: 1\n" in report
    assert "| Run | BLEU | Rouge-L | METEOR | CIDEr | Commits (failed) |" in report
    means = result.manifest["metrics"]
    cells = _report_cells(report, "rag-k1-echo-mock")
    assert cells == [f"{means[k]:.2f}" for k in keys] + ["7 (1)"]

    # Compared with a run that failed nowhere, each run shows its own count.
    direct = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "direct"),
            method="direct",
            generator="echo-mock",
            seed=1,
        )
    )
    assert direct.manifest["failed_count"] == 0
    both = render_report([result, direct])
    assert _report_cells(both, "direct-echo-mock")[-1] == "7 (0)"
    assert _report_cells(both, "rag-k1-echo-mock")[-1] == "7 (1)"


def _report_cells(report: str, label: str) -> list[str]:
    """The cells after the label in the one table row of run ``label``."""
    (row,) = [line for line in report.splitlines() if line.startswith(f"| {label} |")]
    return [cell.strip() for cell in row.split("|")[2:-1]]


def test_scope_audit(tmp_path):
    records = synthetic_corpus(3, 8, seed=61)
    corpus_path, index_dir = _materialize(tmp_path, records)
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="rag",
            k=3,
            generator="echo-mock",
            index=str(index_dir),
            seed=1,
        )
    )
    for row in result.rows:
        for handle in row["retrieved"]:
            assert handle["repo_full_name"] == row["repo_full_name"]
            assert handle["sha"] != row["sha"]


def test_custom_template_flows_through(tmp_path):
    records = synthetic_corpus(1, 6, seed=111)
    corpus_path, index_dir = _materialize(tmp_path, records)
    template = tmp_path / "tpl.txt"
    template.write_text(
        "CUSTOM PREAMBLE MARKER\n"
        "{{#examples}}\n"
        "EX: {{retrieved_diff}} -> {{retrieved_msg}}\n"
        "{{/examples}}\n"
        "QUERY: {{query_diff}}\n"
    )
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="rag",
            k=1,
            generator="echo-mock",
            index=str(index_dir),
            template=str(template),
            seed=2,
        )
    )
    assert all(r["status"] == "ok" for r in result.rows)
    # the manifest records a hash of the parsed template; it must match the
    # custom file and differ from the default
    import hashlib

    from coracmg.augmenter import PromptTemplate

    def template_hash(tpl):
        return hashlib.sha256(
            (tpl.preamble + tpl.example_block + tpl.tail).encode("utf-8")
        ).hexdigest()

    assert result.manifest["template_sha256"] == template_hash(
        PromptTemplate.from_file(template)
    )
    assert result.manifest["template_sha256"] != template_hash(PromptTemplate.default())


def test_provider_backed_experiment(tmp_path, fake_provider):
    records = synthetic_corpus(2, 6, seed=101)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    provider_cfg = fake_provider.config(tmp_path / "providers.json")
    # index built with the same provider embedder and a shared cache
    cache = tmp_path / "corpus.jsonl.embed_cache"
    embedder = EmbeddingClient(
        f"{fake_provider.url}/embed", 32, model="e", cache_dir=cache
    )
    index = RetrievalIndex.build(records, embedder)
    index_dir = tmp_path / "corpus.index"
    index.save(index_dir)
    embeds_after_build = fake_provider.embeds
    assert embeds_after_build == len(records)

    config = ExperimentConfig(
        corpus=str(corpus_path),
        out_dir=str(tmp_path / "run"),
        method="rag",
        k=2,
        generator="provider",
        index=str(index_dir),
        provider_config=str(provider_cfg),
        seed=6,
    )
    result = run_experiment(config)
    assert all(r["status"] == "ok" for r in result.rows)
    assert all(r["generated"] == "apply the provider fix" for r in result.rows)
    assert fake_provider.generations == len(records)
    # every corpus diff was already cached; only genuinely new texts embed
    assert fake_provider.embeds == embeds_after_build
    assert result.manifest["generator_id"] == "g"
    assert result.manifest["embedder_id"] == "e"


# -- concurrency -----------------------------------------------------------------


def test_offline_experiment_retrieves_on_one_thread(tmp_path, monkeypatch):
    records = synthetic_corpus(2, 10, seed=41)
    corpus_path, index_dir = _materialize(tmp_path, records)
    threads = []
    retrieve = RetrievalIndex.retrieve

    def recording(self, *args, **kwargs):
        threads.append(threading.get_ident())
        return retrieve(self, *args, **kwargs)

    monkeypatch.setattr(RetrievalIndex, "retrieve", recording)
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="rag",
            k=2,
            generator="echo-mock",
            index=str(index_dir),
            seed=3,
        )
    )
    assert len(threads) == len(result.rows) == 20
    assert set(threads) == {threading.get_ident()}


def _pooled_map(fn, items):
    """``map`` through a one-worker thread pool, the way offline runs once mapped their commits."""
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        return list(pool.map(fn, items))


def test_an_offline_run_starts_no_thread_and_writes_what_a_pooled_run_wrote(
    tmp_path, monkeypatch
):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(3, 15, seed=23))
    arms = {
        "rag": {"method": "rag", "k": 3, "generator": "echo-mock"},
        "copy": {"method": "direct", "generator": "retrieval-copy"},
    }

    def run(name):
        out = tmp_path / name
        run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path), out_dir=str(out), index=str(index_dir), seed=5,
                **arms[name.split("-")[0]],
            )
        )
        return (out / "results.jsonl").read_bytes()

    with monkeypatch.context() as m:
        m.setattr(harness, "map", _pooled_map, raising=False)
        pooled = {name: run(f"{name}-pooled") for name in arms}

    def no_pool(*args, **kwargs):
        raise AssertionError("an offline run built a thread pool")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    for name in arms:
        assert run(f"{name}-calling") == pooled[name]
    assert b'"status": "ok"' in pooled["rag"] and b'"status": "ok"' in pooled["copy"]


def test_a_provider_run_maps_its_commits_on_a_pool_of_inflight_workers(
    tmp_path, fake_provider, monkeypatch
):
    records = synthetic_corpus(2, 6, seed=101)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    index_dir = tmp_path / "corpus.index"
    embedder = EmbeddingClient(f"{fake_provider.url}/embed", fake_provider.dimension, model="e")
    RetrievalIndex.build(records, embedder).save(index_dir)
    pools = []

    class Recording(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="rag",
            k=2,
            generator="provider",
            index=str(index_dir),
            provider_config=str(fake_provider.config(tmp_path / "providers.json", inflight=3)),
            seed=6,
        )
    )
    assert all(r["status"] == "ok" for r in result.rows)
    assert pools == [3]


def test_provider_requests_in_flight_follow_the_provider_config(tmp_path, fake_provider):
    # The commits in flight bound the requests in flight: each commit embeds
    # its query, then generates, one request at a time.
    records = synthetic_corpus(2, 6, seed=101)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    index_dir = tmp_path / "corpus.index"
    embedder = EmbeddingClient(f"{fake_provider.url}/embed", fake_provider.dimension, model="e")
    RetrievalIndex.build(records, embedder).save(index_dir)

    def message(prompt):
        return f"apply fix {hashlib.sha256(prompt.encode('utf-8')).hexdigest()[:12]}"

    fake_provider.message = message
    results = {}
    for inflight in (1, 2, 3):
        provider_cfg = fake_provider.config(
            tmp_path / f"providers{inflight}.json", inflight=inflight
        )
        # hold each request open so others can overlap it
        fake_provider.script(*[Reply(hold=0.02)] * (2 * len(records)))
        fake_provider.peak = 0
        before = len(fake_provider.requests)
        out = tmp_path / f"run{inflight}"
        result = run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(out),
                method="rag",
                k=2,
                generator="provider",
                index=str(index_dir),
                provider_config=str(provider_cfg),
                embed_cache=str(tmp_path / f"cache{inflight}"),  # cold: every query embeds
                seed=6,
            )
        )
        assert all(r["status"] == "ok" for r in result.rows)
        sent = [r["payload"] for r in fake_provider.requests[before:]]
        assert sum("input" in p for p in sent) == sum("messages" in p for p in sent) == len(records)
        assert fake_provider.peak == inflight
        results[inflight] = (out / "results.jsonl").read_bytes()
    assert results[1] == results[2] == results[3]


def test_workers_key_is_accepted_and_ignored(tmp_path):
    records = synthetic_corpus(2, 10, seed=41)
    corpus_path, index_dir = _materialize(tmp_path, records)
    base = {
        "corpus": str(corpus_path),
        "method": "rag",
        "k": 2,
        "generator": "echo-mock",
        "index": str(index_dir),
        "seed": 7,
    }
    for name, extra in (("plain", {}), ("workers", {"workers": 8})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "out_dir": str(tmp_path / name), **extra}))
        run_experiment(ExperimentConfig.from_file(path))
    plain = (tmp_path / "plain" / "results.jsonl").read_bytes()
    assert plain == (tmp_path / "workers" / "results.jsonl").read_bytes()


# -- reporting -----------------------------------------------------------------


def test_k_sweep_and_report(tmp_path):
    records = synthetic_corpus(2, 15, seed=71)
    corpus_path, index_dir = _materialize(tmp_path, records)
    base = ExperimentConfig(
        corpus=str(corpus_path),
        out_dir=str(tmp_path / "sweep"),
        method="rag",
        k=1,
        generator="echo-mock",
        index=str(index_dir),
        subset_size=20,
        seed=13,
    )
    results = run_k_sweep(base, ks=(1, 2, 3, 4, 5))
    assert len(results) == 5
    for k, res in zip((1, 2, 3, 4, 5), results):
        assert res.manifest["config"]["k"] == k
        assert (tmp_path / "sweep" / f"k{k}" / "results.jsonl").exists()

    direct = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "direct"),
            method="direct",
            generator="echo-mock",
            subset_size=20,
            seed=13,
        )
    )
    report = render_report([direct] + results)
    assert "| k |" in report
    for k in (1, 2, 3, 4, 5):
        assert f"| {k} |" in report

    # report arithmetic: every arrow percentage equals round(100*(e-d)/d)
    direct_means = direct.manifest["metrics"]
    keys = ("bleu", "rouge_l", "meteor", "cider")
    for line in report.splitlines():
        match = re.match(r"\| (rag-k(\d)-echo-mock) \|", line)
        if not match:
            continue
        k = int(match.group(2))
        cells = [c.strip() for c in line.split("|")[2:-1]]
        enhanced = results[k - 1].manifest["metrics"]
        for key, cell in zip(keys, cells):
            m = re.match(r"([\d.]+) \((↑|↓)(\d+)%\)", cell)
            assert m, cell
            expected = round(100 * (enhanced[key] - direct_means[key]) / direct_means[key])
            got = int(m.group(3)) * (1 if m.group(2) == "↑" else -1)
            assert got == expected


# -- one pass per experiment -----------------------------------------------------


def _sweep_corpus(tmp_path, seed):
    """Projects of 12 and 4 commits, and one of a single commit: full, short and failed rows."""
    records = synthetic_corpus(2, 12, seed=seed)
    records += [
        make_record(500 + i, repo="acme/small", added=[f"small change number {i}"])
        for i in range(4)
    ]
    records.append(make_record(999, repo="acme/lonely", message="the only commit in this repo"))
    return _materialize(tmp_path, records)


@pytest.mark.parametrize("generator", ["echo-mock", "retrieval-copy"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_arm_of_a_sweep_writes_what_a_standalone_run_writes(tmp_path, seed, generator):
    corpus_path, index_dir = _sweep_corpus(tmp_path, seed)
    config = dict(
        corpus=str(corpus_path), index=str(index_dir), method="rag", generator=generator,
        seed=seed,
    )
    ks = [5, 1, 3]
    sweep = run_k_sweep(ExperimentConfig(out_dir=str(tmp_path / "sweep"), k=1, **config), ks=ks)
    alone = [_run(dict(config, k=k), tmp_path / f"alone{k}")[0] for k in ks]
    for k, arm, run in zip(ks, sweep, alone):
        for name in ("results.jsonl", "report.md"):
            assert (arm.out_dir / name).read_bytes() == (run.out_dir / name).read_bytes(), (k, name)
        for key in ("ok_count", "failed_count", "short_retrieval_count", "dropped_examples_count"):
            assert arm.manifest[key] == run.manifest[key], (k, key)
    assert (tmp_path / "sweep" / "report.md").read_text() == render_report(alone)
    counts = [(r.manifest["failed_count"], r.manifest["short_retrieval_count"]) for r in sweep]
    assert counts == [(1, 4), (1, 0), (1, 0)]  # acme/small holds 3 others; acme/lonely none


def test_a_sweep_loads_reads_and_retrieves_once(tmp_path, monkeypatch):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 15, seed=71))
    calls = {"load": 0, "read": 0, "retrieve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(diffs, "_checked", ("", []))  # no earlier test's read is reused
    monkeypatch.setattr(RetrievalIndex, "load", counted("load", RetrievalIndex.load))
    monkeypatch.setattr(harness, "read_corpus_lines", counted("read", harness.read_corpus_lines))
    monkeypatch.setattr(RetrievalIndex, "retrieve", counted("retrieve", RetrievalIndex.retrieve))
    base = ExperimentConfig(
        corpus=str(corpus_path), out_dir=str(tmp_path / "sweep"), method="rag", k=1,
        index=str(index_dir), subset_size=20, seed=13,
    )
    results = run_k_sweep(base)
    assert calls == {"load": 1, "read": 1, "retrieve": 20}
    assert [len(r.rows) for r in results] == [20] * 5
    assert {r.manifest["corpus_lines"] for r in results} == {"parsed"}


def test_a_provider_sweep_embeds_each_query_once(tmp_path, fake_provider):
    records = synthetic_corpus(2, 6, seed=101)
    corpus_path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus_path, records)
    index_dir = tmp_path / "corpus.index"
    embedder = EmbeddingClient(f"{fake_provider.url}/embed", fake_provider.dimension, model="e")
    RetrievalIndex.build(records, embedder).save(index_dir)
    before = len(fake_provider.requests)
    base = ExperimentConfig(
        corpus=str(corpus_path), out_dir=str(tmp_path / "sweep"), method="rag", k=1,
        generator="provider", index=str(index_dir),
        provider_config=str(fake_provider.config(tmp_path / "providers.json")),
        embed_cache=str(tmp_path / "cache"),  # cold: every query embeds
        subset_size=8, seed=6,
    )
    results = run_k_sweep(base, ks=[1, 2, 3])
    assert all(r["status"] == "ok" for res in results for r in res.rows)
    sent = [r["payload"] for r in fake_provider.requests[before:]]
    assert sum("input" in p for p in sent) == 8
    assert sum("messages" in p for p in sent) == 8 * 3


def test_a_bug_in_a_row_stops_the_run_and_writes_nothing(tmp_path, monkeypatch):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 20, seed=7))
    calls = []

    def broken_fit(self, *args):
        calls.append(args)
        raise AttributeError("a bug in the package")

    monkeypatch.setattr(PromptTemplate, "fit", broken_fit)
    config = ExperimentConfig(
        corpus=str(corpus_path), out_dir=str(tmp_path / "run"), method="rag", k=2,
        index=str(index_dir), seed=7,
    )
    with pytest.raises(AttributeError, match="a bug in the package"):
        run_experiment(config)
    assert len(calls) < 20  # the queued rows were cancelled, not run
    calls.clear()
    with pytest.raises(AttributeError, match="a bug in the package"):
        run_k_sweep(ExperimentConfig(**{**config.to_dict(), "out_dir": str(tmp_path / "sweep")}))
    assert len(calls) < 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.index", "corpus.jsonl"]


def test_report_names_the_directories_of_runs_that_share_a_label(tmp_path):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 10, seed=5))
    config = dict(
        corpus=str(corpus_path), index=str(index_dir), method="rag", generator="echo-mock", seed=42
    )
    alone = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "runs" / "rag-k3"), k=3, **config))
    sweep = run_k_sweep(ExperimentConfig(out_dir=str(tmp_path / "sweep"), k=1, **config), ks=[1, 2, 3])
    unique = render_report(sweep)
    report = render_report([alone, *sweep])
    assert unique.count("| rag-k3-echo-mock |") == 1
    for run in (alone, sweep[2]):
        assert report.count(f"| rag-k3-echo-mock ({run.out_dir}) |") == 1
        assert report.count(f"| 3 ({run.out_dir}) |") == 1
    assert "| rag-k3-echo-mock |" not in report and "| 3 |" not in report
    kept = [line for line in unique.splitlines() if "k3" not in line and not line.startswith("| 3 |")]
    assert [line for line in report.splitlines() if line in kept] == kept
    loaded = [ExperimentResult.load(run.out_dir) for run in (alone, *sweep)]
    assert render_report(loaded) == report


def test_k_sweep_of_no_k_runs_nothing(tmp_path):
    records = synthetic_corpus(1, 5, seed=71)
    corpus_path, index_dir = _materialize(tmp_path, records)
    base = ExperimentConfig(
        corpus=str(corpus_path),
        out_dir=str(tmp_path / "sweep"),
        method="rag",
        k=1,
        generator="echo-mock",
        index=str(index_dir),
    )
    with pytest.raises(ConfigError, match="k sweep lists no k"):
        run_k_sweep(base, ks=[])
    assert not (tmp_path / "sweep").exists()


def test_report_manifest_mismatch(tmp_path):
    records = synthetic_corpus(2, 8, seed=81)
    corpus_path, index_dir = _materialize(tmp_path, records)

    def run(out, seed):
        return run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path),
                out_dir=str(tmp_path / out),
                method="direct",
                generator="echo-mock",
                subset_size=10,
                seed=seed,
            )
        )

    a = run("a", 1)
    b = run("b", 2)
    with pytest.raises(ManifestMismatch):
        render_report([a, b])
    with pytest.raises(ManifestMismatch):
        render_report([])


def test_report_reads_manifests_that_echo_the_cider_scale(tmp_path):
    corpus_path, index_dir = _materialize(tmp_path, synthetic_corpus(2, 8, seed=81))

    def run(out, method):
        return run_experiment(
            ExperimentConfig(
                corpus=str(corpus_path), index=str(index_dir), out_dir=str(tmp_path / out),
                method=method, k=1 if method == "rag" else None, generator="echo-mock", seed=3,
            )
        )

    direct, rag = run("d", "direct"), run("r", "rag")
    assert "cider_scale" not in rag.manifest["config"]
    report = render_report([direct, rag])
    assert "| rag-k1-echo-mock |" in report
    path = tmp_path / "r" / "manifest.json"
    manifest = json.loads(path.read_text())

    def load_with_scale(scale):
        """The rag run as a release that echoed ``scale`` in its config wrote it."""
        config = {**manifest["config"], "cider_scale": scale}
        path.write_text(json.dumps({**manifest, "config": config}))
        return ExperimentResult.load(tmp_path / "r")

    old = load_with_scale(100.0)
    assert render_report([ExperimentResult.load(tmp_path / "d"), old]) == report
    for scale in (10, 10.0, "100", None):
        wrong = f"{path} scores CIDEr on a scale of {scale!r}, not 100"
        with pytest.raises(InvalidInput, match=f"^{re.escape(wrong)}$"):
            load_with_scale(scale)


def test_result_load_round_trip(tmp_path):
    records = synthetic_corpus(1, 6, seed=91)
    corpus_path, _ = _materialize(tmp_path, records)
    result = run_experiment(
        ExperimentConfig(
            corpus=str(corpus_path),
            out_dir=str(tmp_path / "run"),
            method="direct",
            generator="echo-mock",
            seed=4,
        )
    )
    loaded = ExperimentResult.load(tmp_path / "run")
    assert loaded.manifest == result.manifest
    assert loaded.rows == result.rows
    assert loaded.label == result.label


def test_result_load_without_a_manifest_is_invalid_input(tmp_path):
    (tmp_path / "results.jsonl").write_text("")
    missing = tmp_path / "manifest.json"
    with pytest.raises(InvalidInput, match=re.escape(f"cannot read {missing}: No such file")):
        ExperimentResult.load(tmp_path)

from __future__ import annotations

import json
import re
from dataclasses import replace
from datetime import datetime, timezone

import pytest

from coracmg.cli import main
from coracmg.diffs import read_jsonl, write_jsonl
from coracmg.retriever import RetrievalIndex
from helpers import commit_all, init_repo, synthetic_corpus, twin_corpus


def test_full_pipeline_through_cli(fixture_repo, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    filtered = tmp_path / "filtered.jsonl"
    report = tmp_path / "report.json"

    assert main([
        "ingest", "--repo", str(fixture_repo), "--branch", "main",
        "--since", "1970-01-01", "--out", str(corpus),
    ]) == 0
    assert "wrote 5 commit records" in capsys.readouterr().out

    assert main([
        "filter", "--in", str(corpus), "--out", str(filtered), "--report", str(report),
    ]) == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {
        "input", "rejected_r1", "rejected_r2", "rejected_r3", "rejected_r4",
        "rejected_r5", "retained",
    }
    assert payload["input"] == 5
    assert payload["rejected_r4"] == 1  # the [bot] commit
    assert payload["retained"] + sum(
        payload[f"rejected_r{i}"] for i in range(1, 6)
    ) == payload["input"]
    for rec in read_jsonl(filtered):
        rec.validate()  # preprocessed messages satisfy every record invariant
    capsys.readouterr()

    assert main(["stats", "--in", str(filtered)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["diff_tokens"]["max"] >= stats["diff_tokens"]["median"]


def test_tokenize_command(capsys):
    assert main(["tokenize", "--text", "Fix HttpClient bug-fix"]) == 0
    assert capsys.readouterr().out.strip() == "fix http client bug - fix"
    assert main(["tokenize", "--text", "bug-fix", "--drop-symbol-tokens"]) == 0
    assert capsys.readouterr().out.strip() == "bug fix"


def test_index_retrieve_commands(tmp_path, capsys):
    records = synthetic_corpus(2, 10, seed=7)
    corpus = tmp_path / "filtered.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"

    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    capsys.readouterr()
    assert (index_dir / "manifest.json").exists()

    query_file = tmp_path / "query.diff"
    query_file.write_text(records[0].diff + " ")  # near-identical, not byte-equal
    assert main([
        "retrieve", "--index", str(index_dir), "--query-diff", str(query_file),
        "--repo", records[0].repo_full_name, "-k", "3",
    ]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 3
    assert {"sha", "repo_full_name", "hybrid_score", "message"} <= set(out[0])
    assert all(item["repo_full_name"] == records[0].repo_full_name for item in out)


def test_evaluate_command(tmp_path, capsys):
    hyp = tmp_path / "hyps.jsonl"
    ref = tmp_path / "refs.jsonl"
    hyp.write_text(
        json.dumps({"message": "fix null pointer in parser"}) + "\n"
        + json.dumps({"message": "completely unrelated words here"}) + "\n"
    )
    ref.write_text(
        json.dumps({"message": "fix null pointer in parser"}) + "\n"
        + json.dumps({"message": "add cache retry logic today"}) + "\n"
    )
    out = tmp_path / "report.json"
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"bleu", "rouge_l", "meteor", "cider", "per_sample"}
    assert payload["per_sample"][0]["bleu"] == pytest.approx(100.0, abs=1e-9)
    assert payload["per_sample"][1]["bleu"] == 0.0


def test_experiment_and_report_commands(tmp_path, capsys):
    records = twin_corpus(2, 8, seed=5)
    corpus = tmp_path / "filtered.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"])
    capsys.readouterr()

    runs = tmp_path / "runs"
    direct_cfg = tmp_path / "direct.json"
    direct_cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(runs / "direct"), "method": "direct",
        "generator": "echo-mock", "generator_text": "adjust compute path for stability",
        "seed": 3,
    }))
    copy_cfg = tmp_path / "copy.json"
    copy_cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(runs / "copy"), "method": "rag", "k": 1,
        "generator": "retrieval-copy", "index": str(index_dir), "seed": 3,
    }))
    assert main(["experiment", "--config", str(direct_cfg)]) == 0
    assert main(["experiment", "--config", str(copy_cfg)]) == 0
    out = capsys.readouterr().out
    assert "bleu=100.00" in out  # twin corpus: retrieval copy is perfect

    table = tmp_path / "table.md"
    assert main(["report", "--in", str(runs), "--out", str(table)]) == 0
    text = table.read_text()
    assert "direct-echo-mock" in text
    assert "rag-k1-retrieval-copy" in text
    assert "↑" in text or "↓" in text


def test_experiment_sweep_k_writes_each_run_and_their_report(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, synthetic_corpus(1, 10, seed=7))
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    sweep = tmp_path / "sweep"
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(sweep), "method": "rag", "k": 3,
        "generator": "echo-mock", "index": str(index_dir), "seed": 1,
    }))
    capsys.readouterr()
    assert main(["experiment", "--config", str(cfg), "--sweep-k", "1,2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for k in (1, 2):
        for name in ("results.jsonl", "manifest.json", "report.md"):
            assert (sweep / f"k{k}" / name).exists()
        m = json.loads((sweep / f"k{k}" / "manifest.json").read_text())["metrics"]
        expected.append(
            f"rag-k{k}-echo-mock: bleu={m['bleu']:.2f} rouge_l={m['rouge_l']:.2f} "
            f"meteor={m['meteor']:.2f} cider={m['cider']:.2f} (0 failures)"
        )
    assert lines == expected  # one summary line per run
    report = (sweep / "report.md").read_text()
    assert "| rag-k1-echo-mock |" in report and "| rag-k2-echo-mock |" in report
    assert "## Scores by number of example pairs" in report
    series = [line for line in report.splitlines() if re.match(r"\| \d \|", line)]
    assert [line[:5] for line in series] == ["| 1 |", "| 2 |"]


def test_suggest_command(fixture_repo, tmp_path, capsys):
    diff_file = tmp_path / "work.diff"
    diff_file.write_text(
        "diff --git a/src/app.py b/src/app.py\n"
        "--- a/src/app.py\n"
        "+++ b/src/app.py\n"
        "@@ -1,2 +1,2 @@\n"
        " def main():\n"
        "-    return 1\n"
        "+    return 3\n"
    )
    code = main(["suggest", "--repo", str(fixture_repo), "--diff", str(diff_file), "-k", "1"])
    assert code == 0
    suggestion = capsys.readouterr().out.strip()
    assert suggestion  # one-line message from the project's history
    assert "\n" not in suggestion


def test_cli_error_paths(tmp_path, capsys):
    assert main([
        "ingest", "--repo", str(tmp_path / "nope"), "--branch", "main",
        "--since", "1970-01-01", "--out", str(tmp_path / "x.jsonl"),
    ]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"bogus": 1}, "bogus"),
        ({"method": "rag"}, "requires k"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"cider_scale": "x"}, "cider_scale must be a number, not 'x'"),
        ({"method": "rag", "k": "2"}, "k must be an integer, not '2'"),
        ({"subset_size": 2.5}, "subset_size must be an integer, not 2.5"),
        ({"seed": True}, "seed must be an integer, not True"),
        ({"workers": "4"}, "workers must be an integer, not '4'"),
        ({"max_prompt_chars": None}, "max_prompt_chars must be an integer, not None"),
        ({"subset_size": -3}, "subset_size must be at least 0, not -3"),
        ({"embedder": "bogus"}, "unexpected keyword argument 'embedder'"),
        ({"generator": "provider"}, "generator 'provider' needs a provider_config file"),
        ({"method": "rag", "k": 1}, "index"),
        ({"cider_scale": float("nan")}, "cider_scale must be a finite number above 0, not nan"),
        ({"cider_scale": -1}, "cider_scale must be a finite number above 0, not -1"),
        ({"corpus": 12345}, "corpus must be a string, not 12345"),  # open() takes an int as a fd
        (
            {"generator": "provider", "provider_config": True},
            "provider_config must be a string, not True",
        ),
        ({"generator_text": 5}, "generator_text must be a string, not 5"),
        ({"out_dir": 5}, "out_dir must be a string, not 5"),
        ({"method": "rag", "k": 1, "index": 7}, "index must be a string, not 7"),
        ({"template": 1}, "template must be a string, not 1"),
        ({"embed_cache": ["a"]}, "embed_cache must be a string, not ['a']"),
    ],
)
def test_experiment_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": "c.jsonl", "out_dir": str(tmp_path / "o"), **config}))
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()  # rejected before the run


@pytest.mark.parametrize(
    "provider_text, message",
    [
        (None, "cannot read provider config"),
        ("{not json", "is not valid JSON"),
        ("{}", "endpoint"),
    ],
)
def test_experiment_bad_provider_config_is_an_error_not_a_traceback(
    tmp_path, capsys, provider_text, message
):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, synthetic_corpus(1, 10, seed=7))
    provider_cfg = tmp_path / "providers.json"
    if provider_text is not None:
        provider_cfg.write_text(provider_text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(tmp_path / "o"),
        "generator": "provider", "provider_config": str(provider_cfg),
    }))
    assert main(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(provider_cfg) in err


def test_report_without_runs_is_an_error_not_a_traceback(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path), "--out", str(tmp_path / "t.md")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no experiment runs") and str(tmp_path) in err


def test_report_reads_runs_beside_an_index(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, synthetic_corpus(1, 10, seed=7))
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(tmp_path / "runs" / "rag-k1"), "method": "rag",
        "k": 1, "generator": "echo-mock", "index": str(index_dir), "seed": 1,
    }))
    assert main(["experiment", "--config", str(cfg)]) == 0
    capsys.readouterr()
    table = tmp_path / "table.md"
    assert main(["report", "--in", str(tmp_path), "--out", str(table)]) == 0
    assert "wrote comparison of 1 runs" in capsys.readouterr().out
    assert "rag-k1-echo-mock" in table.read_text()


def _evaluate(tmp_path, hyp_lines, ref_lines):
    hyp = tmp_path / "hyps.jsonl"
    ref = tmp_path / "refs.jsonl"
    hyp.write_text("".join(json.dumps(obj) + "\n" for obj in hyp_lines))
    ref.write_text("".join(json.dumps(obj) + "\n" for obj in ref_lines))
    return main(["evaluate", "--hyp", str(hyp), "--ref", str(ref), "--out", str(tmp_path / "o")])


def test_evaluate_unequal_counts_is_an_error_not_a_traceback(tmp_path, capsys):
    two = [{"message": "fix parser"}, {"message": "add cache"}]
    assert _evaluate(tmp_path, two, two[:1]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has 2 hypotheses" in err and "has 1 references" in err
    assert not (tmp_path / "o").exists()


def test_evaluate_line_without_keys_is_an_error_not_a_traceback(tmp_path, capsys):
    refs = [{"message": "fix parser"}, {"message": "add cache"}]
    assert _evaluate(tmp_path, [{"message": "fix parser"}, {"text": "add cache"}], refs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hyps.jsonl line 2 has none of the keys" in err
    (tmp_path / "hyps.jsonl").write_text('{"message": "fix parser"}\n{"message": \n')
    assert main([
        "evaluate", "--hyp", str(tmp_path / "hyps.jsonl"), "--ref", str(tmp_path / "refs.jsonl"),
        "--out", str(tmp_path / "o"),
    ]) == 1
    assert "hyps.jsonl line 2 is not JSON" in capsys.readouterr().err
    assert _evaluate(tmp_path, [{"message": "fix parser"}, {"message": 5}], refs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hyps.jsonl line 2 key 'message' holds int, not str" in err
    assert not (tmp_path / "o").exists()


def test_retrieve_provider_index_needs_a_readable_provider_config(tmp_path, capsys):
    records = synthetic_corpus(1, 10, seed=7)
    corpus = tmp_path / "filtered.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    manifest = index_dir / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "embedder": "emb-1"}))
    capsys.readouterr()
    assert _retrieve_from(index_dir, tmp_path) == 1
    assert capsys.readouterr().err.startswith("error: index was built with embedder 'emb-1'")
    assert _retrieve_from(index_dir, tmp_path, "--provider-config", str(tmp_path / "no.json")) == 1
    assert capsys.readouterr().err.startswith("error: cannot read provider config")


def test_experiment_unreadable_config_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"corpus": "c.jsonl", "out_dir": ')
    assert main(["experiment", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg} is not valid JSON")


def test_retrieve_truncated_index_is_an_error_not_a_traceback(tmp_path, capsys):
    records = synthetic_corpus(1, 10, seed=7)
    corpus = tmp_path / "filtered.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    vectors = index_dir / "vectors.bin"
    vectors.write_bytes(vectors.read_bytes()[:-100])
    query_file = tmp_path / "query.diff"
    query_file.write_text(records[0].diff + " ")
    capsys.readouterr()
    assert main([
        "retrieve", "--index", str(index_dir), "--query-diff", str(query_file),
        "--repo", records[0].repo_full_name, "-k", "3",
    ]) == 1
    assert capsys.readouterr().err.startswith("error: vectors.bin has")


def _retrieve_from(index_dir, tmp_path, *extra, repo="acme/widgets"):
    query_file = tmp_path / "query.diff"
    query_file.write_text("diff --git a/q b/q\n+query\n")
    return main([
        "retrieve", "--index", str(index_dir), "--query-diff", str(query_file),
        "--repo", repo, "-k", "3", *extra,
    ])


def test_retrieve_missing_index_is_an_error_not_a_traceback(tmp_path, capsys):
    assert _retrieve_from(tmp_path / "no-such-index", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and "coracmg index" in err


def test_retrieve_old_version_index_is_an_error_not_a_traceback(tmp_path, capsys):
    records = synthetic_corpus(1, 10, seed=7)
    corpus = tmp_path / "filtered.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    manifest = index_dir / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "version": 1}))
    capsys.readouterr()
    assert _retrieve_from(index_dir, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "version 1 index" in err and "coracmg index" in err


# -- named errors for corpus files and arguments ----------------------------------


def _corpus_line(drop=None, **changes):
    obj = {**json.loads(synthetic_corpus(1, 1, seed=3)[0].to_json()), **changes}
    obj.pop(drop, None)
    return json.dumps(obj) + "\n"


# Line 1 of each faulty corpus is a good record; line 2 has the fault.
_CORPUS_FAULTS = {
    "missing-file": (None, "cannot read"),
    "empty-file": ("", "holds no commit records"),
    "non-json-line": (_corpus_line() + '{"diff": \n', "line 2 is not JSON"),
    "missing-key": (
        _corpus_line() + _corpus_line(drop="repo_full_name"),
        "line 2 field 'repo_full_name' holds nothing, not str",
    ),
    "wrong-type": (_corpus_line() + _corpus_line(loc="3"), "line 2 field 'loc' holds str"),
    "date-unparseable": (
        _corpus_line() + _corpus_line(date="not-a-date"),
        "line 2 field 'date' holds 'not-a-date', not an ISO-8601 date",
    ),
    "lone-surrogate": (  # json.dumps escapes it as \ud800, which is valid JSON
        _corpus_line() + _corpus_line(diff="diff --git a/x b/x\n+name = '\ud800'\n"),
        "line 2 holds a lone surrogate U+D800",
    ),
}


def _corpus_command(command, corpus, tmp_path):
    if command == "filter":
        return ["filter", "--in", corpus, "--out", str(tmp_path / "f.jsonl"),
                "--report", str(tmp_path / "r.json")]
    if command == "stats":
        return ["stats", "--in", corpus]
    if command == "index":
        return ["index", "--in", corpus, "--out", str(tmp_path / "index.dir")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": corpus, "out_dir": str(tmp_path / "o")}))
    return ["experiment", "--config", str(cfg)]


@pytest.mark.parametrize(
    "command, fault",
    [
        pytest.param(command, fault, id=f"{command}-{fault}")
        for command in ["experiment", "filter", "index", "stats"]
        for fault in sorted(_CORPUS_FAULTS)
        if (command, fault) != ("filter", "empty-file")  # an empty filter result is valid
    ],
)
def test_bad_corpus_file_is_an_error_not_a_traceback(tmp_path, capsys, command, fault):
    text, message = _CORPUS_FAULTS[fault]
    corpus = tmp_path / "corpus.jsonl"
    if text is not None:
        corpus.write_text(text)
    assert main(_corpus_command(command, str(corpus), tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and str(corpus) in err
    assert not (tmp_path / "o").exists()


def _argument_case(case, tmp_path, repo):
    """argv for one bad-argument case, over a 10-record corpus and its index."""
    records = synthetic_corpus(1, 10, seed=7)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    diff = tmp_path / "q.diff"
    diff.write_text(records[0].diff)
    template = tmp_path / "template.txt"
    template.write_text("Write a message for {{query_diff}}\n")  # no examples markers
    retrieve = ["retrieve", "--index", str(index_dir), "--repo", records[0].repo_full_name]
    suggest = ["suggest", "--repo", str(repo)]

    def experiment(*extra, **config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "corpus": str(corpus), "out_dir": str(tmp_path / "o"), "method": "rag", "k": 1,
            "generator": "echo-mock", "index": str(index_dir), **config,
        }))
        return ["experiment", "--config", str(cfg), *extra]

    def evaluate(cider_scale):
        return [
            "evaluate", "--hyp", str(corpus), "--ref", str(corpus),
            "--out", str(tmp_path / "o"), "--cider-scale", cider_scale,
        ]

    def docs_only_history():
        docs = tmp_path / "docs-only"
        init_repo(docs)
        (docs / "notes.md").write_text("release notes\n")  # no mainstream-language file
        when = datetime(2020, 1, 1, tzinfo=timezone.utc)
        commit_all(docs, "write down the notes for this release", when)
        return ["suggest", "--repo", str(docs), "--diff", str(diff)]

    def provider_index(dimension, records_in=corpus):
        providers = tmp_path / "providers.json"
        providers.write_text(json.dumps(
            {"embed": {"endpoint": "http://127.0.0.1:1/embed", "dimension": dimension}}
        ))
        return [
            "index", "--in", str(records_in), "--out", str(tmp_path / "p.dir"),
            "--provider-config", str(providers),
        ]

    def empty_diff_index():
        # The first record embedded has no diff, so no request is ever tried.
        empty = tmp_path / "empty-diff.jsonl"
        write_jsonl(empty, [replace(records[0], diff=""), *records[1:3]])
        return provider_index(8, empty)

    def report(out, fault=None):
        assert main(experiment(out_dir=str(tmp_path / "runs" / "r"))) == 0
        if fault is not None:  # (name, text): a run file overwritten
            (tmp_path / "runs" / "r" / fault[0]).write_text(fault[1])
        return ["report", "--in", str(tmp_path / "runs"), "--out", str(out)]

    def edited_manifest(*keys, value=None):
        """Report over a run whose manifest value at ``keys`` is ``value`` (None: deleted)."""
        assert main(experiment(out_dir=str(tmp_path / "runs" / "r2"), k=2)) == 0
        argv = report(tmp_path / "t.md")
        path = tmp_path / "runs" / "r" / "manifest.json"
        manifest = json.loads(path.read_text())
        holder = manifest
        for key in keys[:-1]:
            holder = holder[key]
        if value is None:
            del holder[keys[-1]]
        else:
            holder[keys[-1]] = value
        path.write_text(json.dumps(manifest))
        return argv

    cases = {
        "retrieve -k 0": lambda: [*retrieve, "--query-diff", str(diff), "-k", "0"],
        "suggest -k 0": lambda: [*suggest, "--diff", str(diff), "-k", "0"],
        "sweep-k 1,x": lambda: experiment("--sweep-k", "1,x"),
        "sweep-k 1,2,9": lambda: experiment("--sweep-k", "1,2,9"),
        "sweep-k 2,2": lambda: experiment("--sweep-k", "2,2"),
        "missing query diff": lambda: [*retrieve, "--query-diff", str(tmp_path / "none.diff")],
        "missing suggest diff": lambda: [*suggest, "--diff", str(tmp_path / "none.diff")],
        "suggest template": lambda: [*suggest, "--diff", str(diff), "--template", str(template)],
        "suggest history filtered out": docs_only_history,
        "experiment template": lambda: experiment(template=str(template)),
        "missing template": lambda: experiment(template=str(tmp_path / "none.txt")),
        "index dimension with provider": lambda: [
            "index", "--in", str(corpus), "--out", str(tmp_path / "p.dir"),
            "--provider-config", str(tmp_path / "providers.json"), "--dimension", "32",
        ],
        "index dimension 0": lambda: [
            "index", "--in", str(corpus), "--out", str(tmp_path / "z.dir"), "--dimension", "0",
        ],
        "index dimension -3": lambda: [
            "index", "--in", str(corpus), "--out", str(tmp_path / "z.dir"), "--dimension", "-3",
        ],
        "index provider dimension -4": lambda: provider_index(-4),
        "index provider empty diff": empty_diff_index,
        "filter max-diff-lines -5": lambda: [
            "filter", "--in", str(corpus), "--out", str(tmp_path / "o"),
            "--report", str(tmp_path / "o.json"), "--max-diff-lines", "-5",
        ],
        "evaluate cider-scale nan": lambda: evaluate("nan"),
        "evaluate cider-scale inf": lambda: evaluate("inf"),
        "evaluate cider-scale -1": lambda: evaluate("-1"),
        "evaluate cider-scale 0": lambda: evaluate("0"),
        "index out is a file": lambda: [
            "index", "--in", str(corpus), "--out", str(corpus), "--dimension", "8",
        ],
        "filter out under a missing directory": lambda: [
            "filter", "--in", str(corpus), "--out", str(tmp_path / "missing" / "f.jsonl"),
            "--report", str(tmp_path / "r.json"),
        ],
        "filter report under a missing directory": lambda: [
            "filter", "--in", str(corpus), "--out", str(tmp_path / "f.jsonl"),
            "--report", str(tmp_path / "missing" / "r.json"),
        ],
        "ingest out under a missing directory": lambda: [
            "ingest", "--repo", str(repo), "--branch", "main", "--since", "1970-01-01",
            "--out", str(tmp_path / "missing" / "c.jsonl"),
        ],
        "evaluate out under a missing directory": lambda: [
            "evaluate", "--hyp", str(corpus), "--ref", str(corpus),
            "--out", str(tmp_path / "missing" / "e.json"),
        ],
        "report out under a missing directory": lambda: report(tmp_path / "missing" / "t.md"),
        "experiment out_dir under a file": lambda: experiment(out_dir=str(corpus / "run")),
        "experiment out_dir is a file": lambda: experiment(out_dir=str(corpus)),
        "report manifest without metrics": lambda: report(
            tmp_path / "t.md", ("manifest.json", '{"x": 1}')
        ),
        "report manifest not JSON": lambda: report(
            tmp_path / "t.md", ("manifest.json", '{"metrics": ')
        ),
        "report results not JSON": lambda: report(
            tmp_path / "t.md", ("results.jsonl", '{"sha": \n')
        ),
        "report manifest k two": lambda: edited_manifest("config", "k", value="two"),
        "report manifest k 9": lambda: edited_manifest("config", "k", value=9),
        "report manifest method 7": lambda: edited_manifest("config", "method", value=7),
        "report manifest generator list": lambda: edited_manifest(
            "config", "generator", value=["echo-mock"]
        ),
        # Runs of older releases could name the generator since folded into echo-mock.
        "report manifest constant-mock": lambda: edited_manifest(
            "config", "generator", value="constant-mock"
        ),
        "report manifest seed string": lambda: edited_manifest("seed", value="1"),
        "report manifest subset_size 2.5": lambda: edited_manifest("subset_size", value=2.5),
        "report manifest failed_count true": lambda: edited_manifest("failed_count", value=True),
        "report manifest without failed_count": lambda: edited_manifest("failed_count"),
        "report manifest bleu string": lambda: edited_manifest("metrics", "bleu", value="12.5"),
        "experiment max_prompt_chars 0": lambda: experiment(max_prompt_chars=0),
        "suggest max-prompt-chars -5": lambda: [
            *suggest, "--diff", str(diff), "--max-prompt-chars", "-5",
        ],
    }
    return cases[case]()


@pytest.mark.parametrize(
    "case, message",
    [
        ("retrieve -k 0", "-k must be at least 1, not 0"),
        ("suggest -k 0", "-k must be at least 1, not 0"),
        ("sweep-k 1,x", "--sweep-k '1,x' is not a list of integers"),
        ("sweep-k 1,2,9", "method 'rag' requires k between 1 and 5"),
        ("sweep-k 2,2", "k sweep lists k 2 more than once"),
        ("missing query diff", "cannot read"),
        ("missing suggest diff", "cannot read"),
        ("suggest template", "marker lines"),
        ("suggest history filtered out", "passes the corpus filters; cannot suggest"),
        ("experiment template", "marker lines"),
        ("missing template", "No such file or directory"),
        ("index dimension with provider", "--dimension sizes the hashing embedder, not"),
        ("index dimension 0", "--dimension must be at least 1, not 0"),
        ("index dimension -3", "--dimension must be at least 1, not -3"),
        ("index provider dimension -4", "embed.dimension must be at least 1, not -4"),
        ("filter max-diff-lines -5", "--max-diff-lines must be at least 0, not -5"),
        ("evaluate cider-scale nan", "--cider-scale must be a finite number above 0, not nan"),
        ("evaluate cider-scale inf", "--cider-scale must be a finite number above 0, not inf"),
        ("evaluate cider-scale -1", "--cider-scale must be a finite number above 0, not -1.0"),
        ("evaluate cider-scale 0", "--cider-scale must be a finite number above 0, not 0.0"),
        ("index out is a file", "corpus.jsonl: File exists"),
        ("filter out under a missing directory", "f.jsonl: No such file or directory"),
        ("filter report under a missing directory", "r.json: No such file or directory"),
        ("ingest out under a missing directory", "c.jsonl: No such file or directory"),
        ("evaluate out under a missing directory", "e.json: No such file or directory"),
        ("report out under a missing directory", "t.md: No such file or directory"),
        ("experiment out_dir under a file", "run: Not a directory"),
        ("experiment out_dir is a file", "corpus.jsonl: File exists"),
        (
            "report manifest without metrics",
            "manifest.json is not an experiment manifest: no key 'metrics'",
        ),
        ("report manifest not JSON", "manifest.json is not valid JSON"),
        ("report results not JSON", "results.jsonl line 1 is not JSON"),
        (
            "report manifest k two",
            "manifest.json is not an experiment manifest: k must be an integer, not 'two'",
        ),
        ("report manifest k 9", "method 'rag' requires k between 1 and 5"),
        ("report manifest method 7", "method must be a string, not 7"),
        ("report manifest generator list", "generator must be a string, not ['echo-mock']"),
        (
            "report manifest constant-mock",
            "r/manifest.json is not an experiment manifest: unknown generator 'constant-mock'; "
            "choose one of provider, echo-mock, retrieval-copy",
        ),
        ("report manifest seed string", "seed must be an integer, not '1'"),
        ("report manifest subset_size 2.5", "subset_size must be an integer, not 2.5"),
        ("report manifest failed_count true", "failed_count must be an integer, not True"),
        ("report manifest without failed_count", "no key 'failed_count'"),
        ("report manifest bleu string", "metrics.bleu must be a number, not '12.5'"),
        ("index provider empty diff", "cannot embed an empty diff"),
        ("experiment max_prompt_chars 0", "max_prompt_chars must be at least 1, not 0"),
        ("suggest max-prompt-chars -5", "--max-prompt-chars must be at least 1, not -5"),
    ],
)
def test_bad_argument_is_an_error_not_a_traceback(
    fixture_repo, tmp_path, capsys, monkeypatch, case, message
):
    argv = _argument_case(case, tmp_path, fixture_repo)
    retrieved = []
    retrieve = RetrievalIndex.retrieve

    def recording(self, *args, **kwargs):
        retrieved.append(args)
        return retrieve(self, *args, **kwargs)

    monkeypatch.setattr(RetrievalIndex, "retrieve", recording)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o").exists()
    assert not list(tmp_path.rglob("k[0-9]*"))  # no k sweep run began
    assert not (tmp_path / "p.dir").exists()
    assert retrieved == []  # rejected before any row or query ran


# -- provider-built indexes through the CLI ---------------------------------------


def _experiment_over(tmp_path, corpus, index_dir, **extra):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(tmp_path / "run"), "method": "rag", "k": 2,
        "generator": "echo-mock", "index": str(index_dir), "seed": 4, **extra,
    }))
    return main(["experiment", "--config", str(cfg)])


def test_provider_index_through_retrieve_and_experiment(tmp_path, capsys, fake_provider):
    records = synthetic_corpus(2, 6, seed=11)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, records)
    providers = fake_provider.config(tmp_path / "providers.json")
    cache = tmp_path / "embed_cache"
    index_dir = tmp_path / "index.dir"
    assert main([
        "index", "--in", str(corpus), "--out", str(index_dir),
        "--provider-config", str(providers), "--cache-dir", str(cache),
    ]) == 0
    assert fake_provider.embeds == len(records)
    manifest = json.loads((index_dir / "manifest.json").read_text())
    assert (manifest["embedder"], manifest["dimension"]) == ("e", 32)

    capsys.readouterr()
    extra = ("--provider-config", str(providers))
    assert _retrieve_from(index_dir, tmp_path, *extra, repo="acme/project0") == 0
    assert len(json.loads(capsys.readouterr().out)) == 3
    assert fake_provider.embeds == len(records) + 1  # the new query text only

    # Every query of the experiment is a corpus diff, already in the shared cache.
    before = fake_provider.embeds
    assert _experiment_over(
        tmp_path, corpus, index_dir, provider_config=str(providers), embed_cache=str(cache)
    ) == 0
    assert fake_provider.embeds == before
    run = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert run["embedder_id"] == "e" and run["failed_count"] == 0


@pytest.mark.parametrize(
    "provider, message",
    [
        ({"model": "f"}, "but the provider config describes 'f' of dimension 32"),
        ({"dimension": 64}, "but the provider config describes 'e' of dimension 64"),
        (None, "but no provider config was given"),
    ],
)
def test_provider_index_rejects_another_query_embedder(
    tmp_path, capsys, fake_provider, provider, message
):
    records = synthetic_corpus(2, 6, seed=11)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main([
        "index", "--in", str(corpus), "--out", str(index_dir),
        "--provider-config", str(fake_provider.config(tmp_path / "providers.json")),
    ]) == 0
    built = fake_provider.embeds
    extra = ()
    config = {}
    if provider is not None:
        other = fake_provider.config(tmp_path / "other.json", **provider)
        extra = ("--provider-config", str(other))
        config = {"provider_config": str(other)}
    capsys.readouterr()
    assert _experiment_over(tmp_path, corpus, index_dir, **config) == 1
    assert _retrieve_from(index_dir, tmp_path, *extra) == 1
    errors = capsys.readouterr().err.splitlines()
    for err in errors:
        assert err.startswith("error: ") and message in err
        assert "index was built with embedder 'e' of dimension 32" in err
    assert len(errors) == 2
    assert not (tmp_path / "run").exists()  # rejected before any row ran
    assert fake_provider.embeds == built


def test_hash_index_ignores_a_provider_config(tmp_path, capsys, fake_provider):
    records = synthetic_corpus(2, 6, seed=11)
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, records)
    index_dir = tmp_path / "index.dir"
    assert main(["index", "--in", str(corpus), "--out", str(index_dir), "--dimension", "64"]) == 0
    providers = fake_provider.config(tmp_path / "providers.json")
    extra = ("--provider-config", str(providers))
    assert _retrieve_from(index_dir, tmp_path, *extra, repo="acme/project0") == 0
    assert _experiment_over(tmp_path, corpus, index_dir, provider_config=str(providers)) == 0
    assert (fake_provider.embeds, fake_provider.generations) == (0, 0)
    run = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert run["embedder_id"] == "hash-64" and run["failed_count"] == 0


# -- an unreachable provider, end to end -------------------------------------------


def _unreachable_providers(tmp_path, url):
    """A provider config for the fake provider's model, served on a closed port."""
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps({
        "embed": {"endpoint": f"{url}/embed", "model": "e", "dimension": 32},
        "gen": {"endpoint": f"{url}/gen", "model": "g"},
    }))
    return path


def test_retrieve_from_an_unreachable_provider(
    tmp_path, capsys, fake_provider, unreachable_url, slept
):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, synthetic_corpus(2, 6, seed=11))
    index_dir = tmp_path / "index.dir"
    assert main([
        "index", "--in", str(corpus), "--out", str(index_dir),
        "--provider-config", str(fake_provider.config(tmp_path / "providers.json")),
    ]) == 0
    capsys.readouterr()
    extra = ("--provider-config", str(_unreachable_providers(tmp_path, unreachable_url)))
    assert _retrieve_from(index_dir, tmp_path, *extra, repo="acme/project0") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: request to {unreachable_url}/embed failed after 3 attempts"
    )
    assert captured.out == ""
    assert slept == [1.0, 2.0]


def test_suggest_with_an_unreachable_provider(
    fixture_repo, tmp_path, capsys, unreachable_url, slept
):
    diff_file = tmp_path / "work.diff"
    diff_file.write_text("diff --git a/src/app.py b/src/app.py\n+    return 3\n")
    providers = _unreachable_providers(tmp_path, unreachable_url)
    assert main([
        "suggest", "--repo", str(fixture_repo), "--diff", str(diff_file),
        "--provider-config", str(providers),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: request to {unreachable_url}/gen failed after 3 attempts"
    )
    assert captured.out == ""
    assert slept == [1.0, 2.0]


def test_experiment_with_an_unreachable_provider(tmp_path, capsys, unreachable_url, slept):
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, synthetic_corpus(2, 6, seed=11))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "corpus": str(corpus), "out_dir": str(tmp_path / "run"), "method": "direct",
        "generator": "provider", "seed": 4,
        "provider_config": str(_unreachable_providers(tmp_path, unreachable_url)),
    }))
    assert main(["experiment", "--config", str(cfg)]) == 0
    assert "(12 failures)" in capsys.readouterr().out
    run = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert run["failed_count"] == run["subset_size"] == 12
    for row in read_jsonl(tmp_path / "run" / "results.jsonl", dict):
        assert row["status"].startswith(
            f"error: ProviderUnavailable: request to {unreachable_url}/gen failed after 3 attempts"
        )
    assert sorted(slept) == [1.0] * 12 + [2.0] * 12  # rows run four at a time

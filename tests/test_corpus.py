from __future__ import annotations

from datetime import datetime, timezone

import pytest

from coracmg.corpus import (
    FilterReport,
    apply_filters,
    compute_stats,
    detect_repo_name,
    ingest_repo,
    preprocess_message,
)
from coracmg.diffs import count_loc, parse_diff
from coracmg.errors import BranchNotFound, EmptyCorpus, RepoNotFound
from coracmg.tokenizer import tokenize
from helpers import commit_all, git, init_repo, make_diff, make_record
from oracles import oracle_stats


def test_preprocess_examples():
    assert preprocess_message("Fix NPE in parser (#1234)\nlong body") == "Fix NPE in parser"
    assert preprocess_message("fix") == "fix"
    assert preprocess_message("Merge #12 and #34 fixes") == "Merge and fixes"
    assert preprocess_message("") == ""
    assert preprocess_message("  spaced   out  ") == "spaced out"


# -- ingest ------------------------------------------------------------------


def test_ingest_counts_and_fields(fixture_repo):
    records = list(ingest_repo(fixture_repo, "main", "1970-01-01"))
    assert len(records) == 5
    newest = records[0]
    assert newest.repo_full_name == "acme/widgets"
    assert newest.author_name == "release[bot]"
    assert "\n" in newest.message  # raw, not yet preprocessed
    for rec in records:
        assert rec.loc == count_loc(parse_diff(rec.diff))
        assert set(rec.files) == set(parse_diff(rec.diff).files)
        assert rec.date.endswith("+00:00")


def test_ingest_since_filters_everything(fixture_repo):
    assert list(ingest_repo(fixture_repo, "main", "2099-01-01")) == []


def test_ingest_errors(fixture_repo, tmp_path):
    with pytest.raises(BranchNotFound):
        list(ingest_repo(fixture_repo, "no-such-branch", "1970-01-01"))
    with pytest.raises(RepoNotFound):
        list(ingest_repo(tmp_path / "missing", "main", "1970-01-01"))
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(RepoNotFound):
        list(ingest_repo(plain, "main", "1970-01-01"))


def test_ingest_keeps_a_message_that_holds_the_field_separator(tmp_path):
    # The log fields are split on \x1f; the message field comes last, so a
    # \x1f inside it must not cut it.
    repo = tmp_path / "sep"
    init_repo(repo)
    (repo / "app.py").write_text("x = 1\n")
    when = datetime(2022, 1, 1, tzinfo=timezone.utc)
    commit_all(repo, "fix\x1fparser\x1f\n\nbody \x1f too", when)
    [record] = ingest_repo(repo, "main", "1970-01-01")
    # --format=%B ends the last record with one newline more than format:%B.
    assert record.message + "\n" == git(repo, "log", "-1", "--format=%B")
    assert record.message.startswith("fix\x1fparser\x1f\n")


def test_detect_repo_name(fixture_repo, tmp_path):
    assert detect_repo_name(fixture_repo) == "acme/widgets"


# -- filters -----------------------------------------------------------------


def _violator_corpus():
    """50 records: 43 clean plus one violator for each documented reason."""
    records = [
        make_record(i, message=f"improve handling of case {i} robustly")
        for i in range(43)
    ]
    records.append(make_record(100, message="too short message"))  # R1: 3 words
    records.append(make_record(101, message="word " * 50 + "extra"))  # R1: 51 words
    big = make_diff(added=[f"line {i}" for i in range(300)])
    records.append(make_record(102, diff=big))  # R2: 305 raw lines
    records.append(make_record(103, path="docs/guide.md"))  # R3: docs only
    records.append(
        make_record(104, author="dependabot[bot]", message="bump lodash to latest version")
    )  # R4
    records.append(make_record(105, message="Merge branch feature into main"))  # R5
    records.append(make_record(106, message="Revert the broken cache change"))  # R5
    return records


def test_filter_counts_and_reconciliation():
    records = _violator_corpus()
    retained, report = apply_filters(records)
    assert report.input_count == 50
    assert report.rejections == {"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": 2}
    assert report.retained_count == 43
    assert report.reconciles()
    assert len(retained) == 43
    payload = report.to_dict()
    assert payload["input"] == 50
    assert payload["rejected_r1"] == 2
    assert payload["retained"] == 43

    # independent per-rule scan over the full corpus
    assert sum(1 for r in records if not 5 <= len(r.message.split()) <= 50) == 2
    assert sum(1 for r in records if "[bot]" in r.author_name.lower()) == 1
    assert (
        sum(
            1
            for r in records
            if {"merge", "revert"} & set(tokenize(r.message))
        )
        == 2
    )

    # every retained record satisfies all five predicates
    from coracmg.diffs import diff_line_count

    for rec in retained:
        assert 5 <= len(rec.message.split()) <= 50
        assert diff_line_count(rec.diff) <= 300
        assert "[bot]" not in rec.author_name.lower()
        assert not {"merge", "revert"} & set(tokenize(rec.message))


def test_filter_boundaries():
    ok4 = make_record(0, message="one two three four")
    ok5 = make_record(1, message="one two three four five")
    ok50 = make_record(2, message=" ".join(["w"] * 50))
    over50 = make_record(3, message=" ".join(["w"] * 51))
    _, report = apply_filters([ok4, ok5, ok50, over50])
    assert report.rejections["R1"] == 2  # the 4-word and 51-word messages

    # make_diff emits 5 header lines + 1 context line before the added lines
    exactly_300 = make_record(4, diff=make_diff(added=[f"l{i}" for i in range(294)]))
    over_300 = make_record(5, diff=make_diff(added=[f"l{i}" for i in range(295)]))
    _, report = apply_filters([exactly_300, over_300])
    assert report.rejections["R2"] == 1


def test_r2_changed_mode_counts_only_changed_lines():
    # 296 added lines: 301 raw lines (rejected in raw mode), 296 changed (kept)
    record = make_record(0, diff=make_diff(added=[f"l{i}" for i in range(296)], context=[]))
    _, raw_report = apply_filters([record], line_mode="raw")
    _, changed_report = apply_filters([record], line_mode="changed")
    assert raw_report.rejections["R2"] == 1
    assert changed_report.retained_count == 1


def test_r5_matches_whole_tokens_only():
    merged_cell = make_record(0, message="improve merged-cell rendering some more")
    reverted = make_record(1, message="restore previously reverted widget styles")
    retained, report = apply_filters([merged_cell, reverted])
    assert len(retained) == 2, report.to_dict()


def test_filter_idempotence():
    retained, _ = apply_filters(_violator_corpus())
    again, report = apply_filters(retained)
    assert len(again) == len(retained)
    assert sum(report.rejections.values()) == 0


# -- stats -------------------------------------------------------------------


def test_stats_single_record():
    rec = make_record(0, message="fix the widget parser now")
    stats = compute_stats([rec])
    n_msg = len(tokenize(rec.message))
    assert stats.message_tokens_mean == n_msg
    assert stats.message_tokens_max == n_msg
    assert stats.message_tokens_median == n_msg


def test_stats_median_lower_middle():
    recs = [
        make_record(0, message="a b c d e"),
        make_record(1, message="a b c d e f g"),
    ]
    stats = compute_stats(recs)
    assert stats.message_tokens_median == 5  # lower of {5, 7}


def test_stats_against_oracle():
    from helpers import synthetic_corpus

    records = synthetic_corpus(4, 25, seed=3)
    stats = compute_stats(records)
    diff_lens = [len(tokenize(r.diff)) for r in records]
    msg_lens = [len(tokenize(r.message)) for r in records]
    mean, mx, med = oracle_stats(diff_lens)
    assert stats.diff_tokens_mean == pytest.approx(mean)
    assert stats.diff_tokens_max == mx
    assert stats.diff_tokens_median == med
    mean, mx, med = oracle_stats(msg_lens)
    assert stats.message_tokens_mean == pytest.approx(mean)
    assert stats.message_tokens_max == mx
    assert stats.message_tokens_median == med
    _, _, med_files = oracle_stats([len(r.files) for r in records])
    _, _, med_loc = oracle_stats([r.loc for r in records])
    assert stats.median_files == med_files
    assert stats.median_changed_lines == med_loc


def test_stats_empty_corpus():
    with pytest.raises(EmptyCorpus):
        compute_stats([])


def test_report_invariant_class():
    rep = FilterReport(input_count=3, rejections={r: 0 for r in "R1 R2 R3 R4 R5".split()}, retained_count=3)
    assert rep.reconciles()
    rep.retained_count = 2
    assert not rep.reconciles()

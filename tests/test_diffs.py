from __future__ import annotations

import gc
import hashlib
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coracmg import diffs
from coracmg.diffs import (
    CommitRecord,
    count_loc,
    diff_line_count,
    language_of,
    parse_diff,
    read_corpus_lines,
    read_jsonl,
)
from coracmg.errors import CoracmgError, InvalidInput, MalformedDiff
from helpers import git, make_diff, make_record
from oracles import oracle_read_jsonl

FIXTURE_DIFF = make_diff(
    path="src/main.py",
    added=["new line one", "new line two"],
    deleted=["old line"],
    context=["shared line"],
)


def test_empty_input():
    assert parse_diff("").file_changes == ()
    assert count_loc(parse_diff("")) == 0


def test_fixture_counts():
    parsed = parse_diff(FIXTURE_DIFF)
    assert len(parsed.file_changes) == 1
    change = parsed.file_changes[0]
    assert (change.old_path, change.new_path) == ("src/main.py", "src/main.py")
    assert (change.added, change.deleted) == (2, 1)
    assert count_loc(parsed) == 3
    assert parsed.files == ["src/main.py"]


# fault -> (text of FIXTURE_DIFF, its faulty replacement, error message)
_HUNK_FAULTS = {
    "bad-header": ("@@ -1,2 +1,3 @@\n", "@@ -1,2 +1,3\n", "unparseable hunk header"),
    "unexpected-line": ("+new line one\n", "?new line one\n", "unexpected line inside hunk"),
    "truncated-hunk": (
        "+new line one\n+new line two\n", "", "truncated hunk: header promised -2/+3"
    ),
}


@pytest.mark.parametrize("fault", sorted(_HUNK_FAULTS))
def test_malformed_hunk_header_names_offset(fault):
    good, bad, message = _HUNK_FAULTS[fault]
    # A non-ASCII line precedes the fault, so its byte and character offsets differ.
    diff = make_diff(path="a.py", added=["café = 1"]) + FIXTURE_DIFF.replace(good, bad)
    at = diff.find(bad) if bad else len(diff)  # a truncated hunk faults at the end
    with pytest.raises(MalformedDiff) as err:
        parse_diff(diff)
    assert message in str(err.value) and "byte offset" in str(err.value)
    assert err.value.offset == len(diff[:at].encode("utf-8")) == at + 1


def test_truncated_hunk_is_malformed():
    truncated = "\n".join(FIXTURE_DIFF.split("\n")[:-3]) + "\n"
    with pytest.raises(MalformedDiff):
        parse_diff(truncated)


def test_multi_file_diff():
    diff = make_diff(path="a.py", added=["x"]) + make_diff(path="b.java", deleted=["y"], added=[])
    parsed = parse_diff(diff)
    assert parsed.files == ["a.py", "b.java"]
    assert parsed.file_changes[0].added == 1
    assert parsed.file_changes[1].deleted == 1
    assert count_loc(parsed) == 2


def test_binary_section_has_zero_hunks():
    diff = (
        "diff --git a/logo.png b/logo.png\n"
        "index 1111111..2222222 100644\n"
        "Binary files a/logo.png and b/logo.png differ\n"
    )
    parsed = parse_diff(diff)
    assert parsed.files == ["logo.png"]
    change = parsed.file_changes[0]
    assert (change.old_path, change.new_path, change.added, change.deleted) == (
        "logo.png", "logo.png", 0, 0,
    )
    assert count_loc(parsed) == 0


def test_pure_rename_has_zero_hunks():
    diff = (
        "diff --git a/old.py b/new.py\n"
        "similarity index 100%\n"
        "rename from old.py\n"
        "rename to new.py\n"
    )
    parsed = parse_diff(diff)
    change = parsed.file_changes[0]
    assert change.old_path == "old.py"
    assert change.new_path == "new.py"
    assert parsed.files == ["new.py"]
    assert (change.added, change.deleted) == (0, 0)


def test_new_and_deleted_files():
    new = (
        "diff --git a/fresh.py b/fresh.py\n"
        "new file mode 100644\n"
        "index 0000000..1111111\n"
        "--- /dev/null\n"
        "+++ b/fresh.py\n"
        "@@ -0,0 +1,2 @@\n"
        "+a = 1\n"
        "+b = 2\n"
    )
    parsed = parse_diff(new)
    assert parsed.file_changes[0].old_path is None
    assert parsed.file_changes[0].new_path == "fresh.py"
    assert parsed.file_changes[0].added == 2

    gone = (
        "diff --git a/dead.py b/dead.py\n"
        "deleted file mode 100644\n"
        "index 1111111..0000000\n"
        "--- a/dead.py\n"
        "+++ /dev/null\n"
        "@@ -1,1 +0,0 @@\n"
        "-a = 1\n"
    )
    parsed = parse_diff(gone)
    assert parsed.file_changes[0].new_path is None
    assert parsed.file_changes[0].path == "dead.py"
    assert parsed.file_changes[0].deleted == 1


def test_diff_line_count_conventions():
    assert diff_line_count("") == 0
    assert diff_line_count(FIXTURE_DIFF) == len(FIXTURE_DIFF.splitlines())
    assert diff_line_count("one\ntwo\nthree") == 3  # no trailing newline
    assert diff_line_count("one\ntwo\nthree\n") == 3


def test_quoted_and_spaced_paths(tmp_path):
    from datetime import datetime, timezone

    from helpers import commit_all, init_repo

    repo = tmp_path / "qp"
    init_repo(repo)
    (repo / "café.py").write_text("x = 1\n")
    (repo / "with space.java").write_text("y = 2\n")
    commit_all(repo, "add files", datetime(2021, 1, 1, tzinfo=timezone.utc))
    (repo / "café.py").write_text("x = 2\n")
    (repo / "with space.java").write_text("y = 3\n")
    commit_all(repo, "edit files", datetime(2021, 1, 2, tzinfo=timezone.utc))
    diff = git(repo, "show", "HEAD", "--no-color", "--format=")
    assert '"a/caf' in diff  # git really did quote the non-ascii path
    parsed = parse_diff(diff)
    assert sorted(parsed.files) == ["café.py", "with space.java"]
    assert {fc.path: (fc.old_path, fc.added, fc.deleted) for fc in parsed.file_changes} == {
        "café.py": ("café.py", 1, 1),
        "with space.java": ("with space.java", 1, 1),
    }


def test_paths_git_quotes_read_back_as_git_lists_them(tmp_path):
    from datetime import datetime, timezone

    from helpers import commit_all, init_repo

    repo = tmp_path / "qp"
    init_repo(repo)
    names = ["tab\there.py", 'quote"d.py', "back\\slash.py", "new\nline.py", "bell\a.py", "é ü.py"]
    for name in names:
        (repo / name).write_text("x = 1\n")
    commit_all(repo, "add files", datetime(2021, 1, 1, tzinfo=timezone.utc))
    for name in names:
        (repo / name).write_text("x = 2\ny = 3\n")
    commit_all(repo, "edit files", datetime(2021, 1, 2, tzinfo=timezone.utc))
    diff = git(repo, "show", "HEAD", "--no-color", "--format=")
    assert '"a/tab\\there.py"' in diff and '"a/bell\\a.py"' in diff  # git quoted them
    listed = git(repo, "show", "HEAD", "--numstat", "-z", "--format=").strip("\0\n").split("\0")
    assert sorted(parse_diff(diff).files) == sorted(line.split("\t", 2)[2] for line in listed)
    assert sorted(parse_diff(diff).files) == sorted(names)


@pytest.mark.parametrize(
    "quoted, literal",
    [
        pytest.param('"a/x\\1z"', "x\\1z", id="short-octal"),
        pytest.param('"a/x\\400"', "x\\400", id="octal-above-377"),
        pytest.param('"a/x\\q"', "x\\q", id="unknown-letter"),
        pytest.param('"a/x\\"', "x\\", id="trailing-backslash"),
    ],
)
def test_an_escape_git_does_not_write_is_kept_as_text(quoted, literal):
    new = '"b/' + quoted[3:]
    diff = f"diff --git {quoted} {new}\n--- {quoted}\n+++ {new}\n@@ -1 +1 @@\n-a\n+b\n"
    assert parse_diff(diff).file_changes == (diffs.FileChange(literal, literal, 1, 1),)
    # Sections without ---/+++ lines take their paths from the header alone.
    mode_only = f"diff --git {quoted} {new}\nold mode 100644\nnew mode 100755\n"
    binary = (
        f"diff --git {quoted} {new}\nindex 1234567..89abcde\n"
        f"Binary files {quoted} and {new} differ\n"
    )
    for section in (mode_only, binary):
        assert parse_diff(section).file_changes == (diffs.FileChange(literal, literal, 0, 0),)


def _git_quote(path: str) -> str:
    """``path`` as git's quote_c_style writes it: named escapes, else octal for every byte
    below a space or above ``~``."""
    named = {7: "a", 8: "b", 9: "t", 10: "n", 11: "v", 12: "f", 13: "r", 34: '"', 92: "\\"}
    out = []
    for byte in path.encode("utf-8"):
        if byte in named:
            out.append("\\" + named[byte])
        elif byte < 0x20 or byte >= 0x7F:
            out.append(f"\\{byte:03o}")
        else:
            out.append(chr(byte))
    return '"' + "".join(out) + '"'


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1))
def test_git_quoted_paths_unquote_to_themselves(path):
    assert diffs._unquote_git_path(_git_quote(path)) == path


def test_language_table():
    assert language_of("src/App.java") == "java"
    assert language_of("lib.rs") == "rust"
    assert language_of("mod.go") == "go"
    assert language_of("notes.md") == "other"
    assert language_of("Makefile") == "other"
    assert language_of("a/b/c.TS") == "typescript"


def test_commit_record_json_round_trip():
    rec = CommitRecord(
        diff=FIXTURE_DIFF,
        message="fix the shared line handling",
        repo_full_name="acme/widgets",
        sha="a" * 40,
        author_name="Dev",
        files=["src/main.py"],
        date="2021-01-01T00:00:00+00:00",
        loc=3,
    )
    line = rec.to_json()
    obj = json.loads(line)
    assert set(obj) == {
        "diff", "message", "repo_full_name", "sha", "author_name", "files", "date", "loc",
    }
    assert CommitRecord.from_json(line) == rec
    rec.validate()


def test_commit_record_validate_rejects_bad_fields():
    good = CommitRecord(
        diff=FIXTURE_DIFF,
        message="fine message",
        repo_full_name="acme/widgets",
        sha="a" * 40,
        author_name="Dev",
        files=["src/main.py"],
        date="2021-01-01T00:00:00+00:00",
        loc=3,
    )
    for bad in [
        {"sha": "XYZ"},
        {"message": "two\nlines"},
        {"message": "refers to #123"},
        {"loc": 7},
        {"files": ["wrong.py"]},
    ]:
        with pytest.raises(ValueError):
            CommitRecord(**{**good.__dict__, **bad}).validate()


# -- JSON Lines reader: the per-line reader's values and errors ----------------


def _json_line(i: int, **changes) -> bytes:
    obj = {**json.loads(make_record(i, path=f"src/m{i}.py").to_json()), **changes}
    return json.dumps(obj).encode("utf-8") + b"\n"  # ensure_ascii: "\ud800" stays an escape


_GOOD = _json_line(1)
_LINES = {  # name -> a file's bytes; each is read by both readers
    "blank-and-whitespace-lines": _GOOD + b"\n  \n\t\x0c\x0b\r\n" + _json_line(2) + b"\x0c\n",
    "crlf-line-ends": _GOOD.replace(b"\n", b"\r\n") + _json_line(2).replace(b"\n", b"\r\n"),
    "lone-cr-between-tokens": _GOOD.replace(b', "message"', b',\r"message"') + _json_line(2),
    "no-final-newline": _GOOD + _json_line(2).rstrip(b"\n"),
    "leading-and-trailing-whitespace": b"  " + _GOOD.rstrip() + b" \t\n" + b"\t" + _json_line(2),
    "utf8-bom": b"\xef\xbb\xbf" + _GOOD,
    "utf8-bom-on-line-2": _GOOD + b"\xef\xbb\xbf" + _json_line(2),
    "record-split-across-two-lines": _GOOD + _json_line(2)[:40] + b"\n" + _json_line(2)[40:],
    "two-records-on-one-line": _GOOD.rstrip(b"\n") + _json_line(2) + _json_line(3),
    "two-records-one-space-apart": _GOOD.rstrip(b"\n") + b" " + _json_line(2),
    "non-utf8-byte-on-line-3": _GOOD + _json_line(2) + _json_line(3).replace(b"shared", b"sh\xffred"),
    "escaped-lone-surrogate": _GOOD + _json_line(2, message="half \ud800 a pair"),
    "escaped-surrogate-pair": _GOOD + _json_line(2, message="whole \U0001f600 pair"),
    "extra-key": _GOOD + _json_line(2, extra=[1, 2]),
    "array-line": _GOOD + b"[1, 2]\n",
    "value-then-garbage": _GOOD + b'{"a": 1}x\n',
    "raw-newline-in-a-string": _GOOD + _json_line(2).replace(b"shared", b"sh\nred"),
    "empty-file": b"",
    "only-blank-lines": b"\n \n\r\n",
}
_LEADS = (1, 16, 1 << 18)  # bytes of a blank line put before a case: one newline, up to 256 KiB


def _outcome(reader, path, parse):
    """The values read, or the ``InvalidInput`` text."""
    try:
        return list(reader(path, parse))
    except InvalidInput as exc:
        return "error", str(exc)


def _assert_reads_as_the_oracle(path, data: bytes):
    path.write_bytes(data)
    for parse in (CommitRecord.from_dict, lambda value: value):
        assert _outcome(read_jsonl, path, parse) == _outcome(oracle_read_jsonl, path, parse), data


@pytest.mark.parametrize("lead", _LEADS)
@pytest.mark.parametrize("case", sorted(_LINES))
def test_read_jsonl_reads_what_the_per_line_reader_reads(tmp_path, case, lead):
    # After the lead every line number and offset is one the case alone never has.
    _assert_reads_as_the_oracle(tmp_path / "lines.jsonl", b"\n".rjust(lead) + _LINES[case])


def test_read_jsonl_errors_name_the_line(tmp_path):
    for case, expected in [
        ("utf8-bom", "line 1 is not JSON: Unexpected UTF-8 BOM"),
        ("record-split-across-two-lines", "line 2 is not JSON"),
        ("two-records-on-one-line", "line 1 is not JSON: Extra data"),
        ("non-utf8-byte-on-line-3", "line 3 is not JSON: 'utf-8' codec can't decode byte 0xff"),
        ("escaped-lone-surrogate", "line 2 holds a lone surrogate U+D800"),
    ]:
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(_LINES[case])
        with pytest.raises(InvalidInput) as exc:
            list(read_jsonl(path))
        assert str(exc.value).startswith(f"{path} {expected}")


_FRAGMENTS = sorted({*_LINES.values(), _GOOD[:40] + b"\n", _GOOD[40:], b"\x0c\n", b"  \n"})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=6), st.booleans())
def test_read_jsonl_on_mixed_lines_reads_what_the_per_line_reader_reads(
    tmp_path_factory, fragments, final_newline
):
    data = b"".join(fragments)
    if not final_newline:
        data = data.rstrip(b"\n")
    _assert_reads_as_the_oracle(tmp_path_factory.getbasetemp() / "mixed.jsonl", data)


def _assert_lines_follow_each_other(data: bytes, lines):
    """Each line starts where the one before it ended, or past the blank lines between them.

    Only blank lines follow the last one.
    """
    at = 0
    for line in lines:
        gap = data[at : line.start]
        assert not gap or (gap.isspace() and gap.endswith(b"\n")), (data, line)
        assert b"\n" not in data[line.start : line.end - 1], (data, line)
        assert data[line.end - 1 : line.end] == b"\n" or line.end == len(data), (data, line)
        at = line.end
    assert not data[at:].strip(), data


@pytest.mark.parametrize("case", ["extra-key", "crlf-line-ends", "leading-and-trailing-whitespace"])
def test_corpus_lines_build_the_records_read_corpus_builds(tmp_path, case):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_LINES[case])
    corpus = read_corpus_lines(path)
    records = list(read_jsonl(path))
    assert [corpus.record(line) for line in corpus.lines] == records
    assert [list(line.files) for line in corpus.lines] == [rec.files for rec in records]
    assert corpus.data == path.read_bytes()
    assert corpus.sha256 == hashlib.sha256(corpus.data).hexdigest()


def test_corpus_line_paths_leave_the_collector_after_one_collection(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_LINES["extra-key"])
    with mock.patch.object(diffs, "_checked", ("", [])):
        lines = read_corpus_lines(path).lines
        gc.collect()
    assert lines and all(type(line.files) is tuple for line in lines)
    # A line is a NamedTuple, which CPython keeps tracking; only an exact
    # tuple of untracked items, as its paths are, is untracked.
    assert not any(gc.is_tracked(line.files) for line in lines)


def test_corpus_line_record_checks_its_line_again():
    bad = _json_line(1, loc="3")
    corpus = diffs.CorpusFile(_GOOD + bad, [], "", "parsed")
    good = diffs.CorpusLine(["src/m1.py"], 0, len(_GOOD))
    assert corpus.record(good) == CommitRecord.from_json(_GOOD.decode("utf-8"))
    with pytest.raises(ValueError, match="field 'loc' holds str, not int"):
        corpus.record(diffs.CorpusLine(["src/m1.py"], len(_GOOD), len(_GOOD + bad)))


# -- checked once: a process does not parse the same corpus bytes again --------


def _no_parse(*args):
    raise AssertionError("a cached read parsed the corpus")


def _assert_second_read_gives_the_lines_a_full_read_gives(path, data: bytes):
    path.write_bytes(data)
    with mock.patch.object(diffs, "_checked", ("", [])):
        try:
            first = read_corpus_lines(path)
        except CoracmgError:  # not a corpus: nothing is kept for it
            assert diffs._checked == ("", [])
            return
        with mock.patch.object(diffs, "_parse_lines", _no_parse):
            second = read_corpus_lines(path)
    assert (first.source, second.source) == ("parsed", "cached")
    assert second.lines is first.lines
    assert second.sha256 == first.sha256 == hashlib.sha256(data).hexdigest()
    _assert_lines_follow_each_other(data, first.lines)
    records = list(read_jsonl(path))
    assert [second.record(line) for line in second.lines] == records


@pytest.mark.parametrize("case", sorted(_LINES))
def test_a_second_read_gives_the_lines_a_full_read_gives(tmp_path, case):
    _assert_second_read_gives_the_lines_a_full_read_gives(tmp_path / "corpus.jsonl", _LINES[case])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=6), st.booleans())
def test_a_second_read_of_mixed_lines_gives_the_lines_a_full_read_gives(
    tmp_path_factory, fragments, final_newline
):
    data = b"".join(fragments)
    if not final_newline:
        data = data.rstrip(b"\n")
    path = tmp_path_factory.mktemp("mixed") / "corpus.jsonl"
    _assert_second_read_gives_the_lines_a_full_read_gives(path, data)


def _corpus(tmp_path, name="corpus.jsonl", last=3):
    path = tmp_path / name
    path.write_bytes(_GOOD + b"\n" + _json_line(2) + b"  \n" + _json_line(last, files=[]))
    return path


def test_only_the_last_corpus_checked_is_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(diffs, "_checked", ("", []))
    first, other = _corpus(tmp_path), _corpus(tmp_path, "other.jsonl", last=4)
    sources = [read_corpus_lines(path).source for path in (first, first, other, other, first)]
    assert sources == ["parsed", "cached", "parsed", "cached", "parsed"]


def test_a_corpus_edited_after_a_read_still_names_its_bad_line(tmp_path, monkeypatch):
    monkeypatch.setattr(diffs, "_checked", ("", []))
    path = _corpus(tmp_path)
    read_corpus_lines(path)
    assert read_corpus_lines(path).source == "cached"
    lines = path.read_bytes().split(b"\n")
    lines[2] = b'{"diff": '
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(InvalidInput, match=r"corpus\.jsonl line 3 is not JSON"):
        read_corpus_lines(path)


def test_a_corpus_with_a_bad_last_line_is_not_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(diffs, "_checked", ("", []))
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(_GOOD + _json_line(2) + _json_line(3, date="yesterday"))
    for _ in range(2):  # the second read checks every line again
        with pytest.raises(InvalidInput, match="line 3 field 'date' holds 'yesterday'"):
            read_corpus_lines(path)
    assert diffs._checked == ("", [])


# -- git oracle: per-file added/deleted counts must match --numstat ---------


def _numstat_expected(repo, sha) -> dict[str, tuple]:
    out = git(repo, "show", sha, "--numstat", "--format=")
    expected = {}
    for line in out.splitlines():
        if not line.strip():
            continue
        added, deleted, path = line.split("\t", 2)
        if "{" in path:  # prefix{old => new}suffix
            path = re.sub(r"\{[^}]* => ([^}]*)\}", r"\1", path).replace("//", "/")
        elif " => " in path:
            path = path.split(" => ")[1]
        counts = (None, None) if added == "-" else (int(added), int(deleted))
        expected[path] = counts
    return expected


def test_against_git_numstat(numstat_repo):
    shas = git(numstat_repo, "log", "--format=%H").split()
    assert len(shas) == 25
    for sha in shas:
        diff = git(numstat_repo, "show", sha, "--no-color", "--format=")
        parsed = parse_diff(diff)
        expected = _numstat_expected(numstat_repo, sha)
        got = {fc.path: (fc.added, fc.deleted) for fc in parsed.file_changes}
        assert set(got) == set(expected), f"file set mismatch in {sha}"
        for path, (added, deleted) in expected.items():
            if added is None:  # binary: numstat has no counts, we parse no hunks
                assert got[path] == (0, 0)
            else:
                assert got[path] == (added, deleted), f"{sha}:{path}"

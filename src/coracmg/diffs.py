"""Commit domain types and a parser for git's unified diff format.

A commit record carries eight fields (diff, message, repo_full_name, sha,
author_name, files, date, loc) and serializes to one JSON object per line.
``parse_diff`` reads raw ``diff --git`` text into the path and the added and
deleted line counts of each changed file, checking every hunk against its
header; ``count_loc`` and ``diff_line_count`` are the two line counters used
by the corpus filters.

Corpus files are read one line at a time straight from the file's bytes.
``read_corpus_lines`` keeps each checked record as its paths and the byte
range of its line, and copies no line: ``CorpusFile.record`` builds a
record from those bytes when it is needed.  It remembers, in this process,
the sha256 of the last corpus bytes it checked and the lines that check
returned, so a later read of the same bytes (a later run in the same
process) parses nothing.  Nothing is written to disk, and the lines are
never used for other bytes.

All types are immutable after construction, the parse operations are pure
and the kept digest and lines are replaced whole, never changed in place,
so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import EmptyCorpus, InvalidInput, MalformedDiff, read_bytes

SHA_RE = re.compile(r"^[0-9a-f]{40}$")

# Extension -> language for the mainstream-language file filter (R3) and
# the language coverage of experiment subsets.
DEFAULT_LANGUAGES: dict[str, str] = {
    ".java": "java",
    ".cpp": "cpp",
    ".cc": "cpp",
    ".cxx": "cpp",
    ".hpp": "cpp",
    ".hh": "cpp",
    ".hxx": "cpp",
    ".h": "cpp",
    ".scala": "scala",
    ".sc": "scala",
    ".ts": "typescript",
    ".tsx": "typescript",
    ".py": "python",
    ".pyi": "python",
    ".lua": "lua",
    ".go": "go",
    ".rs": "rust",
    ".erl": "erlang",
    ".hrl": "erlang",
}


def language_of(path: str) -> str:
    dot = path.rfind(".")
    if dot == -1:
        return "other"
    return DEFAULT_LANGUAGES.get(path[dot:].lower(), "other")


@dataclass(frozen=True)
class FileChange:
    old_path: str | None  # None for newly added files
    new_path: str | None  # None for deleted files
    added: int
    deleted: int

    @property
    def path(self) -> str:
        """The path this change is filed under (new side, old side for deletions)."""
        return self.new_path if self.new_path is not None else (self.old_path or "")


@dataclass(frozen=True)
class ParsedDiff:
    file_changes: tuple[FileChange, ...]

    @property
    def files(self) -> list[str]:
        return [fc.path for fc in self.file_changes]


_RECORD_FIELDS = ("diff", "message", "repo_full_name", "sha", "author_name", "files", "date", "loc")
_RECORD_KINDS = (str, str, str, str, str, list, str, int)  # exact, so true/false is no loc
_field_values = itemgetter(*_RECORD_FIELDS)


def _checked_values(obj) -> tuple:
    """The eight field values of one parsed corpus line, in ``CommitRecord`` order.

    A missing or mistyped field, a lone surrogate in any text or a date
    that does not parse is a ValueError.
    """
    if type(obj) is not dict:
        raise ValueError(f"holds a JSON {type(obj).__name__}, not an object")
    try:
        values = _field_values(obj)
    except KeyError:
        values = ()  # the loop below names the missing field
    if tuple(map(type, values)) != _RECORD_KINDS:  # one C-level check on the common path
        for name, kind in zip(_RECORD_FIELDS, _RECORD_KINDS):
            if type(obj.get(name)) is not kind:
                found = type(obj[name]).__name__ if name in obj else "nothing"
                raise ValueError(f"field {name!r} holds {found}, not {kind.__name__}")
    try:
        paths = "".join(values[5])
    except TypeError:  # JSON makes no str subclass, so only a non-string stops the join
        raise ValueError("field 'files' holds a non-string path") from None
    try:  # a JSON escape can hold half a surrogate pair, which no UTF-8 file can
        "".join(values[:5]).encode("utf-8")
        paths.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"holds a lone surrogate U+{ord(exc.object[exc.start]):04X}, not UTF-8 text"
        ) from None
    try:
        datetime.fromisoformat(values[6])
    except ValueError:
        raise ValueError(f"field 'date' holds {values[6]!r}, not an ISO-8601 date") from None
    return values


@dataclass(frozen=True)
class CommitRecord:
    """One mined commit: the unit stored in corpus JSON Lines files."""

    diff: str
    message: str
    repo_full_name: str
    sha: str
    author_name: str
    files: list[str] = field(default_factory=list)
    date: str = ""  # ISO-8601, UTC
    loc: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "diff": self.diff,
                "message": self.message,
                "repo_full_name": self.repo_full_name,
                "sha": self.sha,
                "author_name": self.author_name,
                "files": self.files,
                "date": self.date,
                "loc": self.loc,
            },
            ensure_ascii=False,
        )

    @classmethod
    def from_json(cls, line: str) -> "CommitRecord":
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, obj) -> "CommitRecord":
        """Record from one parsed corpus line, checked by ``_checked_values``."""
        return cls(*_checked_values(obj))

    def validate(self) -> None:
        """Check the record invariants; raises ValueError on the first violation."""
        if not SHA_RE.match(self.sha):
            raise ValueError(f"sha is not 40 lowercase hex chars: {self.sha!r}")
        if "\n" in self.message or "\r" in self.message:
            raise ValueError("message contains newline characters")
        if re.search(r"#\d", self.message):
            raise ValueError("message still contains a PR number reference")
        parsed = parse_diff(self.diff)
        if self.loc != count_loc(parsed):
            raise ValueError(f"loc={self.loc} but diff has {count_loc(parsed)} changed lines")
        if set(self.files) != set(parsed.files):
            raise ValueError("files does not match the paths in the diff headers")
        # Parseable and parsed already; date must be ISO-8601.
        datetime.fromisoformat(self.date)


_scan_once = json.JSONDecoder().scan_once  # json.loads's C scanner, without its wrapper


def _parse_lines(path, data: bytes, parse: Callable) -> Iterator:
    """``parse(value, start, end)`` of each non-blank line of ``data``, the bytes of ``path``.

    ``data[start:end]`` is the line, newline included.  Fast path: the
    decoded line's value is read by ``json``'s C scanner and kept if it ends
    where the line ends.  Fallback: any other line (blank, with surrounding
    whitespace, not UTF-8 or not JSON) is parsed by ``json.loads``, so every
    value and every error is that of ``json.loads`` on each line.
    """
    lineno = start = 0
    while start < len(data):
        end = data.find(b"\n", start) + 1 or len(data)  # after a newline, or at the end
        line = data[start:end]
        lineno += 1
        try:
            text = line.decode("utf-8")
            value, at = _scan_once(text, 0)
            whole = at == len(text) - text.endswith("\n")
        except (StopIteration, ValueError):  # not UTF-8, blank, leading whitespace, or not JSON
            whole = False
        if not whole:
            if line.isspace():
                start = end
                continue
            try:
                value = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise InvalidInput(f"{path} line {lineno} is not JSON: {exc}") from None
        try:
            value = parse(value, start, end)
        except ValueError as exc:
            raise InvalidInput(f"{path} line {lineno} {exc}") from None
        start = end
        yield value


def read_jsonl(path, parse: Callable = CommitRecord.from_dict) -> Iterator:
    """``parse`` of each non-blank line's JSON value, a ``CommitRecord`` by default.

    A missing file, a non-JSON line or a ``ValueError`` from ``parse`` is an
    ``InvalidInput`` naming the line.  The file's bytes are read once.
    """
    yield from _parse_lines(path, read_bytes(path, InvalidInput), lambda value, *_: parse(value))


class CorpusLine(NamedTuple):
    """A checked corpus record: its paths, and where its line is in the corpus bytes.

    The paths are a tuple of strings, which the garbage collector stops
    tracking after one collection: the lines a process keeps cost later
    collections no walk over their paths.
    """

    files: tuple[str, ...]
    start: int
    end: int


class CorpusFile(NamedTuple):
    """A corpus file's bytes, the checked lines of its records and the bytes' sha256.

    ``source`` is ``"parsed"`` when every line was parsed and checked in
    this read, and ``"cached"`` when this process had checked the same
    bytes already and the lines came from that check.
    """

    data: bytes
    lines: list[CorpusLine]
    sha256: str
    source: str

    def record(self, line: CorpusLine) -> CommitRecord:
        """The record on ``line``, checked again as ``read_corpus`` checks it.

        A line that fails the checks is a ValueError.
        """
        return CommitRecord.from_json(self.data[line.start : line.end].decode("utf-8"))


def _corpus_line(value, start: int, end: int) -> CorpusLine:
    return CorpusLine(tuple(_checked_values(value)[5]), start, end)


def _nonempty(path, records: list) -> list:
    if not records:
        raise EmptyCorpus(f"{path} holds no commit records")
    return records


def read_corpus(path) -> list[CommitRecord]:
    """Every record of a corpus file; a file that holds none is an ``EmptyCorpus``."""
    return _nonempty(path, list(read_jsonl(path)))


# The sha256 of the last corpus bytes every line of which passed the checks,
# and those lines: one entry, replaced whole.
_checked: tuple[str, list[CorpusLine]] = ("", [])


def read_corpus_lines(path) -> CorpusFile:
    """Every record of a corpus file as a ``CorpusLine``, checked as ``read_corpus`` checks it.

    No ``CommitRecord`` is built: ``CorpusFile.record`` builds one, and
    checks it again, when it is needed.  The file's bytes are read once,
    and no line is copied out of them.

    Once every line has passed, the sha256 of the bytes and the lines are
    kept for the process.  A later read of bytes with the same digest
    returns those lines and parses no JSON; bytes with another digest are
    parsed and checked in full.  The lines are shared between reads, so
    they are not to be changed.
    """
    global _checked
    data = read_bytes(path, InvalidInput)
    sha256 = hashlib.sha256(data).hexdigest()
    checked_sha256, lines = _checked
    if sha256 == checked_sha256:
        return CorpusFile(data, lines, sha256, "cached")
    lines = _nonempty(path, list(_parse_lines(path, data, _corpus_line)))
    _checked = (sha256, lines)
    return CorpusFile(data, lines, sha256, "parsed")


def write_jsonl(path, records: Iterable[CommitRecord]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
            n += 1
    return n


def utc_isoformat(dt: datetime) -> str:
    return dt.astimezone(timezone.utc).isoformat()


_HUNK_HEADER = re.compile(r"^@@ -\d+(?:,(\d+))? \+\d+(?:,(\d+))? @@")


# The escapes git's quote_c_style writes besides \ooo, and the byte each stands for.
_C_ESCAPES = {
    b"a": b"\a", b"b": b"\b", b"t": b"\t", b"n": b"\n", b"v": b"\v",
    b"f": b"\f", b"r": b"\r", b'"': b'"', b"\\": b"\\",
}
_C_ESCAPE = re.compile(rb"\\([0-3][0-7][0-7]|[" + re.escape(b"".join(_C_ESCAPES)) + rb"])")


def _unquote_git_path(path: str) -> str:
    """Undo git's C-style path quoting ("caf\\303\\251.py" and friends).

    Only the escapes git writes are decoded; any other backslash is kept as text.
    """
    if len(path) < 2 or path[0] != '"' or path[-1] != '"':
        return path
    body = _C_ESCAPE.sub(
        lambda m: _C_ESCAPES.get(m[1]) or bytes([int(m[1], 8)]), path[1:-1].encode("utf-8")
    )
    return body.decode("utf-8", errors="replace")


def _strip_prefix(path: str) -> str | None:
    path = _unquote_git_path(path)
    if path == "/dev/null":
        return None
    if len(path) > 2 and path[1] == "/" and path[0] in "abiwco":
        return path[2:]
    return path


def _git_header_paths(line: str) -> tuple[str, str]:
    # "diff --git a/<old> b/<new>": quoted paths are split as git quoted them (a
    # quoted part ends at whitespace or the line's end), others at the " b/"
    # separator (so paths may hold spaces), else the first space.
    body = line[len("diff --git ") :]
    if '"' in body:
        parts = re.findall(r'"(?:[^"\\]|\\.)*"(?=\s|$)|\S+', body)
        if len(parts) == 2:
            return _strip_prefix(parts[0]) or "", _strip_prefix(parts[1]) or ""
    marker = body.find(" b/")
    if marker == -1:
        marker = body.find(" ")
    if marker == -1:
        return body, body
    return _strip_prefix(body[:marker]) or "", _strip_prefix(body[marker + 1 :]) or ""


def _malformed(message: str, lines: list[str], j: int) -> MalformedDiff:
    """The error for ``lines[j]``, placed at that line's UTF-8 byte offset."""
    return MalformedDiff(message, sum(len(ln.encode("utf-8")) + 1 for ln in lines[:j]))


def parse_diff(raw: str) -> ParsedDiff:
    """Paths and added/deleted line counts of each file in a git unified diff.

    Empty input yields an empty change list.  A hunk whose header cannot be
    parsed, that holds a line of no known kind, or that ends before its
    header's line counts raises :class:`MalformedDiff` naming the byte offset.
    Binary file sections and pure renames count zero lines.  A quoted path
    is decoded as git's C-style quoting writes it (``\\ooo`` bytes up to
    ``\\377`` and ``\\a \\b \\t \\n \\v \\f \\r \\" \\\\``); any other backslash is
    kept as text.
    """
    changes: list[FileChange] = []
    lines = raw.split("\n")
    n = len(lines)
    i = 0
    while i < n:
        if not lines[i].startswith("diff --git "):
            i += 1
            continue
        old_path, new_path = _git_header_paths(lines[i])
        added = deleted = 0
        new_file = deleted_file = False
        i += 1
        while i < n and not lines[i].startswith("diff --git "):
            line = lines[i]
            i += 1
            if line.startswith("@@"):
                m = _HUNK_HEADER.match(line)
                if not m:
                    raise _malformed(f"unparseable hunk header {line!r}", lines, i - 1)
                old_len = 1 if m[1] is None else int(m[1])
                new_len = 1 if m[2] is None else int(m[2])
                old_left, new_left = old_len, new_len
                # "\ No newline at end of file" markers count on neither side.
                while i < n and (old_left > 0 or new_left > 0):
                    mark = lines[i][:1]
                    if mark == "+":
                        added += 1
                        new_left -= 1
                    elif mark == "-":
                        deleted += 1
                        old_left -= 1
                    elif mark == " " or not mark:  # whitespace-stripped diffs drop the " "
                        old_left -= 1
                        new_left -= 1
                    elif mark != "\\":
                        raise _malformed(f"unexpected line inside hunk: {lines[i]!r}", lines, i)
                    i += 1
                if old_left or new_left:
                    raise _malformed(
                        "truncated hunk: header promised "
                        f"-{old_len}/+{new_len} but body ended early",
                        lines,
                        min(i, n - 1),
                    )
            elif line.startswith("deleted file mode"):
                deleted_file = True
            elif line.startswith("new file mode"):
                new_file = True
            elif line.startswith("rename from "):
                old_path = _unquote_git_path(line[len("rename from ") :])
            elif line.startswith("rename to "):
                new_path = _unquote_git_path(line[len("rename to ") :])
            elif line.startswith("--- "):
                old_path = _strip_prefix(line[4:].split("\t")[0])
            elif line.startswith("+++ "):
                new_path = _strip_prefix(line[4:].split("\t")[0])
            # Index lines, mode lines, similarity scores, binary notes etc. carry nothing needed.
        changes.append(
            FileChange(
                None if new_file else old_path, None if deleted_file else new_path, added, deleted
            )
        )
    return ParsedDiff(file_changes=tuple(changes))


def count_loc(diff: ParsedDiff) -> int:
    """Total added plus deleted line count across all files."""
    return sum(fc.added + fc.deleted for fc in diff.file_changes)


def diff_line_count(raw: str) -> int:
    """Number of newline-delimited lines in the raw diff payload, headers included.

    A final line without a trailing newline counts as one line.
    """
    if not raw:
        return 0
    return raw.count("\n") + (0 if raw.endswith("\n") else 1)


def changed_line_count(raw: str) -> int:
    """Added plus deleted lines of the raw diff; the alternative R2 counter."""
    return count_loc(parse_diff(raw))

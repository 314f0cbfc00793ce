"""Corpus construction: mine commits from a git clone, preprocess messages,
apply the five quality filters with per-rule accounting, and compute corpus
statistics.

Filters, evaluated in order with rejection attributed to the first failure:

* R1 message length: 5..50 space-separated words
* R2 diff length: at most ``MAX_DIFF_LINES`` (300) raw diff lines (headers
  included; pass ``line_mode="changed"`` to count only added+deleted lines)
* R3 file types: at least one mainstream-language source file
* R4 bot authors: author name must not contain "[bot]"
* R5 merge/revert: the lowercased message must not contain "merge" or
  "revert" as whole tokens
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from .diffs import (
    CommitRecord,
    changed_line_count,
    count_loc,
    diff_line_count,
    language_of,
    parse_diff,
    utc_isoformat,
)
from .errors import BranchNotFound, EmptyCorpus, RepoNotFound
from .tokenizer import tokenize

_PR_REF_PAREN = re.compile(r"\(#\d+\)")
_PR_REF = re.compile(r"#\d+")

RULES = ("R1", "R2", "R3", "R4", "R5")
# R2's limit on a diff's lines.
MAX_DIFF_LINES = 300


def preprocess_message(raw: str) -> str:
    """First line of ``raw`` with PR number references removed.

    Both "(#1234)" and bare "#1234" forms are dropped; surrounding whitespace
    collapses to single spaces.
    """
    first = raw.splitlines()[0] if raw else ""
    first = _PR_REF_PAREN.sub(" ", first)
    first = _PR_REF.sub(" ", first)
    return " ".join(first.split())


@dataclass
class FilterReport:
    """Per-rule rejection accounting."""

    input_count: int = 0
    rejections: dict[str, int] = field(default_factory=lambda: {r: 0 for r in RULES})
    retained_count: int = 0

    def reconciles(self) -> bool:
        return self.retained_count + sum(self.rejections.values()) == self.input_count

    def to_dict(self) -> dict:
        out: dict = {"input": self.input_count}
        for rule in RULES:
            out[f"rejected_{rule.lower()}"] = self.rejections[rule]
        out["retained"] = self.retained_count
        return out


def failing_rule(record: CommitRecord, line_mode: str = "raw") -> str | None:
    """First rule the record violates, or None if it passes all five."""
    words = len(record.message.split())
    if words < 5 or words > 50:
        return "R1"
    counter = diff_line_count if line_mode == "raw" else changed_line_count
    if counter(record.diff) > MAX_DIFF_LINES:
        return "R2"
    if not any(language_of(path) != "other" for path in record.files):
        return "R3"
    if "[bot]" in record.author_name.lower():
        return "R4"
    tokens = set(tokenize(record.message))
    if "merge" in tokens or "revert" in tokens:
        return "R5"
    return None


def apply_filters(
    records: Iterable[CommitRecord], line_mode: str = "raw"
) -> tuple[list[CommitRecord], FilterReport]:
    """Retain records passing R1-R5; messages must already be preprocessed."""
    report = FilterReport()
    retained: list[CommitRecord] = []
    for record in records:
        report.input_count += 1
        rule = failing_rule(record, line_mode)
        if rule is None:
            retained.append(record)
            report.retained_count += 1
        else:
            report.rejections[rule] += 1
    return retained, report


@dataclass(frozen=True)
class CorpusStats:
    diff_tokens_mean: float
    diff_tokens_max: int
    diff_tokens_median: int
    message_tokens_mean: float
    message_tokens_max: int
    message_tokens_median: int
    median_files: int
    median_changed_lines: int

    def to_dict(self) -> dict:
        return {
            "diff_tokens": {
                "mean": self.diff_tokens_mean,
                "max": self.diff_tokens_max,
                "median": self.diff_tokens_median,
            },
            "message_tokens": {
                "mean": self.message_tokens_mean,
                "max": self.message_tokens_max,
                "median": self.message_tokens_median,
            },
            "median_files": self.median_files,
            "median_changed_lines": self.median_changed_lines,
        }


def _median(values: list) -> int:
    # Lower-middle convention for even counts.
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def compute_stats(records: Iterable[CommitRecord]) -> CorpusStats:
    """Token-length and change-size statistics over a corpus."""
    diff_lens: list[int] = []
    msg_lens: list[int] = []
    file_counts: list[int] = []
    locs: list[int] = []
    for record in records:
        diff_lens.append(len(tokenize(record.diff)))
        msg_lens.append(len(tokenize(record.message)))
        file_counts.append(len(record.files))
        locs.append(record.loc)
    if not diff_lens:
        raise EmptyCorpus("cannot compute statistics over an empty corpus")
    n = len(diff_lens)
    return CorpusStats(
        diff_tokens_mean=sum(diff_lens) / n,
        diff_tokens_max=max(diff_lens),
        diff_tokens_median=_median(diff_lens),
        message_tokens_mean=sum(msg_lens) / n,
        message_tokens_max=max(msg_lens),
        message_tokens_median=_median(msg_lens),
        median_files=_median(file_counts),
        median_changed_lines=_median(locs),
    )


def _git(git_dir: Path, *args: str) -> str:
    # errors="replace": repos mix encodings; mining must not crash on them.
    proc = subprocess.run(
        ["git", "-C", str(git_dir), *args],
        capture_output=True,
        text=True,
        errors="replace",
        check=True,
    )
    return proc.stdout


def detect_repo_name(git_dir: Path) -> str:
    """owner/name from the origin remote, else local/<directory-name>."""
    try:
        url = _git(git_dir, "config", "--get", "remote.origin.url").strip()
    except subprocess.CalledProcessError:
        url = ""
    if url:
        tail = url.rstrip("/")
        if tail.endswith(".git"):
            tail = tail[: -len(".git")]
        parts = re.split(r"[:/]", tail)
        if len(parts) >= 2 and parts[-2] and parts[-1]:
            return f"{parts[-2]}/{parts[-1]}"
    return f"local/{Path(git_dir).resolve().name}"


def ingest_repo(
    git_dir: str | Path,
    branch: str,
    since: str,
    repo_name: str | None = None,
) -> Iterator[CommitRecord]:
    """Yield one raw CommitRecord per non-merge commit on ``branch`` since ``since``.

    Messages are raw (not yet preprocessed); files and loc are derived from
    the parsed diff so record invariants hold by construction.
    """
    git_dir = Path(git_dir)
    if not git_dir.is_dir():
        raise RepoNotFound(f"not a directory: {git_dir}")
    try:
        _git(git_dir, "rev-parse", "--git-dir")
    except (subprocess.CalledProcessError, FileNotFoundError) as exc:
        raise RepoNotFound(f"not a git repository: {git_dir}") from exc
    try:
        _git(git_dir, "rev-parse", "--verify", f"{branch}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        raise BranchNotFound(f"branch {branch!r} not found in {git_dir}") from exc

    name = repo_name if repo_name is not None else detect_repo_name(git_dir)
    # NUL-separated records: messages may contain any byte except NUL, and
    # the field separator is safe because the message field splits last.
    log = _git(
        git_dir,
        "log",
        "-z",
        branch,
        "--no-merges",
        f"--since={since}",
        "--pretty=format:%H%x1f%an%x1f%cI%x1f%B",
    )
    for chunk in log.split("\x00"):
        if not chunk:
            continue
        sha, author, date_iso, message = chunk.split("\x1f", 3)
        diff = _git(git_dir, "show", sha, "--no-color", "--no-ext-diff", "--format=")
        parsed = parse_diff(diff)
        yield CommitRecord(
            diff=diff,
            message=message,
            repo_full_name=name,
            sha=sha,
            author_name=author,
            files=parsed.files,
            date=utc_isoformat(datetime.fromisoformat(date_iso)),
            loc=count_loc(parsed),
        )

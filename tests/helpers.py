"""Builders for synthetic diffs, commit records and git fixture repos."""

from __future__ import annotations

import hashlib
import random
import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from coracmg.diffs import CommitRecord, count_loc, parse_diff, utc_isoformat


def make_diff(
    path: str = "src/main.py",
    added: list[str] | None = None,
    deleted: list[str] | None = None,
    context: list[str] | None = None,
    old_start: int = 1,
) -> str:
    """A valid one-file, one-hunk unified diff with the given line sets."""
    added = added if added is not None else ["new line"]
    deleted = deleted if deleted is not None else []
    context = context if context is not None else ["shared line"]
    old_len = len(context) + len(deleted)
    new_len = len(context) + len(added)
    lines = [
        f"diff --git a/{path} b/{path}",
        "index 0000000..1111111 100644",
        f"--- a/{path}",
        f"+++ b/{path}",
        f"@@ -{old_start},{old_len} +{old_start},{new_len} @@",
    ]
    lines += [f" {c}" for c in context]
    lines += [f"-{d}" for d in deleted]
    lines += [f"+{a}" for a in added]
    return "\n".join(lines) + "\n"


def sha_of(value: int) -> str:
    return f"{value:040x}"


def make_record(
    idx: int,
    repo: str = "acme/widgets",
    message: str = "fix null pointer in widget parser",
    path: str = "src/main.py",
    added: list[str] | None = None,
    deleted: list[str] | None = None,
    context: list[str] | None = None,
    author: str = "Dev Eloper",
    diff: str | None = None,
) -> CommitRecord:
    if diff is None:
        diff = make_diff(path=path, added=added, deleted=deleted, context=context)
    parsed = parse_diff(diff)
    date = datetime(2021, 1, 1, tzinfo=timezone.utc) + timedelta(hours=idx)
    return CommitRecord(
        diff=diff,
        message=message,
        repo_full_name=repo,
        sha=sha_of(idx + 1),
        author_name=author,
        files=parsed.files,
        date=utc_isoformat(date),
        loc=count_loc(parsed),
    )


class DenseEmbedder:
    """Seeded dense unit vectors: every coordinate of every row is nonzero.

    A text's vector is drawn from a generator seeded with its sha256, so it
    depends on the text alone, and is normalized with numpy's own sum (no
    BLAS call), so it does not depend on the BLAS thread count either.
    """

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self.identifier = f"dense-{dimension}"

    def embed(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
        vec = np.random.default_rng(seed).standard_normal(self.dimension)
        return (vec / np.sqrt(np.sum(vec * vec))).astype(np.float32)


_WORDS = (
    "fix add remove update refactor handle parser client cache index retry "
    "timeout socket buffer column widget render schema token stream metric "
    "logging backoff queue worker commit merge-tool branch release flag"
).split()

_CODE_WORDS = (
    "return self.value count += 1 raise ValueError for item in items "
    "if not ready: continue yield row.strip() import os def process(data): "
    "result = compute(x, y) log.debug(msg) assert total >= 0"
).split()


def synthetic_corpus(
    n_repos: int,
    docs_per_repo: int,
    seed: int = 0,
    languages: list[str] | None = None,
) -> list[CommitRecord]:
    """Varied records with valid invariants, spread across repos and languages."""
    rng = random.Random(seed)
    exts = languages or [".py", ".java", ".go", ".rs", ".ts"]
    records = []
    idx = 0
    for r in range(n_repos):
        repo = f"acme/project{r}"
        for _ in range(docs_per_repo):
            ext = rng.choice(exts)
            path = f"src/mod{rng.randrange(6)}{ext}"
            n_add = rng.randrange(1, 6)
            n_del = rng.randrange(0, 3)
            added = [" ".join(rng.sample(_CODE_WORDS, rng.randrange(2, 5))) for _ in range(n_add)]
            deleted = [" ".join(rng.sample(_CODE_WORDS, rng.randrange(2, 5))) for _ in range(n_del)]
            context = [" ".join(rng.sample(_CODE_WORDS, 3)) for _ in range(rng.randrange(1, 4))]
            message = " ".join(rng.sample(_WORDS, rng.randrange(5, 9)))
            records.append(
                make_record(
                    idx,
                    repo=repo,
                    message=message,
                    path=path,
                    added=added,
                    deleted=deleted,
                    context=context,
                )
            )
            idx += 1
    return records


def twin_corpus(n_repos: int, pairs_per_repo: int, seed: int = 0) -> list[CommitRecord]:
    """Each record has a twin: identical message, diff differing by one context line."""
    rng = random.Random(seed)
    records = []
    idx = 0
    for r in range(n_repos):
        repo = f"acme/twin{r}"
        for p in range(pairs_per_repo):
            added = [f"value_{r}_{p}_{i} = compute(input_{i})" for i in range(rng.randrange(2, 5))]
            context = [f"shared_context_{r}_{p}"]
            message = f"adjust compute path {r} {p} for stability"
            diff_a = make_diff(path=f"src/pair{p}.py", added=added, context=context)
            diff_b = make_diff(
                path=f"src/pair{p}.py", added=added, context=context + ["extra trailing context"]
            )
            records.append(make_record(idx, repo=repo, message=message, diff=diff_a))
            idx += 1
            records.append(make_record(idx, repo=repo, message=message, diff=diff_b))
            idx += 1
    return records


def git(repo_dir: Path, *args: str, env: dict | None = None) -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo_dir), *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return proc.stdout


def init_repo(repo_dir: Path, branch: str = "main") -> None:
    repo_dir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        ["git", "init", "-q", "-b", branch, str(repo_dir)], check=True, capture_output=True
    )
    git(repo_dir, "config", "user.name", "Fixture Dev")
    git(repo_dir, "config", "user.email", "dev@example.org")


def commit_all(
    repo_dir: Path,
    message: str,
    when: datetime,
    author_name: str = "Fixture Dev",
) -> str:
    git(repo_dir, "add", "-A")
    stamp = when.strftime("%Y-%m-%dT%H:%M:%S+00:00")
    git(
        repo_dir,
        "-c",
        f"user.name={author_name}",
        "commit",
        "-q",
        "--allow-empty",
        "-m",
        message,
        "--date",
        stamp,
        env={
            "GIT_COMMITTER_DATE": stamp,
            "GIT_AUTHOR_DATE": stamp,
            "GIT_COMMITTER_NAME": "Fixture Dev",
            "GIT_COMMITTER_EMAIL": "dev@example.org",
            "GIT_AUTHOR_NAME": author_name,
            "GIT_AUTHOR_EMAIL": "dev@example.org",
            "HOME": "/tmp",
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )
    return git(repo_dir, "rev-parse", "HEAD").strip()


class StoredDoc(NamedTuple):
    sha: str
    date: str
    message: str
    diff: str


def stored_docs(part) -> list[StoredDoc]:
    """Every document of an index partition, its four fields cut from the index text."""
    return [StoredDoc(*(part.field(i, f) for f in range(4))) for i in range(len(part))]

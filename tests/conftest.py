from __future__ import annotations

import os
import random
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from fake_provider import FakeProvider, closed_port_url
from helpers import commit_all, git, init_repo


@pytest.fixture
def no_proxy(monkeypatch):
    """Loopback requests go straight out: both HTTP clients honour ``*_proxy``."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)


@pytest.fixture
def fake_provider(no_proxy):
    fake = FakeProvider()
    yield fake
    fake.close()


@pytest.fixture
def unreachable_url(no_proxy) -> str:
    return closed_port_url()


@pytest.fixture
def slept(monkeypatch):
    """The backoff sleeps asked for; none of them is waited out."""
    waits = []
    monkeypatch.setattr(time, "sleep", waits.append)
    return waits


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory) -> Path:
    """A five-commit repository on branch main with an origin remote."""
    repo = tmp_path_factory.mktemp("fixture_repo") / "clone"
    init_repo(repo)
    git(repo, "remote", "add", "origin", "https://github.com/acme/widgets.git")
    base = datetime(2020, 6, 1, 12, 0, tzinfo=timezone.utc)
    (repo / "src").mkdir()
    (repo / "src" / "app.py").write_text("def main():\n    return 0\n")
    commit_all(repo, "add application entry point for the CLI", base)
    (repo / "src" / "app.py").write_text("def main():\n    return 1\n")
    commit_all(repo, "change exit code to signal failure", base + timedelta(days=1))
    (repo / "src" / "util.java").write_text("class Util {}\n")
    commit_all(repo, "add util class for shared helpers (#42)", base + timedelta(days=2))
    (repo / "README.md").write_text("# widgets\n")
    commit_all(repo, "document the project layout briefly", base + timedelta(days=3))
    (repo / "src" / "app.py").write_text("def main():\n    return 2\n")
    commit_all(
        repo,
        "tweak the exit code once more\n\nlong body with details",
        base + timedelta(days=4),
        author_name="release[bot]",
    )
    return repo


@pytest.fixture(scope="session")
def numstat_repo(tmp_path_factory) -> Path:
    """25 commits with varied shapes: edits, renames, binaries, deletions."""
    repo = tmp_path_factory.mktemp("numstat_repo") / "clone"
    init_repo(repo)
    rng = random.Random(1234)
    base = datetime(2019, 1, 1, tzinfo=timezone.utc)
    files = ["alpha.py", "beta.java", "gamma.go", "notes.md"]

    def lines_for(name: str, count: int) -> str:
        return "".join(f"{name} line {rng.randrange(1000)}\n" for _ in range(count))

    for i, name in enumerate(files):
        (repo / name).write_text(lines_for(name, 5 + i))
    commit_all(repo, "initial import of project files", base)

    when = base
    for i in range(19):
        when += timedelta(days=1)
        target = rng.choice(files)
        path = repo / target
        content = path.read_text().splitlines(keepends=True)
        action = rng.randrange(3)
        if action == 0 and len(content) > 2:  # delete some lines
            del content[rng.randrange(len(content) - 1)]
        elif action == 1:  # insert lines
            content.insert(rng.randrange(len(content)), lines_for(target, 1))
        else:  # rewrite a line
            content[rng.randrange(len(content))] = f"{target} rewritten {i}\n"
        path.write_text("".join(content))
        commit_all(repo, f"edit {target} step {i}", when)

    when += timedelta(days=1)
    git(repo, "mv", "alpha.py", "alpha_renamed.py")
    commit_all(repo, "rename alpha module", when)

    when += timedelta(days=1)
    (repo / "logo.bin").write_bytes(b"\x00\x01" + bytes(rng.randrange(256) for _ in range(64)))
    commit_all(repo, "add binary asset", when)

    when += timedelta(days=1)
    (repo / "logo.bin").write_bytes(b"\x00\x02" + bytes(rng.randrange(256) for _ in range(64)))
    commit_all(repo, "update binary asset", when)

    when += timedelta(days=1)
    git(repo, "rm", "-q", "beta.java")
    commit_all(repo, "drop unused java helper", when)

    when += timedelta(days=1)
    with open(repo / "tail.txt", "w") as fh:
        fh.write("no trailing newline here")  # exercises the \ marker
    commit_all(repo, "add file without trailing newline", when)
    return repo

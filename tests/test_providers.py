from __future__ import annotations

import hashlib
import io
import itertools
import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coracmg import providers
from coracmg.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyGeneration,
    EmptyQuery,
    InvalidInput,
    ProviderUnavailable,
)
from coracmg.providers import (
    EmbeddingClient,
    GenerationClient,
    GenerationConfig,
    HashingEmbedder,
    MockGenerator,
    ProviderConfig,
    postprocess_generation,
    unit_normalize,
)
from coracmg.retriever import DocHandle, ExamplePair
from coracmg.tokenizer import tokenize
from fake_provider import Reply
from helpers import synthetic_corpus
from oracles import oracle_hash_embed


pytestmark = pytest.mark.usefixtures("slept")  # no test waits out a backoff


def test_unit_normalize_contract():
    vec = unit_normalize([2.0, 0.0, 0.0], dimension=3)
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6
    assert vec.dtype == np.float32
    with pytest.raises(DimensionMismatch):
        unit_normalize([1.0, 2.0], dimension=3)
    with pytest.raises(ProviderUnavailable):
        unit_normalize([0.0, 0.0], dimension=2)


def test_embed_caches_by_content(fake_provider, tmp_path):
    fake_provider.script(Reply(body={"embedding": [1.0, 2.0, 2.0, 0.0]}))
    endpoint = f"{fake_provider.url}/embed"
    client = EmbeddingClient(endpoint, 4, cache_dir=tmp_path / "cache")
    first = client.embed("some diff text")
    second = client.embed("some diff text")
    assert len(fake_provider.requests) == 1  # one network call, second hit the cache
    assert first.tobytes() == second.tobytes()
    assert abs(float(np.linalg.norm(first)) - 1.0) < 1e-6  # norm-2 input normalized

    # a fresh client with the same cache dir stays fully offline
    warm = EmbeddingClient(endpoint, 4, cache_dir=tmp_path / "cache")
    third = warm.embed("some diff text")
    assert third.tobytes() == first.tobytes()
    assert len(fake_provider.requests) == 1


def test_a_client_keeps_no_vector_it_hands_out(fake_provider, tmp_path):
    # The disk cache is the only cache: an index build that copies each
    # vector into its rows holds the only copy in memory.
    endpoint = f"{fake_provider.url}/embed"
    cached = EmbeddingClient(endpoint, 32, cache_dir=tmp_path / "cache")
    uncached = EmbeddingClient(endpoint, 32)
    for client in (cached, uncached, cached):  # the last call reads the cache file
        vec = client.embed("some diff text")
        held = weakref.ref(vec)
        del vec
        assert held() is None
    assert fake_provider.embeds == 2
    # Without a cache_dir, a repeated text is requested again.
    uncached.embed("some diff text")
    assert fake_provider.embeds == 3


def test_racing_embeds_of_one_text_leave_one_whole_cache_file(fake_provider, tmp_path):
    # No lock: each writer fills a file of its own and renames it into place.
    endpoint = f"{fake_provider.url}/embed"
    client = EmbeddingClient(endpoint, 32, cache_dir=tmp_path / "cache")
    texts = [f"diff {i % 3}" for i in range(24)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(client.embed, text) for text in texts]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    uncached = EmbeddingClient(endpoint, 32)
    assert [v.tobytes() for v in got] == [uncached.embed(t).tobytes() for t in texts]
    names = sorted(p.name for p in (tmp_path / "cache").iterdir())
    assert names == sorted(f"{client._key(text)}.npy" for text in set(texts))
    asked = fake_provider.embeds
    warm = EmbeddingClient(endpoint, 32, cache_dir=tmp_path / "cache")
    assert [warm.embed(t).tobytes() for t in texts] == [v.tobytes() for v in got]
    assert fake_provider.embeds == asked  # every file loads whole


def test_a_new_cache_file_takes_the_mode_open_gives(fake_provider, tmp_path):
    # Another user sharing <corpus>.embed_cache reads what this one wrote.
    fake_provider.script(Reply(body={"embedding": [1.0, 2.0, 2.0, 0.0]}))
    client = EmbeddingClient(f"{fake_provider.url}/embed", 4, cache_dir=tmp_path / "cache")
    old = os.umask(0o022)
    try:
        client.embed("some diff text")
    finally:
        os.umask(old)
    (path,) = (tmp_path / "cache").iterdir()
    assert path.name == f"{client._key('some diff text')}.npy"
    assert path.stat().st_mode & 0o777 == 0o644


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "content",
    [
        _npy(np.float32([0.0, 0.6, 0.8, 0.0]))[:-3],
        b"",
        b"not a numpy file\n",
        _npy(np.float32([0.6, 0.8])),
        _npy(np.array(["a", "b", "c", "d"])),
    ],
    ids=["truncated", "empty", "garbage", "two-values", "four-strings"],
)
def test_a_bad_cache_file_is_a_miss_that_is_fetched_and_rewritten(fake_provider, tmp_path, content):
    fake_provider.script(Reply(body={"embedding": [1.0, 2.0, 2.0, 0.0]}))
    endpoint = f"{fake_provider.url}/embed"
    client = EmbeddingClient(endpoint, 4, cache_dir=tmp_path / "cache")
    path = tmp_path / "cache" / f"{client._key('some diff text')}.npy"
    path.parent.mkdir()
    path.write_bytes(content)
    vec = client.embed("some diff text")
    assert len(fake_provider.requests) == 1
    assert vec.tolist() == pytest.approx([1 / 3, 2 / 3, 2 / 3, 0.0])
    # The file is whole again: a fresh client reads it and asks for nothing.
    again = EmbeddingClient(endpoint, 4, cache_dir=tmp_path / "cache").embed("some diff text")
    assert again.tobytes() == vec.tobytes()
    assert len(fake_provider.requests) == 1
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


def test_embed_retries_then_succeeds(fake_provider, slept):
    fake_provider.script(
        Reply(drop=True), Reply(drop=True), Reply(body={"data": [{"embedding": [0.0, 1.0]}]})
    )
    client = EmbeddingClient(f"{fake_provider.url}/embed", 2)
    vec = client.embed("text")
    assert len(fake_provider.requests) == 3
    assert vec[1] == pytest.approx(1.0)
    assert slept == [1.0, 2.0]  # the backoff doubles


def test_embed_gives_up_after_max_attempts(fake_provider, slept):
    fake_provider.script(*[Reply(drop=True)] * 3)
    client = EmbeddingClient(f"{fake_provider.url}/embed", 2)
    with pytest.raises(ProviderUnavailable, match="failed after 3 attempts"):
        client.embed("text")
    assert len(fake_provider.requests) == 3
    assert slept == [1.0, 2.0]


def test_unreachable_provider_gives_up_after_max_attempts(unreachable_url, slept):
    with pytest.raises(ProviderUnavailable, match="/embed failed after 3 attempts"):
        EmbeddingClient(f"{unreachable_url}/embed", 2).embed("text")
    with pytest.raises(ProviderUnavailable, match="/gen failed after 3 attempts"):
        GenerationClient(GenerationConfig(endpoint=f"{unreachable_url}/gen")).generate("p")
    assert slept == [1.0, 2.0] * 2


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_client_errors_fail_at_once(fake_provider, slept, status):
    fake_provider.script(Reply(status=status, body={"error": "refused"}))
    client = EmbeddingClient(f"{fake_provider.url}/embed", 2)
    with pytest.raises(ProviderUnavailable, match=f"status {status}"):
        client.embed("text")
    assert len(fake_provider.requests) == 1  # a retry cannot change the answer
    assert slept == []


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirects_are_refused_at_once(fake_provider, slept, monkeypatch, status):
    # Followed, a POST would go on as a bodyless GET with the key, its answer taken as ours.
    monkeypatch.setenv("CORACMG_GEN_KEY", "gen-secret")
    fake_provider.script(Reply(status=status, headers={"Location": f"{fake_provider.url}/moved"}))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    with pytest.raises(ProviderUnavailable, match=f"refused with status {status}"):
        client.generate("p")
    assert [(r["method"], r["path"]) for r in fake_provider.requests] == [("POST", "/gen")]
    assert slept == []


@pytest.mark.parametrize("status", [408, 429])
def test_timeout_and_rate_limit_are_retried(fake_provider, status):
    fake_provider.script(Reply(status=status, body={}), Reply(body={"text": "Fix the bug"}))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    assert client.generate("p") == "Fix the bug"
    assert len(fake_provider.requests) == 2


@pytest.mark.parametrize(
    "fault",
    [Reply(status=500), Reply(status=503), Reply(drop=True), Reply(raw=b"<html>busy</html>")],
    ids=["500", "503", "dropped", "not-json"],
)
def test_transient_failures_are_retried(fake_provider, slept, fault):
    fake_provider.script(fault, Reply(body={"text": "Fix the bug"}))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    assert client.generate("p") == "Fix the bug"
    assert len(fake_provider.requests) == 2
    assert slept == [1.0]


def test_a_request_that_times_out_is_retried(fake_provider, slept, monkeypatch):
    monkeypatch.setattr(providers, "TIMEOUT_SECONDS", 0.2)
    fake_provider.script(Reply(hold=30.0), Reply(body={"text": "Fix the bug"}))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    assert client.generate("p") == "Fix the bug"
    assert len(fake_provider.requests) == 2
    assert slept == [1.0]


@pytest.mark.parametrize(
    "kind, body",
    [
        ("embed", 5),
        ("embed", {"data": [5]}),
        ("embed", {"embedding": "abc"}),
        ("embed", {"embedding": None}),
        ("embed", {"embedding": [1.0, "2"]}),
        ("embed", {"embedding": [float("nan"), 1.0]}),
        ("gen", 5),
        ("gen", {"choices": [5]}),
        ("gen", {"text": 3}),
        ("gen", {"choices": [{"message": {"content": None}}]}),
    ],
    ids=[
        "embed-5", "embed-data-5", "embed-abc", "embed-null", "embed-string-entry",
        "embed-nan", "gen-5", "gen-choices-5", "gen-text-3", "gen-content-null",
    ],
)
def test_response_of_the_wrong_shape_is_refused_at_once(fake_provider, slept, kind, body):
    fake_provider.script(Reply(body=body))
    endpoint = f"{fake_provider.url}/{kind}"
    with pytest.raises(ProviderUnavailable, match=re.escape(endpoint)):
        if kind == "embed":
            EmbeddingClient(endpoint, 2).embed("text")
        else:
            GenerationClient(GenerationConfig(endpoint=endpoint)).generate("p")
    assert len(fake_provider.requests) == 1
    assert slept == []


def test_embed_dimension_mismatch(fake_provider):
    fake_provider.script(Reply(body={"embedding": [1.0, 2.0, 3.0]}))
    client = EmbeddingClient(f"{fake_provider.url}/embed", 2)
    with pytest.raises(DimensionMismatch):
        client.embed("text")


def test_empty_inputs_rejected(fake_provider):
    client = EmbeddingClient(f"{fake_provider.url}/embed", 2)
    with pytest.raises(InvalidInput, match="cannot embed an empty diff"):
        client.embed("")
    gen = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    with pytest.raises(EmptyQuery, match="cannot generate from an empty prompt"):
        gen.generate("")
    with pytest.raises(ConfigError, match="embed.endpoint"):
        EmbeddingClient("", 2)
    with pytest.raises(ConfigError, match="gen.endpoint"):
        GenerationClient(GenerationConfig(endpoint=""))
    assert fake_provider.requests == []


def test_endpoint_must_be_an_http_url():
    with pytest.raises(ConfigError, match="embed.endpoint.*'models.test/embed' is not an http"):
        EmbeddingClient("models.test/embed", 2)
    with pytest.raises(ConfigError, match="gen.endpoint.*'file:///etc/hosts' is not an http"):
        GenerationClient(GenerationConfig(endpoint="file:///etc/hosts"))


def test_requests_carry_json_and_bearer_headers(fake_provider, monkeypatch):
    monkeypatch.setenv("CORACMG_EMBED_KEY", "embed-secret")
    monkeypatch.delenv("CORACMG_GEN_KEY", raising=False)
    EmbeddingClient(f"{fake_provider.url}/embed", 32, model="e").embed("text")
    GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen")).generate("p")
    embed, gen = (r["headers"] for r in fake_provider.requests)
    assert embed["Content-Type"] == gen["Content-Type"] == "application/json"
    assert embed["Authorization"] == "Bearer embed-secret"
    assert "Authorization" not in gen
    assert fake_provider.requests[0]["payload"] == {"model": "e", "input": "text"}


def test_package_imports_without_requests():
    code = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['requests'] = None\n"
        "import coracmg\n"
        "for mod in pkgutil.iter_modules(coracmg.__path__):\n"
        "    importlib.import_module(f'coracmg.{mod.name}')\n"
        "print(sorted(m for m in sys.modules if m.startswith('coracmg.')))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "coracmg.providers" in done.stdout and "coracmg.cli" in done.stdout


def test_hashing_embedder_is_deterministic_and_meaningful():
    emb = HashingEmbedder(32)
    a = emb.embed("fix null pointer in parser")
    b = emb.embed("fix null pointer in parser")
    assert a.tobytes() == b.tobytes()
    assert abs(float(np.linalg.norm(a)) - 1.0) < 1e-6
    near = emb.embed("fix null pointer in the parser")
    far = emb.embed("rotate the logging directory daily")
    assert float(a @ near) > float(a @ far)


def _cancelling_words(dimension):
    """Two one-token words that hash to one bucket with opposite signs."""
    seen = {}
    for i in itertools.count():
        word = f"w{i}"
        digest = hashlib.sha256(word.encode("utf-8")).digest()
        bucket, sign = int.from_bytes(digest[:4], "little") % dimension, digest[4] & 1
        if (bucket, 1 - sign) in seen:
            return seen[(bucket, 1 - sign)], word
        seen[(bucket, sign)] = word


def test_hashing_embedder_matches_per_occurrence_oracle():
    emb = HashingEmbedder(64)
    a, b = _cancelling_words(64)
    texts = [r.diff for r in synthetic_corpus(2, 50)] + ["", f"{a} {b}", f"{b} {a} {a} {b}"]
    for text in texts:
        assert emb.embed(text).tobytes() == oracle_hash_embed(text, 64).tobytes()
    degenerate = np.zeros(64, dtype=np.float32)
    degenerate[0] = 1.0
    assert emb.embed("").tobytes() == degenerate.tobytes()
    assert emb.embed(f"{a} {b}").tobytes() == degenerate.tobytes()


@pytest.mark.parametrize("dimension", [300, 768])
def test_hashing_embedder_matches_oracle_at_a_dimension_not_a_power_of_two(dimension):
    # Modulo a power of two only the low bits of the hash choose the bucket, so
    # a bucket read from more than its first four bytes shows only here.
    emb = HashingEmbedder(dimension)
    for text in [r.diff for r in synthetic_corpus(1, 30, seed=4)]:
        assert emb.embed(text).tobytes() == oracle_hash_embed(text, dimension).tobytes()


@pytest.mark.parametrize("dimension", [16, 64, 300])
def test_embed_rows_equals_one_embed_counts_per_row(dimension):
    a, b = _cancelling_words(dimension)
    texts = [r.diff for r in synthetic_corpus(2, 40, seed=7)] + ["", f"{a} {b}", "x", "x"]
    counts = [Counter(tokenize(text)) for text in texts]
    rows = HashingEmbedder(dimension).embed_rows(counts)
    assert rows.dtype == np.float32 and rows.shape == (len(texts), dimension)
    one_at_a_time = HashingEmbedder(dimension)
    for row, text_counts in zip(rows, counts):
        assert row.tobytes() == one_at_a_time.embed_counts(text_counts).tobytes()
    assert HashingEmbedder(dimension).embed_rows([]).shape == (0, dimension)


def test_a_block_of_rows_keeps_its_scratch_under_the_mmap_threshold():
    # glibc maps requests of 128 KiB and more by default; a pass of block_rows
    # rows allocates two float64 arrays of block_rows * dimension each.
    for dimension in (16, 256, 300, 768):
        embedder = HashingEmbedder(dimension)
        assert 8 * dimension * embedder.block_rows <= providers.EMBED_BLOCK_BYTES < 1 << 17
    assert HashingEmbedder(256).block_rows == 32
    assert HashingEmbedder(1 << 14).block_rows == 1


_SMALL_EMBEDDER = HashingEmbedder(16)  # few buckets: collisions and cancellations are common


@settings(max_examples=300, derandomize=True)
@given(st.text())
def test_hashing_embedder_matches_oracle_on_any_text(text):
    assert _SMALL_EMBEDDER.embed(text).tobytes() == oracle_hash_embed(text, 16).tobytes()


def test_postprocess_generation():
    assert postprocess_generation("```\nFix NPE in Foo\n```") == "Fix NPE in Foo"
    assert postprocess_generation("Fix it\nmore detail below") == "Fix it"
    assert postprocess_generation('"quoted message"') == "quoted message"
    assert postprocess_generation("  \n\n  actual line ") == "actual line"
    out = postprocess_generation("```python\nfix parser\n```")
    assert "\n" not in out and "```" not in out
    with pytest.raises(EmptyGeneration):
        postprocess_generation("``````")


def test_generation_client(fake_provider):
    answer = {"choices": [{"message": {"content": "```\nAdd retry\n```"}}]}
    fake_provider.script(Reply(body=answer))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen", model="m1"))
    out = client.generate("the prompt")
    assert out == "Add retry"
    seen = fake_provider.requests[0]["payload"]
    assert seen["temperature"] == 0.0
    assert seen["model"] == "m1"
    assert seen["messages"][0]["content"] == "the prompt"


def test_generation_retry_contract(fake_provider):
    fake_provider.script(Reply(drop=True), Reply(drop=True), Reply(body={"text": "Fix the bug"}))
    client = GenerationClient(GenerationConfig(endpoint=f"{fake_provider.url}/gen"))
    assert client.generate("p") == "Fix the bug"
    assert len(fake_provider.requests) == 3


def _pair(message: str, score: float) -> ExamplePair:
    return ExamplePair(
        diff="diff --git a/x b/x",
        message=message,
        handle=DocHandle("a" * 40, "acme/widgets"),
        hybrid_score=score,
    )


def test_mock_generators():
    echo = MockGenerator()
    assert echo.generate("prompt", [_pair("top message", 0.9), _pair("second", 0.5)]) == "top message"
    assert echo.generate("prompt", []) == "update code"
    assert MockGenerator("fixed output").generate("prompt", []) == "fixed output"
    assert MockGenerator("fixed output").generate("prompt", [_pair("x", 1.0)]) == "x"
    with pytest.raises(TypeError):
        MockGenerator("echo", "fixed output")  # the mode argument is gone


def test_provider_config_parsing(tmp_path):
    cfg_path = tmp_path / "providers.json"
    cfg_path.write_text(
        """
        {
          "embed": {"endpoint": "https://e/v1", "model": "emb-1", "dimension": 128},
          "gen": {"endpoint": "https://g/v1", "model": "gen-1",
                  "temperature": 0.0, "max_tokens": 64},
          "concurrency": {"inflight": 2}
        }
        """
    )
    cfg = ProviderConfig.from_file(cfg_path)
    assert cfg.embed_endpoint == "https://e/v1"
    assert cfg.embed_dimension == 128
    assert cfg.gen.model == "gen-1"
    assert cfg.gen.temperature == 0.0
    assert cfg.inflight == 2
    # A float field takes an int, and keeps it as a float.
    cfg = ProviderConfig.from_dict({"gen": {"temperature": 1, "max_tokens": 1}})
    assert type(cfg.gen.temperature) is float and cfg.gen.temperature == 1.0
    assert cfg.gen.max_tokens == 1


def test_provider_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read provider config"):
        ProviderConfig.from_file(tmp_path / "missing.json")
    cfg_path = tmp_path / "providers.json"
    for text, message in [
        ('{"embed": ', "is not valid JSON"),
        ('{"embed": {"dimension": "wide"}}', "embed.dimension must be an integer, not 'wide'"),
        ('{"gen": []}', "has no attribute"),
        ('{"concurrency": {"inflight": 0}}', "inflight must be at least 1, not 0"),
        ('{"embed": {"dimension": -4}}', "embed.dimension must be at least 1, not -4"),
        ('{"embed": {"dimension": 0}}', "embed.dimension must be at least 1, not 0"),
        ('{"gen": {"endpoint": 5}}', "gen.endpoint must be a string, not 5"),
        ('{"embed": {"model": ["m"]}}', r"embed.model must be a string, not \['m'\]"),
        ('{"concurrency": {"inflight": true}}', "inflight must be an integer, not True"),
        ('{"concurrency": {"inflight": null}}', "inflight must be an integer, not None"),
        ('{"embed": {"dimension": 2.7}}', "embed.dimension must be an integer, not 2.7"),
        ('{"gen": {"max_tokens": "12"}}', "gen.max_tokens must be an integer, not '12'"),
        ('{"gen": {"max_tokens": 0}}', "gen.max_tokens must be at least 1, not 0"),
        ('{"gen": {"temperature": true}}', "gen.temperature must be a number, not True"),
        ('{"gen": {"temperature": "0.2"}}', "gen.temperature must be a number, not '0.2'"),
        ('{"gen": {"temperature": NaN}}', "gen.temperature must be a finite number, not nan"),
        ('{"gen": {"temperature": -Infinity}}', "temperature must be a finite number, not -inf"),
        ('{"gen": {"temperature": 1e400}}', "gen.temperature must be a finite number, not inf"),
        # An int past the float range: float() of it would overflow.
        ('{"gen": {"temperature": 1%s}}' % ("0" * 400), "temperature must be a finite number"),
    ]:
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            ProviderConfig.from_file(cfg_path)

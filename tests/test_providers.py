from __future__ import annotations

import hashlib
import itertools
import threading
import time

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from coracmg.errors import ConfigError, DimensionMismatch, EmptyGeneration, ProviderUnavailable
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
from helpers import synthetic_corpus
from oracles import oracle_hash_embed


class FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status_code = status

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.RequestException(f"status {self.status_code}")

    def json(self):
        return self.payload


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda *_: None)


def test_unit_normalize_contract():
    vec = unit_normalize([2.0, 0.0, 0.0], dimension=3)
    assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6
    assert vec.dtype == np.float32
    with pytest.raises(DimensionMismatch):
        unit_normalize([1.0, 2.0], dimension=3)
    with pytest.raises(ProviderUnavailable):
        unit_normalize([0.0, 0.0], dimension=2)


def test_embed_caches_by_content(monkeypatch, tmp_path):
    calls = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append(url)
        return FakeResponse({"embedding": [1.0, 2.0, 2.0, 0.0]})

    monkeypatch.setattr(requests, "post", fake_post)
    client = EmbeddingClient("https://embed.test/v1", 4, cache_dir=tmp_path / "cache")
    first = client.embed("some diff text")
    second = client.embed("some diff text")
    assert len(calls) == 1  # one network call, second hit the cache
    assert first.tobytes() == second.tobytes()
    assert abs(float(np.linalg.norm(first)) - 1.0) < 1e-6  # norm-2 input normalized

    # a fresh client with the same cache dir stays fully offline
    monkeypatch.setattr(requests, "post", lambda *a, **k: pytest.fail("network hit"))
    warm = EmbeddingClient("https://embed.test/v1", 4, cache_dir=tmp_path / "cache")
    third = warm.embed("some diff text")
    assert third.tobytes() == first.tobytes()


def test_embed_retries_then_succeeds(monkeypatch):
    attempts = []

    def flaky_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        if len(attempts) < 3:
            raise requests.ConnectionError("transient")
        return FakeResponse({"data": [{"embedding": [0.0, 1.0]}]})

    monkeypatch.setattr(requests, "post", flaky_post)
    client = EmbeddingClient("https://embed.test/v1", 2, max_attempts=3)
    vec = client.embed("text")
    assert len(attempts) == 3
    assert vec[1] == pytest.approx(1.0)


def test_embed_gives_up_after_max_attempts(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: (_ for _ in ()).throw(requests.ConnectionError())
    )
    client = EmbeddingClient("https://embed.test/v1", 2, max_attempts=3)
    with pytest.raises(ProviderUnavailable):
        client.embed("text")


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_client_errors_fail_at_once(monkeypatch, status):
    calls, slept = [], []

    def refusing_post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        return FakeResponse({"error": "refused"}, status=status)

    monkeypatch.setattr(requests, "post", refusing_post)
    monkeypatch.setattr(time, "sleep", slept.append)
    client = EmbeddingClient("https://embed.test/v1", 2, max_attempts=3)
    with pytest.raises(ProviderUnavailable, match=f"status {status}"):
        client.embed("text")
    assert len(calls) == 1  # a retry cannot change the answer
    assert slept == []


@pytest.mark.parametrize("status", [408, 429])
def test_timeout_and_rate_limit_are_retried(monkeypatch, status):
    responses = [FakeResponse({}, status=status), FakeResponse({"text": "Fix the bug"})]
    calls = []

    def limited_post(url, json=None, headers=None, timeout=None):
        calls.append(1)
        return responses[len(calls) - 1]

    monkeypatch.setattr(requests, "post", limited_post)
    client = GenerationClient(GenerationConfig(endpoint="https://gen.test/v1"))
    assert client.generate("p") == "Fix the bug"
    assert len(calls) == 2


def test_embed_dimension_mismatch(monkeypatch):
    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse({"embedding": [1.0, 2.0, 3.0]})
    )
    client = EmbeddingClient("https://embed.test/v1", 2)
    with pytest.raises(DimensionMismatch):
        client.embed("text")


def test_empty_inputs_rejected(monkeypatch):
    monkeypatch.setattr(requests, "post", lambda *a, **k: pytest.fail("network hit"))
    client = EmbeddingClient("https://embed.test/v1", 2)
    with pytest.raises(ValueError):
        client.embed("")
    gen = GenerationClient(GenerationConfig(endpoint="https://gen.test/v1"))
    with pytest.raises(ValueError):
        gen.generate("")
    with pytest.raises(ConfigError, match="embed.endpoint"):
        EmbeddingClient("", 2)
    with pytest.raises(ConfigError, match="gen.endpoint"):
        GenerationClient(GenerationConfig(endpoint=""))


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


def test_generation_client(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(json)
        return FakeResponse({"choices": [{"message": {"content": "```\nAdd retry\n```"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    client = GenerationClient(GenerationConfig(endpoint="https://gen.test/v1", model="m1"))
    out = client.generate("the prompt")
    assert out == "Add retry"
    assert seen["temperature"] == 0.0
    assert seen["model"] == "m1"
    assert seen["messages"][0]["content"] == "the prompt"


def test_generation_retry_contract(monkeypatch):
    attempts = []

    def flaky_post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        if len(attempts) < 3:
            raise requests.ConnectionError("transient")
        return FakeResponse({"text": "Fix the bug"})

    monkeypatch.setattr(requests, "post", flaky_post)
    client = GenerationClient(GenerationConfig(endpoint="https://gen.test/v1"))
    assert client.generate("p") == "Fix the bug"
    assert len(attempts) == 3


def _pair(message: str, score: float) -> ExamplePair:
    return ExamplePair(
        diff="diff --git a/x b/x",
        message=message,
        handle=DocHandle("a" * 40, "acme/widgets"),
        hybrid_score=score,
    )


def test_mock_generators():
    echo = MockGenerator("echo")
    assert echo.generate("prompt", [_pair("top message", 0.9), _pair("second", 0.5)]) == "top message"
    assert echo.generate("prompt", []) == "update code"
    constant = MockGenerator("constant", "fixed output")
    assert constant.generate("prompt", [_pair("x", 1.0)]) == "fixed output"
    with pytest.raises(ValueError):
        MockGenerator("nonsense")


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


def test_provider_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read provider config"):
        ProviderConfig.from_file(tmp_path / "missing.json")
    cfg_path = tmp_path / "providers.json"
    for text, message in [
        ('{"embed": ', "is not valid JSON"),
        ('{"embed": {"dimension": "wide"}}', "invalid literal"),
        ('{"gen": []}', "has no attribute"),
        ('{"concurrency": {"inflight": 0}}', "inflight must be at least 1, not 0"),
    ]:
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            ProviderConfig.from_file(cfg_path)


def test_inflight_cap_bounds_concurrency(monkeypatch):
    active = []
    peak = []
    lock = threading.Lock()

    def slow_post(url, json=None, headers=None, timeout=None):
        with lock:
            active.append(1)
            peak.append(len(active))
        time.sleep(0)  # yield
        for _ in range(10000):
            pass
        with lock:
            active.pop()
        return FakeResponse({"text": "ok message"})

    monkeypatch.setattr(requests, "post", slow_post)
    client = GenerationClient(
        GenerationConfig(endpoint="https://gen.test/v1"), inflight=2
    )
    threads = [threading.Thread(target=lambda: client.generate("p")) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert max(peak) <= 2

"""Clients for the two external model services, plus offline stand-ins.

The embedding provider backs the semantic side of retrieval; the generation
provider produces commit messages from augmented prompts.  Request and
response shapes are documented in docs/providers.md.  API keys come from the
``CORACMG_EMBED_KEY`` / ``CORACMG_GEN_KEY`` environment variables.

``HashingEmbedder`` and ``MockGenerator`` make the whole pipeline runnable
offline and deterministically, which is what the test harness uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
import requests

from .errors import ConfigError, DimensionMismatch, EmptyGeneration, ProviderUnavailable
from .tokenizer import tokenize

EMBED_KEY_ENV = "CORACMG_EMBED_KEY"
GEN_KEY_ENV = "CORACMG_GEN_KEY"

DEFAULT_TIMEOUT = 60.0
DEFAULT_INFLIGHT = 4
# Client errors a retry can cure: request timeout and rate limiting.
_RETRYABLE_4XX = (408, 429)


@dataclass(frozen=True)
class GenerationConfig:
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0  # experiments run fully deterministic
    max_tokens: int = 128
    max_attempts: int = 3
    backoff_seconds: float = 1.0


@dataclass(frozen=True)
class ProviderConfig:
    embed_endpoint: str = ""
    embed_model: str = ""
    embed_dimension: int = 256
    gen: GenerationConfig = GenerationConfig()
    inflight: int = DEFAULT_INFLIGHT

    @classmethod
    def from_dict(cls, obj: dict) -> "ProviderConfig":
        embed = obj.get("embed", {})
        gen = obj.get("gen", {})
        conc = obj.get("concurrency", {})
        inflight = int(conc.get("inflight", DEFAULT_INFLIGHT))
        if inflight < 1:
            raise ValueError(f"concurrency.inflight must be at least 1, not {inflight}")
        return cls(
            embed_endpoint=embed.get("endpoint", ""),
            embed_model=embed.get("model", ""),
            embed_dimension=int(embed.get("dimension", 256)),
            gen=GenerationConfig(
                endpoint=gen.get("endpoint", ""),
                model=gen.get("model", ""),
                temperature=float(gen.get("temperature", 0.0)),
                max_tokens=int(gen.get("max_tokens", 128)),
            ),
            inflight=inflight,
        )

    def embedder(self, cache_dir: str | Path | None = None) -> "EmbeddingClient":
        return EmbeddingClient(
            self.embed_endpoint, self.embed_dimension, self.embed_model, cache_dir,
            inflight=self.inflight,
        )

    @classmethod
    def from_file(cls, path) -> "ProviderConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            problem = exc.strerror or exc
            raise ConfigError(f"cannot read provider config {path}: {problem}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"provider config {path} is not valid JSON: {exc}") from None
        try:
            return cls.from_dict(values)
        except (AttributeError, TypeError, ValueError) as exc:  # not objects, or bad numbers
            raise ConfigError(f"provider config {path}: {exc}") from None


def unit_normalize(values, dimension: int | None = None) -> np.ndarray:
    """Cast to float32 and scale to unit Euclidean norm."""
    vec = np.asarray(values, dtype=np.float32)
    if dimension is not None and vec.shape[0] != dimension:
        raise DimensionMismatch(
            f"provider returned dimension {vec.shape[0]}, expected {dimension}"
        )
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if norm == 0.0:
        raise ProviderUnavailable("provider returned a zero embedding vector")
    vec = vec / np.float32(norm)
    # One refinement pass keeps the float32 norm within 1e-6 of 1.
    vec = vec / np.linalg.norm(vec)
    return vec


def _retrying_post(url: str, payload: dict, headers: dict, attempts: int, backoff: float):
    last_error: Exception | None = None
    for attempt in range(attempts):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=DEFAULT_TIMEOUT)
            if resp.status_code >= 500:
                raise requests.RequestException(f"server error {resp.status_code}")
            if 400 <= resp.status_code < 500 and resp.status_code not in _RETRYABLE_4XX:
                raise ProviderUnavailable(
                    f"request to {url} was refused with status {resp.status_code}; "
                    "a retry cannot succeed"
                )
            resp.raise_for_status()
            return resp.json()
        except (requests.RequestException, ValueError) as exc:
            last_error = exc
            if attempt + 1 < attempts:
                time.sleep(backoff * (2**attempt))
    raise ProviderUnavailable(f"request to {url} failed after {attempts} attempts: {last_error}")


class EmbeddingClient:
    """HTTP embedding provider with a content-hash disk cache.

    Vectors are unit-normalized before storage, so a warm cache makes
    re-indexing idempotent and fully offline.  Reads are lock-free; writes
    are serialized.
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        model: str = "",
        cache_dir: str | Path | None = None,
        max_attempts: int = 3,
        backoff_seconds: float = 1.0,
        inflight: int = DEFAULT_INFLIGHT,
    ):
        if not endpoint:
            raise ConfigError("embedding endpoint (embed.endpoint) is not configured")
        self.endpoint = endpoint
        self.dimension = dimension
        self.model = model
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self._memory: dict[str, np.ndarray] = {}
        self._write_lock = threading.Lock()
        self._inflight = threading.Semaphore(inflight)

    @property
    def identifier(self) -> str:
        return self.model or self.endpoint

    def _key(self, text: str) -> str:
        payload = f"{self.model}\x00{self.dimension}\x00{text}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        key = self._key(text)
        cached = self._memory.get(key)
        if cached is not None:
            return cached
        path = self.cache_dir / f"{key}.npy" if self.cache_dir else None
        if path is not None and path.exists():
            vec = np.load(path)
            self._memory[key] = vec
            return vec
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(EMBED_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {"model": self.model, "input": text}
        with self._inflight:
            body = _retrying_post(
                self.endpoint, payload, headers, self.max_attempts, self.backoff_seconds
            )
        vec = unit_normalize(_extract_embedding(body), self.dimension)
        with self._write_lock:
            self._memory[key] = vec
            if path is not None:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".npy")
                os.close(fd)
                np.save(tmp, vec)
                os.replace(tmp, path)
        return vec


def _extract_embedding(body: dict) -> list[float]:
    if "embedding" in body:
        return body["embedding"]
    if "data" in body and body["data"]:
        return body["data"][0]["embedding"]
    raise ProviderUnavailable(f"embedding response has no vector: {list(body)!r}")


class HashingEmbedder:
    """Deterministic offline embedder: feature-hashed bag of tokens.

    Each token hashes to a bucket and a sign, counts accumulate, and the
    result is unit-normalized.  Similar texts land near each other, which is
    enough for the retrieval pipeline to behave realistically without any
    network access.

    The embedding is a function of the token counts alone, so a caller that
    has already counted a text's tokens passes the counts to
    ``embed_counts``.  Each distinct token is hashed once per embedder and
    remembered; the memo grows with the vocabulary, not the corpus.  Its
    writes are idempotent, so concurrent callers need no lock.
    """

    def __init__(self, dimension: int = 256):
        self.dimension = dimension
        self._features: dict[str, tuple[int, float]] = {}  # token -> (bucket, sign)

    @property
    def identifier(self) -> str:
        return f"hash-{self.dimension}"

    def _feature(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "little") % self.dimension
        return bucket, 1.0 if digest[4] & 1 else -1.0

    def embed(self, text: str) -> np.ndarray:
        return self.embed_counts(Counter(tokenize(text)))

    def embed_counts(self, counts: Mapping[str, int]) -> np.ndarray:
        """Embed a text from its ``tokenize`` counts (token -> occurrences)."""
        vec = [0.0] * self.dimension
        for token, n in counts.items():
            feature = self._features.get(token)
            if feature is None:
                feature = self._features[token] = self._feature(token)
            bucket, sign = feature
            # Every partial sum is an integer far below 2**53, so adding
            # sign * n once equals adding sign n times, bit for bit.
            vec[bucket] += sign * n
        if not any(vec):
            vec[0] = 1.0  # degenerate all-symbol-free input
        return unit_normalize(np.array(vec, dtype=np.float64), self.dimension)


def query_embedder(embedder_id: str, dimension: int, pc: ProviderConfig | None, cache_dir=None):
    """The embedder that made an index's vectors; any other scores queries in another space."""
    hashing = HashingEmbedder(dimension)
    if embedder_id == hashing.identifier:
        return hashing
    built_with = f"index was built with embedder {embedder_id!r} of dimension {dimension}"
    if pc is None:
        raise ConfigError(f"{built_with}, but no provider config was given")
    client = pc.embedder(cache_dir)
    if (client.identifier, client.dimension) != (embedder_id, dimension):
        raise ConfigError(
            f"{built_with}, but the provider config describes "
            f"{client.identifier!r} of dimension {client.dimension}"
        )
    return client


def postprocess_generation(raw: str) -> str:
    """Strip markdown fences and quotes, then keep the first non-empty line."""
    text = raw.replace("```", "\n")
    line = ""
    for candidate in text.splitlines():
        candidate = candidate.strip()
        if candidate:
            line = candidate
            break
    line = line.strip("`\"' ")
    if not line:
        raise EmptyGeneration("generation was empty after post-processing")
    return line


class GenerationClient:
    """HTTP generation provider; responses are post-processed to one line."""

    def __init__(self, config: GenerationConfig, inflight: int = DEFAULT_INFLIGHT):
        if not config.endpoint:
            raise ConfigError("generation endpoint (gen.endpoint) is not configured")
        self.config = config
        self._inflight = threading.Semaphore(inflight)

    @property
    def identifier(self) -> str:
        return self.config.model or self.config.endpoint

    def generate(self, prompt: str, examples=None) -> str:
        if not prompt:
            raise ValueError("cannot generate from an empty prompt")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(GEN_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        with self._inflight:
            body = _retrying_post(
                self.config.endpoint,
                payload,
                headers,
                self.config.max_attempts,
                self.config.backoff_seconds,
            )
        return postprocess_generation(_extract_text(body))


def _extract_text(body: dict) -> str:
    if "text" in body:
        return body["text"]
    choices = body.get("choices")
    if choices:
        message = choices[0].get("message", {})
        if "content" in message:
            return message["content"]
        if "text" in choices[0]:
            return choices[0]["text"]
    raise ProviderUnavailable(f"generation response has no text: {list(body)!r}")


class MockGenerator:
    """Offline generator: echoes the top retrieved message, or a constant."""

    def __init__(self, mode: str = "echo", text: str = "update code"):
        if mode not in ("echo", "constant"):
            raise ValueError(f"unknown mock mode {mode!r}")
        self.mode = mode
        self.text = text

    @property
    def identifier(self) -> str:
        return f"mock-{self.mode}"

    def generate(self, prompt: str, examples=None) -> str:
        if self.mode == "echo" and examples:
            return examples[0].message
        return self.text

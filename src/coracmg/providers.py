"""Clients for the two external model services, plus offline stand-ins.

The embedding provider backs the semantic side of retrieval; the generation
provider produces commit messages from augmented prompts.  Request and
response shapes are documented in docs/providers.md.  API keys come from the
``CORACMG_EMBED_KEY`` / ``CORACMG_GEN_KEY`` environment variables.

``HashingEmbedder`` and ``MockGenerator`` (which copies the strongest example
its prompt kept) make the whole pipeline runnable offline and
deterministically, which is what the test harness uses.  Requests follow no
redirect: ``urllib`` would re-send a POST as a bodyless GET, key and all.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import reprlib
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyGeneration,
    EmptyQuery,
    InvalidInput,
    ProviderUnavailable,
    check_type,
    read_json,
)
from .tokenizer import tokenize

EMBED_KEY_ENV = "CORACMG_EMBED_KEY"
GEN_KEY_ENV = "CORACMG_GEN_KEY"

DEFAULT_INFLIGHT = 4
# The hashing embedder's size, and a provider's when its config names none.
DEFAULT_DIMENSION = 256
# The one retry policy: each attempt may take TIMEOUT_SECONDS, and the wait
# before a retry doubles from BACKOFF_SECONDS (1 s, then 2 s).
TIMEOUT_SECONDS = 60.0
ATTEMPTS = 3
BACKOFF_SECONDS = 1.0
# Client errors a retry can cure: request timeout and rate limiting.
_RETRYABLE_4XX = (408, 429)


@dataclass(frozen=True)
class GenerationConfig:
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0  # experiments run fully deterministic
    max_tokens: int = 128


@dataclass(frozen=True)
class ProviderConfig:
    embed_endpoint: str = ""
    embed_model: str = ""
    embed_dimension: int = DEFAULT_DIMENSION
    gen: GenerationConfig = GenerationConfig()
    inflight: int = DEFAULT_INFLIGHT

    @classmethod
    def from_dict(cls, obj: dict) -> "ProviderConfig":
        def value(role: str, key: str, annotation: str, default):
            found = obj.get(role, {}).get(key, default)
            check_type(f"{role}.{key}", found, annotation)
            return found

        def count(role: str, key: str, default: int) -> int:
            found = value(role, key, "int", default)
            if found < 1:
                raise ConfigError(f"{role}.{key} must be at least 1, not {found}")
            return found

        temperature = value("gen", "temperature", "float", GenerationConfig.temperature)
        # NaN fails both comparisons; an int past the float range fails one.
        if not -sys.float_info.max <= temperature <= sys.float_info.max:
            raise ConfigError(f"gen.temperature must be a finite number, not {temperature!r}")
        return cls(
            embed_endpoint=value("embed", "endpoint", "str", ""),
            embed_model=value("embed", "model", "str", ""),
            embed_dimension=count("embed", "dimension", DEFAULT_DIMENSION),
            gen=GenerationConfig(
                endpoint=value("gen", "endpoint", "str", ""),
                model=value("gen", "model", "str", ""),
                temperature=float(temperature),
                max_tokens=count("gen", "max_tokens", GenerationConfig.max_tokens),
            ),
            inflight=count("concurrency", "inflight", DEFAULT_INFLIGHT),
        )

    def embedder(self, cache_dir: str | Path | None = None) -> "EmbeddingClient":
        return EmbeddingClient(
            self.embed_endpoint, self.embed_dimension, self.embed_model, cache_dir
        )

    @classmethod
    def from_file(cls, path) -> "ProviderConfig":
        values = read_json(path, ConfigError, "provider config ")
        try:
            return cls.from_dict(values)
        except (AttributeError, ConfigError) as exc:  # not objects, or values of another kind
            raise ConfigError(f"provider config {path}: {exc}") from None


def unit_normalize(values, dimension: int) -> np.ndarray:
    """Cast to float32, check the length and scale to unit Euclidean norm."""
    vec = np.asarray(values, dtype=np.float32)
    if vec.shape[0] != dimension:
        raise DimensionMismatch(
            f"provider returned dimension {vec.shape[0]}, expected {dimension}"
        )
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if not 0.0 < norm < math.inf:
        raise ProviderUnavailable(f"provider returned an embedding vector of norm {norm}")
    vec = vec / np.float32(norm)
    # One refinement pass keeps the float32 norm within 1e-6 of 1.
    vec = vec / np.linalg.norm(vec)
    return vec


class _RefuseRedirects(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None  # the 3xx reaches the caller as an HTTPError


_OPENER = urllib.request.build_opener(_RefuseRedirects)


def _post(url: str, payload: dict, key_env: str):
    """POST ``payload`` as JSON and return the decoded JSON answer.

    Failures a retry can cure are retried under the module's policy: no
    connection, a timeout, a dropped connection, 5xx, 408, 429, or a body
    that is not JSON.  Any other error status, a 3xx included, is refused at once.
    """
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=data, headers=headers, method="POST")
    last_error: object = None
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_SECONDS * 2 ** (attempt - 1))
        try:
            with _OPENER.open(request, timeout=TIMEOUT_SECONDS) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code < 500 and exc.code not in _RETRYABLE_4XX:
                raise ProviderUnavailable(
                    f"request to {url} was refused with status {exc.code}; "
                    "a retry cannot succeed"
                ) from None
            last_error = f"status {exc.code}"
        # OSError covers no connection and timeouts; ValueError a body that is not JSON.
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last_error = exc
    raise ProviderUnavailable(f"request to {url} failed after {ATTEMPTS} attempts: {last_error}")


def _check_endpoint(url: str, key: str) -> None:
    if not url:
        raise ConfigError(f"{key} is not configured")
    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise ConfigError(f"{key} {url!r} is not an http or https URL")


class EmbeddingClient:
    """HTTP embedding provider with a content-hash disk cache.

    Vectors are unit-normalized before storage, so a warm cache makes
    re-indexing idempotent and fully offline.  A cache file that does not
    hold ``dimension`` float32 values (truncated, empty, or not a ``.npy``
    file) is a miss: the vector is fetched again and the file rewritten.
    The disk cache is the only cache: the client keeps no vector, so a
    client without a ``cache_dir`` requests a repeated text again.  Each
    write goes to a file of its own and is renamed into place, so
    concurrent callers need no lock.
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int,
        model: str = "",
        cache_dir: str | Path | None = None,
    ):
        _check_endpoint(endpoint, "embedding endpoint (embed.endpoint)")
        self.endpoint = endpoint
        self.dimension = dimension
        self.model = model
        self.cache_dir = Path(cache_dir) if cache_dir else None

    @property
    def identifier(self) -> str:
        return self.model or self.endpoint

    def _key(self, text: str) -> str:
        payload = f"{self.model}\x00{self.dimension}\x00{text}".encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise InvalidInput("cannot embed an empty diff: a provider takes no empty text")
        key = self._key(text)
        path = self.cache_dir / f"{key}.npy" if self.cache_dir else None
        if path is not None and path.exists():
            try:
                with open(path, "rb") as fh:
                    vec = np.lib.format.read_array(fh)  # a .npy file and nothing else
            except (OSError, ValueError):  # truncated, empty or not a .npy file
                vec = None
            if vec is not None and vec.shape == (self.dimension,) and vec.dtype == np.float32:
                return vec
        payload = {"model": self.model, "input": text}
        body = _post(self.endpoint, payload, EMBED_KEY_ENV)
        vec = unit_normalize(_extract_embedding(body, self.endpoint), self.dimension)
        if path is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Created here under a name of this process and thread, so the
            # file gets the mode open() gives and other users can read it.
            tmp = path.with_name(f"{key}.{os.getpid()}.{threading.get_ident()}.tmp")
            with open(tmp, "xb") as fh:
                np.save(fh, vec)
            os.replace(tmp, path)
        return vec


def _extract_embedding(body, url: str) -> np.ndarray:
    try:
        vector = body["embedding"] if "embedding" in body else body["data"][0]["embedding"]
        if all(type(v) in (int, float) for v in vector):
            vec = np.array(vector, dtype=np.float64)
            if np.isfinite(vec).all():
                return vec
    except (TypeError, KeyError, IndexError, OverflowError):  # no list of numbers where one goes
        pass
    raise ProviderUnavailable(f"embedding response from {url} has no vector: {reprlib.repr(body)}")


# Bytes of float64 scratch in one ``HashingEmbedder.embed_rows`` pass: half
# glibc's default 128 KiB mmap threshold, so the scratch comes from the heap
# and is reused.  A larger block's scratch is mapped, faulted in and unmapped
# on every pass: at dimension 256, 10k documents embed in 55-60 ms in 32-row
# blocks and in 83-92 ms in 256-row blocks (2-core x86 host).
EMBED_BLOCK_BYTES = 1 << 16


class _Features(dict):
    """Token -> ``2 * bucket + negative``, hashed on the first lookup of each token."""

    def __init__(self, dimension: int):
        super().__init__()
        self.dimension = dimension

    def __missing__(self, token: str) -> int:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "little") % self.dimension
        feature = self[token] = 2 * bucket + (not digest[4] & 1)
        return feature


class HashingEmbedder:
    """Deterministic offline embedder: feature-hashed bag of tokens.

    Each token hashes to a bucket and a sign, counts accumulate, and the
    result is unit-normalized.  Similar texts land near each other, which is
    enough for the retrieval pipeline to behave realistically without any
    network access.

    The embedding is a function of the token counts alone, so a caller that
    has already counted its texts' tokens passes the counts to
    ``embed_rows``, or one text's to ``embed_counts``.  Each distinct token
    is hashed once per embedder and remembered; the memo grows with the
    vocabulary, not the corpus.  Its writes are idempotent, so concurrent
    callers need no lock.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        self.dimension = dimension
        # The most rows whose embed_rows scratch fits in EMBED_BLOCK_BYTES.
        self.block_rows = max(1, EMBED_BLOCK_BYTES // (8 * dimension))
        self._features = _Features(dimension)

    @property
    def identifier(self) -> str:
        return f"hash-{self.dimension}"

    def embed(self, text: str) -> np.ndarray:
        return self.embed_counts(Counter(tokenize(text)))

    def embed_counts(self, counts: Mapping[str, int]) -> np.ndarray:
        """Embed a text from its ``tokenize`` counts (token -> occurrences)."""
        return self.embed_rows([counts])[0]

    def embed_rows(self, counts_list: Sequence[Mapping[str, int]]) -> np.ndarray:
        """One float32 unit row per text, from each text's ``tokenize`` counts.

        One numpy pass over all the rows: ``np.bincount`` sums each row's
        signed counts per bucket, and each sum is an integer far below
        2**53, so it is exact in any order.  A row with no nonzero sum is
        the degenerate unit vector on bucket 0.  Each row is scaled by its
        float64 norm, the root of an exact sum of integer squares, and
        nothing else: a float32 norm from BLAS would sum in the order of the
        CPU's kernel, and the rows' bits would follow it.  The float64
        scratch is ``16 * dimension`` bytes per row: pass at most
        ``block_rows`` rows to keep it within ``EMBED_BLOCK_BYTES``.
        """
        dim, n = self.dimension, len(counts_list)
        tokens = list(chain.from_iterable(counts_list))
        features = np.fromiter(map(self._features.__getitem__, tokens), np.int64, len(tokens))
        occurrences = np.fromiter(
            chain.from_iterable(counts.values() for counts in counts_list), np.float64, len(tokens)
        )
        cells = np.repeat(np.arange(0, n * dim, dim), [len(counts) for counts in counts_list])
        signs = 1.0 - 2.0 * (features & 1)
        sums = np.bincount(cells + (features >> 1), signs * occurrences, n * dim).reshape(n, dim)
        sums[~sums.any(axis=1), 0] = 1.0  # degenerate all-symbol-free input
        rows = sums.astype(np.float32)
        rows /= np.sqrt(np.square(rows, dtype=np.float64).sum(axis=1)).astype(np.float32)[:, None]
        return rows


def embed_cache_dir(corpus, cache_dir=None) -> str:
    """Where the vectors of ``corpus``'s diffs are cached: ``cache_dir``, else beside the corpus.

    ``index`` and ``experiment`` both cache here, so a run over the corpus an
    index was built from requests none of its diffs again.
    """
    return str(cache_dir) if cache_dir else f"{corpus}.embed_cache"


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

    def __init__(self, config: GenerationConfig):
        _check_endpoint(config.endpoint, "generation endpoint (gen.endpoint)")
        self.config = config

    @property
    def identifier(self) -> str:
        return self.config.model or self.config.endpoint

    def generate(self, prompt: str, examples=None) -> str:
        if not prompt:
            raise EmptyQuery("cannot generate from an empty prompt")
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        body = _post(self.config.endpoint, payload, GEN_KEY_ENV)
        return postprocess_generation(_extract_text(body, self.config.endpoint))


def _extract_text(body, url: str) -> str:
    try:
        if "text" in body:
            text = body["text"]
        else:
            choice = body["choices"][0]
            message = choice.get("message", {})
            text = message["content"] if "content" in message else choice["text"]
    except (TypeError, KeyError, IndexError, AttributeError):  # no text where one goes
        text = None
    if not isinstance(text, str):
        raise ProviderUnavailable(
            f"generation response from {url} has no text: {reprlib.repr(body)}"
        )
    return text


@dataclass(frozen=True)
class MockGenerator:
    """Offline generator: the strongest example its prompt kept, else ``text``."""

    text: str = "update code"
    identifier = "mock-echo"  # not a field: unannotated

    def generate(self, prompt: str, examples=None) -> str:
        return examples[0].message if examples else self.text

"""Hybrid lexical + semantic retrieval of diff-message example pairs.

The index is partitioned by project; retrieval is always scoped to the
query's own project.  Lexical scores are Okapi BM25 (k1=1.2, b=0.75,
statistics computed per partition), semantic scores are dot products of
unit-normalized embeddings, and the two are fused 1:1 after min-max
normalization over the candidate set.  A leakage guard skips any candidate
whose diff is byte-identical to the query, promoting the next-ranked pair.

The index persists to a directory with three entries:

* ``manifest.json``: versioned description (counts, dimension, parameters)
* ``lexical.bin``: pickled per-partition documents and term statistics
* ``vectors.bin``: 16-byte header (magic ``CMGV``, version, count,
  dimension; little-endian uint32) followed by row-major float32 vectors

After construction the index is immutable; queries may run concurrently.
"""

from __future__ import annotations

import json
import logging
import math
import pickle
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .diffs import CommitRecord
from .errors import (
    CorruptIndex,
    DimensionMismatch,
    EmptyCorpus,
    EmptyScope,
    UnknownDocument,
)
from .tokenizer import tokenize

log = logging.getLogger(__name__)

VECTORS_MAGIC = b"CMGV"
INDEX_VERSION = 1
DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


class DocHandle(NamedTuple):
    sha: str
    repo_full_name: str


@dataclass(frozen=True)
class ScoredCandidate:
    handle: DocHandle
    lexical_score: float
    semantic_score: float
    hybrid_score: float


@dataclass(frozen=True)
class ExamplePair:
    """A retrieved (diff, message) pair used for prompt augmentation."""

    diff: str
    message: str
    handle: DocHandle
    hybrid_score: float


@dataclass
class _Doc:
    sha: str
    date: str
    message: str
    diff: str
    token_counts: dict[str, int]
    length: int


class _Partition:
    def __init__(self, repo: str, docs: list[_Doc], vectors: np.ndarray, k1: float, b: float):
        self.repo = repo
        self.docs = docs
        self.vectors = vectors.astype(np.float64)  # (n, dim) unit rows, float32 values
        self.df: Counter = Counter()
        for doc in docs:
            self.df.update(doc.token_counts.keys())
        total_len = sum(doc.length for doc in docs)
        self.avgdl = total_len / len(docs) if docs else 0.0
        # Precomputed k1 * (1 - b + b * dl / avgdl) per document.
        self.length_norm = np.array(
            [
                k1 * (1.0 - b + b * (doc.length / self.avgdl)) if self.avgdl > 0 else k1
                for doc in docs
            ],
            dtype=np.float64,
        )
        self.date_keys = [datetime.fromisoformat(doc.date).timestamp() for doc in docs]
        postings: dict[str, list[tuple[int, float]]] = {}
        for i, doc in enumerate(docs):
            for term, tf in doc.token_counts.items():
                postings.setdefault(term, []).append((i, float(tf)))
        self.postings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for term, entries in postings.items():
            ids = np.array([e[0] for e in entries], dtype=np.int32)
            tfs = np.array([e[1] for e in entries], dtype=np.float64)
            self.postings[term] = (ids, tfs)

    def __len__(self) -> int:
        return len(self.docs)


def _unique_terms(tokens: list[str]) -> list[tuple[str, int]]:
    counts = Counter(tokens)
    seen = set()
    ordered = []
    for tok in tokens:
        if tok not in seen:
            seen.add(tok)
            ordered.append((tok, counts[tok]))
    return ordered


def fuse(candidates: list[tuple[float, float]]) -> list[float]:
    """Min-max normalize each score family to [0, 1], then average 1:1.

    A constant family maps to 0.5 everywhere so it contributes neutrally.
    """
    if not candidates:
        raise ValueError("cannot fuse an empty candidate list")

    def minmax(values: list[float]) -> list[float]:
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.5] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    lex = minmax([c[0] for c in candidates])
    sem = minmax([c[1] for c in candidates])
    return [0.5 * a + 0.5 * b for a, b in zip(lex, sem)]


class RetrievalIndex:
    def __init__(
        self,
        partitions: dict[str, _Partition],
        dimension: int,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
        embedder_id: str = "",
    ):
        self.partitions = partitions
        self.dimension = dimension
        self.k1 = k1
        self.b = b
        self.embedder_id = embedder_id
        self._by_handle: dict[DocHandle, tuple[str, int]] = {}
        for repo, part in partitions.items():
            for i, doc in enumerate(part.docs):
                self._by_handle[DocHandle(doc.sha, repo)] = (repo, i)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        records: Iterable[CommitRecord],
        embedder,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> "RetrievalIndex":
        """Index a corpus of (already filtered and preprocessed) records."""
        grouped: dict[str, list[CommitRecord]] = {}
        for rec in records:
            grouped.setdefault(rec.repo_full_name, []).append(rec)
        if not grouped:
            raise EmptyCorpus("cannot build an index from zero records")
        dimension = getattr(embedder, "dimension")
        partitions: dict[str, _Partition] = {}
        for repo in sorted(grouped):
            docs = []
            vectors = np.empty((len(grouped[repo]), dimension), dtype=np.float32)
            for i, rec in enumerate(grouped[repo]):
                tokens = tokenize(rec.diff)
                docs.append(
                    _Doc(
                        sha=rec.sha,
                        date=rec.date,
                        message=rec.message,
                        diff=rec.diff,
                        token_counts=dict(Counter(tokens)),
                        length=len(tokens),
                    )
                )
                vec = embedder.embed(rec.diff)
                if vec.shape[0] != dimension:
                    raise DimensionMismatch(
                        f"embedder returned dimension {vec.shape[0]}, index uses {dimension}"
                    )
                vectors[i] = vec
            partitions[repo] = _Partition(repo, docs, vectors, k1, b)
        return cls(
            partitions,
            dimension,
            k1=k1,
            b=b,
            embedder_id=getattr(embedder, "identifier", type(embedder).__name__),
        )

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        repos = sorted(self.partitions)
        doc_count = sum(len(self.partitions[r]) for r in repos)
        manifest = {
            "magic": "coracmg-index",
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "dimension": self.dimension,
            "doc_count": doc_count,
            "embedder": self.embedder_id,
            "projects": {r: len(self.partitions[r]) for r in repos},
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        lexical = {
            "version": INDEX_VERSION,
            "partitions": {
                repo: [
                    (d.sha, d.date, d.message, d.diff, d.token_counts)
                    for d in self.partitions[repo].docs
                ]
                for repo in repos
            },
        }
        with open(out / "lexical.bin", "wb") as fh:
            pickle.dump(lexical, fh, protocol=pickle.HIGHEST_PROTOCOL)
        with open(out / "vectors.bin", "wb") as fh:
            fh.write(VECTORS_MAGIC)
            fh.write(struct.pack("<III", INDEX_VERSION, doc_count, self.dimension))
            for repo in repos:
                # Exact: the stored values came from float32.
                fh.write(self.partitions[repo].vectors.astype("<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "RetrievalIndex":
        root = Path(path)
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("magic") != "coracmg-index":
            raise CorruptIndex(f"{root} is not an index directory")
        with open(root / "lexical.bin", "rb") as fh:
            lexical = pickle.load(fh)
        raw = (root / "vectors.bin").read_bytes()
        if len(raw) < 16 or raw[:4] != VECTORS_MAGIC:
            raise CorruptIndex("vectors.bin has a bad magic number")
        version, count, dimension = struct.unpack("<III", raw[4:16])
        if len(raw) != 16 + count * dimension * 4:
            raise CorruptIndex(
                f"vectors.bin has {len(raw)} bytes; a {count} x {dimension} float32 "
                f"matrix needs {16 + count * dimension * 4}"
            )
        if count != manifest.get("doc_count"):
            raise CorruptIndex(
                f"vectors.bin holds {count} vectors, manifest.json "
                f"counts {manifest.get('doc_count')} documents"
            )
        matrix = np.frombuffer(raw[16:], dtype="<f4").reshape(count, dimension)
        partitions: dict[str, _Partition] = {}
        row = 0
        k1 = float(manifest["k1"])
        b = float(manifest["b"])
        for repo in sorted(lexical["partitions"]):
            entries = lexical["partitions"][repo]
            docs = []
            for sha, date, message, diff, token_counts in entries:
                docs.append(
                    _Doc(
                        sha=sha,
                        date=date,
                        message=message,
                        diff=diff,
                        token_counts=token_counts,
                        length=sum(token_counts.values()),
                    )
                )
            partitions[repo] = _Partition(repo, docs, matrix[row : row + len(docs)], k1, b)
            row += len(docs)
        return cls(
            partitions,
            dimension,
            k1=k1,
            b=b,
            embedder_id=manifest.get("embedder", ""),
        )

    # -- scoring ----------------------------------------------------------

    def _locate(self, handle: DocHandle) -> tuple[str, int]:
        try:
            return self._by_handle[handle]
        except KeyError:
            raise UnknownDocument(f"no indexed document for {handle}") from None

    def _idf(self, part: _Partition, term: str) -> float:
        df = part.df.get(term, 0)
        n = len(part)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def bm25_score(self, query_tokens: list[str], handle: DocHandle) -> float:
        """Okapi BM25 of one document against a tokenized query."""
        repo, idx = self._locate(handle)
        part = self.partitions[repo]
        doc = part.docs[idx]
        norm_d = float(part.length_norm[idx])
        k1p1 = self.k1 + 1.0
        score = 0.0
        for term, qtf in _unique_terms(query_tokens):
            tf = doc.token_counts.get(term)
            if tf is None:
                continue
            weight = self._idf(part, term) * qtf
            score += weight * (tf * k1p1) / (tf + norm_d)
        return score

    def semantic_score(self, query_vec: np.ndarray, handle: DocHandle) -> float:
        """Dot product against a stored unit vector (cosine for unit inputs)."""
        repo, idx = self._locate(handle)
        if query_vec.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"query vector has dimension {query_vec.shape[0]}, index uses {self.dimension}"
            )
        return float(np.dot(self.partitions[repo].vectors[idx], query_vec.astype(np.float64)))

    def _batch_lexical(self, part: _Partition, query_tokens: list[str]) -> np.ndarray:
        scores = np.zeros(len(part), dtype=np.float64)
        k1p1 = self.k1 + 1.0
        for term, qtf in _unique_terms(query_tokens):
            entry = part.postings.get(term)
            if entry is None:
                continue
            ids, tfs = entry
            weight = self._idf(part, term) * qtf
            # Fancy-index += is exact: each document adds one posting per term,
            # so a term's ids are unique.
            scores[ids] += weight * (tfs * k1p1) / (tfs + part.length_norm[ids])
        return scores

    def score_partition(
        self,
        query_diff: str,
        scope_repo: str,
        query_vec: np.ndarray,
        exclude_sha: str | None = None,
    ) -> list[ScoredCandidate]:
        """Score every admissible document in a partition and fuse the scores."""
        part = self.partitions.get(scope_repo)
        if part is None or len(part) == 0:
            raise EmptyScope(f"no indexed documents for project {scope_repo!r}")
        keep = [i for i in range(len(part)) if part.docs[i].sha != exclude_sha]
        if not keep:
            raise EmptyScope(
                f"project {scope_repo!r} has no candidates besides the excluded commit"
            )
        query_tokens = tokenize(query_diff)
        lexical = self._batch_lexical(part, query_tokens)
        semantic = part.vectors @ query_vec.astype(np.float64)
        pairs = [(float(lexical[i]), float(semantic[i])) for i in keep]
        hybrid = fuse(pairs)
        return [
            ScoredCandidate(
                handle=DocHandle(part.docs[i].sha, scope_repo),
                lexical_score=pairs[pos][0],
                semantic_score=pairs[pos][1],
                hybrid_score=hybrid[pos],
            )
            for pos, i in enumerate(keep)
        ]

    def retrieve(
        self,
        query_diff: str,
        k: int,
        scope_repo: str,
        exclude_sha: str | None = None,
        embedder=None,
    ) -> list[ExamplePair]:
        """Top-k example pairs from the query's own project, best first.

        Candidates byte-identical to the query diff are skipped, promoting
        the next-ranked pair.  Ties break by (hybrid desc, date desc,
        sha asc).  If fewer than ``k`` admissible pairs exist, the available
        ones are returned and a warning is logged.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        query_vec = embedder.embed(query_diff)
        candidates = self.score_partition(query_diff, scope_repo, query_vec, exclude_sha)
        part = self.partitions[scope_repo]
        local = {c.handle.sha: self._by_handle[c.handle][1] for c in candidates}
        candidates.sort(key=lambda c: c.handle.sha)
        candidates.sort(key=lambda c: part.date_keys[local[c.handle.sha]], reverse=True)
        candidates.sort(key=lambda c: c.hybrid_score, reverse=True)
        picked: list[ExamplePair] = []
        for cand in candidates:
            doc = part.docs[local[cand.handle.sha]]
            if doc.diff == query_diff:
                continue  # leakage guard: identical diff, take the next one
            picked.append(
                ExamplePair(
                    diff=doc.diff,
                    message=doc.message,
                    handle=cand.handle,
                    hybrid_score=cand.hybrid_score,
                )
            )
            if len(picked) == k:
                break
        if not picked:
            raise EmptyScope(
                f"every candidate in {scope_repo!r} is identical to the query diff"
            )
        if len(picked) < k:
            log.warning(
                "project %s has only %d admissible pairs (requested %d)",
                scope_repo,
                len(picked),
                k,
            )
        return picked

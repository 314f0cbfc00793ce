"""Hybrid lexical + semantic retrieval of diff-message example pairs.

The index is partitioned by project; retrieval is always scoped to the
query's own project.  Lexical scores are Okapi BM25 (``K1`` = 1.2,
``B`` = 0.75, statistics computed per partition), semantic scores are dot
products of unit-normalized embeddings, and the two are fused 1:1 after
min-max normalization over the candidate set.  A leakage guard skips any
candidate whose diff is byte-identical to the query, promoting the
next-ranked pair.

The index persists to a directory of five files (version 4); partitions are
stored in sorted project order and documents in partition order:

* ``manifest.json``: versioned description (counts, dimension, embedder,
  and ``k1``/``b``, recorded but not read); its sorted ``projects`` counts
  set the partition boundaries
* ``docs.txt``: every document's sha, date, message and diff, concatenated
  into one UTF-8 text (a lone surrogate, which a JSON corpus line may hold,
  is stored in its three-byte ``surrogatepass`` form)
* ``terms.json``: each project's vocabulary, in posting-row order
* ``postings.npz``: ``bounds`` (int64, ``4 * doc_count + 1`` code-point
  offsets into the text: field ``f`` of document ``d`` is
  ``text[bounds[4*d + f]:bounds[4*d + f + 1]]``) and, per partition ``p``,
  the CSR arrays ``offsets_p`` (int64, one more than the vocabulary),
  ``ids_p`` (int32, ascending within each term), ``tfs_p`` (float64),
  ``lengths_p`` (int64, tokens per doc) and ``tiebreak_p`` (int64, each
  document's rank under (date desc, sha asc), computed at build)
* ``vectors.bin``: 16-byte header (magic ``CMGV``, version, count,
  dimension; little-endian uint32) followed by row-major float32 vectors

Loading reads every file but the vector rows and checks the version of the
manifest and of the vectors header, that the counts and the size of
``vectors.bin`` agree across files, that the text is UTF-8 and its bounds
rise from 0 to its length, that the CSR arrays index only their own
partition and that each tie-break array is a permutation; any failure is a
``CorruptIndex``.  Load builds nothing per document: a query cuts from the
decoded text only the fields it reads, and a partition reads its rows of
``vectors.bin``, converts them to float64 and builds its sha lookup on its
first query.  A ``vectors.bin`` that changed after load, or reads short,
is a ``CorruptIndex`` at that query.

After construction the index is immutable and queries may run
concurrently: each piece of lazily built state is computed whole and then
published by one attribute assignment, so a race at worst computes it twice.
"""

from __future__ import annotations

import json
import logging
import math
import mmap
import os
import struct
import zipfile
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .diffs import CommitRecord
from .errors import CorruptIndex, DimensionMismatch, EmptyCorpus, EmptyScope
from .tokenizer import tokenize

log = logging.getLogger(__name__)

VECTORS_MAGIC = b"CMGV"
INDEX_VERSION = 4
# Okapi BM25 term-frequency saturation and length normalization.
K1 = 1.2
B = 0.75
# The per-partition arrays of postings.npz: the BM25 CSR arrays and the tie-break.
_ARRAY_DTYPES = {
    "offsets": np.int64,
    "ids": np.int32,
    "tfs": np.float64,
    "lengths": np.int64,
    "tiebreak": np.int64,
}
# The four fields of each document, in docs.txt order.
_SHA, _DATE, _MESSAGE, _DIFF = range(4)


class DocHandle(NamedTuple):
    sha: str
    repo_full_name: str


@dataclass(frozen=True)
class ExamplePair:
    """A retrieved (diff, message) pair used for prompt augmentation."""

    diff: str
    message: str
    handle: DocHandle
    hybrid_score: float


class _Partition:
    """One project's documents, unit vectors and BM25 postings.

    Field ``f`` (``_SHA``, ``_DATE``, ``_MESSAGE`` or ``_DIFF``) of document
    ``i`` is ``text[bounds[4*i + f]:bounds[4*i + f + 1]]``; a loaded index
    shares one text among its partitions.  The postings of term row ``t``
    are ``ids[offsets[t]:offsets[t + 1]]`` with term frequencies ``tfs``
    over the same slice; ``lengths`` holds each document's token count and
    ``tiebreak`` its rank under (date desc, sha asc), the order after the
    hybrid score.

    ``rows`` are the (n, dim) float32 unit vectors, or for a loaded index a
    function that reads them.  ``vectors`` and ``sha_index`` are built on
    first use.  Each is computed whole and then published by one attribute
    assignment, so concurrent first queries see either nothing or the
    finished value.
    """

    def __init__(
        self,
        text: str,
        bounds: np.ndarray,
        rows,
        terms: list[str],
        arrays: dict[str, np.ndarray],
    ):
        self.text = text
        self.bounds = bounds
        self._vectors = rows  # float64 from the first query on
        self.terms = {term: t for t, term in enumerate(terms)}
        self.offsets = arrays["offsets"]
        self.ids = arrays["ids"]
        self.tfs = arrays["tfs"]
        self.lengths = arrays["lengths"]
        self.tiebreak = arrays["tiebreak"]
        n = len(self.lengths)
        avgdl = int(self.lengths.sum()) / n if n else 0.0
        # Precomputed K1 * (1 - B + B * dl / avgdl) per document.
        if avgdl > 0:
            self.length_norm = K1 * (1.0 - B + B * (self.lengths / avgdl))
        else:
            self.length_norm = np.full(n, K1, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.lengths)

    def field(self, i: int, f: int) -> str:
        """Field ``f`` of document ``i``, cut from the text."""
        return self.text[self.bounds[4 * i + f] : self.bounds[4 * i + f + 1]]

    def rows(self) -> np.ndarray:
        """The unit rows as stored: float32, or float64 once a query converted them."""
        vectors = self._vectors
        return vectors() if callable(vectors) else vectors

    @property
    def vectors(self) -> np.ndarray:
        """The unit rows as float64, converted from the stored float32 on first use."""
        rows = self.rows()
        if rows.dtype == np.float64:
            return rows
        # float64 keeps the dot products, and so hybrid_score, bit-identical.
        vectors = np.frombuffer(_mapped(8 * rows.size), np.float64, rows.size).reshape(rows.shape)
        np.copyto(vectors, rows)
        self._vectors = vectors  # publishes the copy and drops the float32 rows
        return vectors

    @cached_property
    def sha_index(self) -> dict[str, int]:
        """Row of each sha (the last, for a repeated one), built on first use."""
        starts = self.bounds[_SHA:-1:4].tolist()
        ends = self.bounds[_SHA + 1 :: 4].tolist()
        text = self.text
        return {text[lo:hi]: i for i, (lo, hi) in enumerate(zip(starts, ends))}

    def posting(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(ids, tfs) views of a term's postings, or None for an unseen term."""
        t = self.terms.get(term)
        if t is None:
            return None
        lo, hi = self.offsets[t], self.offsets[t + 1]
        return self.ids[lo:hi], self.tfs[lo:hi]


def _tiebreak(records: list[CommitRecord]) -> np.ndarray:
    """Rank of each record under (date desc, sha asc)."""
    stamps = [datetime.fromisoformat(rec.date).timestamp() for rec in records]
    order = sorted(range(len(records)), key=lambda i: (-stamps[i], records[i].sha))
    rank = np.empty(len(records), dtype=np.int64)
    rank[order] = np.arange(len(records))
    return rank


def _csr(
    rows: dict[str, tuple[list[int], list[int]]], lengths: list[int]
) -> dict[str, np.ndarray]:
    """CSR arrays from per-term ``(ids, tfs)`` rows, in the rows' term order."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(ids) for ids, _ in rows.values()], out=offsets[1:])
    nnz = int(offsets[-1])
    return {
        "offsets": offsets,
        "ids": np.fromiter(chain.from_iterable(ids for ids, _ in rows.values()), np.int32, nnz),
        "tfs": np.fromiter(chain.from_iterable(tfs for _, tfs in rows.values()), np.float64, nnz),
        "lengths": np.array(lengths, dtype=np.int64),
    }


def _embed(embedder, text: str, counts: Counter) -> np.ndarray:
    """Embed from the token counts when the embedder can, else from the text."""
    embed_counts = getattr(embedder, "embed_counts", None)
    return embed_counts(counts) if embed_counts is not None else embedder.embed(text)


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(len(values), 0.5)
    return (values - lo) / (hi - lo)


def _fuse_arrays(lexical: np.ndarray, semantic: np.ndarray) -> np.ndarray:
    """Min-max normalize each score family to [0, 1], then average 1:1.

    A constant family maps to 0.5 everywhere so it contributes neutrally.
    """
    if len(lexical) == 0:
        raise ValueError("cannot fuse an empty candidate list")
    return 0.5 * _minmax(lexical) + 0.5 * _minmax(semantic)


def _mapped(nbytes: int) -> mmap.mmap:
    """Private memory of ``nbytes`` outside the malloc heap, faulted in by one call.

    A partition's float32 and float64 rows live here: the pages go back to the
    system as soon as the rows are dropped, whatever the heap keeps.
    """
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)  # MAP_POPULATE: Linux only
    return mmap.mmap(-1, max(nbytes, 1), flags=flags)  # a mapping cannot be empty


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise CorruptIndex(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_json(path: Path):
    try:
        return json.loads(_read_bytes(path))
    except ValueError as exc:
        raise CorruptIndex(f"{path} is not valid JSON: {exc}") from None


def _read_text(path: Path, bounds: np.ndarray | None, doc_count: int) -> str:
    """The text of ``docs.txt``, once the field bounds of ``postings.npz`` fit it."""
    try:
        text = _read_bytes(path).decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise CorruptIndex(f"{path} is not UTF-8: {exc}") from None
    if bounds is None:
        raise CorruptIndex("postings.npz lacks array 'bounds'")
    if bounds.dtype != np.int64 or bounds.ndim != 1:
        raise CorruptIndex("postings.npz: bounds must be a 1-d int64 array")
    if len(bounds) != 4 * doc_count + 1:
        raise CorruptIndex(
            f"postings.npz has {len(bounds)} field bounds; "
            f"{doc_count} documents need {4 * doc_count + 1}"
        )
    if bounds[0] != 0 or bounds[-1] != len(text) or np.any(np.diff(bounds) < 0):
        raise CorruptIndex(
            f"postings.npz: field bounds must rise from 0 to the {len(text)} "
            f"characters of {path.name}"
        )
    return text


def _read_vectors(path: Path, counts: list[int]) -> tuple[int, list[partial]]:
    """The dimension of ``vectors.bin`` and, per partition, a reader of its rows.

    Load checks the header and the size and reads no row: a partition calls
    its reader on its first query, so a reopen reads only the rows a query
    touches.
    """
    try:
        with open(path, "rb") as fh:
            header = fh.read(16)
            if len(header) < 16 or header[:4] != VECTORS_MAGIC:
                raise CorruptIndex("vectors.bin has a bad magic number")
            version, count, dimension = struct.unpack("<III", header[4:])
            if version != INDEX_VERSION:
                raise CorruptIndex(
                    f"vectors.bin has version {version}; "
                    f"this release reads version {INDEX_VERSION}"
                )
            checked = os.fstat(fh.fileno())
            size = checked.st_size
            if size != 16 + count * dimension * 4:
                raise CorruptIndex(
                    f"vectors.bin has {size} bytes; a {count} x {dimension} float32 "
                    f"matrix needs {16 + count * dimension * 4}"
                )
            if count != sum(counts):
                raise CorruptIndex(
                    f"vectors.bin holds {count} vectors, manifest.json "
                    f"counts {sum(counts)} documents"
                )
    except OSError as exc:
        raise CorruptIndex(f"cannot read {path}: {exc.strerror or exc}") from None
    starts = np.cumsum([0, *counts]).tolist()
    readers = [
        partial(_read_rows, path, checked, 16 + 4 * dimension * start, (n, dimension))
        for start, n in zip(starts, counts)
    ]
    return dimension, readers


def _read_rows(path: Path, checked: os.stat_result, offset: int, shape: tuple[int, int]):
    """One partition's float32 rows, from the ``vectors.bin`` that load checked."""
    nbytes = 4 * shape[0] * shape[1]
    staging = _mapped(nbytes)
    try:
        with open(path, "rb") as fh:
            now = os.fstat(fh.fileno())
            if (now.st_size, now.st_mtime_ns) != (checked.st_size, checked.st_mtime_ns):
                raise CorruptIndex(f"{path} changed after the index was loaded; load it again")
            fh.seek(offset)
            if fh.readinto(memoryview(staging)[:nbytes]) != nbytes:
                raise CorruptIndex("vectors.bin changed while it was read")
    except OSError as exc:
        raise CorruptIndex(f"cannot read {path}: {exc.strerror or exc}") from None
    return np.frombuffer(staging, dtype="<f4", count=nbytes // 4).reshape(shape)


def _read_postings(path: Path) -> dict[str, np.ndarray]:
    try:
        # np.load refuses object arrays by default, so reading runs no stored
        # code; a bare .npy file loads as an array and fails the `with` (TypeError).
        with np.load(path) as npz:
            return {name: npz[name] for name in npz.files}
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CorruptIndex(f"cannot read {path}: {exc}") from None


def _check_arrays(repo: str, n_docs: int, n_terms: int, arrays: dict[str, np.ndarray]) -> None:
    """Reject arrays that index out of range, double-count a document or rank one twice."""

    def bad(problem: str) -> CorruptIndex:
        return CorruptIndex(f"postings.npz: project {repo!r} {problem}")

    for name, dtype in _ARRAY_DTYPES.items():
        if arrays[name].dtype != dtype or arrays[name].ndim != 1:
            raise bad(f"{name} must be a 1-d {np.dtype(dtype).name} array")
    offsets, ids, tiebreak = arrays["offsets"], arrays["ids"], arrays["tiebreak"]
    if len(offsets) != n_terms + 1:
        raise bad(f"has {len(offsets)} offsets for {n_terms} terms")
    if offsets[0] != 0 or offsets[-1] != len(ids) or np.any(np.diff(offsets) < 0):
        raise bad("offsets must rise from 0 to the number of postings")
    if len(arrays["tfs"]) != len(ids):
        raise bad(f"has {len(arrays['tfs'])} term frequencies for {len(ids)} postings")
    if len(ids) and (ids.min() < 0 or ids.max() >= n_docs):
        raise bad(f"has document ids outside [0, {n_docs})")
    # Within a term ids ascend strictly, so _batch_lexical's scatter-add
    # counts each (term, document) once.
    rising = np.diff(ids) > 0
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(ids))] - 1] = True
    if not rising.all():
        raise bad("ids must ascend within each term")
    if len(arrays["lengths"]) != n_docs:
        raise bad(f"has {len(arrays['lengths'])} lengths for {n_docs} documents")
    if len(tiebreak) != n_docs:
        raise bad(f"has {len(tiebreak)} tie-break ranks for {n_docs} documents")
    if not np.array_equal(np.sort(tiebreak), np.arange(n_docs)):
        raise bad(f"tiebreak is not a permutation of 0..{n_docs - 1}")


class RetrievalIndex:
    def __init__(self, partitions: dict[str, _Partition], dimension: int, embedder_id: str = ""):
        self.partitions = partitions
        self.dimension = dimension
        self.embedder_id = embedder_id

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, records: Iterable[CommitRecord], embedder) -> "RetrievalIndex":
        """Index a corpus of (already filtered and preprocessed) records."""
        grouped: dict[str, list[CommitRecord]] = {}
        for rec in records:
            grouped.setdefault(rec.repo_full_name, []).append(rec)
        if not grouped:
            raise EmptyCorpus("cannot build an index from zero records")
        dimension = getattr(embedder, "dimension")
        partitions: dict[str, _Partition] = {}
        for repo in sorted(grouped):
            recs = grouped[repo]
            vectors = np.empty((len(recs), dimension), dtype=np.float32)
            lengths = []
            rows: dict[str, tuple[list[int], list[int]]] = {}  # term -> (ids, tfs)
            for i, rec in enumerate(recs):
                counts = Counter(tokenize(rec.diff))
                for term, tf in counts.items():
                    row = rows.get(term)
                    if row is None:
                        row = rows[term] = ([], [])
                    row[0].append(i)
                    row[1].append(tf)
                lengths.append(sum(counts.values()))
                vec = _embed(embedder, rec.diff, counts)
                if vec.shape[0] != dimension:
                    raise DimensionMismatch(
                        f"embedder returned dimension {vec.shape[0]}, index uses {dimension}"
                    )
                vectors[i] = vec
            fields = [f for rec in recs for f in (rec.sha, rec.date, rec.message, rec.diff)]
            bounds = np.zeros(len(fields) + 1, dtype=np.int64)
            np.cumsum([len(field) for field in fields], out=bounds[1:])
            arrays = {**_csr(rows, lengths), "tiebreak": _tiebreak(recs)}
            partitions[repo] = _Partition("".join(fields), bounds, vectors, list(rows), arrays)
        return cls(
            partitions,
            dimension,
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
            "k1": K1,
            "b": B,
            "dimension": self.dimension,
            "doc_count": doc_count,
            "embedder": self.embedder_id,
            "projects": {r: len(self.partitions[r]) for r in repos},
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )
        # Each partition's span of its text, rebased to follow the previous one.
        texts, bounds, end = [], [np.zeros(1, dtype=np.int64)], 0
        for repo in repos:
            part = self.partitions[repo]
            lo, hi = int(part.bounds[0]), int(part.bounds[-1])
            texts.append(part.text[lo:hi])
            bounds.append(part.bounds[1:] - lo + end)
            end += hi - lo
        (out / "docs.txt").write_bytes("".join(texts).encode("utf-8", "surrogatepass"))
        (out / "terms.json").write_text(
            json.dumps({r: list(self.partitions[r].terms) for r in repos}), encoding="utf-8"
        )
        arrays = {"bounds": np.concatenate(bounds)}
        for p, repo in enumerate(repos):
            part = self.partitions[repo]
            for name in _ARRAY_DTYPES:
                arrays[f"{name}_{p}"] = getattr(part, name)
        with open(out / "postings.npz", "wb") as fh:
            np.savez(fh, **arrays)
        with open(out / "vectors.bin", "wb") as fh:
            fh.write(VECTORS_MAGIC)
            fh.write(struct.pack("<III", INDEX_VERSION, doc_count, self.dimension))
            for repo in repos:
                # Exact: the stored values came from float32.
                fh.write(self.partitions[repo].rows().astype("<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "RetrievalIndex":
        root = Path(path)
        manifest = _read_json(root / "manifest.json")
        if not isinstance(manifest, dict) or manifest.get("magic") != "coracmg-index":
            raise CorruptIndex(f"{root} is not an index directory")
        if manifest.get("version") != INDEX_VERSION:
            raise CorruptIndex(
                f"{root} holds a version {manifest.get('version')} index; "
                f"this release reads version {INDEX_VERSION}"
            )
        try:
            doc_count = int(manifest["doc_count"])
            projects = {str(r): int(n) for r, n in manifest["projects"].items()}
            if min(projects.values(), default=0) < 0:
                raise ValueError("a project holds a negative number of documents")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CorruptIndex(f"manifest.json has a missing or invalid field: {exc}") from None
        embedder_id = manifest.get("embedder")  # the only valid query embedder
        if not (isinstance(embedder_id, str) and embedder_id):
            raise CorruptIndex(f"manifest.json names no embedder: {embedder_id!r}")
        if sum(projects.values()) != doc_count:
            raise CorruptIndex(
                f"manifest.json projects hold {sum(projects.values())} documents, "
                f"its doc_count is {doc_count}"
            )

        repos = sorted(projects)
        dimension, readers = _read_vectors(root / "vectors.bin", [projects[r] for r in repos])
        vocab = _read_json(root / "terms.json")
        if not isinstance(vocab, dict) or set(vocab) != set(projects):
            raise CorruptIndex("terms.json does not hold one vocabulary per project")
        arrays = _read_postings(root / "postings.npz")
        bounds = arrays.get("bounds")
        text = _read_text(root / "docs.txt", bounds, doc_count)

        partitions: dict[str, _Partition] = {}
        row = 0
        for p, repo in enumerate(repos):
            n = projects[repo]
            terms = vocab[repo]
            if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
                raise CorruptIndex(f"terms.json vocabulary of {repo!r} is not a list of terms")
            try:
                part_arrays = {name: arrays[f"{name}_{p}"] for name in _ARRAY_DTYPES}
            except KeyError as exc:
                raise CorruptIndex(f"postings.npz lacks array {exc}") from None
            _check_arrays(repo, n, len(terms), part_arrays)
            partitions[repo] = _Partition(
                text, bounds[4 * row : 4 * (row + n) + 1], readers[p], terms, part_arrays
            )
            row += n
        return cls(partitions, dimension, embedder_id=embedder_id)

    # -- scoring ----------------------------------------------------------

    def _idf(self, part: _Partition, df: int) -> float:
        n = len(part)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def _batch_lexical(self, part: _Partition, query_counts: Counter) -> np.ndarray:
        scores = np.zeros(len(part), dtype=np.float64)
        k1p1 = K1 + 1.0
        for term, qtf in query_counts.items():
            entry = part.posting(term)
            if entry is None:
                continue
            ids, tfs = entry
            weight = self._idf(part, len(ids)) * qtf
            # Fancy-index += is exact: each document adds one posting per term,
            # so a term's ids are unique.
            scores[ids] += weight * (tfs * k1p1) / (tfs + part.length_norm[ids])
        return scores

    def _score(
        self,
        query_counts: Counter,
        scope_repo: str,
        query_vec: np.ndarray,
        exclude_sha: str | None,
    ) -> tuple[_Partition, np.ndarray, np.ndarray]:
        """(partition, kept indices, hybrid scores of the kept documents)."""
        if query_vec.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"query vector has dimension {query_vec.shape[0]}, index uses {self.dimension}"
            )
        part = self.partitions.get(scope_repo)
        if part is None or len(part) == 0:
            raise EmptyScope(f"no indexed documents for project {scope_repo!r}")
        keep = np.arange(len(part))
        excluded = part.sha_index.get(exclude_sha)
        if excluded is not None:
            keep = np.delete(keep, excluded)
        if len(keep) == 0:
            raise EmptyScope(
                f"project {scope_repo!r} has no candidates besides the excluded commit"
            )
        lexical = self._batch_lexical(part, query_counts)[keep]
        semantic = (part.vectors @ query_vec.astype(np.float64))[keep]
        return part, keep, _fuse_arrays(lexical, semantic)

    def retrieve(
        self,
        query_diff: str,
        k: int,
        scope_repo: str,
        exclude_sha: str | None = None,
        *,
        embedder,
    ) -> list[ExamplePair]:
        """Top-k example pairs from the query's own project, best first.

        ``embedder`` embeds the query; it must be the one that built the
        index (``providers.query_embedder`` picks it).

        Candidates byte-identical to the query diff are skipped, promoting
        the next-ranked pair.  Ties break by (hybrid desc, date desc,
        sha asc).  If fewer than ``k`` admissible pairs exist, the available
        ones are returned and a warning is logged.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        counts = Counter(tokenize(query_diff))
        query_vec = _embed(embedder, query_diff, counts)
        part, keep, hybrid = self._score(counts, scope_repo, query_vec, exclude_sha)
        picked: list[ExamplePair] = []
        for pos in np.lexsort((part.tiebreak[keep], -hybrid)).tolist():
            i = keep[pos]
            diff = part.field(i, _DIFF)
            if diff == query_diff:
                continue  # leakage guard: identical diff, take the next one
            picked.append(
                ExamplePair(
                    diff=diff,
                    message=part.field(i, _MESSAGE),
                    handle=DocHandle(part.field(i, _SHA), scope_repo),
                    hybrid_score=float(hybrid[pos]),
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

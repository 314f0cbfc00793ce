"""Hybrid lexical + semantic retrieval of diff-message example pairs.

The index is partitioned by project; retrieval is always scoped to the
query's own project.  Lexical scores are Okapi BM25 (``K1`` = 1.2,
``B`` = 0.75, statistics computed per partition), semantic scores are dot
products of unit-normalized embeddings, and the two are fused 1:1 after
min-max normalization over the candidate set.  A leakage guard skips any
candidate whose diff is byte-identical to the query, promoting the
next-ranked pair.

BM25 makes one numpy pass per query: the postings of the query's known
terms are joined in query order, each term's weight is repeated over its
postings, the contributions are computed element by element, and
``np.bincount`` sums them per document in array order, so the floats are
those of one scatter-add per term.  The ids are joined as ``intp``, numpy's
index type: the stored ids are int32, and a gather or ``bincount`` by int32
ids casts them to a new ``intp`` array on every call.  The contributions
are computed in place on the query's own joined arrays: each add, multiply
and divide is the IEEE operation, in the order, of
``weight * (tf * (K1 + 1)) / (tf + length_norm)`` (an add commutes), so the
bits are those of that expression with no temporary per operation.  An
excluded document is deleted from the scores (two slice copies), not left
out by a gather of every other row.  A top-k sorts only the candidates at
or above the 2k-th best hybrid score (ties at the cut included), and sorts
the rest only when the leakage guard skips past all of those.

The build counts each diff's tokens with ``tokenizer.token_counter``, which
tokenizes each distinct whitespace-separated chunk once per build: code
repeats itself, and in this repository's history only 8% of the chunks are
distinct.  It embeds a block of documents per numpy pass with
``HashingEmbedder.embed_rows``, ``block_rows`` documents at a time, so the
block's float64 scratch stays under glibc's default 128 KiB mmap threshold
(32 rows at dimension 256) and is reused from the heap, not mapped and
faulted in on every pass.  A provider embedder embeds one diff at a time.

The index persists to a directory of four files (version 6) whose number
and layout do not depend on the project count; partitions are stored in
sorted project order and documents in partition order:

* ``manifest.json``: versioned description (counts, dimension, embedder,
  and ``k1``/``b``, recorded but not read); its sorted ``projects`` counts
  set the partition boundaries
* ``docs.txt``: every document's sha, date, message and diff, concatenated
  as UTF-8 (a lone surrogate, which a JSON corpus line may hold, is stored
  in its three-byte ``surrogatepass`` form)
* ``postings.bin``: a 16-byte header (magic ``CMGP``, version as
  little-endian uint32, section count as uint64), the byte size of each
  section (uint64), then the sections of ``_SECTIONS`` as raw little-endian
  arrays: ``bounds`` (int64, ``4 * doc_count + 1`` byte offsets into
  ``docs.txt``: field ``f`` of document ``d`` is the bytes
  ``bounds[4*d + f]:bounds[4*d + f + 1]``), ``table`` (int64, one row of
  document, term and posting starts per project plus a row of totals), one
  CSR over all projects (``offsets``, int64 posting starts of every term;
  ``lengths``, int64 tokens per document; ``tiebreak``, int64
  partition-local rank under (date desc, sha asc), computed at build;
  ``ids``, int32 partition-local document ids, ascending within each term;
  ``tfs``, int32 term frequencies, each at least 1), and the UTF-8 term
  table ``terms`` with its int64 byte ``term_bounds``, in posting-row
  order; the 8-byte sections come first, then the 4-byte ones
* ``vectors.bin``: 16-byte header (magic ``CMGV``, version, count,
  dimension; little-endian uint32) followed by row-major float32 vectors

A built and a loaded index hold the same sections and the same ``docs.txt``
bytes, and ``RetrievalIndex.__init__`` cuts the partitions out of them for
both; ``save`` writes the sections as held.
Loading maps ``docs.txt`` and ``postings.bin`` read-only, in place: no byte
is copied, no page is zero-filled, and no text is decoded.  Every loaded
array, ``docs`` and each partition's rows are read-only views of the
files.  It checks the version of the
manifest and of both headers, that the section sizes add up to the file,
that the counts and the size of ``vectors.bin`` agree across files, that
``docs.txt`` and the term table are UTF-8 (``surrogatepass``) and their
bounds rise from 0 to their length without cutting a character, that the
project table agrees with the manifest and with ``offsets``, that the CSR
arrays index only their own partition, that every term frequency is at
least 1 and that each partition's tie-break is a permutation; these checks
run on all projects at once, and any failure is a ``CorruptIndex``.  A
query decodes only the fields it cuts, and finds an excluded sha in the
``docs.txt`` bytes, with no per-document lookup.  A partition builds its
term lookup and its BM25 length norms on its first query, and views its
float32 rows of ``vectors.bin`` as stored, with no float64 copy.  The first
query of any partition maps ``vectors.bin``, once for the whole index, so a
loaded index holds three file descriptors whatever its project count (each
``mmap`` holds a duplicate of its file's).  The dense half of a score is
numpy's own float64 ``einsum`` loop over those rows, which calls no BLAS, so
its bits do not depend on the BLAS build or thread count.  A
``vectors.bin`` that changed after load (another file, size or
modification time), or is shorter than load found it, is a ``CorruptIndex``
at a partition's first query; so is a ``docs.txt`` or ``postings.bin`` cut
short while load maps it.

``save`` writes each file under a temporary name in the directory and
renames it over its own name, the manifest last, so it never cuts or
rewrites a file that a loaded index maps: an index loaded before a rebuild
keeps answering from the old files for the partitions it has queried, and
its other partitions raise ``CorruptIndex`` at their first query.  A file
rewritten in place instead, by another program, while a process has the
index loaded can change that process's answers, or end it with ``SIGBUS``
when it reads a page past the file's new end.  Saving over a version-4
directory leaves its ``postings.npz`` and ``terms.json`` in place; version
6 never reads them.

After construction the index is immutable and queries may run
concurrently: each piece of lazily built state is computed whole and then
published by one attribute assignment, so a race at worst computes it
twice.  The one exception is the mapping of ``vectors.bin``, made under a
lock so that racing first queries share one mapping and one descriptor.
"""

from __future__ import annotations

import codecs
import json
import logging
import math
import mmap
import os
import struct
import threading
import uuid
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .diffs import CommitRecord
from .errors import (
    CorruptIndex,
    DimensionMismatch,
    EmptyCorpus,
    EmptyQuery,
    EmptyScope,
    read_json,
    reading,
)
from .tokenizer import token_counter, tokenize

log = logging.getLogger(__name__)

VECTORS_MAGIC = b"CMGV"
POSTINGS_MAGIC = b"CMGP"
INDEX_VERSION = 6
# Okapi BM25 term-frequency saturation and length normalization.
K1 = 1.2
B = 0.75
# The sections of postings.bin in file order.  The 8-byte types come first,
# then the 4-byte ones, so after the 8-byte-aligned header every section
# starts at a multiple of its item size.
_SECTIONS = tuple(
    (name, np.dtype(dtype))
    for name, dtype in (
        ("bounds", "<i8"),
        ("table", "<i8"),
        ("offsets", "<i8"),
        ("lengths", "<i8"),
        ("tiebreak", "<i8"),
        ("term_bounds", "<i8"),
        ("ids", "<i4"),
        ("tfs", "<i4"),
        ("terms", "u1"),
    )
)
# Magic, version, section count, then the byte size of each section.
_POSTINGS_HEADER = struct.Struct(f"<4sIQ{len(_SECTIONS)}Q")
# Bytes decoded at a time when a non-ASCII text is checked for UTF-8.
_UTF8_CHUNK = 1 << 16
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


def _utf8(text: str) -> bytes:
    # surrogatepass: a lone surrogate, which a JSON corpus line may hold, round-trips.
    return text.encode("utf-8", "surrogatepass")


def _text(raw) -> str:
    return str(raw, "utf-8", "surrogatepass")


class _Partition:
    """One project's documents, unit vectors and BM25 postings.

    A partition is a view of the index's ``sections``: its documents and its
    term rows are the (start, end) ranges ``docs_at`` and ``terms_at`` of the
    whole index, and every partition shares one ``docs``, one term table and
    one ``ids``/``tfs`` pair.  Field ``f`` (``_SHA``, ``_DATE``, ``_MESSAGE``
    or ``_DIFF``) of document ``i`` is the UTF-8
    ``docs[bounds[4*i + f]:bounds[4*i + f + 1]]``, and the term of posting
    row ``t`` the UTF-8 ``term_table[term_bounds[t]:term_bounds[t + 1]]``.
    The postings of term row ``t`` are
    ``ids[offsets[t]:offsets[t + 1]]`` with term frequencies ``tfs`` over the
    same slice; ``lengths`` holds each document's token count and
    ``tiebreak`` its rank under (date desc, sha asc), the order after the
    hybrid score.  ``tfs`` are int32: BM25 promotes them to float64 exactly.

    ``rows`` are the (n, dim) float32 unit vectors, or for a loaded index a
    function that views them in the index's one mapping of ``vectors.bin``.
    ``vectors``, ``terms`` and
    ``length_norm`` are built on first use.  Each is computed whole and then
    published by one attribute assignment, so concurrent first queries see
    either nothing or the finished value.  ``row`` keeps no state: it reads
    the sha fields of ``docs`` on each call.
    """

    def __init__(self, docs, rows, sections: dict[str, np.ndarray], docs_at, terms_at):
        (d0, d1), (t0, t1) = docs_at, terms_at
        self.docs = docs  # bytes, or the mapped docs.txt: slices of either are bytes
        self.bounds = sections["bounds"][4 * d0 : 4 * d1 + 1]
        self._vectors = rows  # the float32 rows from the first query on
        self.term_table = sections["terms"].data  # a memoryview: slices decode without a copy
        self.term_bounds = sections["term_bounds"][t0 : t1 + 1]
        self.offsets = sections["offsets"][t0 : t1 + 1]  # posting positions in ids and tfs
        self.ids = sections["ids"]
        self.tfs = sections["tfs"]
        self.lengths = sections["lengths"][d0:d1]
        self.tiebreak = sections["tiebreak"][d0:d1]

    def __len__(self) -> int:
        return len(self.lengths)

    def field(self, i: int, f: int) -> str:
        """Field ``f`` of document ``i``, decoded from its bytes alone."""
        return _text(self.docs[self.bounds[4 * i + f] : self.bounds[4 * i + f + 1]])

    @property
    def vectors(self) -> np.ndarray:
        """The float32 unit rows, read on first use."""
        vectors = self._vectors
        if callable(vectors):
            vectors = self._vectors = vectors()  # publishes the rows, dropping the reader
        return vectors

    @cached_property
    def terms(self) -> dict[str, int]:
        """Posting row of each term, decoded from the term table on first use."""
        table, ends = self.term_table, self.term_bounds.tolist()
        return {_text(table[lo:hi]): t for t, (lo, hi) in enumerate(zip(ends, ends[1:]))}

    @cached_property
    def length_norm(self) -> np.ndarray:
        """K1 * (1 - B + B * dl / avgdl) per document, computed on first use."""
        n = len(self.lengths)
        avgdl = int(self.lengths.sum()) / n if n else 0.0
        if avgdl > 0:
            return K1 * (1.0 - B + B * (self.lengths / avgdl))
        return np.full(n, K1, dtype=np.float64)

    def row(self, sha: str) -> int | None:
        """Row of ``sha`` (the last, for a repeated one), or None for an unknown sha.

        Only sha fields are compared, never text inside a message or diff: the
        rows whose sha field has the key's length are narrowed a byte at a
        time, last byte first (shas that count up share their leading bytes),
        until at most one is left, and the survivors are checked whole.
        """
        key = _utf8(sha)
        starts = self.bounds[_SHA:-1:4]
        rows = np.flatnonzero(self.bounds[_SHA + 1 :: 4] - starts == len(key))
        text = np.frombuffer(self.docs, np.uint8)
        for j in reversed(range(len(key))):
            if len(rows) < 2:
                break
            rows = rows[text[starts[rows] + j] == key[j]]
        docs = self.docs
        for i in reversed(rows.tolist()):
            lo = int(starts[i])
            if docs[lo : lo + len(key)] == key:
                return i
        return None

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


def _packed(texts: list[str]) -> tuple[bytes, np.ndarray]:
    """The UTF-8 of ``texts`` concatenated, and the int64 byte bounds of each."""
    encoded = [_utf8(text) for text in texts]
    bounds = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(raw) for raw in encoded], out=bounds[1:])
    return b"".join(encoded), bounds


def _embed(embedder, text: str, counts: Counter) -> np.ndarray:
    """Embed from the token counts when the embedder can, else from the text."""
    embed_counts = getattr(embedder, "embed_counts", None)
    return embed_counts(counts) if embed_counts is not None else embedder.embed(text)


def query_terms(query_diff: str) -> Counter:
    """The token counts of a query diff; one without a token raises :class:`EmptyQuery`."""
    counts = Counter(tokenize(query_diff))
    if not counts:
        raise EmptyQuery("query diff has no tokens to retrieve by")
    return counts


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


def _best_first(hybrid: np.ndarray, tiebreak: np.ndarray, head: int) -> Iterator[int]:
    """Positions of ``hybrid`` in (hybrid desc, tiebreak asc) order, sorted lazily.

    The candidates scoring at least the ``head``-th best score, every tie at
    that cut included, are sorted first: all others score less, so these
    start the full order, and there are at least ``head`` of them.  The rest
    are sorted only if the caller reads past them.
    """
    n = len(hybrid)
    cut = np.partition(hybrid, n - head)[n - head] if head < n else -np.inf
    best = hybrid >= cut
    for chosen in (best, ~best):
        at = np.flatnonzero(chosen)
        yield from at[np.lexsort((tiebreak[at], -hybrid[at]))].tolist()


def _map(fh, size: int, name: str) -> mmap.mmap | bytes:
    """The first ``size`` bytes of the open file ``fh``, mapped read-only in place.

    An empty file is ``b""``: a mapping cannot be empty.  A file cut shorter
    than ``size`` after its size was taken is a ``CorruptIndex``, not
    ``mmap``'s ``ValueError``.
    """
    if size == 0:
        return b""
    try:
        return mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
    except ValueError:
        raise CorruptIndex(f"{name} changed while it was read") from None


def _map_file(path: Path) -> mmap.mmap | bytes:
    """The whole of ``path``, mapped read-only by ``_map``."""
    with reading(path, CorruptIndex), open(path, "rb") as fh:
        return _map(fh, os.fstat(fh.fileno()).st_size, path.name)


def _identity(stat: os.stat_result) -> tuple[int, int, int, int]:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class _VectorFile:
    """The ``vectors.bin`` that load checked, mapped once for every partition.

    The mapping is made on the first query of any partition, and every
    partition's rows are a view of it.  CPython's ``mmap`` holds a duplicate
    of the file descriptor, so one mapping per partition would hold one
    descriptor per queried project; the lock keeps racing first queries to
    one mapping.
    """

    def __init__(self, path: Path, checked: os.stat_result):
        self.path = path
        self.checked = checked
        self.data: mmap.mmap | None = None
        self.lock = threading.Lock()

    def rows(self, offset: int, shape: tuple[int, int]) -> np.ndarray:
        """The float32 rows of ``shape`` at byte ``offset``, read-only and as stored.

        Each partition's first query checks that the file at the path is
        still the one load checked, even when another partition has mapped it.
        """
        with reading(self.path, CorruptIndex), open(self.path, "rb") as fh:
            if _identity(os.fstat(fh.fileno())) != _identity(self.checked):
                raise CorruptIndex(f"{self.path} changed after the index was loaded; load it again")
            with self.lock:
                if self.data is None:
                    self.data = _map(fh, self.checked.st_size, self.path.name)
        return np.frombuffer(self.data, "<f4", shape[0] * shape[1], offset).reshape(shape)


def _read_vectors(path: Path, counts: list[int]) -> tuple[int, list[partial]]:
    """The dimension of ``vectors.bin`` and, per partition, a reader of its rows.

    Load checks the header and the size and maps no row: a partition calls
    its reader on its first query, which maps the file if no other partition
    has (``_VectorFile``).
    """
    with reading(path, CorruptIndex), open(path, "rb") as fh:
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
    starts = np.cumsum([0, *counts]).tolist()
    mapped = _VectorFile(path, checked)
    readers = [
        partial(mapped.rows, 16 + 4 * dimension * start, (n, dimension))
        for start, n in zip(starts, counts)
    ]
    return dimension, readers


def _read_postings(path: Path) -> dict[str, np.ndarray]:
    """The sections of ``postings.bin``, as read-only arrays over its mapping."""
    data = _map_file(path)
    size = len(data)
    if size < _POSTINGS_HEADER.size or data[:4] != POSTINGS_MAGIC:
        raise CorruptIndex("postings.bin has a bad magic number")
    _, version, count, *sizes = _POSTINGS_HEADER.unpack_from(data)
    if version != INDEX_VERSION:
        raise CorruptIndex(
            f"postings.bin has version {version}; this release reads version {INDEX_VERSION}"
        )
    if count != len(_SECTIONS):
        raise CorruptIndex(
            f"postings.bin has {count} sections; version {INDEX_VERSION} has {len(_SECTIONS)}"
        )
    if size != _POSTINGS_HEADER.size + sum(sizes):
        raise CorruptIndex(
            f"postings.bin has {size} bytes; its header gives "
            f"{_POSTINGS_HEADER.size + sum(sizes)}"
        )
    arrays, offset = {}, _POSTINGS_HEADER.size
    for (name, dtype), nbytes in zip(_SECTIONS, sizes):
        if nbytes % dtype.itemsize:
            raise CorruptIndex(
                f"postings.bin section {name!r} has {nbytes} bytes, "
                f"not a whole number of {dtype.name} items"
            )
        arrays[name] = np.frombuffer(data, dtype, nbytes // dtype.itemsize, offset)
        offset += nbytes
    return arrays


def _write_postings(path: Path, arrays: dict[str, np.ndarray]) -> None:
    sections = [np.ascontiguousarray(arrays[name], dtype) for name, dtype in _SECTIONS]
    with open(path, "wb") as fh:
        fh.write(
            _POSTINGS_HEADER.pack(
                POSTINGS_MAGIC, INDEX_VERSION, len(sections), *(s.nbytes for s in sections)
            )
        )
        for section in sections:
            fh.write(section)


def _check_text(name: str, what: str, data: np.ndarray, bounds: np.ndarray) -> None:
    """Reject ``bounds`` that do not rise from 0 to the end of ``data`` or that cut
    a character, and ``data`` that is not UTF-8, keeping no decoded copy."""
    if bounds[0] != 0 or bounds[-1] != len(data) or np.any(np.diff(bounds) < 0):
        raise CorruptIndex(
            f"postings.bin: {what} bounds must rise from 0 to the {len(data)} bytes of {name}"
        )
    if len(data) == 0 or data.max() < 0x80:
        return  # ASCII: every byte is a character
    decoder = codecs.getincrementaldecoder("utf-8")("surrogatepass")
    try:
        for start in range(0, len(data), _UTF8_CHUNK):
            chunk = data[start : start + _UTF8_CHUNK].tobytes()
            decoder.decode(chunk, final=start + _UTF8_CHUNK >= len(data))
    except UnicodeDecodeError as exc:
        raise CorruptIndex(f"{name} is not UTF-8: {exc}") from None
    if np.any((data[bounds[bounds < len(data)]] & 0xC0) == 0x80):  # a continuation byte
        raise CorruptIndex(f"postings.bin: a {what} bound falls inside a character of {name}")


def _check_postings(arrays: dict[str, np.ndarray], counts: list[int], text: np.ndarray) -> None:
    """Reject sections of ``postings.bin`` that disagree with one another, with
    the manifest's document ``counts`` or with ``docs.txt``.

    Every check runs over all projects at once.
    """

    def bad(problem: str) -> CorruptIndex:
        return CorruptIndex(f"postings.bin {problem}")

    n_docs = sum(counts)
    bounds, table, offsets, ids = (arrays[n] for n in ("bounds", "table", "offsets", "ids"))
    if len(bounds) != 4 * n_docs + 1:
        raise bad(f"has {len(bounds)} field bounds; {n_docs} documents need {4 * n_docs + 1}")
    _check_text("docs.txt", "field", text, bounds)
    if len(table) != 3 * (len(counts) + 1):
        raise bad(
            f"has a project table of {len(table)} entries; "
            f"{len(counts)} projects need {3 * (len(counts) + 1)}"
        )
    doc_starts, term_starts, posting_starts = table.reshape(-1, 3).T
    if not np.array_equal(doc_starts, np.cumsum([0, *counts])):
        raise bad("project table disagrees with the project counts of manifest.json")
    if (
        not len(offsets)
        or offsets[0] != 0
        or offsets[-1] != len(ids)
        or np.any(np.diff(offsets) < 0)
    ):
        raise bad("offsets must rise from 0 to the number of postings")
    n_terms = len(offsets) - 1
    if not (
        term_starts[0] == 0
        and term_starts[-1] == n_terms
        and np.all(np.diff(term_starts) >= 0)
        and np.array_equal(offsets[term_starts], posting_starts)
    ):
        raise bad("project table's term starts disagree with offsets")
    if len(arrays["term_bounds"]) != n_terms + 1:
        raise bad(f"has {len(arrays['term_bounds'])} term bounds for {n_terms} terms")
    _check_text("the term table", "term", arrays["terms"], arrays["term_bounds"])
    tfs = arrays["tfs"]
    if len(tfs) != len(ids):
        raise bad(f"has {len(tfs)} term frequencies for {len(ids)} postings")
    # A tf below 1 could make tfs + length_norm zero or negative in _batch_lexical.
    if len(tfs) and tfs.min() < 1:
        raise bad("has a term frequency below 1")
    if len(arrays["lengths"]) != n_docs:
        raise bad(f"has {len(arrays['lengths'])} lengths for {n_docs} documents")
    tiebreak = arrays["tiebreak"]
    if len(tiebreak) != n_docs:
        raise bad(f"has {len(tiebreak)} tie-break ranks for {n_docs} documents")
    # The largest id of each project with postings, which begin at its posting start.
    firsts = posting_starts[:-1]
    held = firsts < posting_starts[1:]
    if len(ids) and (
        ids.min() < 0
        or np.any(np.maximum.reduceat(ids, firsts[held]) >= np.diff(doc_starts)[held])
    ):
        raise bad("has document ids outside their project")
    # Within a term ids ascend strictly, so _batch_lexical's bincount
    # counts each (term, document) once.
    rising = ids[1:] > ids[:-1]
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < len(ids))] - 1] = True
    if not rising.all():
        raise bad("ids must ascend within each term")
    # Ranks at least 0 that, shifted by their project's start, are a
    # permutation of 0..n_docs-1 are a permutation within each project.
    if n_docs and (
        tiebreak.min() < 0
        or not np.array_equal(
            np.sort(tiebreak + np.repeat(doc_starts[:-1], counts)), np.arange(n_docs)
        )
    ):
        raise bad("tiebreak is not a permutation of each project's positions")


class RetrievalIndex:
    def __init__(self, rows: dict, sections: dict[str, np.ndarray], docs, dimension, embedder_id):
        """An index over the sections of ``postings.bin`` and the ``docs.txt`` bytes.

        ``rows`` maps each project, in sorted order, to its float32 vector rows
        or a reader of them; the project table's rows cut out the partitions.
        """
        self.sections = sections
        self.docs = docs
        self.dimension = dimension
        self.embedder_id = embedder_id
        table = sections["table"].reshape(-1, 3).tolist()
        self.partitions = {
            repo: _Partition(docs, part_rows, sections, (d0, d1), (t0, t1))
            for (repo, part_rows), (d0, t0, _), (d1, t1, _) in zip(rows.items(), table, table[1:])
        }

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
        texts: list[bytes] = []  # each project's packed fields
        bounds = [np.zeros(1, dtype=np.int64)]  # their field bounds, from 0 over all projects
        terms: list[str] = []  # each project's terms, in posting-row order
        df: list[int] = []  # postings of each term row
        lengths: list[int] = []
        ids, tfs, tiebreak, table, rows = [], [], [], [(0, 0, 0)], {}
        count = token_counter()  # one memo of chunk tokens for the whole build
        embed_rows = getattr(embedder, "embed_rows", None)
        step = getattr(embedder, "block_rows", 1)
        for repo in sorted(grouped):
            recs = grouped[repo]
            vectors = np.empty((len(recs), dimension), dtype="<f4")
            postings: dict[str, tuple[list[int], list[int]]] = {}  # term -> (ids, tfs)
            for lo in range(0, len(recs), step):
                block = recs[lo : lo + step]
                block_counts = [count(rec.diff) for rec in block]
                for i, counts in enumerate(block_counts, lo):
                    for term, tf in counts.items():
                        row = postings.get(term)
                        if row is None:
                            row = postings[term] = ([], [])
                        row[0].append(i)
                        row[1].append(tf)
                    lengths.append(sum(counts.values()))
                if embed_rows is not None:
                    block_vectors = embed_rows(block_counts)
                else:
                    block_vectors = np.array([embedder.embed(rec.diff) for rec in block])
                if block_vectors.shape[1] != dimension:
                    raise DimensionMismatch(
                        f"embedder returned dimension {block_vectors.shape[1]}, "
                        f"index uses {dimension}"
                    )
                vectors[lo : lo + len(block)] = block_vectors
            # One project at a time: packing every field after the loop left its
            # freed copies as holes in the malloc heap (rag-k3 peak_rss_mb +5%).
            text, ends = _packed([f for r in recs for f in (r.sha, r.date, r.message, r.diff)])
            texts.append(text)
            bounds.append(ends[1:] + bounds[-1][-1])
            terms += postings
            sizes = [len(term_ids) for term_ids, _ in postings.values()]
            df += sizes
            nnz, lists = sum(sizes), postings.values()
            # Arrays now, so that each project's Python posting lists die with it.
            ids.append(np.fromiter(chain.from_iterable(i for i, _ in lists), np.int32, nnz))
            tfs.append(np.fromiter(chain.from_iterable(t for _, t in lists), np.int32, nnz))
            tiebreak.append(_tiebreak(recs))
            table.append((len(recs), len(postings), nnz))
            rows[repo] = vectors
        term_text, term_bounds = _packed(terms)
        offsets = np.zeros(len(df) + 1, dtype=np.int64)
        np.cumsum(df, out=offsets[1:])
        sections = {
            "bounds": np.concatenate(bounds),
            "table": np.cumsum(table, axis=0, dtype=np.int64).ravel(),
            "offsets": offsets,
            "lengths": np.array(lengths, dtype=np.int64),
            "tiebreak": np.concatenate(tiebreak),
            "term_bounds": term_bounds,
            "ids": np.concatenate(ids),
            "tfs": np.concatenate(tfs),
            "terms": np.frombuffer(term_text, np.uint8),
        }
        embedder_id = getattr(embedder, "identifier", type(embedder).__name__)
        return cls(rows, sections, b"".join(texts), dimension, embedder_id)

    # -- persistence ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index's four files into the directory ``path``.

        Each file is written under a temporary name in the directory and then
        renamed over its own name, the manifest last, so a file that a loaded
        index maps is never cut or rewritten in place.  If a write fails, the
        temporary files are removed and the directory keeps its old files.
        """
        # Mapped before any file is renamed: a loaded index may be saved over
        # its own directory, and a first query after that finds a new vectors.bin.
        rows = [part.vectors for part in self.partitions.values()]
        out = Path(path)
        out.mkdir(parents=True, exist_ok=True)
        doc_count = len(self.sections["lengths"])
        manifest = {
            "magic": "coracmg-index",
            "version": INDEX_VERSION,
            "k1": K1,
            "b": B,
            "dimension": self.dimension,
            "doc_count": doc_count,
            "embedder": self.embedder_id,
            "projects": {r: len(p) for r, p in self.partitions.items()},
        }
        token = uuid.uuid4().hex
        temp = {  # renamed in this order, the manifest last
            name: out / f".{name}.{token}.tmp"
            for name in ("docs.txt", "postings.bin", "vectors.bin", "manifest.json")
        }
        try:
            temp["docs.txt"].write_bytes(self.docs)
            _write_postings(temp["postings.bin"], self.sections)
            with open(temp["vectors.bin"], "wb") as fh:
                fh.write(VECTORS_MAGIC)
                fh.write(struct.pack("<III", INDEX_VERSION, doc_count, self.dimension))
                for vectors in rows:
                    fh.write(vectors)
            temp["manifest.json"].write_text(
                json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
            )
            for name, staged in temp.items():
                os.replace(staged, out / name)
        except BaseException:
            for staged in temp.values():
                staged.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "RetrievalIndex":
        root = Path(path)
        manifest = read_json(root / "manifest.json", CorruptIndex)
        if manifest.get("magic") != "coracmg-index":
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
        counts = [projects[r] for r in repos]
        dimension, readers = _read_vectors(root / "vectors.bin", counts)
        sections = _read_postings(root / "postings.bin")
        docs = _map_file(root / "docs.txt")
        _check_postings(sections, counts, np.frombuffer(docs, np.uint8))
        return cls(dict(zip(repos, readers)), sections, docs, dimension, embedder_id)

    # -- scoring ----------------------------------------------------------

    def _idf(self, part: _Partition, df: int) -> float:
        n = len(part)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def _batch_lexical(self, part: _Partition, query_counts: Counter) -> np.ndarray:
        """BM25 of every document of ``part``, in one pass over the query's postings.

        The postings of the known terms are joined in query order, and the
        per-term expression is evaluated once over them, element by element.
        ``bincount`` adds in array order, so each document sums its terms in
        query order from 0.0, as one ``scores[ids] +=`` per term would.
        """
        postings, weights = [], []
        for term, qtf in query_counts.items():
            entry = part.posting(term)
            if entry is not None:
                postings.append(entry)
                weights.append(self._idf(part, len(entry[0])) * qtf)
        if not postings:
            return np.zeros(len(part), dtype=np.float64)  # bincount of nothing is int64
        term_ids, term_tfs = zip(*postings)
        ids = np.concatenate(term_ids, dtype=np.intp)  # gathered and counted uncast
        tfs = np.concatenate(term_tfs, dtype=np.float64)  # one exact cast per query
        weight = np.repeat(weights, [len(t) for t in term_ids])
        # weight * (tfs * (K1 + 1)) / (tfs + length_norm), in place, op for op.
        den = part.length_norm[ids]
        den += tfs
        tfs *= K1 + 1.0
        weight *= tfs
        weight /= den
        return np.bincount(ids, weight, len(part))

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
        excluded = part.row(exclude_sha) if exclude_sha is not None else None
        if excluded is not None and len(part) == 1:
            raise EmptyScope(
                f"project {scope_repo!r} has no candidates besides the excluded commit"
            )
        keep = np.arange(len(part))
        lexical = self._batch_lexical(part, query_counts)
        # numpy's own float64 loop, not BLAS: the bits do not follow the BLAS build or threads.
        semantic = np.einsum("ij,j->i", part.vectors, query_vec.astype(np.float64))
        if excluded is not None:  # two slice copies each, not a gather of every kept row
            keep, lexical, semantic = (np.delete(a, excluded) for a in (keep, lexical, semantic))
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
        ones are returned and a warning is logged.  A query diff without a
        token raises :class:`EmptyQuery`: it has nothing to rank by.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        counts = query_terms(query_diff)
        query_vec = _embed(embedder, query_diff, counts)
        part, keep, hybrid = self._score(counts, scope_repo, query_vec, exclude_sha)
        picked: list[ExamplePair] = []
        for pos in _best_first(hybrid, part.tiebreak[keep], 2 * k):
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

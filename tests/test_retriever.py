from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import mmap
import os
import random
import re
import shutil
import string
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from coracmg import providers, retriever, tokenizer
from coracmg.errors import CorruptIndex, DimensionMismatch, EmptyQuery, EmptyScope
from coracmg.providers import HashingEmbedder
from coracmg.retriever import RetrievalIndex, _fuse_arrays
from coracmg.tokenizer import tokenize
from helpers import make_diff, make_record, sha_of, stored_docs, synthetic_corpus, twin_corpus
from oracles import (
    index_bm25_one_doc,
    oracle_bm25,
    oracle_docs,
    oracle_hash_embed,
    oracle_minmax_fuse,
    oracle_rank,
    reference_batch_lexical,
    reference_build,
    reference_score,
)

EMBEDDER = HashingEmbedder(64)


def build_index(records):
    return RetrievalIndex.build(records, EMBEDDER)


def bm25(index, query_tokens, record):
    """The batched BM25 score of one indexed record."""
    part = index.partitions[record.repo_full_name]
    return index._batch_lexical(part, Counter(query_tokens))[part.row(record.sha)]


def test_bm25_no_shared_terms_scores_zero():
    records = [make_record(0, message="m one two three four", added=["alpha beta gamma"])]
    index = build_index(records)
    assert bm25(index, ["zeta", "omega"], records[0]) == 0.0


def test_bm25_single_doc_matches_hand_formula():
    records = [make_record(0, added=["alpha beta", "alpha gamma"])]
    index = build_index(records)
    query = ["alpha", "beta"]
    doc_tokens = tokenize(records[0].diff)
    expected = oracle_bm25(query, doc_tokens, [doc_tokens])
    assert bm25(index, query, records[0]) == pytest.approx(expected, abs=1e-9)

    # fully explicit evaluation for one term: N=1, df=1, idf=ln(1/1.5 + 1)
    tf = doc_tokens.count("alpha")
    dl = len(doc_tokens)
    idf = math.log((1 - 1 + 0.5) / (1 + 0.5) + 1)
    norm = 1.2 * (1 - 0.75 + 0.75 * dl / dl)
    one_term = idf * tf * 2.2 / (tf + norm)
    assert bm25(index, ["alpha"], records[0]) == pytest.approx(one_term, abs=1e-12)


def test_bm25_shorter_doc_scores_higher():
    short = make_record(0, added=["target term"], context=["pad"])
    long = make_record(
        1, added=["target term"], context=[f"pad filler {i}" for i in range(30)]
    )
    index = build_index([short, long])
    assert bm25(index, ["target"], short) > bm25(index, ["target"], long)


def test_semantic_score_unit_vectors():
    records = [make_record(0)]
    index = build_index(records)
    repo = records[0].repo_full_name
    part = index.partitions[repo]
    stored = part.vectors[0]

    def semantic(query_vec):
        # The dense half of retrieve(): stored unit rows times the query.
        return float(np.einsum("ij,j->i", part.vectors, query_vec.astype(np.float64))[0])

    assert semantic(stored.astype(np.float32)) == pytest.approx(1.0, abs=1e-6)
    orthogonal = np.zeros(64)
    axis = int(np.argmin(np.abs(stored)))
    orthogonal[axis] = 1.0
    orthogonal -= float(stored[axis]) * stored  # project out the stored direction
    orthogonal /= np.linalg.norm(orthogonal)
    assert semantic(orthogonal) == pytest.approx(0.0, abs=1e-6)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(64)
    vec = vec / np.linalg.norm(vec)
    naive = sum(float(a) * float(b) for a, b in zip(stored, vec))
    assert semantic(vec) == pytest.approx(naive, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        index._score(Counter(), repo, np.ones(3), None)
    with pytest.raises(DimensionMismatch, match="dimension 32, index uses 64"):
        index.retrieve("x", 1, repo, embedder=HashingEmbedder(32))


class _RefusingEmbedder:
    def embed(self, text):
        raise AssertionError(f"embedded {text!r}")


@pytest.mark.parametrize("query", ["", "   ", "\n\t\n"])
def test_a_query_without_tokens_is_empty_before_any_embedding(query):
    records = synthetic_corpus(1, 5, seed=0)
    index = build_index(records)
    with pytest.raises(EmptyQuery, match="^query diff has no tokens to retrieve by$"):
        index.retrieve(query, 3, records[0].repo_full_name, embedder=_RefusingEmbedder())


def test_index_vectors_are_unit_norm():
    index = build_index(synthetic_corpus(2, 10))
    for part in index.partitions.values():
        norms = np.linalg.norm(part.vectors, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)


def test_index_rows_equal_per_occurrence_embeddings():
    records = synthetic_corpus(2, 50)
    index = build_index(records)
    for repo, part in index.partitions.items():
        diffs = [doc.diff for doc in stored_docs(part)]
        expected = np.stack([oracle_hash_embed(diff, 64) for diff in diffs])
        assert part.vectors.astype(np.float32).tobytes() == expected.tobytes()


def _count_tokenize_calls(monkeypatch):
    calls = []

    def counting(text, *args, **kwargs):
        calls.append(text)
        return tokenize(text, *args, **kwargs)

    # Each module calls its own binding of the name.
    monkeypatch.setattr(retriever, "tokenize", counting)
    monkeypatch.setattr(providers, "tokenize", counting)
    monkeypatch.setattr(tokenizer, "tokenize", counting)
    return calls


def test_each_text_is_tokenized_once(monkeypatch):
    records = synthetic_corpus(2, 50)
    calls = _count_tokenize_calls(monkeypatch)
    chunks = sorted({chunk for rec in records for chunk in rec.diff.split()})
    for _ in range(2):  # each build tokenizes afresh: it keeps no memo of another
        calls.clear()
        index = RetrievalIndex.build(records, HashingEmbedder(64))
        # Each distinct whitespace-separated chunk once, and never a whole diff.
        assert sorted(calls) == chunks
    for query in records[:5]:
        calls.clear()
        index.retrieve(
            query.diff, 3, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER
        )
        assert calls == [query.diff]


def _assert_same_index(built, reference):
    """The same sections, text and vectors, compared section by section and row by row."""
    assert (built.dimension, built.embedder_id) == (reference.dimension, reference.embedder_id)
    assert list(built.sections) == list(reference.sections)
    for name, section in reference.sections.items():
        assert built.sections[name].dtype == section.dtype, name
        assert built.sections[name].tobytes() == section.tobytes(), name
    assert bytes(built.docs) == bytes(reference.docs)
    assert list(built.partitions) == list(reference.partitions)
    for repo, part in reference.partitions.items():
        rows = built.partitions[repo].vectors
        assert rows.shape == part.vectors.shape, repo
        for i, row in enumerate(part.vectors):
            assert rows[i].tobytes() == row.tobytes(), (repo, i)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_build_equals_the_per_document_reference(seed):
    records = synthetic_corpus(4, 300, seed)
    for dimension in (64, 300, 768):
        embedder = HashingEmbedder(dimension)
        assert embedder.block_rows < 300  # every project spans more than one block
        _assert_same_index(
            RetrievalIndex.build(records, embedder),
            reference_build(records, HashingEmbedder(dimension)),
        )


def test_builds_at_other_dimensions_each_embed_as_the_oracle():
    # One build after another in one process: nothing one embedder learned
    # may serve another of another dimension.
    records = synthetic_corpus(2, 40, seed=5)
    for dimension in (64, 300, 768, 64):
        index = RetrievalIndex.build(records, HashingEmbedder(dimension))
        for part in index.partitions.values():
            expected = [oracle_hash_embed(doc.diff, dimension) for doc in stored_docs(part)]
            assert part.vectors.tobytes() == np.stack(expected).tobytes(), dimension


def _cancelling_symbols(dimension):
    """Two ASCII symbols that hash to one bucket with opposite signs."""
    seen = {}
    for symbol in string.punctuation:
        digest = hashlib.sha256(symbol.encode("utf-8")).digest()
        bucket, sign = int.from_bytes(digest[:4], "little") % dimension, digest[4] & 1
        if (bucket, 1 - sign) in seen:
            return seen[(bucket, 1 - sign)], symbol
        seen[(bucket, sign)] = symbol
    raise AssertionError(f"no two symbols cancel at dimension {dimension}")


@pytest.mark.parametrize("dimension", [64, 300])
def test_build_equals_the_reference_on_an_all_symbol_and_an_empty_diff(dimension):
    a, b = _cancelling_symbols(dimension)
    step = HashingEmbedder(dimension).block_rows
    records = synthetic_corpus(1, 2 * step + 3, seed=6)
    symbols, empty = step + 1, len(records) - 1  # both past the first block
    records[symbols] = dataclasses.replace(records[symbols], diff=f"{a} {b}\n{b}{a}\n")
    records[empty] = dataclasses.replace(records[empty], diff="")
    index = RetrievalIndex.build(records, HashingEmbedder(dimension))
    _assert_same_index(index, reference_build(records, HashingEmbedder(dimension)))
    part = index.partitions[records[0].repo_full_name]
    degenerate = np.eye(1, dimension, dtype=np.float32)[0]
    for i in (symbols, empty):
        assert part.vectors[i].tobytes() == degenerate.tobytes()
    assert part.lengths[symbols] == 4 and part.lengths[empty] == 0


def test_warm_embedder_builds_the_same_index(tmp_path):
    records = synthetic_corpus(2, 50)
    RetrievalIndex.build(records, HashingEmbedder(64)).save(tmp_path / "fresh")
    warm = HashingEmbedder(64)
    RetrievalIndex.build(records[::-1], warm)  # fills the memo in another order
    RetrievalIndex.build(records, warm).save(tmp_path / "warm")
    for name in ("docs.txt", "manifest.json", "postings.bin", "vectors.bin"):
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes()


def fuse(pairs):
    """Fuse (lexical, semantic) pairs through column views of one array."""
    scores = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return _fuse_arrays(scores[:, 0], scores[:, 1]).tolist()


def test_fuse_conventions():
    assert fuse([(3.0, 0.2)]) == [0.5]  # single candidate: both families constant
    hybrid = fuse([(1.0, 1.0), (0.0, 0.0)])
    assert hybrid[0] == 1.0 and hybrid[1] == 0.0
    with pytest.raises(ValueError):
        fuse([])


def test_fuse_matches_oracle():
    import random

    rng = random.Random(4)
    for _ in range(30):
        pairs = [(rng.uniform(-5, 5), rng.uniform(-1, 1)) for _ in range(rng.randrange(1, 9))]
        assert fuse(pairs) == pytest.approx(oracle_minmax_fuse(pairs), abs=1e-12)


def _loop_fuse(pairs):
    # The list-at-a-time min-max fusion that retrieve() used before it fused
    # on arrays: the same IEEE operations in the same order.
    def minmax(values):
        lo, hi = min(values), max(values)
        if hi == lo:
            return [0.5] * len(values)
        return [(v - lo) / (hi - lo) for v in values]

    lex = minmax([p[0] for p in pairs])
    sem = minmax([p[1] for p in pairs])
    return [0.5 * a + 0.5 * b for a, b in zip(lex, sem)]


def test_fuse_is_the_array_helper():
    import random

    rng = random.Random(8)
    cases = [[(2.0, 0.1), (2.0, 0.3)]]  # a constant family
    for size in (1, 2, 5, 40, 2500):
        cases.append([(rng.uniform(-5, 40), rng.uniform(-1, 1)) for _ in range(size)])
    for pairs in cases:
        lex = np.array([p[0] for p in pairs])
        sem = np.array([p[1] for p in pairs])
        expected = _loop_fuse(pairs)
        assert fuse(pairs) == expected  # exact, element for element
        assert _fuse_arrays(lex, sem).tolist() == expected


def test_retrieve_matches_bruteforce_on_synthetic_partitions():
    records = synthetic_corpus(6, 40, seed=11)
    index = build_index(records)
    queries = [records[3], records[47], records[120], records[200]]
    for query in queries:
        repo = query.repo_full_name
        docs = oracle_docs(index, repo)
        qvec = [float(v) for v in EMBEDDER.embed(query.diff)]
        expected = oracle_rank(docs, tokenize(query.diff), qvec, exclude_sha=query.sha)
        expected = [d for d in expected if d["diff"] != query.diff]
        for k in (1, 3, 5):
            got = index.retrieve(query.diff, k, repo, exclude_sha=query.sha, embedder=EMBEDDER)
            assert [p.handle.sha for p in got] == [d["sha"] for d in expected[:k]]


def test_leakage_guard_returns_second_ranked():
    records = twin_corpus(1, 6, seed=2)
    index = build_index(records)
    query = records[0]  # its twin is records[1]
    got = index.retrieve(
        query.diff, 1, query.repo_full_name, exclude_sha=None, embedder=EMBEDDER
    )
    # records[0] itself ranks first (byte-identical) and must be skipped.
    assert got[0].handle.sha == records[1].sha
    assert got[0].message == query.message
    assert got[0].diff != query.diff


def test_singleton_partition():
    records = [make_record(0)]
    index = build_index(records)
    got = index.retrieve("diff --git a/x b/x", 1, records[0].repo_full_name, embedder=EMBEDDER)
    assert got[0].handle.sha == records[0].sha


def test_partial_results_warn_but_return(caplog):
    records = [make_record(0), make_record(1, added=["different content"])]
    index = build_index(records)
    with caplog.at_level("WARNING"):
        got = index.retrieve(
            "diff --git a/q b/q", 5, records[0].repo_full_name, embedder=EMBEDDER
        )
    assert len(got) == 2
    assert any("admissible" in r.message for r in caplog.records)


def test_empty_scope_errors():
    records = [make_record(0)]
    index = build_index(records)
    with pytest.raises(EmptyScope):
        index.retrieve("x", 1, "acme/unknown-project", embedder=EMBEDDER)
    with pytest.raises(EmptyScope):
        index.retrieve(
            "x", 1, records[0].repo_full_name, exclude_sha=records[0].sha, embedder=EMBEDDER
        )
    with pytest.raises(EmptyScope):
        # sole candidate is byte-identical to the query
        index.retrieve(records[0].diff, 1, records[0].repo_full_name, embedder=EMBEDDER)


def test_scope_purity_and_no_leak():
    records = synthetic_corpus(3, 15, seed=9)
    index = build_index(records)
    query = records[20]
    got = index.retrieve(
        query.diff, 5, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER
    )
    for pair in got:
        assert pair.handle.repo_full_name == query.repo_full_name
        assert pair.handle.sha != query.sha
        assert pair.diff != query.diff


def test_deterministic_ordering():
    records = synthetic_corpus(2, 30, seed=5)
    index = build_index(records)
    query = records[10]
    runs = [
        tuple(
            p.handle.sha
            for p in index.retrieve(
                query.diff, 5, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER
            )
        )
        for _ in range(3)
    ]
    assert len(set(runs)) == 1


def test_tie_break_on_identical_documents():
    # Two byte-identical docs (distinct shas/dates): same scores, so the
    # newer date must win.
    twin_a = make_record(0, added=["same body"])
    twin_b = make_record(1, added=["same body"])
    assert twin_a.diff == twin_b.diff
    filler = make_record(2, added=["totally different text here"])
    index = build_index([twin_a, twin_b, filler])
    got = index.retrieve(
        "diff --git a/q b/q\nquery text", 3, twin_a.repo_full_name, embedder=EMBEDDER
    )
    shas = [p.handle.sha for p in got]
    assert shas.index(twin_b.sha) < shas.index(twin_a.sha)  # newer first


def test_tie_break_on_equal_dates_prefers_lower_sha():
    # Equal scores and equal dates: the lower sha ranks first, whatever the
    # input order.
    twin_low = make_record(0, added=["same body"])
    twin_high = dataclasses.replace(make_record(5, added=["same body"]), date=twin_low.date)
    assert twin_low.sha < twin_high.sha and twin_low.diff == twin_high.diff
    filler = make_record(2, added=["totally different text here"])
    for records in ([twin_low, twin_high, filler], [filler, twin_high, twin_low]):
        index = build_index(records)
        got = index.retrieve(
            "diff --git a/q b/q\nquery text", 3, twin_low.repo_full_name, embedder=EMBEDDER
        )
        shas = [p.handle.sha for p in got]
        low, high = shas.index(twin_low.sha), shas.index(twin_high.sha)
        assert got[low].hybrid_score == got[high].hybrid_score
        assert low < high


def test_save_load_round_trip(tmp_path):
    records = synthetic_corpus(3, 12, seed=13)
    index = build_index(records)
    index.save(tmp_path / "idx")
    loaded = RetrievalIndex.load(tmp_path / "idx")
    assert loaded.dimension == index.dimension
    assert set(loaded.partitions) == set(index.partitions)
    query = records[5]
    a = index.retrieve(query.diff, 3, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER)
    b = loaded.retrieve(query.diff, 3, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER)
    assert [p.handle for p in a] == [p.handle for p in b]
    assert [p.hybrid_score for p in a] == [p.hybrid_score for p in b]
    # Saved again, one partition queried and the others unread, the bytes are the same.
    loaded.save(tmp_path / "again")
    for name in ("docs.txt", "manifest.json", "postings.bin", "vectors.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "idx" / name).read_bytes()


def test_save_load_round_trip_keeps_every_field(tmp_path):
    records = [
        make_record(0, message="handle \ud800 in names"),  # lone surrogate, valid in JSON
        make_record(1, message="add \U0001f600 support", added=["emoji = '\U0001f600'"]),
        make_record(2, repo="acme/gadgets", message=""),
        make_record(3, repo="acme/gadgets", added=["nul \x00 byte\r", "crlf line\r"]),
    ]
    assert "\x00" in records[3].diff and "\r\n" in records[3].diff
    index = build_index(records)
    index.save(tmp_path / "idx")
    loaded = RetrievalIndex.load(tmp_path / "idx")
    for repo, part in index.partitions.items():
        assert stored_docs(loaded.partitions[repo]) == stored_docs(part)
    # The loaded index holds what the built one did, so it saves the same bytes.
    loaded.save(tmp_path / "again")
    for name in ("docs.txt", "manifest.json", "postings.bin", "vectors.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "idx" / name).read_bytes()


def test_built_index_holds_the_sections_load_reads(tmp_path):
    records = synthetic_corpus(3, 12, seed=13) + [make_record(0, message="caf\u00e9 \ud800")]
    index = build_index(records)
    parts = index.partitions.values()
    assert list(index.partitions) == sorted(index.partitions)
    retriever._check_postings(
        index.sections, [len(p) for p in parts], np.frombuffer(index.docs, np.uint8)
    )
    assert [(name, index.sections[name].dtype) for name, _ in retriever._SECTIONS] == list(
        retriever._SECTIONS
    )
    # One docs buffer and one ids/tfs pair, shared as a loaded index shares them.
    assert {id(p.docs) for p in parts} == {id(index.docs)}
    assert {(id(p.ids), id(p.tfs)) for p in parts} == {
        (id(index.sections["ids"]), id(index.sections["tfs"]))
    }
    index.save(tmp_path / "idx")
    loaded = RetrievalIndex.load(tmp_path / "idx")
    for name, section in index.sections.items():
        assert loaded.sections[name].tobytes() == section.tobytes(), name
    assert loaded.docs[: len(index.docs)] == index.docs


def _held_by_load(root):
    """A loaded index and the bytes ``tracemalloc`` saw load allocate and keep.

    One untraced load goes first, so the state a process's first load sets up
    once is not counted against whichever index is loaded first.
    """
    RetrievalIndex.load(root)
    tracemalloc.start()
    try:
        index = RetrievalIndex.load(root)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return index, held


def test_load_keeps_the_index_off_the_heap(tmp_path):
    root = tmp_path / "idx"
    build_index(synthetic_corpus(4, 500)).save(root)
    index, held = _held_by_load(root)
    files = (root / "docs.txt").stat().st_size + (root / "postings.bin").stat().st_size
    assert held < files / 10
    query = synthetic_corpus(4, 500)[7]
    assert index.retrieve(query.diff, 3, query.repo_full_name, embedder=EMBEDDER)


def test_loaded_text_takes_the_bytes_of_docs_txt(tmp_path):
    # One character outside the Basic Multilingual Plane adds its own four
    # bytes, not three more bytes for every other character.
    records = synthetic_corpus(4, 500, seed=1)
    emoji = dataclasses.replace(records[0], message=records[0].message + " \U0001f600")
    loads = {}
    for name, corpus in (("plain", records), ("emoji", [emoji, *records[1:]])):
        build_index(corpus).save(tmp_path / name)
        index, held = _held_by_load(tmp_path / name)
        size = (tmp_path / name / "docs.txt").stat().st_size
        assert {len(part.docs) for part in index.partitions.values()} == {size}
        loads[name] = size, held
        assert stored_docs(index.partitions[emoji.repo_full_name])[0] == (
            corpus[0].sha, corpus[0].date, corpus[0].message, corpus[0].diff
        )
    assert loads["emoji"][0] - loads["plain"][0] == len(" \U0001f600".encode())
    assert abs(loads["emoji"][1] - loads["plain"][1]) < 1024


def test_index_layout_does_not_grow_with_the_project_count(tmp_path):
    layouts = []
    for shape in ((200, 5), (2, 500)):
        root = tmp_path / f"{shape[0]}x{shape[1]}"
        build_index(synthetic_corpus(*shape)).save(root)
        sections = struct.unpack_from("<Q", (root / "postings.bin").read_bytes(), 8)[0]
        layouts.append((sorted(p.name for p in root.iterdir()), sections))
    assert layouts[0] == layouts[1]


def test_utf8_check_decodes_characters_split_across_chunks(tmp_path, monkeypatch):
    records = [
        make_record(0, message="caf\u00e9 \U0001f600 \ud800"),
        make_record(1, added=["na\u00efve = '\u4e2d'"]),
    ]
    index = build_index(records)
    index.save(tmp_path / "idx")
    monkeypatch.setattr(retriever, "_UTF8_CHUNK", 1)  # every multi-byte character split
    loaded = RetrievalIndex.load(tmp_path / "idx")
    for repo, part in index.partitions.items():
        assert stored_docs(loaded.partitions[repo]) == stored_docs(part)
    _edit_file(tmp_path / "idx", "docs.txt", lambda raw: raw[:-1] + b"\xc3")
    with pytest.raises(CorruptIndex, match="docs.txt is not UTF-8"):
        RetrievalIndex.load(tmp_path / "idx")


def _edit_manifest(root, **changes):
    path = root / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))


def _drop_from_manifest(root, key):
    path = root / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))


def _edit_docs(root, edit):
    """Rewrite docs.txt and its byte field bounds from ``edit(fields)``, each field bytes."""
    path = root / "docs.txt"
    raw = path.read_bytes()

    def rewrite(arrays):
        ends = arrays["bounds"].tolist()
        fields = edit([raw[lo:hi] for lo, hi in zip(ends, ends[1:])])
        arrays["bounds"] = np.cumsum([0, *map(len, fields)], dtype=np.int64)
        path.write_bytes(b"".join(fields))

    _edit_postings(root, rewrite)


def _edit_file(root, name, edit):
    path = root / name
    path.write_bytes(edit(path.read_bytes()))


def _set_vectors_version(root, version):
    path = root / "vectors.bin"
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])


def _as_version(version):
    """The manifest and vectors header a release writing ``version`` would leave."""

    def edit(root):
        _edit_manifest(root, version=version)
        _set_vectors_version(root, version)

    return edit


def _edit_postings(root, edit):
    """Rewrite postings.bin from ``edit(arrays)``, with a header that fits the new arrays."""
    path = root / "postings.bin"
    arrays = {name: array.copy() for name, array in retriever._read_postings(path).items()}
    edit(arrays)
    retriever._write_postings(path, arrays)


_SECTION_NAMES = [name for name, _ in retriever._SECTIONS]


def _edit_header(root, edit):
    """Rewrite the header of postings.bin from ``edit([magic, version, count, *sizes])``."""
    path = root / "postings.bin"
    raw = path.read_bytes()
    header = retriever._POSTINGS_HEADER
    values = list(header.unpack_from(raw))
    edit(values)
    path.write_bytes(header.pack(*values) + raw[header.size :])


def _resize_sections(**changes):
    """A header edit that adds ``changes[name]`` bytes to each named section's size."""

    def edit(values):
        for name, delta in changes.items():
            values[3 + _SECTION_NAMES.index(name)] += delta

    return edit


def _swap_first_pair(values):
    values[[1, 2]] = values[[2, 1]]


def _unsort_first_shared_term(arrays):
    offsets, ids = arrays["offsets"], arrays["ids"]
    lo = next(int(offsets[t]) for t in range(len(offsets) - 1) if offsets[t + 1] - offsets[t] > 1)
    ids[[lo, lo + 1]] = ids[[lo + 1, lo]]


def _bound_inside_character(root):
    # The first sha ends in a two-byte character, and its end bound moves one byte back.
    _edit_docs(root, lambda fields: [fields[0] + "\u00e9".encode(), *fields[1:]])

    def cut(arrays):
        arrays["bounds"][1] -= 1

    _edit_postings(root, cut)


def _set(index, value):
    """An edit that sets ``values[index]`` to ``value``."""

    def edit(values):
        values[index] = value

    return edit


def _add(name, index, delta):
    """A postings edit that adds ``delta`` to ``arrays[name][index]``."""

    def edit(arrays):
        arrays[name][index] += delta

    return edit


_CORRUPTIONS = {
    "missing-directory": (lambda root: shutil.rmtree(root), "cannot read"),
    "missing-file": (lambda root: (root / "postings.bin").unlink(), "cannot read"),
    "missing-docs": (lambda root: (root / "docs.txt").unlink(), "cannot read"),
    "manifest-not-json": (
        lambda root: (root / "manifest.json").write_text('{"magic": "coracmg-index",'),
        "not valid JSON",
    ),
    "version-1": (lambda root: _edit_manifest(root, version=1), "version 1 index"),
    "version-99": (lambda root: _edit_manifest(root, version=99), "version 99 index"),
    "embedder-missing": (
        lambda root: _drop_from_manifest(root, "embedder"), "names no embedder"
    ),
    "embedder-not-a-string": (
        lambda root: _edit_manifest(root, embedder=64), "names no embedder"
    ),
    "embedder-empty": (lambda root: _edit_manifest(root, embedder=""), "names no embedder"),
    "version-2": (lambda root: _edit_manifest(root, version=2), "version 2 index"),
    "vectors-version-2": (
        lambda root: _set_vectors_version(root, 2), "vectors.bin has version 2"
    ),
    "docs-row-missing": (
        lambda root: _edit_docs(root, lambda fields: fields[:-4]),
        "9 field bounds; 3 documents need 13",
    ),
    "docs-project-counts": (
        lambda root: _edit_manifest(root, projects={"acme/project0": 2}),
        "projects hold 2 documents, its doc_count is 3",
    ),
    "docs-project-negative": (
        lambda root: _edit_manifest(root, projects={"acme/project0": -1}),
        "a project holds a negative number of documents",
    ),
    "text-not-utf8": (
        lambda root: _edit_file(root, "docs.txt", lambda raw: b"\xff" + raw[1:]),
        "docs.txt is not UTF-8",
    ),
    "bound-inside-character": (
        _bound_inside_character, "a field bound falls inside a character of docs.txt"
    ),
    "bounds-count": (
        lambda root: _edit_postings(root, lambda a: a.update(bounds=a["bounds"][:-1])),
        "12 field bounds; 3 documents need 13",
    ),
    "bounds-not-rising": (
        lambda root: _edit_postings(root, lambda a: _swap_first_pair(a["bounds"])),
        "field bounds must rise from 0",
    ),
    "bounds-short-of-text": (
        lambda root: _edit_file(root, "docs.txt", lambda raw: raw + b"x"),
        "field bounds must rise from 0 to the",
    ),
    "version-3": (_as_version(3), "version 3 index; this release reads version 6"),
    "version-4": (_as_version(4), "version 4 index; this release reads version 6"),
    "version-5": (_as_version(5), "version 5 index; this release reads version 6"),
    "vectors-version-5": (
        lambda root: _set_vectors_version(root, 5), "vectors.bin has version 5"
    ),
    "postings-bad-magic": (
        lambda root: _edit_header(root, _set(0, b"CMGV")),  # magic
        "postings.bin has a bad magic number",
    ),
    "postings-cut-in-header": (
        lambda root: _edit_file(root, "postings.bin", lambda raw: raw[:20]),
        "postings.bin has a bad magic number",
    ),
    "postings-version-5": (
        lambda root: _edit_header(root, _set(1, 5)),  # version
        "postings.bin has version 5; this release reads version 6",
    ),
    "postings-section-count": (
        lambda root: _edit_header(root, _set(2, 8)),  # section count
        "postings.bin has 8 sections; version 6 has 9",
    ),
    "postings-short": (
        lambda root: _edit_file(root, "postings.bin", lambda raw: raw[:-1]),
        "postings.bin has [0-9]+ bytes; its header gives",
    ),
    "postings-section-size": (
        lambda root: _edit_header(root, _resize_sections(ids=4)),
        "postings.bin has [0-9]+ bytes; its header gives",
    ),
    "postings-section-not-whole": (
        lambda root: _edit_header(root, _resize_sections(ids=2, terms=-2)),
        "section 'ids' has [0-9]+ bytes, not a whole number of int32 items",
    ),
    "table-size": (
        lambda root: _edit_postings(root, lambda a: a.update(table=a["table"][:-1])),
        "project table of 5 entries; 1 projects need 6",
    ),
    "table-document-starts": (
        lambda root: _edit_postings(root, _add("table", 3, -1)),
        "project table disagrees with the project counts of manifest.json",
    ),
    "table-term-count": (
        lambda root: _edit_postings(root, _add("table", 4, -1)),
        "project table's term starts disagree with offsets",
    ),
    "table-posting-start": (
        lambda root: _edit_postings(root, _add("table", 5, 1)),
        "project table's term starts disagree with offsets",
    ),
    "term-bounds-count": (
        lambda root: _edit_postings(root, lambda a: a.update(term_bounds=a["term_bounds"][:-1])),
        "term bounds for [0-9]+ terms",
    ),
    "term-bounds-not-rising": (
        lambda root: _edit_postings(root, lambda a: _swap_first_pair(a["term_bounds"])),
        "term bounds must rise from 0 to the [0-9]+ bytes of the term table",
    ),
    "terms-not-utf8": (
        lambda root: _edit_postings(root, lambda a: _set(0, 0xFF)(a["terms"])),
        "the term table is not UTF-8",
    ),
    "tiebreak-count": (
        lambda root: _edit_postings(root, lambda a: a.update(tiebreak=a["tiebreak"][:-1])),
        "2 tie-break ranks for 3 documents",
    ),
    "tiebreak-repeated-rank": (
        lambda root: _edit_postings(root, lambda a: a.update(tiebreak=np.zeros(3, np.int64))),
        "tiebreak is not a permutation of each project's positions",
    ),
    "tiebreak-out-of-range": (
        lambda root: _edit_postings(root, lambda a: a.update(tiebreak=a["tiebreak"] + 1)),
        "tiebreak is not a permutation of each project's positions",
    ),
    "tiebreak-negative": (
        lambda root: _edit_postings(root, lambda a: a.update(tiebreak=a["tiebreak"] - 1)),
        "tiebreak is not a permutation of each project's positions",
    ),
    "offsets-not-from-zero": (
        lambda root: _edit_postings(root, lambda a: a.update(offsets=a["offsets"] + 1)),
        "offsets must rise from 0",
    ),
    "offsets-decreasing": (
        lambda root: _edit_postings(root, lambda a: _swap_first_pair(a["offsets"])),
        "offsets must rise from 0",
    ),
    "offsets-end-before-ids": (
        lambda root: _edit_postings(
            root, lambda a: a.update(ids=np.append(a["ids"], np.int32(0)))
        ),
        "offsets must rise from 0",
    ),
    "tfs-count": (
        lambda root: _edit_postings(root, lambda a: a.update(tfs=a["tfs"][:-1])),
        "term frequencies for [0-9]+ postings",
    ),
    "tfs-zero": (
        lambda root: _edit_postings(root, lambda a: _set(-1, 0)(a["tfs"])),
        "has a term frequency below 1",
    ),
    "tfs-negative": (
        lambda root: _edit_postings(root, lambda a: _set(0, -2)(a["tfs"])),
        "has a term frequency below 1",
    ),
    "ids-out-of-range": (
        lambda root: _edit_postings(root, lambda a: a.update(ids=a["ids"] + np.int32(3))),
        "document ids outside their project",
    ),
    "ids-negative": (
        lambda root: _edit_postings(root, lambda a: a.update(ids=a["ids"] - np.int32(1))),
        "document ids outside their project",
    ),
    "ids-not-ascending": (
        lambda root: _edit_postings(root, _unsort_first_shared_term),
        "ascend within each term",
    ),
    "lengths-count": (
        lambda root: _edit_postings(root, lambda a: a.update(lengths=a["lengths"][:-1])),
        "2 lengths for 3 documents",
    ),
}


def test_load_rejects_corrupt_files(tmp_path):
    records = synthetic_corpus(1, 3, seed=0)
    index = build_index(records)
    index.save(tmp_path / "idx")
    vectors = tmp_path / "idx" / "vectors.bin"
    vectors.write_bytes(b"XXXX" + vectors.read_bytes()[4:])
    with pytest.raises(CorruptIndex, match="magic"):
        RetrievalIndex.load(tmp_path / "idx")

    index.save(tmp_path / "idx2")
    manifest = tmp_path / "idx2" / "manifest.json"
    manifest.write_text('{"magic": "something-else"}')
    with pytest.raises(CorruptIndex, match="not an index"):
        RetrievalIndex.load(tmp_path / "idx2")

    index.save(tmp_path / "idx")
    good = vectors.read_bytes()
    vectors.write_bytes(good[:10])  # shorter than the header
    with pytest.raises(CorruptIndex, match="magic"):
        RetrievalIndex.load(tmp_path / "idx")

    vectors.write_bytes(good[:-4])  # one float missing
    with pytest.raises(CorruptIndex, match="float32 matrix needs"):
        RetrievalIndex.load(tmp_path / "idx")

    vectors.write_bytes(good + good[-64 * 4 :])  # an extra row, header unchanged
    with pytest.raises(CorruptIndex, match="float32 matrix needs"):
        RetrievalIndex.load(tmp_path / "idx")

    # A consistent file with one vector fewer than the manifest's doc_count.
    count = struct.unpack("<I", good[8:12])[0]
    vectors.write_bytes(good[:8] + struct.pack("<I", count - 1) + good[12 : -64 * 4])
    with pytest.raises(CorruptIndex, match="manifest.json counts 3"):
        RetrievalIndex.load(tmp_path / "idx")

    for name, (corrupt, message) in _CORRUPTIONS.items():
        root = tmp_path / name
        index.save(root)
        corrupt(root)
        with pytest.raises(CorruptIndex, match=message) as caught:
            RetrievalIndex.load(root)
        assert str(caught.value).endswith("rebuild the index with `coracmg index`"), name


def _id_of_the_next_project(arrays):
    """Give project 0's last posting the id of project 0's size, which only project 1 has."""
    table = arrays["table"].reshape(-1, 3)
    last = table[1, 2] - 1  # project 0's last posting, the last of its last term
    arrays["ids"][last] = table[1, 0]


def _ranks_traded_between_projects(arrays):
    # Shifted by their project's start (0 and 2) the ranks are 0, 2 and 1, 3, 4:
    # a permutation of 0..4, though neither project's ranks are its own.
    arrays["tiebreak"][:] = [0, 2, -1, 1, 2]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_id_of_the_next_project, "document ids outside their project"),
        (_ranks_traded_between_projects, "tiebreak is not a permutation of each project's"),
    ],
)
def test_load_checks_each_project_against_its_own_size(tmp_path, corrupt, message):
    records = synthetic_corpus(2, 3, seed=0)[1:]  # projects of 2 and 3 documents
    root = tmp_path / "idx"
    build_index(records).save(root)
    _edit_postings(root, corrupt)
    with pytest.raises(CorruptIndex, match=message):
        RetrievalIndex.load(root)


def test_a_loaded_index_saves_over_its_own_directory(tmp_path):
    # The loaded rows are views of the mapped vectors.bin that save replaces:
    # the new file is renamed over it, never cut, so the rows save writes
    # stay readable while it writes them.
    records = synthetic_corpus(2, 5, seed=4)
    built = build_index(records)
    built.save(tmp_path / "idx")
    RetrievalIndex.load(tmp_path / "idx").save(tmp_path / "idx")
    again = RetrievalIndex.load(tmp_path / "idx")
    for q in records:
        args = (q.diff, 3, q.repo_full_name, q.sha)
        assert again.retrieve(*args, embedder=EMBEDDER) == built.retrieve(*args, embedder=EMBEDDER)


@pytest.mark.parametrize("name", ["docs.txt", "postings.bin", "vectors.bin"])
def test_load_rejects_a_file_cut_short_before_it_is_mapped(tmp_path, monkeypatch, name):
    # The size load takes is the uncut one, as if the file were cut between
    # fstat and the mapping: mmap's ValueError must not escape, and no page
    # past the end may be read (SIGBUS).
    build_index(synthetic_corpus(2, 3, seed=0)).save(tmp_path / "idx")
    path = tmp_path / "idx" / name
    checked = path.stat()
    path.write_bytes(path.read_bytes()[:-4])  # cut in place: the same inode
    fstat = os.fstat
    monkeypatch.setattr(
        retriever.os, "fstat", lambda fd: checked if fstat(fd).st_ino == checked.st_ino else fstat(fd)
    )
    with pytest.raises(CorruptIndex, match=f"{name} changed while it was read"):
        RetrievalIndex.load(tmp_path / "idx")


def _answers(index, records):
    return [
        index.retrieve(q.diff, 3, q.repo_full_name, q.sha, embedder=EMBEDDER) for q in records
    ]


def test_a_failed_save_leaves_the_previous_index(tmp_path, monkeypatch):
    old = synthetic_corpus(2, 6, seed=5)
    root = tmp_path / "idx"
    build_index(old).save(root)
    files = {p.name: p.read_bytes() for p in root.iterdir()}
    expected = _answers(RetrievalIndex.load(root), old)

    def fail(path, arrays):
        path.write_bytes(b"half")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(retriever, "_write_postings", fail)
    with pytest.raises(OSError, match="No space left"):
        build_index(synthetic_corpus(2, 8, seed=6)).save(root)
    assert {p.name: p.read_bytes() for p in root.iterdir()} == files  # no temporary file left
    assert _answers(RetrievalIndex.load(root), old) == expected


def test_a_rebuild_under_a_loaded_index(tmp_path):
    old, new = synthetic_corpus(2, 6, seed=7), synthetic_corpus(2, 9, seed=8)
    root = tmp_path / "idx"
    build_index(old).save(root)
    loaded = RetrievalIndex.load(root)
    queried = [q for q in old if q.repo_full_name == "acme/project0"]
    assert _answers(loaded, queried)  # acme/project1 is not queried before the rebuild
    # Everything a loaded index holds is read-only: its files are mapped, not copied.
    assert memoryview(loaded.docs).readonly
    assert not any(section.flags.writeable for section in loaded.sections.values())
    assert not loaded.partitions["acme/project0"].vectors.flags.writeable

    build_index(new).save(root)  # renamed over the mapped files, none cut or rewritten
    # Every project answers from the old files, still mapped, queried before or not.
    assert _answers(loaded, old) == _answers(build_index(old), old)
    assert _answers(RetrievalIndex.load(root), new) == _answers(build_index(new), new)


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd (Linux)")
def test_a_loaded_index_holds_three_descriptors_whatever_its_project_count(tmp_path):
    # Each mmap holds a duplicate of its file's descriptor: load maps docs.txt,
    # postings.bin and one vectors.bin for all 300 projects, and a query maps none.
    records = [make_record(i, repo=f"acme/p{i:03d}") for i in range(300)]
    build_index(records).save(tmp_path / "idx")
    gc.collect()
    before = _open_descriptors()
    index = RetrievalIndex.load(tmp_path / "idx")
    assert _open_descriptors() - before <= 3
    for rec in records:
        assert index.retrieve("x", 1, rec.repo_full_name, embedder=EMBEDDER)
    assert _open_descriptors() - before <= 3
    del index
    gc.collect()
    assert _open_descriptors() == before


def _mapping(rows: np.ndarray):
    """The object whose buffer ``rows`` view."""
    while isinstance(rows, np.ndarray):
        rows = rows.base
    return rows.obj  # numpy's last base is a memoryview of the mapping


def test_racing_first_queries_share_one_mapping_of_vectors(tmp_path):
    # Load maps vectors.bin once: threads racing to read the rows of
    # different projects must all see views of that one mapping, which
    # holds one descriptor, not map the file again.
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    records = [make_record(i, repo=f"acme/p{i:02d}") for i in range(40)]
    build_index(records).save(tmp_path / "idx")
    repos = [rec.repo_full_name for rec in records]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(200):
                index = RetrievalIndex.load(tmp_path / "idx")
                start = threading.Barrier(8, timeout=30)

                def first(some):
                    start.wait()
                    return [index.partitions[repo].vectors for repo in some]

                futures = [pool.submit(first, repos[w::8]) for w in range(8)]
                rows = [r for future in futures for r in future.result(timeout=60)]
                assert len(rows) == len(repos)
                assert len({id(_mapping(r)) for r in rows}) == 1
    finally:
        sys.setswitchinterval(interval)


def _built_and_loaded(records, root):
    index = build_index(records)
    index.save(root)
    return index, RetrievalIndex.load(root)


def test_row_compares_only_sha_fields(tmp_path):
    first, dup, unseen = make_record(0), make_record(1), sha_of(50)
    mention = make_record(
        2,
        message=f"revert {dup.sha} and {unseen}",
        diff=make_diff(added=[f"ref = '{unseen}{dup.sha}'"]),
    )
    last = make_record(4, message=f"see {dup.sha}")
    records = [first, dup, mention, dataclasses.replace(dup, message="reapply"), last]
    for index in _built_and_loaded(records, tmp_path / "idx"):
        part = index.partitions[first.repo_full_name]
        assert part.row(first.sha) == 0  # the first document
        assert part.row(last.sha) == 4  # the last document
        assert part.row(mention.sha) == 2
        assert part.row(dup.sha) == 3  # repeated: the last row, not one that names it
        assert part.row(unseen) is None  # in a message and a diff, never a sha field
        assert part.row(first.sha[:-1]) is None and part.row(first.sha + "0") is None
        assert part.row("") is None


def test_row_of_an_empty_sha(tmp_path):
    records = [dataclasses.replace(make_record(i), sha="" if i else "a") for i in range(3)]
    for index in _built_and_loaded(records, tmp_path / "idx"):
        part = index.partitions[records[0].repo_full_name]
        assert part.row("") == 2
        assert part.row("a") == 0
        pairs = index.retrieve("x", 3, "acme/widgets", exclude_sha="", embedder=EMBEDDER)
        assert [p.handle.sha for p in pairs] == ["", "a"]  # row 2 excluded, newest first


def test_loaded_rows_are_the_built_rows_in_float32(tmp_path):
    # 5 x 64 and 1 x 64 floats, each partition read from its own offset.
    records = synthetic_corpus(1, 5, seed=3) + [make_record(0, repo="acme/solo")]
    built, loaded = _built_and_loaded(records, tmp_path / "idx")
    assert [p.vectors.shape for p in loaded.partitions.values()] == [(5, 64), (1, 64)]
    for repo, part in built.partitions.items():
        assert loaded.partitions[repo].vectors.dtype == part.vectors.dtype == np.float32
        assert loaded.partitions[repo].vectors.shape == part.vectors.shape
        assert loaded.partitions[repo].vectors.tobytes() == part.vectors.tobytes()


@pytest.mark.parametrize("rows", [7, 64, 1 << 15])
def test_loaded_rows_are_the_built_rows_in_float64(tmp_path, rows):
    # A partition of ``rows`` x 64 floats, then one of 5 x 64 at the offset it ends on:
    # the rows read back are the written float32 bits, and widen to the same float64
    # the dense score multiplies.
    written = [
        np.random.default_rng(rows).standard_normal((n, 64)).astype(np.float32) for n in (rows, 5)
    ]
    path = tmp_path / "vectors.bin"
    header = retriever.VECTORS_MAGIC + struct.pack("<III", retriever.INDEX_VERSION, rows + 5, 64)
    path.write_bytes(header + b"".join(w.astype("<f4").tobytes() for w in written))
    dimension, views = retriever._read_vectors(path, [rows, 5])
    assert dimension == 64
    for loaded, expected in zip(views, written):
        assert loaded.dtype == np.float32 and loaded.shape == expected.shape
        assert loaded.tobytes() == expected.tobytes()
        assert loaded.astype(np.float64).tobytes() == expected.astype(np.float64).tobytes()


def test_k_must_be_positive():
    records = [make_record(0)]
    index = build_index(records)
    with pytest.raises(ValueError):
        index.retrieve("x", 0, records[0].repo_full_name, embedder=EMBEDDER)


def test_vectors_bin_layout(tmp_path):
    records = synthetic_corpus(2, 4, seed=1)
    index = build_index(records)
    root = tmp_path / "idx"
    index.save(root)
    raw = (root / "vectors.bin").read_bytes()
    assert raw[:4] == b"CMGV"
    version, count, dim = struct.unpack("<III", raw[4:16])
    assert (version, count, dim) == (6, 8, 64)
    assert len(raw) == 16 + count * dim * 4
    matrix = np.frombuffer(raw[16:], dtype="<f4").reshape(count, dim)
    assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-6)
    files = sorted(p.name for p in root.iterdir())
    assert files == ["docs.txt", "manifest.json", "postings.bin", "vectors.bin"]
    assert json.loads((root / "manifest.json").read_text())["version"] == 6

    postings = (root / "postings.bin").read_bytes()
    magic, version, sections = struct.unpack_from("<4sIQ", postings)
    assert (magic, version, sections) == (b"CMGP", 6, 9)
    sizes = struct.unpack_from(f"<{sections}Q", postings, 16)
    assert len(postings) == 16 + 8 * sections + sum(sizes)
    arrays = retriever._read_postings(root / "postings.bin")
    assert [name for name, _ in retriever._SECTIONS][-3:] == ["ids", "tfs", "terms"]
    assert arrays["tfs"].dtype == np.int32 and arrays["tfs"].min() >= 1
    text = (root / "docs.txt").read_bytes()
    bounds = arrays["bounds"].tolist()
    assert len(bounds) == 4 * count + 1 and bounds[-1] == len(text)
    first = stored_docs(index.partitions[min(index.partitions)])[0]
    assert [text[bounds[f] : bounds[f + 1]].decode() for f in range(4)] == list(first)
    table = arrays["table"].reshape(-1, 3).tolist()
    assert [row[0] for row in table] == [0, 4, 8]  # document starts
    terms, term_bounds = arrays["terms"].tobytes(), arrays["term_bounds"].tolist()
    offsets = arrays["offsets"].tolist()
    for repo, (d0, t0, p0), (d1, t1, p1) in zip(sorted(index.partitions), table, table[1:]):
        part = index.partitions[repo]
        vocab = [terms[term_bounds[t] : term_bounds[t + 1]].decode() for t in range(t0, t1)]
        assert vocab == list(part.terms)  # in posting-row order
        assert (offsets[t0], offsets[t1]) == (p0, p1)  # posting starts
        docs = stored_docs(part)
        newest_first = sorted(range(len(docs)), key=lambda i: docs[i].sha)
        newest_first.sort(key=lambda i: docs[i].date, reverse=True)  # one UTC offset
        tiebreak = arrays["tiebreak"][d0:d1]
        assert tiebreak.dtype == np.int64
        assert tiebreak.tolist() == np.argsort(newest_first).tolist()


def test_batch_and_single_doc_bm25_are_bit_equal():
    # retrieve() scores a term's whole posting list in one numpy statement;
    # the oracle walks one document at a time. Same expression, same term
    # order, so the floats must match exactly, not just approximately.
    records = synthetic_corpus(1, 40, seed=77)
    index = build_index(records)
    repo = records[0].repo_full_name
    part = index.partitions[repo]
    query_tokens = tokenize(records[7].diff)
    batch = index._batch_lexical(part, Counter(query_tokens))
    for i, doc in enumerate(stored_docs(part)):
        single = index_bm25_one_doc(index, query_tokens, repo, doc.sha)
        assert batch[i] == single  # exact equality


@pytest.fixture(scope="module")
def large_partition():
    """A 2,500-document partition, the size of one benchmark project."""
    records = [r for r in synthetic_corpus(4, 2500, 1) if r.repo_full_name == "acme/project0"]
    return records, build_index(records)


def test_one_pass_bm25_equals_the_per_document_walk_on_a_large_partition(large_partition):
    records, index = large_partition
    repo = records[0].repo_full_name
    part = index.partitions[repo]
    shas = [doc.sha for doc in stored_docs(part)]
    repeated = tokenize(records[11].diff) * 3 + tokenize(records[12].diff)
    unseen = ["never-indexed", *tokenize(records[900].diff), "also_unseen", "never-indexed"]
    for query_tokens in (repeated, unseen):
        batch = index._batch_lexical(part, Counter(query_tokens))
        assert batch.dtype == np.float64 and len(batch) == len(part)
        single = [index_bm25_one_doc(index, query_tokens, repo, sha) for sha in shas]
        assert batch.tolist() == single  # exact equality


def test_bm25_of_a_query_with_only_unseen_terms_is_float64_zeros(large_partition):
    records, index = large_partition
    part = index.partitions[records[0].repo_full_name]
    scores = index._batch_lexical(part, Counter({"never-indexed": 2, "also_unseen": 1}))
    assert scores.dtype == np.float64
    assert scores.tobytes() == np.zeros(len(part)).tobytes()


def seeded_queries(records, seed, n=200):
    """``n`` query term counts: plain, with terms repeated, with unseen terms, only unseen."""
    rng = random.Random(seed)
    for q in range(n):
        tokens = tokenize(rng.choice(records).diff)
        unseen = [f"unseen term {rng.randrange(50)}" for _ in range(rng.randint(1, 6))]
        if q % 4 == 1:
            tokens = tokens * rng.randint(2, 3) + tokenize(rng.choice(records).diff)
        elif q % 4 == 2:
            tokens = [*unseen[:1], *tokens, *unseen, *rng.sample(tokens, min(5, len(tokens)))]
        elif q % 4 == 3:
            tokens = unseen  # no token holds a space
        yield Counter(tokens)


def assert_scores_as_the_reference(index, repo, counts, exclude_sha):
    """``_batch_lexical`` and ``_score`` give the reference's bytes, or raise as it does."""
    part = index.partitions[repo]
    batch = index._batch_lexical(part, counts)
    assert batch.dtype == np.float64
    assert batch.tobytes() == reference_batch_lexical(index, part, counts).tobytes()
    query_vec = EMBEDDER.embed_counts(counts)
    try:
        expected = reference_score(index, counts, repo, query_vec, exclude_sha)
    except EmptyScope as exc:
        with pytest.raises(EmptyScope, match=re.escape(str(exc))):
            index._score(counts, repo, query_vec, exclude_sha)
        return
    got_part, keep, hybrid = index._score(counts, repo, query_vec, exclude_sha)
    ref_part, ref_keep, ref_hybrid = expected
    assert got_part is ref_part
    assert keep.dtype == ref_keep.dtype and keep.tolist() == ref_keep.tolist()
    assert hybrid.dtype == np.float64 and hybrid.tobytes() == ref_hybrid.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bm25_and_hybrid_scores_are_the_references_bytes(large_partition, seed):
    # The in-place BM25 over intp ids, and the excluded row deleted from the
    # scores, must give the floats of the expression and the gathers before.
    records, index = large_partition
    repo = records[0].repo_full_name
    part = index.partitions[repo]
    last = part.field(len(part) - 1, retriever._SHA)
    absent = "f" * 40
    assert (part.row(records[0].sha), part.row(last), part.row(absent)) == (0, len(part) - 1, None)
    rng = random.Random(seed)
    for q, counts in enumerate(seeded_queries(records, seed)):
        inside = part.field(rng.randrange(len(part)), retriever._SHA)
        exclude = (None, records[0].sha, last, absent, inside)[q % 5]
        assert_scores_as_the_reference(index, repo, counts, exclude)


def test_hybrid_scores_of_two_and_one_document_partitions_are_the_references_bytes():
    records = synthetic_corpus(2, 3, seed=19)
    pair = [r for r in records if r.repo_full_name == "acme/project0"][:2]
    lone = [r for r in records if r.repo_full_name == "acme/project1"][:1]
    index = build_index(pair + lone)
    for query in (pair[0], pair[1], lone[0]):
        counts = Counter(tokenize(query.diff))
        for repo, docs in (("acme/project0", pair), ("acme/project1", lone)):
            for exclude in (None, *(r.sha for r in docs), "f" * 40):
                assert_scores_as_the_reference(index, repo, counts, exclude)
    with pytest.raises(EmptyScope, match="besides the excluded commit"):
        index._score(Counter(["x"]), "acme/project1", EMBEDDER.embed("x"), lone[0].sha)


def full_sort_top_k(index, query_diff, k, repo, exclude_sha=None):
    """(sha, hybrid) of the top ``k`` under one lexsort of every candidate."""
    counts = Counter(tokenize(query_diff))
    part, keep, hybrid = index._score(counts, repo, EMBEDDER.embed(query_diff), exclude_sha)
    ranked = []
    for pos in np.lexsort((part.tiebreak[keep], -hybrid)).tolist():
        i = keep[pos]
        if part.field(i, retriever._DIFF) != query_diff:  # the leakage guard
            ranked.append((part.field(i, retriever._SHA), float(hybrid[pos])))
    return ranked[:k]


def top_k(index, query_diff, k, repo, exclude_sha=None):
    got = index.retrieve(query_diff, k, repo, exclude_sha=exclude_sha, embedder=EMBEDDER)
    return [(p.handle.sha, p.hybrid_score) for p in got]


def groups_of_twins(sizes, seed):
    """Byte-identical copies of one diff per group, then 30 varied records, in
    a shuffled date order; the groups' diffs overlap less and less."""
    body = [f"value_{i} = compute(input_{i})" for i in range(6)]
    diffs = [make_diff(added=body[: len(body) - g]) for g in range(len(sizes))]
    fillers = synthetic_corpus(1, 30, seed=seed)
    idx = list(range(sum(sizes) + len(fillers)))
    random.Random(seed).shuffle(idx)
    records = [make_record(idx.pop(), diff=d) for d, n in zip(diffs, sizes) for _ in range(n)]
    records += [make_record(idx.pop(), diff=r.diff, message=r.message) for r in fillers]
    return records, diffs


def test_top_k_reads_past_twins_of_the_query_that_fill_the_sorted_head():
    # Ten copies of the query share the best score; the guard skips them all,
    # more than the 2k sorted first, so the order goes on into the rest.
    records, diffs = groups_of_twins([10, 3], seed=5)
    index = build_index(records)
    repo = records[0].repo_full_name
    for k in (1, 3, 4):
        expected = full_sort_top_k(index, diffs[0], k, repo)
        assert top_k(index, diffs[0], k, repo) == expected
        assert {sha for sha, _ in expected}.isdisjoint(r.sha for r in records[:10])
    excluded = records[12].sha
    assert top_k(index, diffs[0], 3, repo, excluded) == full_sort_top_k(
        index, diffs[0], 3, repo, excluded
    )


def test_top_k_when_every_hybrid_score_is_equal():
    records = [make_record(i, added=["same body"]) for i in random.Random(3).sample(range(40), 20)]
    index = build_index(records)
    repo = records[0].repo_full_name
    query = make_diff(added=["query text"])
    for k in (1, 3, 9, 10, 11, 25):
        expected = full_sort_top_k(index, query, k, repo)
        assert len({hybrid for _, hybrid in expected}) == 1
        assert top_k(index, query, k, repo) == expected


def test_top_k_on_a_partition_of_at_most_2k_documents():
    records = synthetic_corpus(1, 7, seed=6)
    index = build_index(records)
    repo = records[0].repo_full_name
    for k in (3, 4, 5, 7):  # 2k = 6 < 7, then 2k >= 7
        for query in (records[2].diff, make_diff(added=["unrelated"])):
            assert top_k(index, query, k, repo) == full_sort_top_k(index, query, k, repo)


def test_top_k_when_ties_straddle_the_cut():
    # Groups of 4 and 5 copies: the 2k-th best score often falls inside a
    # group, whose ties must all be sorted before the cut.
    records, diffs = groups_of_twins([4, 5, 5], seed=7)
    index = build_index(records)
    repo = records[0].repo_full_name
    straddled = 0
    for query in (*diffs, make_diff(added=["value_0 = compute(input_0)", "other"])):
        counts = Counter(tokenize(query))
        _, _, hybrid = index._score(counts, repo, EMBEDDER.embed(query), None)
        best = np.sort(hybrid)[::-1]
        for k in range(1, 7):
            straddled += best[2 * k - 1] == best[2 * k]
            assert top_k(index, query, k, repo) == full_sort_top_k(index, query, k, repo)
    assert straddled >= 4


def test_best_first_is_the_full_lexsort_order():
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 12, 40):
        hybrid = rng.integers(0, 4, n) / 3  # few values: ties everywhere
        tiebreak = rng.permutation(n)
        full = np.lexsort((tiebreak, -hybrid)).tolist()
        for head in range(1, n + 2):
            assert list(retriever._best_first(hybrid, tiebreak, head)) == full


def test_concurrent_queries_agree():
    # The index is immutable after build; parallel queries must return the
    # same ranking as sequential ones.
    from concurrent.futures import ThreadPoolExecutor

    records = synthetic_corpus(2, 25, seed=23)
    index = build_index(records)
    queries = [records[i] for i in (0, 7, 14, 30, 41)]

    def rank(query):
        pairs = index.retrieve(
            query.diff, 3, query.repo_full_name, exclude_sha=query.sha, embedder=EMBEDDER
        )
        return tuple(p.handle.sha for p in pairs)

    sequential = [rank(q) for q in queries]
    with ThreadPoolExecutor(max_workers=5) as pool:
        for _ in range(5):
            parallel = list(pool.map(rank, queries))
            assert parallel == sequential


def test_loaded_index_retrieves_what_the_built_one_does(tmp_path):
    records = synthetic_corpus(3, 12, seed=13) + twin_corpus(1, 6, seed=2)
    index = build_index(records)
    index.save(tmp_path / "idx")
    loaded = RetrievalIndex.load(tmp_path / "idx")
    # Every partition's rows are a read-only view of one mapping of vectors.bin.
    assert len({id(_mapping(part.vectors)) for part in loaded.partitions.values()}) == 1
    for part in loaded.partitions.values():
        assert isinstance(_mapping(part.vectors), mmap.mmap)
        assert not part.vectors.flags.writeable
    for query in records:
        for exclude in (query.sha, None):  # the twins' leakage guard skips a pair
            args = (query.diff, 3, query.repo_full_name, exclude)
            got = loaded.retrieve(*args, embedder=EMBEDDER)
            assert got == index.retrieve(*args, embedder=EMBEDDER)  # every field, exact
    for part in loaded.partitions.values():
        assert part.vectors.dtype == np.float32
        # The excluded shas were found in the text: the only dict is the term lookup.
        assert [name for name, v in vars(part).items() if isinstance(v, dict)] == ["terms"]


def test_concurrent_first_queries_on_a_loaded_index(tmp_path):
    # Lazy per-partition state (term lookup, length norms) is built by
    # whichever query comes first; racing first queries must agree with a
    # sequential run, scores bit for bit, so state published before it is
    # complete shows as changed scores.  The excluded shas
    # sit at the end of large partitions.
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    records = synthetic_corpus(2, 1000, seed=23)
    build_index(records).save(tmp_path / "idx")
    queries = [records[i] for i in (999, 990, 1999, 980, 1990)]

    def answers(index):
        return [
            [
                (p.handle.sha, p.hybrid_score)
                for p in index.retrieve(
                    q.diff, 3, q.repo_full_name, exclude_sha=q.sha, embedder=EMBEDDER
                )
            ]
            for q in queries
        ]

    def race(index, start):
        start.wait()
        return answers(index)

    sequential = answers(RetrievalIndex.load(tmp_path / "idx"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=5) as pool:
            for _ in range(10):
                index = RetrievalIndex.load(tmp_path / "idx")
                start = threading.Barrier(5, timeout=30)
                futures = [pool.submit(race, index, start) for _ in range(5)]
                for future in futures:
                    assert future.result(timeout=60) == sequential
    finally:
        sys.setswitchinterval(interval)

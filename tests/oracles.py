"""Independent brute-force oracles.

Every function here re-derives its answer from first principles with a
different construction than the production code: list-consumption n-gram
clipping, memoized recursion for LCS, exhaustive alignment enumeration for
the unigram metric, dense full-vocabulary vectors for the consensus metric,
a from-scratch rescoring pipeline for hybrid retrieval, a two-stage
(13a punctuation isolation, then segmentation) tokenizer, and a feature-hashing
embedder that hashes every token occurrence.  ``index_bm25_one_doc`` is an
exception: it walks an index's own postings one document at a time, as the
bit-exact reference for the batched scorer.  So are the ``reference_*``
metric kernels: the slice-by-slice n-gram counting, CIDEr and two-row LCS
table the metrics used before, kept as they were so that the production
kernels can be held to equal them exactly.  ``reference_sample_subset`` is the
subset sampler as it was before it built per-language pools in one pass,
``oracle_read_jsonl`` the JSON Lines reader as it was before it read
the file whole: one ``json.loads`` per line, decoded line by line, and
``oracle_render`` the prompt renderer as it was when it applied the budget
itself, re-rendering after each eviction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from functools import lru_cache

import numpy as np

from coracmg.diffs import CommitRecord, language_of
from coracmg.errors import CorpusTooSmall, InvalidInput

# Punctuation isolation, 13a style. The character class covers the ASCII
# punctuation blocks; period, comma and dash are handled by the
# digit-sensitive rules below so "1,234" and "3.14" survive this stage.
_PUNCT = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_DOT_COMMA_LEAD = re.compile(r"([^0-9])([\.,])")
_DOT_COMMA_TRAIL = re.compile(r"([\.,])([^0-9])")
_DIGIT_DASH = re.compile(r"([0-9])(-)")

# A "word" character here is any Unicode alphanumeric; underscore counts as
# a symbol so identifiers like test_case split apart.
_NON_ALNUM = re.compile(r"([^\W_]+)|(.)", re.UNICODE | re.DOTALL)

# camelCase boundaries: lowercase->Uppercase, and the last capital of an
# uppercase run when followed by lowercase (XMLParser -> XML | Parser).
_CAMEL = re.compile(r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def _base_tokenize(text):
    padded = f" {text} "
    padded = _PUNCT.sub(r" \1 ", padded)
    padded = _DOT_COMMA_LEAD.sub(r"\1 \2 ", padded)
    padded = _DOT_COMMA_TRAIL.sub(r" \1 \2", padded)
    padded = _DIGIT_DASH.sub(r"\1 - ", padded)
    return padded.split()


def _enhance(tokens, drop_symbol_tokens=False):
    out = []
    for token in tokens:
        for match in _NON_ALNUM.finditer(token):
            run, symbol = match.group(1), match.group(2)
            if run is not None:
                for piece in _CAMEL.split(run):
                    out.append(piece.lower())
            elif not drop_symbol_tokens:
                out.append(symbol)
    return out


def oracle_tokenize(text, drop_symbol_tokens=False):
    """Whitespace split after 13a punctuation isolation, then segmentation."""
    return _enhance(_base_tokenize(text), drop_symbol_tokens=drop_symbol_tokens)


def oracle_hash_embed(text, dimension):
    """Feature-hashed bag of tokens, one sha256 and one addition per occurrence."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in oracle_tokenize(text):
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:4], "little") % dimension
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[bucket] += sign
    if not np.any(vec):
        vec[0] = 1.0  # degenerate all-symbol-free input
    # Unit norm as the providers compute it: float32 values, a float64 norm,
    # then one refinement pass.
    vec = vec.astype(np.float32)
    vec = vec / np.float32(float(np.linalg.norm(vec.astype(np.float64))))
    return vec / np.linalg.norm(vec)


def ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def oracle_gleu(hyp, ref, max_n=4):
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    matched = 0
    hyp_total = 0
    ref_total = 0
    for n in range(1, max_n + 1):
        hyp_grams = ngram_list(hyp, n)
        pool = ngram_list(ref, n)
        hyp_total += len(hyp_grams)
        ref_total += len(pool)
        for gram in hyp_grams:
            if gram in pool:
                pool.remove(gram)  # clipped intersection by consumption
                matched += 1
    if matched == 0:
        return 0.0
    return min(matched / hyp_total, matched / ref_total)


def oracle_lcs(a, b):
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def oracle_rouge_l(hyp, ref):
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    lcs = oracle_lcs(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


def _chunk_count(pairs):
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or (i, j) != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = (i, j)
    return chunks


def oracle_align(hyp, ref):
    """(max matches, min chunks) by enumerating every maximum alignment."""
    group_options = []
    total = 0
    for tok in sorted(set(hyp) & set(ref)):
        hpos = [i for i, t in enumerate(hyp) if t == tok]
        rpos = [j for j, t in enumerate(ref) if t == tok]
        m = min(len(hpos), len(rpos))
        total += m
        options = []
        for hsub in itertools.combinations(hpos, m):
            for rperm in itertools.permutations(rpos, m):
                options.append(tuple(zip(hsub, rperm)))
        group_options.append(options)
    if total == 0:
        return 0, 0
    best = None
    for combo in itertools.product(*group_options):
        pairs = [p for group in combo for p in group]
        chunks = _chunk_count(pairs)
        if best is None or chunks < best:
            best = chunks
    return total, best


def oracle_meteor(hyp, ref, alpha=0.9, beta=3.0, gamma=0.5):
    if not hyp or not ref:
        return 0.0
    m, chunks = oracle_align(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (alpha * p + (1 - alpha) * r)
    return f_mean * (1 - gamma * (chunks / m) ** beta)


def oracle_idf(references, max_n=4):
    n_docs = len(references)
    weights = {}
    for ref in references:
        seen = set()
        for n in range(1, max_n + 1):
            seen.update(ngram_list(ref, n))
        for gram in seen:
            weights[gram] = weights.get(gram, 0) + 1
    return {gram: math.log(n_docs / df) for gram, df in weights.items()}, n_docs


def oracle_cider(hyp, ref, idf_weights, n_docs, max_n=4, scale=100.0):
    """Dense full-vocabulary TF-IDF vectors per order, numpy cosine."""
    total = 0.0
    for n in range(1, max_n + 1):
        hyp_grams = ngram_list(hyp, n)
        ref_grams = ngram_list(ref, n)
        vocab = sorted(set(hyp_grams) | set(ref_grams))
        if not hyp_grams or not ref_grams:
            continue
        hvec = np.zeros(len(vocab))
        rvec = np.zeros(len(vocab))
        for pos, gram in enumerate(vocab):
            idf = idf_weights.get(gram, math.log(n_docs))
            hvec[pos] = (hyp_grams.count(gram) / len(hyp_grams)) * idf
            rvec[pos] = (ref_grams.count(gram) / len(ref_grams)) * idf
        hn = np.linalg.norm(hvec)
        rn = np.linalg.norm(rvec)
        if hn == 0 or rn == 0:
            continue
        total += float(np.dot(hvec, rvec) / (hn * rn))
    return (scale / max_n) * total


# -- bit-exact references for the metric kernels ------------------------------


def reference_ngram_counts(tokens, max_n=4):
    counts = Counter()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


def reference_lcs(hyp, ref):
    """Length of the longest common subsequence, two rows of the DP table."""
    m = len(ref)
    prev = [0] * (m + 1)
    cur = [0] * (m + 1)
    for h in hyp:
        for j in range(m):
            if h == ref[j]:
                cur[j + 1] = prev[j] + 1
            else:
                up = prev[j + 1]
                left = cur[j]
                cur[j + 1] = up if up >= left else left
        prev, cur = cur, prev
    return prev[m]


def reference_cider(hyp, ref, idf, scale=100.0, max_n=4):
    """Consensus score: mean over orders of TF-IDF n-gram cosine, times ``scale``."""

    def weight(gram):  # a gram no reference has counts as df = 1
        return idf.weights.get(gram, math.log(idf.doc_count))

    total = 0.0
    for n in range(1, max_n + 1):
        h_counts = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
        r_counts = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
        if not h_counts or not r_counts:
            continue
        h_total = sum(h_counts.values())
        r_total = sum(r_counts.values())
        h_vec = {g: (c / h_total) * weight(g) for g, c in h_counts.items()}
        r_vec = {g: (c / r_total) * weight(g) for g, c in r_counts.items()}
        h_norm = math.sqrt(sum(w * w for w in h_vec.values()))
        r_norm = math.sqrt(sum(w * w for w in r_vec.values()))
        if h_norm == 0.0 or r_norm == 0.0:
            continue
        dot = sum(w * r_vec[g] for g, w in h_vec.items() if g in r_vec)
        total += dot / (h_norm * r_norm)
    return (scale / max_n) * total


def oracle_bm25(query_tokens, doc_tokens, all_doc_tokens, k1=1.2, b=0.75):
    """Direct formula evaluation; corpus statistics from the token lists."""
    n_docs = len(all_doc_tokens)
    avgdl = sum(len(d) for d in all_doc_tokens) / n_docs
    score = 0.0
    for term in query_tokens:  # every occurrence contributes
        tf = doc_tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for d in all_doc_tokens if term in d)
        idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc_tokens) / avgdl))
    return score


def index_bm25_one_doc(index, query_tokens, repo, sha):
    """Okapi BM25 of one indexed document, binary-searching each term's postings.

    The same expression in the same term order as ``RetrievalIndex._batch_lexical``,
    so the two agree bit for bit, not just approximately.
    """
    part = index.partitions[repo]
    idx = part.row(sha)
    norm_d = float(part.length_norm[idx])
    k1p1 = 1.2 + 1.0
    score = 0.0
    for term, qtf in Counter(query_tokens).items():
        entry = part.posting(term)
        if entry is None:
            continue
        ids, tfs = entry
        pos = int(np.searchsorted(ids, idx))
        if pos == len(ids) or ids[pos] != idx:
            continue
        tf = float(tfs[pos])
        weight = index._idf(part, len(ids)) * qtf
        score += weight * (tf * k1p1) / (tf + norm_d)
    return score


def oracle_minmax_fuse(pairs):
    lex = [p[0] for p in pairs]
    sem = [p[1] for p in pairs]

    def norm(vals):
        lo, hi = min(vals), max(vals)
        if hi == lo:
            return [0.5 for _ in vals]
        return [(v - lo) / (hi - lo) for v in vals]

    nl, ns = norm(lex), norm(sem)
    return [(a + c) / 2 for a, c in zip(nl, ns)]


def oracle_rank(docs, query_tokens, query_vec, exclude_sha=None, k1=1.2, b=0.75):
    """Exhaustive hybrid ranking of one partition.

    ``docs``: list of dicts with sha, date, diff, tokens, vector (unit,
    float64).  Partition statistics cover all docs; the excluded sha is
    removed from the candidate set only.  Returns candidate dicts sorted by
    (hybrid desc, date desc, sha asc).
    """
    all_tokens = [d["tokens"] for d in docs]
    n_docs = len(all_tokens)
    avgdl = sum(len(t) for t in all_tokens) / n_docs
    token_sets = [set(t) for t in all_tokens]
    df = {t: sum(1 for s in token_sets if t in s) for t in set(query_tokens)}
    cands = [d for d in docs if d["sha"] != exclude_sha]
    pairs = []
    for doc in cands:
        counts = {}
        for tok in doc["tokens"]:
            counts[tok] = counts.get(tok, 0) + 1
        lex = 0.0
        norm = k1 * (1.0 - b + b * len(doc["tokens"]) / avgdl)
        for term in query_tokens:  # every occurrence contributes
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            idf = math.log((n_docs - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            lex += idf * tf * (k1 + 1.0) / (tf + norm)
        sem = float(sum(x * y for x, y in zip(doc["vector"], query_vec)))
        pairs.append((lex, sem))
    hybrid = oracle_minmax_fuse(pairs)
    ranked = [
        {**doc, "hybrid": h, "lex": p[0], "sem": p[1]}
        for doc, h, p in zip(cands, hybrid, pairs)
    ]
    ranked.sort(key=lambda d: (-d["hybrid"], -_date_key(d["date"]), d["sha"]))
    return ranked


def _date_key(date_iso):
    from datetime import datetime

    return datetime.fromisoformat(date_iso).timestamp()


def oracle_stats(values):
    """(mean, max, lower-middle median) via the statistics module."""
    import statistics

    return statistics.mean(values), max(values), statistics.median_low(values)


def record_languages(record):
    return {language_of(path) for path in record.files} - {"other"}


def reference_sample_subset(records, n, seed):
    """Seeded sample of ``n`` records covering every language in the corpus.

    One record is drawn per uncovered language first; the remainder is a
    uniform draw.  Output preserves corpus order, and a given seed always
    selects the same subset.
    """
    if n > len(records):
        raise CorpusTooSmall(f"requested {n} records from a corpus of {len(records)}")
    langs = [sorted(record_languages(r)) for r in records]
    present = sorted({lang for ls in langs for lang in ls})
    if n < len(present):
        raise CorpusTooSmall(
            f"{n} records cannot cover the {len(present)} languages in the corpus"
        )
    rng = random.Random(seed)
    chosen: set[int] = set()
    covered: set[str] = set()
    for lang in present:
        if lang in covered:
            continue
        pool = [i for i in range(len(records)) if lang in langs[i] and i not in chosen]
        pick = rng.choice(pool)
        chosen.add(pick)
        covered.update(langs[pick])
    rest = [i for i in range(len(records)) if i not in chosen]
    chosen.update(rng.sample(rest, n - len(chosen)))
    return [records[i] for i in sorted(chosen)]


def oracle_read_jsonl(path, parse=CommitRecord.from_dict, digest=None):
    """``parse`` of each non-blank line's JSON value, a ``CommitRecord`` by default.

    A missing file, a non-JSON line or a ``ValueError`` from ``parse`` is an ``InvalidInput``.
    A ``hashlib`` ``digest`` is updated with every byte as it is read, so it
    hashes exactly the bytes that were parsed.
    """
    try:
        fh = open(path, "rb")  # decoded per line, so a bad byte names its line
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, 1):
            if digest is not None:
                digest.update(raw)
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # not UTF-8, or not JSON
                raise InvalidInput(f"{path} line {lineno} is not JSON: {exc}") from None
            try:
                value = parse(obj)
            except ValueError as exc:
                raise InvalidInput(f"{path} line {lineno} {exc}") from None
            yield value


_EXAMPLE_SLOT = re.compile(r"\{\{(retrieved_diff|retrieved_msg)\}\}")
_QUERY_SLOT = re.compile(r"\{\{query_diff\}\}")


def oracle_render(template, query_diff, examples, max_chars):
    """``template``'s prompt for ``examples`` under a budget of ``max_chars``.

    Whole examples are evicted, least relevant first, and the prompt is
    rendered again after each, until it fits or none is left.
    """
    ordered = sorted(examples, key=lambda ex: ex.hybrid_score)  # least relevant first
    while True:
        blocks = [
            _EXAMPLE_SLOT.sub(
                lambda m, ex=ex: ex.diff if m.group(1) == "retrieved_diff" else ex.message,
                template.example_block,
            )
            for ex in ordered
        ]
        rendered = template.preamble + "".join(blocks) + _QUERY_SLOT.sub(
            lambda _: query_diff, template.tail
        )
        if len(rendered) <= max_chars or not ordered:
            return rendered
        ordered = ordered[1:]  # evict the least relevant example

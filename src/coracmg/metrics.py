"""Sentence-level generation metrics over ``tokenize`` output.

Four metrics, all implemented from scratch:

* ``gleu``: min of pooled n-gram precision and recall (n = 1..``MAX_N``).
* ``rouge_l``: LCS-based F score.  The LCS length is bit-parallel (Allison &
  Dix 1986; Hyyrö 2004): one bit per reference token, a few integer
  operations per hypothesis token.
* ``meteor``: exact-match unigram alignment (max matches, then min chunks)
  with ``ALPHA`` = 0.9, ``BETA`` = 3, ``GAMMA`` = 0.5 (Banerjee & Lavie).
* ``cider``: TF-IDF weighted n-gram cosine consensus, averaged over orders
  and reported on a 0-``CIDER_SCALE`` (0-100) scale.

n-grams of order ``n`` are counted in C, as ``zip`` over ``n`` shifted
slices.  They come in first-occurrence order, as a slice-by-slice count
gives them, so every dict iteration and float sum runs in that order and
each score is the same float.  ``gleu``/``rouge_l``/``meteor`` return
values in [0, 1]; corpus evaluation reports them multiplied by 100.
Degenerate inputs score 0 rather than raising so corpus runs never abort on
an empty generation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import EmptyCorpus
from .tokenizer import tokenize

# Longest n-gram order of GLEU and CIDEr.
MAX_N = 4
# METEOR's recall weight, fragmentation penalty exponent and penalty weight.
ALPHA = 0.9
BETA = 3.0
GAMMA = 0.5
# Scale of the reported CIDEr score.
CIDER_SCALE = 100.0
# The reported metrics in report order: result key and report title.  Every
# score dict, manifest, summary line and report table is drawn from this.
METRICS = (("bleu", "BLEU"), ("rouge_l", "Rouge-L"), ("meteor", "METEOR"), ("cider", "CIDEr"))


def _ngrams(tokens: list[str], n: int):
    """The order-``n`` grams of ``tokens`` as tuples, left to right."""
    return zip(*[tokens[k:] for k in range(n)])


def _ngram_counts(tokens: list[str]) -> Counter:
    counts: Counter = Counter()
    for n in range(1, MAX_N + 1):
        counts.update(_ngrams(tokens, n))
    return counts


def gleu(hyp: list[str], ref: list[str]) -> float:
    """Google BLEU: min(precision, recall) over pooled clipped n-gram counts."""
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    h = _ngram_counts(hyp)
    r = _ngram_counts(ref)
    matched = sum(min(count, r[gram]) for gram, count in h.items() if gram in r)
    if matched == 0:
        return 0.0
    return min(matched / sum(h.values()), matched / sum(r.values()))


def _lcs(hyp: list[str], ref: list[str]) -> int:
    """Length of the longest common subsequence, bit-parallel over ``ref``.

    ``v`` encodes one row of the DP table, for the hypothesis prefix read so far:
    bit ``j`` is 0 where the row steps up at ``ref[j]``, so the row ends at
    the count of zero bits.  Each hypothesis token updates the whole row in a
    few big-integer operations (Allison & Dix 1986; Hyyrö 2004).
    """
    masks: dict[str, int] = {}
    for j, tok in enumerate(ref):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(ref)) - 1
    v = full
    for tok in hyp:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(ref) - v.bit_count()


def rouge_l(hyp: list[str], ref: list[str]) -> float:
    """LCS F score: 2PR/(P+R) with P = LCS/|hyp| and R = LCS/|ref|."""
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    lcs = _lcs(hyp, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


# Node budget for the exact chunk-minimization search.  Chunk minimization
# over duplicated tokens is a hard combinatorial problem; real commit
# messages resolve in a few hundred nodes, and anything that exhausts the
# budget keeps the best (greedy-seeded) alignment found so far.
_ALIGN_BUDGET = 500_000


def _greedy_chunks(hyp, ref, need, ref_positions) -> int:
    """Chunk count of one valid maximum alignment, built left to right."""
    used = [False] * len(ref)
    matched = {tok: 0 for tok in need}
    chunks = 0
    last_i = last_j = -2
    for i, tok in enumerate(hyp):
        if matched.get(tok, 0) >= need.get(tok, 0):
            continue
        j = None
        nj = last_j + 1
        if last_i == i - 1 and nj < len(ref) and ref[nj] == tok and not used[nj]:
            j = nj  # diagonal continuation
        else:
            for cand in ref_positions[tok]:
                if not used[cand]:
                    j = cand
                    break
        used[j] = True
        matched[tok] += 1
        if not (last_i == i - 1 and last_j == j - 1):
            chunks += 1
        last_i, last_j = i, j
    return chunks


def _align(hyp: list[str], ref: list[str]) -> tuple[int, int]:
    """Best exact-match unigram alignment: (matches, minimal chunk count).

    Matches are maximal by construction (per-token min counts); among all
    maximum alignments the chunk count is minimized by a depth-first search
    seeded with a greedy solution, preferring diagonal continuations.

    A node at hypothesis position ``i`` is pruned when ``chunks`` plus a lower
    bound on the chunks still to come reaches the best found.  A match at
    ``i'`` continues a chunk only if ``hyp[i'-1:i'+1]`` equals some
    ``ref[j-1:j+1]``, and two such continuations use distinct ``ref``
    positions.  So ``reach[i]``, the hypothesis bigrams ending at ``i' >= i``
    capped per bigram by its count in ``ref``, bounds the remaining matches
    that continue a chunk; every other remaining match starts one.

    The search is exact within ``_ALIGN_BUDGET`` nodes.  A pair that still
    trips the budget keeps the best found: random sequences of two token types
    at length 30-50 still do, after ~0.3-0.4 s each.
    """
    hyp_counts = Counter(hyp)
    ref_positions: dict[str, list[int]] = {}
    for j, tok in enumerate(ref):
        ref_positions.setdefault(tok, []).append(j)
    need = {
        tok: min(cnt, len(ref_positions.get(tok, ())))
        for tok, cnt in hyp_counts.items()
    }
    total = sum(need.values())
    if total == 0:
        return 0, 0

    remaining = dict(hyp_counts)
    matched = {tok: 0 for tok in need}
    used = [False] * len(ref)
    best = _greedy_chunks(hyp, ref, need, ref_positions)
    nodes = 0

    ref_bigrams = Counter(zip(ref, ref[1:]))
    seen: Counter = Counter()
    reach = [0] * (len(hyp) + 1)
    for i in range(len(hyp) - 1, 0, -1):
        bigram = (hyp[i - 1], hyp[i])
        reach[i] = reach[i + 1]
        if seen[bigram] < ref_bigrams[bigram]:
            seen[bigram] += 1
            reach[i] += 1
    reach[0] = reach[1]  # position 0 continues no chunk
    # At least floor[i] - done of the matches still needed start a chunk.  The
    # prune tests chunks and chunks + floor[i] - done apart, not through max():
    # it runs at every node.
    floor = [total - r for r in reach]

    def dfs(i: int, done: int, chunks: int, last_i: int, last_j: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > _ALIGN_BUDGET or chunks >= best or chunks + floor[i] - done >= best:
            return
        if done == total:
            best = chunks
            return
        if i == len(hyp):
            return
        tok = hyp[i]
        need_tok = need.get(tok, 0)
        if matched[tok] < need_tok:
            candidates = [j for j in ref_positions[tok] if not used[j]]
            # Diagonal continuation first: it is the only zero-cost branch.
            if last_i == i - 1 and (last_j + 1) in candidates:
                candidates.remove(last_j + 1)
                candidates.insert(0, last_j + 1)
            for j in candidates:
                cont = last_i == i - 1 and last_j == j - 1
                used[j] = True
                matched[tok] += 1
                dfs(i + 1, done + 1, chunks + (0 if cont else 1), i, j)
                matched[tok] -= 1
                used[j] = False
        # Skipping position i is legal only if the token's quota is still
        # reachable from its later occurrences.
        if remaining[tok] - 1 >= need_tok - matched[tok]:
            remaining[tok] -= 1
            dfs(i + 1, done, chunks, last_i, last_j)
            remaining[tok] += 1

    if best > 0:
        dfs(0, 0, 0, -2, -2)
    return total, best


def meteor(hyp: list[str], ref: list[str]) -> float:
    """Harmonic-mean unigram metric with recall weighted above precision."""
    if not hyp or not ref:
        return 0.0
    m, chunks = _align(hyp, ref)
    if m == 0:
        return 0.0
    p = m / len(hyp)
    r = m / len(ref)
    f_mean = p * r / (ALPHA * p + (1 - ALPHA) * r)
    penalty = GAMMA * (chunks / m) ** BETA
    return f_mean * (1 - penalty)


@dataclass(frozen=True)
class IdfTable:
    """n-gram -> idf weights computed from an evaluation set's references."""

    weights: dict[tuple, float]
    doc_count: int


def build_idf(references: list[list[str]]) -> IdfTable:
    """Document-frequency IDF over reference sentences: idf = log(N / df)."""
    if not references:
        raise EmptyCorpus("cannot build an IDF table from zero references")
    n_docs = len(references)
    df: Counter = Counter()
    for ref in references:
        df.update(_ngram_counts(ref).keys())
    weights = {gram: math.log(n_docs / count) for gram, count in df.items()}
    return IdfTable(weights=weights, doc_count=n_docs)


def cider(hyp: list[str], ref: list[str], idf: IdfTable) -> float:
    """Consensus score: mean over orders of TF-IDF n-gram cosine, times ``CIDER_SCALE``."""
    weights = idf.weights
    unseen = math.log(idf.doc_count)  # a gram no reference has counts as df = 1
    total = 0.0
    for n in range(1, MAX_N + 1):
        h_counts = Counter(_ngrams(hyp, n))
        r_counts = Counter(_ngrams(ref, n))
        if not h_counts or not r_counts:
            continue
        h_total = len(hyp) - n + 1
        r_total = len(ref) - n + 1
        h_vec = {g: (c / h_total) * weights.get(g, unseen) for g, c in h_counts.items()}
        r_vec = {g: (c / r_total) * weights.get(g, unseen) for g, c in r_counts.items()}
        h_norm = math.sqrt(sum(w * w for w in h_vec.values()))
        r_norm = math.sqrt(sum(w * w for w in r_vec.values()))
        if h_norm == 0.0 or r_norm == 0.0:
            continue
        dot = sum(w * r_vec[g] for g, w in h_vec.items() if g in r_vec)
        total += dot / (h_norm * r_norm)
    return (CIDER_SCALE / MAX_N) * total


@dataclass(frozen=True)
class SampleScores:
    bleu: float
    rouge_l: float
    meteor: float
    cider: float

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key, _ in METRICS}


@dataclass(frozen=True)
class MetricReport:
    """Per-sample scores plus their corpus means, all on a 0-100 scale."""

    per_sample: list[SampleScores] = field(default_factory=list)
    bleu: float = 0.0
    rouge_l: float = 0.0
    meteor: float = 0.0
    cider: float = 0.0

    def means(self) -> dict:
        """The four corpus means, keyed in ``METRICS`` order."""
        return {key: getattr(self, key) for key, _ in METRICS}

    def to_dict(self) -> dict:
        return {**self.means(), "per_sample": [s.to_dict() for s in self.per_sample]}


def score_pair(hyp_tokens: list[str], ref_tokens: list[str], idf: IdfTable) -> SampleScores:
    return SampleScores(
        bleu=100.0 * gleu(hyp_tokens, ref_tokens),
        rouge_l=100.0 * rouge_l(hyp_tokens, ref_tokens),
        meteor=100.0 * meteor(hyp_tokens, ref_tokens),
        cider=cider(hyp_tokens, ref_tokens, idf),
    )


def evaluate_corpus(pairs: list[tuple[str, str]]) -> MetricReport:
    """Tokenize (hypothesis, reference) text pairs and score the whole corpus."""
    if not pairs:
        raise EmptyCorpus("no (hypothesis, reference) pairs to evaluate")
    tokenized = [(tokenize(h), tokenize(r)) for h, r in pairs]
    idf = build_idf([r for _, r in tokenized])
    samples = [score_pair(h, r, idf) for h, r in tokenized]
    n = len(samples)
    means = {key: sum(getattr(s, key) for s in samples) / n for key, _ in METRICS}
    return MetricReport(per_sample=samples, **means)

from __future__ import annotations

import math
import random

import pytest

from coracmg.errors import EmptyCorpus
from coracmg.metrics import (
    CIDER_SCALE,
    IdfTable,
    _lcs,
    _ngram_counts,
    build_idf,
    cider,
    evaluate_corpus,
    gleu,
    meteor,
    rouge_l,
)
from oracles import (
    oracle_cider,
    oracle_gleu,
    oracle_idf,
    oracle_lcs,
    oracle_meteor,
    oracle_rouge_l,
    reference_cider,
    reference_lcs,
    reference_ngram_counts,
)

ALPHABET = ["fix", "add", "npe", "test", "cache", "retry", "index", "row"]


def random_pair(rng: random.Random) -> tuple[list[str], list[str]]:
    """Random token pair with bounded repetition so the oracles stay cheap."""

    def seq():
        while True:
            tokens = [rng.choice(ALPHABET) for _ in range(rng.randrange(0, 13))]
            if all(tokens.count(t) <= 3 for t in set(tokens)):
                return tokens

    return seq(), seq()


def test_gleu_examples():
    assert gleu(["fix", "npe"], ["fix", "npe"]) == 1.0
    assert gleu(["aa", "bb"], ["cc", "dd"]) == 0.0
    assert gleu([], []) == 1.0
    assert gleu([], ["x"]) == 0.0
    assert gleu(["x"], []) == 0.0
    hyp, ref = ["fix", "null", "bug"], ["fix", "null", "pointer", "bug"]
    assert gleu(hyp, ref) == pytest.approx(oracle_gleu(hyp, ref), abs=1e-12)


def test_lcs_against_oracle():
    rng = random.Random(0)
    for _ in range(200):
        a = [rng.choice(ALPHABET[:6]) for _ in range(rng.randrange(0, 15))]
        b = [rng.choice(ALPHABET[:6]) for _ in range(rng.randrange(0, 15))]
        assert _lcs(a, b) == oracle_lcs(a, b)
    assert _lcs([], []) == 0
    assert _lcs([], ["fix"]) == 0
    assert _lcs(["fix"], []) == 0


def exact_reference_pairs(count: int, seed: int) -> list[tuple[list[str], list[str]]]:
    """Seeded pairs where a changed n-gram, count or summation order would show.

    Sides are empty, one token, one token repeated, or drawn from an alphabet
    of one, two, three or eight tokens, so repetition is heavy.
    """
    rng = random.Random(seed)

    def side(alphabet):
        shape = rng.randrange(8)
        if shape == 0:
            return []
        if shape == 1:
            return [rng.choice(alphabet)]
        if shape == 2:
            return [rng.choice(alphabet)] * rng.randint(2, 24)
        return [rng.choice(alphabet) for _ in range(rng.randint(2, 30))]

    pairs = []
    for _ in range(count):
        alphabet = ALPHABET[: rng.choice((1, 2, 3, 8))]
        pairs.append((side(alphabet), side(alphabet)))
    return pairs


def test_metric_kernels_equal_exact_references():
    # ==, not approx: the kernels must do the same float operations in the
    # same order as the references, so every score stays bit-identical.
    pairs = exact_reference_pairs(2400, seed=15)
    refs = [ref for _, ref in pairs if ref]
    tables = [build_idf(refs), build_idf(refs[:5]), build_idf(refs[:1])]
    for table, docs in zip(tables, (refs, refs[:5], refs[:1])):
        weights, n_docs = oracle_idf(docs)
        assert table.weights == weights and table.doc_count == n_docs
    for hyp, ref in pairs:
        for tokens in (hyp, ref):
            got = list(_ngram_counts(tokens).items())
            assert got == list(reference_ngram_counts(tokens).items())  # same order too
        assert gleu(hyp, ref) == oracle_gleu(hyp, ref)
        assert rouge_l(hyp, ref) == oracle_rouge_l(hyp, ref)
        for table in tables:
            assert cider(hyp, ref, table) == reference_cider(hyp, ref, table)
        assert cider(hyp, ref, tables[0]) == reference_cider(
            hyp, ref, tables[0], scale=CIDER_SCALE
        )


@pytest.mark.parametrize("alphabet_size", [1, 2, 3, 8, 64])
def test_lcs_equals_dp_reference_past_machine_words(alphabet_size):
    rng = random.Random(alphabet_size)
    alphabet = [f"t{i}" for i in range(alphabet_size)]
    lengths = [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 400]
    for _ in range(30):
        a = [rng.choice(alphabet) for _ in range(rng.choice(lengths + [rng.randint(0, 400)]))]
        b = [rng.choice(alphabet) for _ in range(rng.choice(lengths + [rng.randint(0, 400)]))]
        assert _lcs(a, b) == reference_lcs(a, b)
        assert _lcs(b, a) == reference_lcs(a, b)


def test_lcs_equals_dp_reference_on_long_pair():
    rng = random.Random(3000)
    ref = [rng.choice(ALPHABET) for _ in range(3000)]
    hyp = [tok if rng.random() < 0.8 else rng.choice(ALPHABET) for tok in ref]
    assert _lcs(hyp, ref) == reference_lcs(hyp, ref)


def test_rouge_examples():
    assert rouge_l(["a", "b"], ["a", "b"]) == 1.0
    assert rouge_l(["a", "b", "c"], ["a", "c", "d"]) == pytest.approx(2 / 3)
    assert rouge_l(["a"], ["b"]) == 0.0
    assert rouge_l([], []) == 1.0


def test_meteor_examples():
    ident = meteor(["fix", "null", "pointer"], ["fix", "null", "pointer"])
    assert ident == pytest.approx(1 - 0.5 * (1 / 3) ** 3, abs=1e-9)
    assert meteor(["a"], ["b"]) == 0.0
    swapped = meteor(["b", "a"], ["a", "b"])
    assert swapped == pytest.approx(oracle_meteor(["b", "a"], ["a", "b"]), abs=1e-12)


def test_idf_examples():
    assert build_idf([["a", "b"]]).weights[("a",)] == 0.0  # N=1
    refs = [["g", "x"], ["g", "y"], ["g", "z"], ["g", "w"]]
    table = build_idf(refs)
    assert table.weights[("g",)] == pytest.approx(math.log(1), abs=1e-12)
    assert table.weights[("x",)] == pytest.approx(math.log(4), abs=1e-12)
    assert ("absent",) not in table.weights and table.doc_count == 4
    # cider weighs an absent gram as df = 1, like "y": log(4), so the scores are equal.
    assert cider(["absent", "z"], ["absent", "x"], table) == cider(["y", "z"], ["y", "x"], table)
    with pytest.raises(EmptyCorpus):
        build_idf([])


def test_cider_examples():
    refs = [
        ["fix", "null", "pointer", "bug", "now"],
        ["add", "cache", "retry", "logic", "here"],
        ["update", "index", "row", "schema", "fast"],
    ]
    table = build_idf(refs)
    hyp = ref = refs[0]
    assert cider(hyp, ref, table) == pytest.approx(100.0, abs=1e-9)
    assert cider(["zz", "yy"], ["qq", "ww"], table) == 0.0
    assert CIDER_SCALE == 100.0  # the one scale CIDEr is reported on


def test_cider_matches_dense_oracle():
    rng = random.Random(7)
    refs = [random_pair(rng)[1] or ["pad"] for _ in range(30)]
    table = build_idf(refs)
    weights, n_docs = oracle_idf(refs)
    for gram, w in weights.items():
        assert table.weights[gram] == pytest.approx(w, abs=1e-12)
    for _ in range(50):
        hyp, ref = random_pair(rng)
        mine = cider(hyp, ref, table)
        theirs = oracle_cider(hyp, ref, weights, n_docs)
        assert mine == pytest.approx(theirs, abs=1e-9)


def test_oracle_equivalence_bulk():
    rng = random.Random(42)
    refs_for_idf = []
    pairs = []
    for _ in range(220):
        hyp, ref = random_pair(rng)
        pairs.append((hyp, ref))
        if ref:
            refs_for_idf.append(ref)
    table = build_idf(refs_for_idf)
    weights, n_docs = oracle_idf(refs_for_idf)
    for hyp, ref in pairs:
        assert gleu(hyp, ref) == pytest.approx(oracle_gleu(hyp, ref), abs=1e-9)
        assert rouge_l(hyp, ref) == pytest.approx(oracle_rouge_l(hyp, ref), abs=1e-9)
        assert meteor(hyp, ref) == pytest.approx(oracle_meteor(hyp, ref), abs=1e-9)
        assert cider(hyp, ref, table) == pytest.approx(
            oracle_cider(hyp, ref, weights, n_docs), abs=1e-9
        )


def test_bounds_and_identity_over_random_sequences():
    rng = random.Random(99)
    for _ in range(1000):
        x = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 13))]
        y = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 13))]
        g, r, m = gleu(x, y), rouge_l(x, y), meteor(x, y)
        assert 0.0 <= g <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= m <= 1.0
        assert gleu(x, x) == 1.0 and rouge_l(x, x) == 1.0
        assert gleu(x, x) >= g  # monotone: identity is the max
        disjoint = ["zzz"] * len(y)
        assert gleu(x, disjoint) == 0.0
        assert rouge_l(x, disjoint) == 0.0
        assert meteor(x, disjoint) == 0.0


def test_meteor_alignment_bounded_on_adversarial_repetition():
    # Heavy token repetition makes exact chunk minimization explode
    # combinatorially; the search must stay bounded AND deterministic,
    # keeping its greedy-seeded best when the node budget trips.
    import time

    cases = [
        (["a", "b"] * 25, ["b", "a"] * 25),
        (["x"] * 50, ["x"] * 25),
        (["a", "b", "c"] * 16, ["c", "b", "a"] * 16),
        (["a"] * 25 + ["b"] * 25, ["b"] * 25 + ["a"] * 25),
    ]
    for hyp, ref in cases:
        start = time.perf_counter()
        first = meteor(hyp, ref)
        assert time.perf_counter() - start < 5.0
        assert meteor(hyp, ref) == first  # deterministic
        assert 0.0 <= first <= 1.0


def test_meteor_alignment_known_optima():
    from coracmg.metrics import _align

    assert _align(["x"] * 50, ["x"] * 50) == (50, 1)
    assert _align(["a", "b"] * 25, ["b", "a"] * 25) == (50, 2)
    assert _align(["a"] * 25 + ["b"] * 25, ["b"] * 25 + ["a"] * 25) == (50, 2)
    shifted = [f"t{i}" for i in range(50)]
    assert _align(shifted, shifted[1:] + shifted[:1]) == (50, 2)


def test_meteor_chunk_bound_reaches_optimum_in_small_budget(monkeypatch):
    # Three blocks swapped around, with repeated "_", "from" and "(": 1,152
    # maximum alignments.  Pruning on chunks alone stops at 6 chunks after
    # 1,000 nodes; the bound on the chunks still needed proves 3.
    from coracmg import metrics

    hyp = (
        "os . walk ( ) and wrap from gc . collect ( ) base _ url base _ url "
        "from cache _ ttl from cursor of"
    ).split()
    ref = (
        "base _ url base _ url from cache _ ttl from cursor of from gc . "
        "collect ( ) os . walk ( ) and wrap"
    ).split()
    monkeypatch.setattr(metrics, "_ALIGN_BUDGET", 1_000)
    assert metrics._align(hyp, ref) == (26, 3)
    assert meteor(hyp, ref) == pytest.approx(oracle_meteor(hyp, ref), abs=1e-9)


def test_meteor_chunk_bound_is_admissible_under_dense_repetition():
    # Short sequences over two or three tokens repeat bigrams the most, which
    # is where a bound that overcounts the chunks still needed would prune
    # the optimum.
    rng = random.Random(2025)
    for _ in range(2000):
        alphabet = rng.choice(("ab", "abc"))
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(1, 9))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 9))]
        assert meteor(hyp, ref) == pytest.approx(oracle_meteor(hyp, ref), abs=1e-9)


def test_cider_idf_scale_invariance():
    rng = random.Random(5)
    refs = [[rng.choice(ALPHABET) for _ in range(6)] for _ in range(20)]
    table = build_idf(refs)
    scaled = IdfTable(
        weights={g: 3.7 * w for g, w in table.weights.items()},
        doc_count=table.doc_count,
    )
    # doc_count drives the default for unseen grams; scale those too by
    # querying only grams present in both tables.
    for _ in range(40):
        hyp = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 8))]
        ref = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 8))]
        a = cider(hyp, ref, table)
        b = cider(hyp, ref, scaled)
        if all(
            tuple(hyp[i : i + n]) in table.weights
            for n in range(1, 5)
            for i in range(len(hyp) - n + 1)
        ) and all(
            tuple(ref[i : i + n]) in table.weights
            for n in range(1, 5)
            for i in range(len(ref) - n + 1)
        ):
            assert a == pytest.approx(b, abs=1e-9)


def test_evaluate_corpus():
    pairs = [
        ("Fix NPE in HttpClient", "Fix NPE in HttpClient"),
        ("add retry logic to cache", "add retry logic for the cache layer"),
        ("update docs", "rework the build scripts completely"),
    ]
    report = evaluate_corpus(pairs)
    assert len(report.per_sample) == 3
    assert report.per_sample[0].bleu == pytest.approx(100.0, abs=1e-9)
    assert report.per_sample[0].rouge_l == pytest.approx(100.0, abs=1e-9)
    assert report.bleu == pytest.approx(
        sum(s.bleu for s in report.per_sample) / 3, abs=1e-12
    )
    payload = report.to_dict()
    assert set(payload) == {"bleu", "rouge_l", "meteor", "cider", "per_sample"}
    with pytest.raises(EmptyCorpus):
        evaluate_corpus([])


def test_empty_hypothesis_scores_zero_not_error():
    report = evaluate_corpus([("", "real reference message here")])
    sample = report.per_sample[0]
    assert (sample.bleu, sample.rouge_l, sample.meteor, sample.cider) == (0, 0, 0, 0)

"""ROUGE fixtures and oracle equivalence.

The oracles are deliberately naive: multiset intersection for n-grams, and
exhaustive subsequence enumeration or the dynamic program for the LCS.
"""

import itertools
import random
from collections import Counter

import pytest

from briosum.rouge import RougeScore, RougeTriple, quality_score, rouge_l, rouge_n, score_pair
from helpers import dp_lcs_length


def naive_rouge_n_overlap(cand, ref, n):
    cand_grams = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
    ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    return sum(min(c, ref_grams[g]) for g, c in cand_grams.items())


def exhaustive_lcs(a, b):
    """Longest common subsequence by enumerating all subsequences of a."""
    best = 0
    for r in range(len(a), 0, -1):
        for picks in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in picks]
            it = iter(b)
            if all(x in it for x in sub):
                return r
    return best


# -- hand-derived fixtures ----------------------------------------------------


def test_rouge1_identical():
    score = rouge_n("the cat sat".split(), "the cat sat".split(), 1)
    assert score.f1 == pytest.approx(1.0, abs=1e-12)


def test_rouge1_partial_overlap_four_sevenths():
    score = rouge_n("the cat sat".split(), "the cat was sad".split(), 1)
    assert score.precision == pytest.approx(2 / 3, abs=1e-12)
    assert score.recall == pytest.approx(1 / 2, abs=1e-12)
    assert score.f1 == pytest.approx(4 / 7, abs=1e-12)


def test_rouge2_one_third():
    score = rouge_n("a b c d".split(), "a b x d".split(), 2)
    assert score.precision == pytest.approx(1 / 3, abs=1e-12)
    assert score.recall == pytest.approx(1 / 3, abs=1e-12)
    assert score.f1 == pytest.approx(1 / 3, abs=1e-12)


def test_rouge_l_identical_and_disjoint():
    tokens = list("abcde")
    assert rouge_l(tokens, tokens).f1 == pytest.approx(1.0, abs=1e-12)
    assert rouge_l(["x", "y"], ["a", "b"]).f1 == 0.0


def test_rouge_l_transposition():
    score = rouge_l("a b c d".split(), "a c b d".split())
    assert score.precision == pytest.approx(3 / 4, abs=1e-12)
    assert score.recall == pytest.approx(3 / 4, abs=1e-12)
    assert score.f1 == pytest.approx(0.75, abs=1e-12)


def test_empty_inputs_are_zero():
    assert rouge_n([], ["a"], 1) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_n(["a"], [], 1) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_l([], []) == RougeScore(0.0, 0.0, 0.0)
    assert rouge_n(["a"], ["a"], 2) == RougeScore(0.0, 0.0, 0.0)


def test_clipped_counts_block_repetition_inflation():
    score = rouge_n(["the"] * 10, ["the", "cat"], 1)
    assert score.precision == pytest.approx(0.1, abs=1e-12)
    assert score.recall == pytest.approx(0.5, abs=1e-12)


def test_rouge_n_rejects_bad_n():
    with pytest.raises(ValueError):
        rouge_n(["a"], ["a"], 0)


def test_quality_score_fixtures():
    def triple(f1s):
        return RougeTriple(*(RougeScore(0.0, 0.0, f) for f in f1s))

    assert quality_score(triple((0.6, 0.3, 0.3))) == pytest.approx(0.4, abs=1e-12)
    assert quality_score(triple((1.0, 1.0, 1.0))) == pytest.approx(1.0, abs=1e-12)
    assert quality_score(triple((4 / 7, 0.0, 4 / 7))) == pytest.approx(8 / 21, abs=1e-12)


def test_quality_score_strictly_monotone():
    rng = random.Random(0)
    for _ in range(100):
        f1s = [rng.random() for _ in range(3)]
        base = quality_score(RougeTriple(*(RougeScore(0, 0, f) for f in f1s)))
        bumped = list(f1s)
        bumped[rng.randrange(3)] += 0.05
        higher = quality_score(RougeTriple(*(RougeScore(0, 0, f) for f in bumped)))
        assert higher > base


# -- oracle equivalence and bounds ----------------------------------------------


def random_pair(rng, max_len=8, alphabet=3):
    def seq():
        return [rng.randrange(alphabet) for _ in range(rng.randint(0, max_len))]

    return seq(), seq()


def test_rouge_n_matches_naive_counting_oracle():
    rng = random.Random(123)
    for _ in range(500):
        cand, ref = random_pair(rng)
        for n in (1, 2, 3):
            got = rouge_n(cand, ref, n)
            cand_total = max(len(cand) - n + 1, 0)
            ref_total = max(len(ref) - n + 1, 0)
            if cand_total == 0 or ref_total == 0:
                assert got == RougeScore(0.0, 0.0, 0.0)
                continue
            overlap = naive_rouge_n_overlap(cand, ref, n)
            assert got.precision == pytest.approx(overlap / cand_total, abs=1e-15)
            assert got.recall == pytest.approx(overlap / ref_total, abs=1e-15)


def test_rouge_l_matches_exhaustive_oracle():
    rng = random.Random(321)
    for _ in range(300):
        cand, ref = random_pair(rng)
        got = rouge_l(cand, ref)
        if not cand or not ref:
            assert got == RougeScore(0.0, 0.0, 0.0)
            continue
        lcs = exhaustive_lcs(cand, ref)
        assert got.precision == pytest.approx(lcs / len(cand), abs=1e-15)
        assert got.recall == pytest.approx(lcs / len(ref), abs=1e-15)


def test_scores_bounded_fuzz():
    rng = random.Random(77)
    for _ in range(300):
        cand, ref = random_pair(rng, max_len=12, alphabet=4)
        triple = score_pair(cand, ref)
        for score in (triple.rouge1, triple.rouge2, triple.rougeL):
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0
        assert 0.0 <= quality_score(triple) <= 1.0


def test_self_similarity_is_one():
    rng = random.Random(5)
    for _ in range(50):
        seq = [rng.randrange(5) for _ in range(rng.randint(1, 10))]
        for n in (1, 2):
            if len(seq) >= n:
                assert rouge_n(seq, seq, n).f1 == pytest.approx(1.0, abs=1e-12)


def reference_score(overlap, cand_total, ref_total):
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    p, r = overlap / cand_total, overlap / ref_total
    return RougeScore(p, r, 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r))


def test_kernels_equal_dp_and_counting_references_on_random_pairs():
    """20k pairs up to 130 tokens (past one 64-bit word), alphabets of 1 to
    50, int and str tokens, list and tuple inputs: every score is == the
    score built from the references' integers."""
    rng = random.Random(2024)
    for i in range(20_000):
        max_len = rng.choice((3, 10, 10, 30, 30, 70, 130))
        alphabet = rng.randint(1, 50)
        words = [f"w{k}" for k in range(alphabet)] if i % 2 else list(range(alphabet))
        pair = [[rng.choice(words) for _ in range(rng.randint(0, max_len))] for _ in range(2)]
        cand, ref = (tuple(seq) for seq in pair) if i % 4 >= 2 else pair
        for n in (1, 2, 3):
            want = reference_score(
                naive_rouge_n_overlap(cand, ref, n),
                max(len(cand) - n + 1, 0),
                max(len(ref) - n + 1, 0),
            )
            assert rouge_n(cand, ref, n) == want, (cand, ref, n)
        want_l = reference_score(dp_lcs_length(cand, ref), len(cand), len(ref))
        assert rouge_l(cand, ref) == want_l, (cand, ref)
        assert score_pair(cand, ref) == RougeTriple(
            rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), want_l
        ), (cand, ref)

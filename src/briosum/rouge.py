"""ROUGE-1 / ROUGE-2 / ROUGE-L and the scalar quality score for ranking.

All scores operate on token sequences (any hashable items) and report F1;
the quality score is the arithmetic mean of the three F1 values. Both
overlaps are exact integer kernels. ROUGE-n clips n-gram counts: each
candidate n-gram spends one credit of its count in the reference, in
O(|c| + |r|) dict operations. ROUGE-L is the longest common subsequence,
computed bit-parallel (Allison and Dix 1986; Hyyro 2004): bit j of ``v`` is
set while reference position j is unmatched, and each candidate token costs
five operations on an |r|-bit int, O(|c| * ceil(|r| / 64)) word operations
where the dynamic program takes O(|c| * |r|) Python steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class RougeTriple:
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


def _score(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    if cand_total == 0 or ref_total == 0:
        return RougeScore(0.0, 0.0, 0.0)
    precision = overlap / cand_total
    recall = overlap / ref_total
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return RougeScore(precision, recall, f1)


def _grams(tokens: Sequence[Hashable], n: int) -> Iterable[Hashable]:
    # Unigrams and bigrams, all that score_pair asks for, build no comprehension.
    if n == 1:
        return tokens
    if n == 2:
        return zip(tokens, tokens[1:])
    return zip(*[tokens[i:] for i in range(n)])


def rouge_n(candidate: Sequence[Hashable], reference: Sequence[Hashable], n: int) -> RougeScore:
    """Clipped n-gram overlap between candidate and reference."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    credits: dict = {}
    for gram in _grams(reference, n):
        credits[gram] = credits.get(gram, 0) + 1
    overlap = 0
    for gram in _grams(candidate, n):
        left = credits.get(gram)
        if left:
            credits[gram] = left - 1
            overlap += 1
    return _score(overlap, max(len(candidate) - n + 1, 0), max(len(reference) - n + 1, 0))


def rouge_l(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> RougeScore:
    """Longest-common-subsequence overlap over the full sequences."""
    masks: dict = {}
    for j, token in enumerate(reference):
        masks[token] = masks.get(token, 0) | (1 << j)
    v = full = (1 << len(reference)) - 1
    for token in candidate:
        m = masks.get(token)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return _score(len(reference) - v.bit_count(), len(candidate), len(reference))


def score_pair(candidate: Sequence[Hashable], reference: Sequence[Hashable]) -> RougeTriple:
    """The full ROUGE-1/2/L bundle for one candidate-reference pair."""
    return RougeTriple(
        rouge_n(candidate, reference, 1), rouge_n(candidate, reference, 2), rouge_l(candidate, reference)
    )


def quality_score(triple: RougeTriple) -> float:
    """Arithmetic mean of the ROUGE-1, ROUGE-2 and ROUGE-L F1 values."""
    return (triple.rouge1.f1 + triple.rouge2.f1 + triple.rougeL.f1) / 3.0

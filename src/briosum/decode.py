"""Autoregressive decoding: greedy, beam search, and diverse beam search.

Diverse beam search splits the beam into groups decoded sequentially at
each timestep; a token's log-prob in group g is reduced by
``diversity_penalty`` times the number of times groups 0..g-1 already chose
that token at the same timestep (Hamming diversity). Beam search is the
single-group special case, and greedy is a single beam.

Each step scores the active hypotheses of all groups in one scorer call.
The model scorer decodes incrementally. It starts one ``DecoderCache`` per
source, as the teacher-forced passes do, so the encoder output and the
cross-attention keys and values are computed once; each step runs the
decoder on one new position against the cached self-attention keys and
values of the previous step's prefixes.

All searches are deterministic: score ties break toward the lower token id,
then the earlier hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import BOS_ID, EOS_ID
from .model import DecoderCache, ModelParams, decoder_logprobs

Scorer = Callable[[Sequence[tuple[int, ...]]], np.ndarray]


class DecodeConfigError(ValueError):
    """Raised when a decoding configuration violates its invariants."""


@dataclass(frozen=True)
class DecodeConfig:
    num_beams: int = 6
    num_beam_groups: int = 6
    diversity_penalty: float = 1.0
    max_decode_len: int = 32
    length_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise DecodeConfigError(f"num_beams must be >= 1, got {self.num_beams}")
        if self.num_beam_groups < 1:
            raise DecodeConfigError(
                f"num_beam_groups must be >= 1, got {self.num_beam_groups}"
            )
        if self.num_beam_groups > self.num_beams:
            raise DecodeConfigError(
                f"num_beam_groups ({self.num_beam_groups}) cannot exceed "
                f"num_beams ({self.num_beams})"
            )
        if self.num_beams % self.num_beam_groups != 0:
            raise DecodeConfigError(
                f"num_beams ({self.num_beams}) must be divisible by "
                f"num_beam_groups ({self.num_beam_groups})"
            )
        if not 0.0 <= self.diversity_penalty < np.inf:
            raise DecodeConfigError(
                f"diversity_penalty must be finite and >= 0, got {self.diversity_penalty}"
            )
        if self.max_decode_len < 2:
            raise DecodeConfigError(f"max_decode_len must be >= 2, got {self.max_decode_len}")
        if not 0.0 <= self.length_penalty < np.inf:
            raise DecodeConfigError(
                f"length_penalty must be finite and >= 0, got {self.length_penalty}"
            )


@dataclass(frozen=True)
class Hypothesis:
    """A BOS-prefixed candidate with its cumulative (possibly diversity-
    penalized) log-prob; ``finished`` means EOS was emitted."""

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool

    def scored_length(self) -> int:
        return len(self.tokens) - 1

    def score(self, length_penalty: float) -> float:
        return self.log_prob / (self.scored_length() ** length_penalty)


def make_scorer(params: ModelParams, source_ids: Sequence[int]) -> Scorer:
    """Next-token log-prob function that decodes incrementally.

    The returned callable maps a batch of equal-length BOS-prefixed
    prefixes to a (batch, vocab) array of next-token log-probs. The source's
    ``DecoderCache`` is started once, here. The scorer keeps the
    self-attention K/V of the prefixes of its previous call, keyed by
    prefix: when every prefix extends one of them by a token, the decoder
    runs that one new position; otherwise the batch runs its whole length
    from an empty cache. Only the previous call's rows are held.
    """
    with ad.no_grad():
        start = DecoderCache.start(params, np.asarray([source_ids], dtype=np.int64))
    held, held_rows = start, {}

    def step(prefixes: Sequence[tuple[int, ...]]) -> np.ndarray:
        nonlocal held, held_rows
        tgt = np.asarray(prefixes, dtype=np.int64)
        parents = [held_rows.get(p[:-1]) for p in prefixes]
        cache = start
        if None not in parents:
            cache, tgt = held.rows(parents), tgt[:, -1:]
        with ad.no_grad():
            table, held = decoder_logprobs(params, cache, tgt)
        held_rows = {p: i for i, p in enumerate(prefixes)}
        return table.data[:, -1, :]

    return step


def _check_budget(params: ModelParams, config: DecodeConfig) -> None:
    if config.max_decode_len > params.config.max_target_len:
        raise DecodeConfigError(
            f"max_decode_len ({config.max_decode_len}) exceeds the model's "
            f"max_target_len ({params.config.max_target_len})"
        )


def group_beam_search(
    scorer: Scorer, vocab_size: int, config: DecodeConfig
) -> list[Hypothesis]:
    """Run grouped beam search against a next-token scorer.

    Returns hypotheses group by group (group 0 first), each group sorted by
    length-penalized score descending. Finished slots are not refilled, so
    each group contributes at most ``num_beams / num_beam_groups``
    hypotheses (exactly that many when the vocabulary is wide enough).
    """
    width = config.num_beams // config.num_beam_groups
    active: list[list[Hypothesis]] = [
        [Hypothesis((BOS_ID,), 0.0, False)] for _ in range(config.num_beam_groups)
    ]
    done: list[list[Hypothesis]] = [[] for _ in range(config.num_beam_groups)]

    for _ in range(config.max_decode_len - 1):
        if not any(active):
            break
        # One scorer call for every group: log-probs depend only on the
        # prefixes, and the diversity penalty is applied per group below.
        stacked = scorer([h.tokens for group in active for h in group])
        chosen_counts = np.zeros(vocab_size)
        row = 0
        for g in range(config.num_beam_groups):
            if not active[g]:
                continue
            logps = stacked[row : row + len(active[g])]
            row += len(active[g])
            if config.diversity_penalty != 0.0:
                logps = logps - config.diversity_penalty * chosen_counts
            budget = width - len(done[g])
            # Token-major, so flat index order is (token, hypothesis): the
            # first maximum and a stable sort on the negated sums both break
            # ties toward the lower token id, then the earlier hypothesis.
            sums = (np.array([h.log_prob for h in active[g]])[:, None] + logps).T.ravel()
            if budget == 1:
                picked = [int(np.argmax(sums))]
            else:
                kept = np.arange(sums.size)
                if budget < sums.size:
                    cutoff = np.partition(sums, sums.size - budget)[sums.size - budget]
                    kept = np.flatnonzero(sums >= cutoff)
                picked = kept[np.argsort(-sums[kept], kind="stable")][:budget]
            next_active: list[Hypothesis] = []
            for k in picked:
                token, i = divmod(int(k), len(active[g]))
                hyp = Hypothesis(
                    tokens=active[g][i].tokens + (token,),
                    log_prob=float(sums[k]),
                    finished=token == EOS_ID,
                )
                chosen_counts[token] += 1.0
                if hyp.finished or len(hyp.tokens) >= config.max_decode_len:
                    done[g].append(hyp)
                else:
                    next_active.append(hyp)
            active[g] = next_active

    results: list[Hypothesis] = []
    for g in range(config.num_beam_groups):
        results.extend(sorted(done[g] + active[g], key=lambda h: -h.score(config.length_penalty)))
    return results


def _search(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> list[Hypothesis]:
    _check_budget(params, config)
    return group_beam_search(make_scorer(params, source_ids), params.config.vocab_size, config)


def greedy_decode(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> Hypothesis:
    """The one hypothesis of a one-beam, one-group search: each step appends
    the most probable token (ties go to the lowest id)."""
    return _search(params, source_ids, replace(config, num_beams=1, num_beam_groups=1))[0]


def beam_search(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> list[Hypothesis]:
    """Standard beam search; requires a single beam group."""
    if config.num_beam_groups != 1:
        raise DecodeConfigError(
            f"beam_search requires num_beam_groups == 1, got {config.num_beam_groups}"
        )
    return _search(params, source_ids, config)


def diverse_beam_search(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> list[Hypothesis]:
    """Grouped beam search with the Hamming diversity penalty, group-ordered."""
    return _search(params, source_ids, config)

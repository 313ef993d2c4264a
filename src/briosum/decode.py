"""Autoregressive decoding: greedy, beam search, and diverse beam search.

Diverse beam search splits the beam into groups decoded sequentially at
each timestep; a token's log-prob in group g is reduced by
``diversity_penalty`` times the number of times groups 0..g-1 already chose
that token at the same timestep (Hamming diversity). Beam search is the
single-group special case, and greedy is a single beam.

Several documents share one search: each step scores the active
hypotheses of all groups of all its documents in one scorer call, and a
finished document has no rows in later steps. Documents are searched in
chunks of about ``_ROWS_PER_STEP`` hypotheses. The per-document functions
(``greedy_decode``, ``beam_search``, ``diverse_beam_search``) are the
one-document case.

The model scorer decodes incrementally. It starts one ``DecoderCache`` over
the chunk's padded sources, as the teacher-forced passes do, so the encoder
output and the cross-attention keys and values are computed once; each step
runs the decoder on one new position against the cached self-attention keys
and values of the previous step's prefixes.

All searches are deterministic: score ties break toward the lower token id,
then the earlier hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import BOS_ID, EOS_ID
from .model import DecoderCache, ModelParams, decoder_logprobs, pad_ids

# Next-token log-prob rows, (batch, vocab), for a batch of prefixes ...
Scorer = Callable[[Sequence[tuple[int, ...]]], np.ndarray]
# ... or for a batch of (document index, prefix) keys.
DocumentScorer = Callable[[Sequence[tuple[int, tuple[int, ...]]]], np.ndarray]

# Hypotheses per step that a chunk of documents fills at the start of its
# search: 10 documents at 6 beams, 60 greedy ones. A step's time per row
# falls steeply up to about this many rows and little beyond it, while the
# chunk's encoder output and per-row cross-attention K/V grow with it.
_ROWS_PER_STEP = 60


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
    """The one-document ``make_document_scorer``, called with prefixes."""
    score = make_document_scorer(params, [source_ids])
    return lambda prefixes: score([(0, prefix) for prefix in prefixes])


def make_document_scorer(params: ModelParams, sources: Sequence[Sequence[int]]) -> DocumentScorer:
    """Next-token log-prob function over several sources that decodes incrementally.

    The returned callable maps a batch of (document, prefix) keys, whose
    BOS-prefixed prefixes are of equal length, to a (batch, vocab) array of
    next-token log-probs given ``sources[document]``. One ``DecoderCache``
    over the padded sources is started once, here. The scorer keeps the
    self-attention K/V of the keys of its previous call: when every key
    extends one of them by a token, the decoder runs that one new position;
    otherwise the batch runs its whole length from an empty cache. Only the
    previous call's rows are held.
    """
    with ad.no_grad():
        start = DecoderCache.start(params, pad_ids(sources))
    held, held_rows = start, {}

    def step(keys: Sequence[tuple[int, tuple[int, ...]]]) -> np.ndarray:
        nonlocal held, held_rows
        tgt = np.asarray([prefix for _, prefix in keys], dtype=np.int64)
        parents = [held_rows.get((doc, prefix[:-1])) for doc, prefix in keys]
        if None in parents:
            cache = start.reading([doc for doc, _ in keys])
        else:
            cache, tgt = held.rows(parents), tgt[:, -1:]
        with ad.no_grad():
            table, held = decoder_logprobs(params, cache, tgt)
        held_rows = {key: i for i, key in enumerate(keys)}
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
    """The one-document ``group_beam_searches``, with a scorer of prefixes."""
    return group_beam_searches(lambda keys: scorer([prefix for _, prefix in keys]), vocab_size, config, 1)[0]


def group_beam_searches(
    scorer: DocumentScorer, vocab_size: int, config: DecodeConfig, documents: int
) -> list[list[Hypothesis]]:
    """Run grouped beam search of ``documents`` documents against one scorer.

    Returns each document's hypotheses group by group (group 0 first), each
    group sorted by length-penalized score descending. Finished slots are
    not refilled, so each group contributes at most ``num_beams /
    num_beam_groups`` hypotheses (exactly that many when the vocabulary is
    wide enough). A document's search does not depend on the others': they
    only share each step's scorer call.
    """
    groups = range(config.num_beam_groups)
    active = [[[Hypothesis((BOS_ID,), 0.0, False)] for _ in groups] for _ in range(documents)]
    done: list[list[list[Hypothesis]]] = [[[] for _ in groups] for _ in range(documents)]

    for _ in range(config.max_decode_len - 1):
        # One scorer call for every group of every document: log-probs depend
        # only on the prefixes, and the diversity penalty is applied per
        # group, within a document.
        keys = [(d, h.tokens) for d in range(documents) for group in active[d] for h in group]
        if not keys:
            break
        stacked = scorer(keys)
        row = 0
        for d in range(documents):
            rows = sum(map(len, active[d]))
            if rows:
                _extend_groups(active[d], done[d], stacked[row : row + rows], vocab_size, config)
                row += rows

    ranked = lambda hyps: sorted(hyps, key=lambda h: -h.score(config.length_penalty))  # noqa: E731
    return [[h for g in groups for h in ranked(done[d][g] + active[d][g])] for d in range(documents)]


def _extend_groups(
    active: list[list[Hypothesis]],
    done: list[list[Hypothesis]],
    stacked: np.ndarray,
    vocab_size: int,
    config: DecodeConfig,
) -> None:
    """One step of one document's groups, in place: ``stacked`` holds the
    next-token log-probs of its active hypotheses, group after group."""
    width = config.num_beams // config.num_beam_groups
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


def diverse_beam_searches(
    params: ModelParams, sources: Sequence[Sequence[int]], config: DecodeConfig
) -> list[list[Hypothesis]]:
    """``diverse_beam_search`` of each source, in order; chunks of documents
    (``_ROWS_PER_STEP``) share each step's decoder call."""
    _check_budget(params, config)
    size = max(1, _ROWS_PER_STEP // config.num_beams)
    results: list[list[Hypothesis]] = []
    for first in range(0, len(sources), size):
        chunk = sources[first : first + size]
        scorer = make_document_scorer(params, chunk)
        results += group_beam_searches(scorer, params.config.vocab_size, config, len(chunk))
    return results


def greedy_decodes(
    params: ModelParams, sources: Sequence[Sequence[int]], config: DecodeConfig
) -> list[Hypothesis]:
    """``greedy_decode`` of each source, in order, searched as ``diverse_beam_searches`` does."""
    greedy = replace(config, num_beams=1, num_beam_groups=1)
    return [hyps[0] for hyps in diverse_beam_searches(params, sources, greedy)]


def greedy_decode(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> Hypothesis:
    """The one hypothesis of a one-beam, one-group search: each step appends
    the most probable token (ties go to the lowest id)."""
    return greedy_decodes(params, [source_ids], config)[0]


def beam_search(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> list[Hypothesis]:
    """Standard beam search; requires a single beam group."""
    if config.num_beam_groups != 1:
        raise DecodeConfigError(
            f"beam_search requires num_beam_groups == 1, got {config.num_beam_groups}"
        )
    return diverse_beam_searches(params, [source_ids], config)[0]


def diverse_beam_search(
    params: ModelParams, source_ids: Sequence[int], config: DecodeConfig
) -> list[Hypothesis]:
    """Grouped beam search with the Hamming diversity penalty, group-ordered."""
    return diverse_beam_searches(params, [source_ids], config)[0]

"""Contrastive candidate-ranking training (the BRIO paradigm) and its loop.

One model plays two roles. As generator it is trained with MLE on the
reference summary. As evaluator it assigns each generated candidate summary
(candsum) a length-penalized sequence log-prob, and a pairwise hinge loss
pushes those scores to follow the candidates' ROUGE quality order. The loop
regenerates candidates with the freshly trained model and trains again.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import mmap
import os
import random
import signal
import struct
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS_ID, UNK_ID, TokenizedExample, Vocabulary, decode_tokens, strip_special_ids
from .decode import DecodeConfig, Hypothesis, diverse_beam_search, diverse_beam_searches, greedy_decodes
from .model import (
    DecoderCache,
    ModelParams,
    candidate_scores,
    check_candidates,
    decoder_logprobs,
    mle_loss,
    pad_ids,
    score_rows,
    teacher_forcing,
)
from .optim import OptimizerState, init_optimizer, optimizer_step, warmup_schedule
from .rouge import RougeScore, RougeTriple, quality_score, score_pair

logger = logging.getLogger(__name__)

CANDIDATE_CACHE_KIND = "candidate_cache"
# Version 1, the unversioned layout, stored only the F1 of each ROUGE variant.
CANDIDATE_CACHE_FORMAT_VERSION = 2


@dataclass
class CandSum:
    """One system-generated candidate summary for a document."""

    doc_id: str
    token_ids: tuple[int, ...]
    text: str
    model_score: float
    rouge: RougeTriple
    quality: float


@dataclass
class RankedCandidateSet:
    """Candidates for one document, sorted by quality descending.

    Ties break toward the higher model score, then the original generation
    order (stable).
    """

    doc_id: str
    source_ids: list[int]
    reference_ids: list[int]
    candidates: list[CandSum]


@dataclass(frozen=True)
class BrioConfig:
    num_candidates: int = 6
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    margin: float = 0.001
    length_penalty: float = 1.0
    ctr_weight: float = 10.0
    mle_weight: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 1
    batch_size: int = 4
    loop_iterations: int = 2

    def __post_init__(self) -> None:
        if self.num_candidates < 2:
            raise ValueError(f"num_candidates must be >= 2, got {self.num_candidates}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_candidates > self.decode.num_beams:
            raise ValueError(
                f"num_candidates ({self.num_candidates}) cannot exceed "
                f"decode.num_beams ({self.decode.num_beams})"
            )
        for name in ("margin", "length_penalty", "ctr_weight", "mle_weight"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"BrioConfig.{name} must be finite and >= 0, got {value}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loop_iterations < 0:
            raise ValueError(f"loop_iterations must be >= 0, got {self.loop_iterations}")


@dataclass(frozen=True)
class FinetuneConfig:
    """Plain MLE fine-tuning hyperparameters."""

    batch_size: int = 4
    epochs: int = 5
    learning_rate: float = 1e-5
    warmup_steps: int = 20000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


class NonFiniteError(FloatingPointError):
    """Training produced a non-finite loss or parameter."""


def _checked_step(
    params: ModelParams, optimizer: OptimizerState, learning_rate: float, loss: float, epoch: int
) -> None:
    """One optimizer step, refused on a non-finite ``loss`` and checked for
    non-finite parameters after it; a failure names the epoch and step."""
    where = f"epoch {epoch}, step {optimizer.step + 1}"
    if not math.isfinite(loss):
        raise NonFiniteError(f"non-finite training loss {loss} at {where}")
    optimizer_step(params, optimizer, learning_rate)
    if not params.all_finite():
        raise NonFiniteError(f"non-finite parameters after the update at {where}")


# -- candidate generation ----------------------------------------------------


def _rouge_units(ids: Sequence[int]) -> list:
    """What ROUGE compares for a token sequence: its content ids, with each
    ``<unk>`` a fresh object equal to nothing, so unknown words never match."""
    return [object() if token_id == UNK_ID else token_id for token_id in strip_special_ids(ids)]


def generate_candidates(
    params: ModelParams,
    example: TokenizedExample,
    config: BrioConfig,
    vocab: Vocabulary,
) -> RankedCandidateSet:
    """Generate, score, and quality-rank up to ``num_candidates`` candsums.

    Diverse beam search proposes hypotheses; exact-duplicate token sequences
    are dropped (keeping the best-scored instance) before truncation, with
    later hypotheses backfilling the freed slots.
    """
    return _rank_candidates(
        params, example, diverse_beam_search(params, example.source_ids, config.decode), config, vocab
    )


def generate_candidate_sets(
    params: ModelParams,
    examples: Sequence[TokenizedExample],
    config: BrioConfig,
    vocab: Vocabulary,
) -> list[RankedCandidateSet]:
    """``generate_candidates`` for each example, in order, with the
    documents' searches batched by ``diverse_beam_searches``."""
    hyp_lists = diverse_beam_searches(params, [ex.source_ids for ex in examples], config.decode)
    return [_rank_candidates(params, ex, hyps, config, vocab) for ex, hyps in zip(examples, hyp_lists)]


def _rank_candidates(
    params: ModelParams,
    example: TokenizedExample,
    hyps: list[Hypothesis],
    config: BrioConfig,
    vocab: Vocabulary,
) -> RankedCandidateSet:
    """The candidate set that ``generate_candidates`` makes from a document's search ``hyps``."""
    if not hyps:
        raise RuntimeError(f"decoder produced no hypotheses for doc '{example.doc_id}'")

    ranked_hyps = sorted(
        range(len(hyps)), key=lambda i: (-hyps[i].score(config.decode.length_penalty), i)
    )
    unique: dict[tuple[int, ...], float] = {}  # candidate -> its search's model log-prob
    for i in ranked_hyps:
        # Length-capped hypotheses get a closing EOS so every candidate is a
        # complete, scoreable summary; dedup runs on the closed form.
        tokens = hyps[i].tokens
        if not hyps[i].finished:
            tokens = tokens + (EOS_ID,)
        unique.setdefault(tokens, hyps[i].model_log_prob)
        if len(unique) >= config.num_candidates:
            break

    # candidate_scores's arithmetic, on the sums the search made as it decoded.
    check_candidates(params.config, list(unique))
    lengths = np.array([len(tokens) - 1 for tokens in unique], dtype=np.float64)
    scores = np.array(list(unique.values())) * lengths**-config.length_penalty

    reference = _rouge_units(example.target_ids)
    cands: list[CandSum] = []
    for tokens, model_score in zip(unique, scores):
        triple = score_pair(_rouge_units(tokens), reference)
        cands.append(
            CandSum(
                doc_id=example.doc_id,
                token_ids=tokens,
                text=decode_tokens(tokens, vocab),
                model_score=float(model_score),
                rouge=triple,
                quality=quality_score(triple),
            )
        )
    order = sorted(
        range(len(cands)),
        key=lambda i: (-cands[i].quality, -cands[i].model_score, i),
    )
    return RankedCandidateSet(
        doc_id=example.doc_id,
        source_ids=list(example.source_ids),
        reference_ids=list(example.target_ids),
        candidates=[cands[i] for i in order],
    )


# -- losses -------------------------------------------------------------------


def contrastive_loss(
    ranked: RankedCandidateSet, model_scores: Sequence[float], margin: float
) -> float:
    """Pairwise margin ranking loss over quality-ordered candidates.

    ``model_scores[i]`` belongs to ``ranked.candidates[i]`` (quality
    descending); each pair i < j contributes max(0, s_j - s_i + (j-i)*margin).
    """
    if len(model_scores) != len(ranked.candidates):
        raise ValueError(
            f"got {len(model_scores)} scores for {len(ranked.candidates)} candidates"
        )
    return float(ad.pairwise_hinge(np.asarray(model_scores, dtype=np.float64), margin)[0])


def _brio_terms(
    params: ModelParams, ranked_sets: Sequence[RankedCandidateSet], config: BrioConfig
) -> tuple[Tensor, list[tuple[float, float, float]]]:
    """The graph of the documents' summed weighted losses, and each one's
    values of its loss, MLE term and ranking term.

    One decoder pass scores each document's gold summary as its row 0 and
    its candidates as rows 1..N; row 0 alone when the ranking term is off.
    """
    row_sets = []
    for ranked in ranked_sets:
        rows = [ranked.reference_ids]
        if config.ctr_weight > 0.0 and len(ranked.candidates) >= 2:
            rows += [list(c.token_ids) for c in ranked.candidates]
        row_sets.append(rows)
    sums, lengths = score_rows(params, [ranked.source_ids for ranked in ranked_sets], row_sets)
    return ad.brio_objective(
        sums, lengths, config.mle_weight, config.ctr_weight, config.margin, config.length_penalty
    )


def brio_loss(
    params: ModelParams, ranked: RankedCandidateSet, config: BrioConfig
) -> Tensor:
    """Weighted sum of the generator MLE term and the evaluator ranking term.

    Both terms come from one encoder and one decoder pass and backpropagate
    into the same parameters. Candidate sets with fewer than two members
    contribute the MLE term only.
    """
    return _brio_terms(params, [ranked], config)[0]


# -- training stages ----------------------------------------------------------


def _epoch_order(n: int, seed: int, epoch: int) -> list[int]:
    order = list(range(n))
    random.Random(seed * 100003 + epoch).shuffle(order)
    return order


def batch_indices(order: Sequence[int], batch_size: int) -> list[list[int]]:
    """Contiguous batches; the final batch holds the remainder."""
    return [list(order[i : i + batch_size]) for i in range(0, len(order), batch_size)]


def evaluate(
    params: ModelParams,
    examples: Sequence[TokenizedExample],
    decode_config: DecodeConfig,
) -> tuple[list[tuple[str, RougeTriple]], dict[str, float]]:
    """Greedy-decode every document and score against its reference.

    Returns per-document ROUGE triples and the corpus means as F1
    percentages (the arithmetic mean of the per-document F1s).
    """
    if not examples:
        raise ValueError("cannot evaluate an empty split")
    hyps = greedy_decodes(params, [ex.source_ids for ex in examples], decode_config)
    per_doc = [
        (ex.doc_id, score_pair(_rouge_units(hyp.tokens), _rouge_units(ex.target_ids)))
        for ex, hyp in zip(examples, hyps)
    ]
    n = len(per_doc)
    means = {
        "r1": 100.0 * sum(t.rouge1.f1 for _, t in per_doc) / n,
        "r2": 100.0 * sum(t.rouge2.f1 for _, t in per_doc) / n,
        "rl": 100.0 * sum(t.rougeL.f1 for _, t in per_doc) / n,
    }
    return per_doc, means


def mean_greedy_rouge(
    params: ModelParams,
    examples: Sequence[TokenizedExample],
    decode_config: DecodeConfig,
) -> float:
    """Mean quality score of greedy decodes against references, in [0, 1]."""
    per_doc, _ = evaluate(params, examples, decode_config)
    return sum(quality_score(triple) for _, triple in per_doc) / len(per_doc)


def finetune_stage(
    params: ModelParams,
    train: Sequence[TokenizedExample],
    validation: Sequence[TokenizedExample],
    config: FinetuneConfig,
    decode_config: DecodeConfig,
    seed: int = 0,
) -> tuple[ModelParams, list[dict]]:
    """MLE fine-tuning with Adam and linear warmup.

    The warmup length is capped at 10% of the planned step count so the
    corpus-scale default stays usable on toy corpora. Validation quality
    (mean greedy-decode ROUGE quality) is recorded each epoch and the best
    checkpoint is returned. A non-finite loss or parameter raises
    ``NonFiniteError``.
    """
    if not train or not validation:
        raise ValueError("finetune_stage requires non-empty train and validation splits")
    params = params.copy()
    optimizer = init_optimizer("adam", params)
    steps_per_epoch = len(batch_indices(range(len(train)), config.batch_size))
    planned = config.epochs * steps_per_epoch
    warmup = min(config.warmup_steps, planned // 10)

    history: list[dict] = []
    best_quality = -1.0
    best_params = params.copy()
    for epoch in range(1, config.epochs + 1):
        order = _epoch_order(len(train), seed, epoch)
        losses: list[float] = []
        for batch in batch_indices(order, config.batch_size):
            examples = [train[i] for i in batch]
            cache = DecoderCache.start(params, pad_ids([ex.source_ids for ex in examples]))
            tgt_in, gold = teacher_forcing([ex.target_ids for ex in examples])
            loss = mle_loss(decoder_logprobs(params, cache, tgt_in)[0], gold)
            loss.backward()
            lr = warmup_schedule(config.learning_rate, optimizer.step + 1, warmup)
            losses.append(loss.item())
            # Free this batch's graph before the next one is built.
            del loss, cache
            _checked_step(params, optimizer, lr, losses[-1], epoch)
        val_quality = mean_greedy_rouge(params, validation, decode_config)
        history.append(
            {
                "epoch": epoch,
                "mean_train_loss": float(np.mean(losses)),
                "val_quality": val_quality,
                "steps": optimizer.step,
            }
        )
        if val_quality > best_quality:
            best_quality = val_quality
            best_params = params.copy()
    return best_params, history


# Documents differentiated in one graph. A pair costs less per document than
# two single passes (fewer, larger ops), and a batch of 4 still makes two
# graphs, one for each of two processes; larger groups leave cores idle.
_DOCS_PER_GRAPH = 2


def _score(params: ModelParams, group: list[RankedCandidateSet], config: BrioConfig, scale: float) -> list:
    """Add ``scale`` times the gradient of a group of documents' summed loss
    to ``params.grad``; return each one's (loss, MLE, ranking)."""
    total, values = _brio_terms(params, group, config)
    (total * scale).backward()
    return values


def _worker_count() -> int:
    """Workers to fork: one per usable core beyond this one's; none without ``fork`` or beside threads."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) - 1


# A group's candidate set indices (-1 past a short last group), gradient slot, loss scale.
_REQUEST = struct.Struct(f"<{_DOCS_PER_GRAPH}qqd")
_REPLY = struct.Struct("<ddd")  # loss, MLE term, ranking term; one per document of the group


def _groups(batch: Sequence[int]) -> list[Sequence[int]]:
    """``batch`` in groups of ``_DOCS_PER_GRAPH`` documents, in order; the last may be short."""
    return [batch[i : i + _DOCS_PER_GRAPH] for i in range(0, len(batch), _DOCS_PER_GRAPH)]


class _Workers:
    """Forked processes that differentiate a batch's document groups beside this one.

    They share ``params.flat`` with this process, so each optimizer step
    reaches them, and write each group's gradient into its own slot of a
    shared table. ``score`` adds the slots into ``params.grad`` in group
    order, the sum one process makes alone. A worker that fails to deliver is
    killed and its groups are scored here, raising what they raise here.
    """

    def __init__(self, params: ModelParams, ranked_sets, config: BrioConfig):
        self.params, self.ranked_sets, self.config = params, ranked_sets, config
        self.procs: list[tuple] = []  # (pid, request pipe, reply pipe) of each worker

    def start(self, count: int, batch: int) -> None:
        """Fork ``count`` workers, with a slot for each group they score of a full batch."""
        groups = len(_groups(range(batch)))
        self.slots = _shared(groups - -(-groups // (count + 1)), self.params.flat.size)
        for _ in range(count):
            (requests, to_worker), (from_worker, replies) = os.pipe(), os.pipe()
            # A SIGINT waits until the child is inside the try that ends in _exit.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if (pid := os.fork()) == 0:
                    try:
                        for fd in (to_worker, from_worker, *(f.fileno() for w in self.procs for f in w[1:])):
                            os.close(fd)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        self._serve(os.fdopen(requests, "rb"), os.fdopen(replies, "wb", 0))
                    finally:
                        os._exit(0)  # silently, on an error or an interrupt too
                self.procs.append((pid, os.fdopen(to_worker, "wb", 0), os.fdopen(from_worker, "rb")))
            except OSError:  # fewer workers: their groups are scored here
                os.close(to_worker)
                os.close(from_worker)
            finally:
                os.close(requests)
                os.close(replies)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _serve(self, requests, replies) -> None:
        while len(request := requests.read(_REQUEST.size)) == _REQUEST.size:
            *indices, slot, scale = _REQUEST.unpack(request)
            self.params.zero_grads()
            values = _score(self.params, [self.ranked_sets[i] for i in indices if i >= 0], self.config, scale)
            self.slots[slot] = self.params.grad
            replies.write(b"".join(_REPLY.pack(*doc) for doc in values))

    def score(self, batch: Sequence[int], scale: float) -> list[tuple]:
        """Differentiate ``batch`` into ``params.grad``, in groups of
        ``_DOCS_PER_GRAPH`` documents: this process takes the first share of
        groups, each worker the next. Returns each document's values."""
        groups = _groups(batch)
        share = -(-len(groups) // (len(self.procs) + 1))
        owners = [None] * share + [self.procs[p // share - 1] for p in range(share, len(groups))]
        for p in range(share, len(groups)):
            indices = [*groups[p], *[-1] * (_DOCS_PER_GRAPH - len(groups[p]))]
            with contextlib.suppress(OSError):  # a dead worker fails at its reply
                owners[p][1].write(_REQUEST.pack(*indices, p - share, scale))
        results = []
        for p, group in enumerate(groups):
            if (reply := self._reply(owners[p], len(group))) is not None:
                self.params.grad += self.slots[p - share]
                results += _REPLY.iter_unpack(reply)
            else:
                results += _score(self.params, [self.ranked_sets[i] for i in group], self.config, scale)
        return results

    def _reply(self, worker, docs: int) -> bytes | None:
        """The worker's next reply, on ``docs`` documents; None if it is not
        in use or fails, and then it is ended."""
        if worker in self.procs:
            with contextlib.suppress(OSError):
                if len(reply := worker[2].read(docs * _REPLY.size)) == docs * _REPLY.size:
                    return reply
            self.close([worker], 0.0)
        return None

    def close(self, procs: list | None = None, wait: float = 5.0) -> None:
        """End the given workers, or all: each leaves when its pipes close,
        one still running after ``wait`` seconds is killed, and each is reaped."""
        procs = self.procs if procs is None else procs
        self.procs = [worker for worker in self.procs if worker not in procs]
        for _, to_worker, from_worker in procs:
            to_worker.close()
            from_worker.close()
        deadline = time.monotonic() + wait
        for pid, *_ in procs:
            while os.waitpid(pid, os.WNOHANG)[0] == 0:
                if time.monotonic() >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.001)


def _shared(*shape: int) -> np.ndarray:
    """Zeros in memory that this process shares with the ones it forks."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


def brio_train_stage(
    params: ModelParams,
    ranked_sets: Sequence[RankedCandidateSet],
    config: BrioConfig,
    seed: int = 0,
) -> tuple[ModelParams, list[dict]]:
    """Minimize the combined loss over candidate sets with Adafactor.

    Documents whose candidate set collapsed to fewer than two members
    contribute only the MLE term; their count is logged. A non-finite loss
    or parameter raises ``NonFiniteError``. A batch's documents are
    differentiated in groups of ``_DOCS_PER_GRAPH``, one graph per group,
    on every usable core (``_worker_count``), and the groups' gradients are
    summed in batch order, so the result does not depend on the number of
    processes.
    """
    if not ranked_sets:
        raise ValueError("brio_train_stage requires at least one candidate set")
    width = min(config.batch_size, len(ranked_sets))
    count = min(_worker_count(), len(_groups(range(width))) - 1)
    flat = _shared(params.flat.size) if count else np.empty_like(params.flat)
    flat[...] = params.flat
    params = ModelParams(params.config, flat)
    optimizer = init_optimizer("adafactor", params)
    history: list[dict] = []
    mle_only = sum(1 for rs in ranked_sets if len(rs.candidates) < 2)
    if mle_only:
        logger.info(
            "brio_train_stage: %d of %d candidate sets have < 2 candidates "
            "(MLE term only)", mle_only, len(ranked_sets),
        )
    workers = _Workers(params, ranked_sets, config)
    try:
        if count:
            workers.start(count, width)
        for epoch in range(1, config.epochs + 1):
            order = _epoch_order(len(ranked_sets), seed, epoch)
            for batch in batch_indices(order, config.batch_size):
                losses, mles, ctrs = zip(*workers.score(batch, 1.0 / len(batch)))
                loss = float(np.mean(losses))
                _checked_step(params, optimizer, config.learning_rate, loss, epoch)
                history.append({"step": optimizer.step, "loss": loss, "mle": float(np.mean(mles)),
                                "ctr": float(np.mean(ctrs)), "num_docs": len(batch)})
    finally:
        workers.close()
    return params, history


def brio_loop(
    params: ModelParams,
    train: Sequence[TokenizedExample],
    validation: Sequence[TokenizedExample],
    test: Sequence[TokenizedExample],
    config: BrioConfig,
    vocab: Vocabulary,
    seed: int = 0,
    candidate_sink: Callable[[int, list[RankedCandidateSet]], None] | None = None,
) -> tuple[ModelParams, list[dict]]:
    """Alternate candidate generation and contrastive training (BRIO-Loop).

    ``params`` is the model after one contrastive training stage: iteration
    1 evaluates it and trains no further. Each later iteration regenerates
    the candidate set of every ``train`` document with the current model
    (not an accumulated pool), hands the new sets to ``candidate_sink`` and
    trains on them. Each iteration records test ROUGE (as ``evaluate``
    reports it) and validation quality. Returns the best-by-validation-
    quality checkpoint across iterations (never a later, worse one) and the
    per-iteration report.
    """
    current = params.copy()
    report: list[dict] = []
    best_params = current
    best_quality = -1.0
    for iteration in range(1, config.loop_iterations + 1):
        if iteration > 1:
            ranked_sets = generate_candidate_sets(current, train, config, vocab)
            if candidate_sink is not None:
                candidate_sink(iteration, ranked_sets)
            current, _ = brio_train_stage(current, ranked_sets, config, seed=seed * 1009 + iteration)
        _, test_means = evaluate(current, test, config.decode)
        val_quality = mean_greedy_rouge(current, validation, config.decode)
        report.append({"iteration": iteration, **test_means, "val_quality": val_quality})
        if val_quality > best_quality:
            best_quality = val_quality
            best_params = current
    return best_params, report


# -- ranking agreement ---------------------------------------------------------


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall tau-b between two paired score lists (0 when degenerate)."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("kendall_tau requires equal-length lists")
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) / 2
    denom = np.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0:
        return 0.0
    return float((concordant - discordant) / denom)


def mean_ranking_agreement(
    params: ModelParams,
    ranked_sets: Sequence[RankedCandidateSet],
    length_penalty: float,
) -> float:
    """Mean Kendall tau between this model's candidate scores and the
    candidates' quality scores, over sets with at least two members."""
    taus: list[float] = []
    for ranked in ranked_sets:
        if len(ranked.candidates) < 2:
            continue
        tokens = [list(c.token_ids) for c in ranked.candidates]
        with ad.no_grad():
            scores = candidate_scores(
                params, ranked.source_ids, tokens, length_penalty
            ).data
        qualities = [c.quality for c in ranked.candidates]
        taus.append(kendall_tau(list(scores), qualities))
    if not taus:
        raise ValueError("no candidate set has two or more candidates")
    return float(np.mean(taus))


# -- candidate cache ------------------------------------------------------------


def write_candidate_cache(
    path: str | Path, ranked_sets: Sequence[RankedCandidateSet], config_hash: str = ""
) -> None:
    """Persist candidate sets as JSONL: a header line, then one record per
    document with per-candidate text, token ids, model score, ROUGE-1/2/L
    as [precision, recall, F1] triples, and quality."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "kind": CANDIDATE_CACHE_KIND,
            "format_version": CANDIDATE_CACHE_FORMAT_VERSION,
            "config_hash": config_hash,
        }
        fh.write(json.dumps(header))
        fh.write("\n")
        for ranked in ranked_sets:
            record = {
                "doc_id": ranked.doc_id,
                "candidates": [
                    {
                        "text": c.text,
                        "token_ids": list(c.token_ids),
                        "model_score": c.model_score,
                        "rouge": [
                            (s.precision, s.recall, s.f1)
                            for s in (c.rouge.rouge1, c.rouge.rouge2, c.rouge.rougeL)
                        ],
                        "quality": c.quality,
                    }
                    for c in ranked.candidates
                ],
            }
            fh.write(json.dumps(record))
            fh.write("\n")


def load_candidate_cache(
    path: str | Path, examples: Sequence[TokenizedExample]
) -> tuple[list[RankedCandidateSet], str]:
    """Rebuild candidate sets from a cache file, joining each record with
    its tokenized document."""
    path = Path(path)
    by_id = {ex.doc_id: ex for ex in examples}
    ranked_sets: list[RankedCandidateSet] = []
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("kind") != CANDIDATE_CACHE_KIND:
            raise ValueError(f"{path}: not a candidate cache file")
        version = header.get("format_version", 1)
        if version != CANDIDATE_CACHE_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            doc_id = record["doc_id"]
            example = by_id.get(doc_id)
            if example is None:
                raise ValueError(f"{path}: cache references unknown doc id '{doc_id}'")
            cands = [
                CandSum(
                    doc_id=doc_id,
                    token_ids=tuple(c["token_ids"]),
                    text=c["text"],
                    model_score=c["model_score"],
                    rouge=RougeTriple(*(RougeScore(*score) for score in c["rouge"])),
                    quality=c["quality"],
                )
                for c in record["candidates"]
            ]
            ranked_sets.append(
                RankedCandidateSet(
                    doc_id=doc_id,
                    source_ids=list(example.source_ids),
                    reference_ids=list(example.target_ids),
                    candidates=cands,
                )
            )
    return ranked_sets, header.get("config_hash", "")

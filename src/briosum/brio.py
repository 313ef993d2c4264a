"""Contrastive candidate-ranking training (the BRIO paradigm) and its loop.

One model plays two roles. As generator it is trained with MLE on the
reference summary. As evaluator it assigns each generated candidate summary
(candsum) a length-penalized sequence log-prob, and a pairwise hinge loss
pushes those scores to follow the candidates' ROUGE quality order. The loop
regenerates candidates with the freshly trained model and trains again.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID, TokenizedExample, Vocabulary, decode_tokens
from .decode import DecodeConfig, diverse_beam_search, greedy_decode
from .model import (
    ModelParams,
    candidate_scores,
    decoder_logprobs,
    encode_source,
    mle_loss,
    pad_ids,
    score_rows,
    teacher_forcing,
)
from .optim import init_optimizer, optimizer_step, warmup_schedule
from .rouge import RougeScore, RougeTriple, quality_score, score_pair

logger = logging.getLogger(__name__)

CANDIDATE_CACHE_KIND = "candidate_cache"


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


@dataclass
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
    restart_from_finetuned: bool = False

    def validate(self) -> None:
        if self.num_candidates < 2:
            raise ValueError(f"num_candidates must be >= 2, got {self.num_candidates}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        self.decode.validate()
        if self.num_candidates > self.decode.num_beams:
            raise ValueError(
                f"num_candidates ({self.num_candidates}) cannot exceed "
                f"decode.num_beams ({self.decode.num_beams})"
            )
        for name in ("margin", "length_penalty", "ctr_weight", "mle_weight"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"BrioConfig.{name} must be finite and >= 0, got {value}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.loop_iterations < 0:
            raise ValueError(f"loop_iterations must be >= 0, got {self.loop_iterations}")


@dataclass
class FinetuneConfig:
    """Plain MLE fine-tuning hyperparameters."""

    batch_size: int = 4
    epochs: int = 5
    learning_rate: float = 1e-5
    warmup_steps: int = 20000

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


def strip_special_ids(ids: Sequence[int]) -> list[int]:
    """Content tokens only: drop PAD and BOS, stop at the first EOS."""
    out: list[int] = []
    for token_id in ids:
        if token_id == EOS_ID:
            break
        if token_id in (PAD_ID, BOS_ID):
            continue
        out.append(token_id)
    return out


# -- candidate generation ----------------------------------------------------


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
    config.validate()
    hyps = diverse_beam_search(params, example.source_ids, config.decode)
    if not hyps:
        raise RuntimeError(f"decoder produced no hypotheses for doc '{example.doc_id}'")

    ranked_hyps = sorted(
        range(len(hyps)), key=lambda i: (-hyps[i].score(config.decode.length_penalty), i)
    )
    unique: list[tuple[int, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for rank, i in enumerate(ranked_hyps):
        # Length-capped hypotheses get a closing EOS so every candidate is a
        # complete, scoreable summary; dedup runs on the closed form.
        tokens = hyps[i].tokens
        if not hyps[i].finished:
            tokens = tokens + (EOS_ID,)
        if tokens in seen:
            continue
        seen.add(tokens)
        unique.append((rank, tokens))
        if len(unique) >= config.num_candidates:
            break

    token_lists = [list(tokens) for _, tokens in unique]
    with ad.no_grad():
        scores = candidate_scores(
            params, example.source_ids, token_lists, config.length_penalty
        ).data

    reference = strip_special_ids(example.target_ids)
    cands: list[CandSum] = []
    for (rank, tokens), model_score in zip(unique, scores):
        triple = score_pair(strip_special_ids(tokens), reference)
        cands.append(
            CandSum(
                doc_id=example.doc_id,
                token_ids=tokens,
                text=decode_tokens(list(tokens), vocab),
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


def _hinge_grid(n: int, margin: float) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n, dtype=np.float64)
    margins = margin * (idx[None, :] - idx[:, None])
    upper = np.triu(np.ones((n, n)), k=1)
    return margins, upper


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
    scores = np.asarray(model_scores, dtype=np.float64)
    margins, upper = _hinge_grid(len(scores), margin)
    hinge = np.maximum(0.0, scores[None, :] - scores[:, None] + margins)
    return float((hinge * upper).sum())


def _contrastive_loss_graph(scores: Tensor, margin: float) -> Tensor:
    n = scores.shape[0]
    margins, upper = _hinge_grid(n, margin)
    diffs = ad.reshape(scores, (1, n)) - ad.reshape(scores, (n, 1)) + Tensor(margins)
    return (ad.relu(diffs) * Tensor(upper)).sum()


def _brio_terms(
    params: ModelParams, ranked: RankedCandidateSet, config: BrioConfig
) -> tuple[Tensor, float, float]:
    """The weighted loss graph plus the values of its MLE and ranking terms.

    One decoder pass scores the gold summary as row 0 and the candidates as
    rows 1..N; row 0 alone is scored when the ranking term is off.
    """
    ranking = config.ctr_weight > 0.0 and len(ranked.candidates) >= 2
    rows = [ranked.reference_ids]
    if ranking:
        rows += [list(c.token_ids) for c in ranked.candidates]
    sums, lengths = score_rows(params, ranked.source_ids, rows)
    mle = sums[0] * (-1.0 / lengths[0])
    total = mle * config.mle_weight
    if not ranking:
        return total, mle.item(), 0.0
    scores = sums[1:] * Tensor(lengths[1:] ** -config.length_penalty)
    ctr = _contrastive_loss_graph(scores, config.margin)
    return total + ctr * config.ctr_weight, mle.item(), ctr.item()


def brio_loss(
    params: ModelParams, ranked: RankedCandidateSet, config: BrioConfig
) -> Tensor:
    """Weighted sum of the generator MLE term and the evaluator ranking term.

    Both terms come from one encoder and one decoder pass and backpropagate
    into the same parameters. Candidate sets with fewer than two members
    contribute the MLE term only.
    """
    return _brio_terms(params, ranked, config)[0]


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
    per_doc: list[tuple[str, RougeTriple]] = []
    for ex in examples:
        hyp = greedy_decode(params, ex.source_ids, decode_config)
        triple = score_pair(strip_special_ids(hyp.tokens), strip_special_ids(ex.target_ids))
        per_doc.append((ex.doc_id, triple))
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
) -> dict[str, float]:
    """Mean ROUGE F1 of greedy decodes against references, in [0, 1]."""
    per_doc, _ = evaluate(params, examples, decode_config)
    sums = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0, "quality": 0.0}
    for _, triple in per_doc:
        sums["rouge1"] += triple.rouge1.f1
        sums["rouge2"] += triple.rouge2.f1
        sums["rougeL"] += triple.rougeL.f1
        sums["quality"] += quality_score(triple)
    return {key: value / len(per_doc) for key, value in sums.items()}


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
    checkpoint is returned.
    """
    config.validate()
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
            enc_out, src_mask = encode_source(params, pad_ids([ex.source_ids for ex in examples]))
            tgt_in, gold = teacher_forcing([ex.target_ids for ex in examples])
            loss = mle_loss(decoder_logprobs(params, enc_out, src_mask, tgt_in), gold)
            loss.backward()
            lr = warmup_schedule(config.learning_rate, optimizer.step + 1, warmup)
            optimizer_step(params, optimizer, lr)
            losses.append(loss.item())
        val = mean_greedy_rouge(params, validation, decode_config)
        history.append(
            {
                "epoch": epoch,
                "mean_train_loss": float(np.mean(losses)),
                "val_quality": val["quality"],
                "steps": optimizer.step,
            }
        )
        if val["quality"] > best_quality:
            best_quality = val["quality"]
            best_params = params.copy()
    return best_params, history


def brio_train_stage(
    params: ModelParams,
    ranked_sets: Sequence[RankedCandidateSet],
    config: BrioConfig,
    seed: int = 0,
) -> tuple[ModelParams, list[dict]]:
    """Minimize the combined loss over candidate sets with Adafactor.

    Documents whose candidate set collapsed to fewer than two members
    contribute only the MLE term; their count is logged.
    """
    config.validate()
    if not ranked_sets:
        raise ValueError("brio_train_stage requires at least one candidate set")
    params = params.copy()
    optimizer = init_optimizer("adafactor", params)
    history: list[dict] = []
    mle_only = sum(1 for rs in ranked_sets if len(rs.candidates) < 2)
    if mle_only:
        logger.info(
            "brio_train_stage: %d of %d candidate sets have < 2 candidates "
            "(MLE term only)", mle_only, len(ranked_sets),
        )
    for epoch in range(1, config.epochs + 1):
        order = _epoch_order(len(ranked_sets), seed, epoch)
        for batch in batch_indices(order, config.batch_size):
            losses: list[float] = []
            mles: list[float] = []
            ctrs: list[float] = []
            scale = 1.0 / len(batch)
            for idx in batch:
                ranked = ranked_sets[idx]
                total, mle_value, ctr_value = _brio_terms(params, ranked, config)
                (total * scale).backward()
                losses.append(total.item())
                mles.append(mle_value)
                ctrs.append(ctr_value)
            optimizer_step(params, optimizer, config.learning_rate)
            history.append(
                {
                    "step": optimizer.step,
                    "loss": float(np.mean(losses)),
                    "mle": float(np.mean(mles)),
                    "ctr": float(np.mean(ctrs)),
                    "num_docs": len(batch),
                }
            )
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
    """Alternate candidate generation and contrastive training.

    Each iteration regenerates candidates from the current model (not an
    accumulated pool), trains, then records test ROUGE and validation
    quality. Returns the best-by-validation-quality checkpoint across
    iterations (never a later, worse one) and the per-iteration report.
    With ``restart_from_finetuned`` training restarts from the input
    parameters each iteration instead of continuing.
    """
    config.validate()
    start = params.copy()
    current = params.copy()
    report: list[dict] = []
    best_params = current
    best_quality = -1.0
    for iteration in range(1, config.loop_iterations + 1):
        ranked_sets = [generate_candidates(current, ex, config, vocab) for ex in train]
        if candidate_sink is not None:
            candidate_sink(iteration, ranked_sets)
        base = start.copy() if config.restart_from_finetuned else current
        current, _ = brio_train_stage(base, ranked_sets, config, seed=seed * 1009 + iteration)
        test_rouge = mean_greedy_rouge(current, test, config.decode)
        val_rouge = mean_greedy_rouge(current, validation, config.decode)
        report.append(
            {
                "iteration": iteration,
                "r1": 100.0 * test_rouge["rouge1"],
                "r2": 100.0 * test_rouge["rouge2"],
                "rl": 100.0 * test_rouge["rougeL"],
                "val_quality": val_rouge["quality"],
            }
        )
        if val_rouge["quality"] > best_quality:
            best_quality = val_rouge["quality"]
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
    document with per-candidate text, token ids, model score, ROUGE F1s,
    and quality."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": CANDIDATE_CACHE_KIND, "config_hash": config_hash}))
        fh.write("\n")
        for ranked in ranked_sets:
            record = {
                "doc_id": ranked.doc_id,
                "candidates": [
                    {
                        "text": c.text,
                        "token_ids": list(c.token_ids),
                        "model_score": c.model_score,
                        "r1": c.rouge.rouge1.f1,
                        "r2": c.rouge.rouge2.f1,
                        "rl": c.rouge.rougeL.f1,
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
    its tokenized document. Cached ROUGE triples carry the stored F1 in all
    three slots; only F1 and quality are consumed downstream."""
    path = Path(path)
    by_id = {ex.doc_id: ex for ex in examples}
    ranked_sets: list[RankedCandidateSet] = []
    with path.open("r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict) or header.get("kind") != CANDIDATE_CACHE_KIND:
            raise ValueError(f"{path}: not a candidate cache file")
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
                    rouge=RougeTriple(
                        rouge1=RougeScore(c["r1"], c["r1"], c["r1"]),
                        rouge2=RougeScore(c["r2"], c["r2"], c["r2"]),
                        rougeL=RougeScore(c["rl"], c["rl"], c["rl"]),
                    ),
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

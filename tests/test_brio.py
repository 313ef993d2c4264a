"""Ranking loss fixtures, candidate generation, stages, and the loop."""

import random

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum import brio
from briosum.brio import (
    BrioConfig,
    CandSum,
    FinetuneConfig,
    RankedCandidateSet,
    batch_indices,
    brio_loop,
    brio_loss,
    brio_train_stage,
    contrastive_loss,
    evaluate,
    finetune_stage,
    generate_candidates,
    kendall_tau,
    load_candidate_cache,
    mean_greedy_rouge,
    mean_ranking_agreement,
    strip_special_ids,
    write_candidate_cache,
)
from briosum.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, TokenizedExample
from briosum.decode import DecodeConfig, Hypothesis
from briosum.model import candidate_scores, forward, init_params, mle_loss, sequence_log_prob
from briosum.optim import init_optimizer, optimizer_step
from briosum.rouge import RougeScore, RougeTriple, quality_score, score_pair

from helpers import (
    ACCEPTANCE_MODEL,
    add,
    count_tape_nodes,
    count_train_stages,
    max_gradcheck_error,
    relu,
    sub,
    tiny_params,
    tiny_vocab,
    tsum,
    unfused_brio_loss,
)


def dummy_ranked(num_candidates, doc_id="d0"):
    """A minimal quality-ordered candidate set for loss-formula tests."""
    cands = []
    for i in range(num_candidates):
        f1 = 1.0 - 0.1 * i
        triple = RougeTriple(*(RougeScore(f1, f1, f1) for _ in range(3)))
        cands.append(
            CandSum(
                doc_id=doc_id,
                token_ids=(BOS_ID, 4 + i, EOS_ID),
                text=f"w{4 + i}",
                model_score=-float(i),
                rouge=triple,
                quality=quality_score(triple),
            )
        )
    return RankedCandidateSet(
        doc_id=doc_id,
        source_ids=[BOS_ID, 4, 5, EOS_ID],
        reference_ids=[BOS_ID, 4, EOS_ID],
        candidates=cands,
    )


def decode_cfg(**kwargs):
    base = dict(
        num_beams=4, num_beam_groups=4, diversity_penalty=1.0, max_decode_len=6, length_penalty=1.0
    )
    base.update(kwargs)
    return DecodeConfig(**base)


def brio_cfg(**kwargs):
    base = dict(num_candidates=4, decode=decode_cfg(), margin=0.01, ctr_weight=1.0, mle_weight=1.0)
    base.update(kwargs)
    return BrioConfig(**base)


# -- contrastive loss fixtures ---------------------------------------------------


def test_contrastive_ordered_with_margin_met_is_zero():
    ranked = dummy_ranked(2)
    assert contrastive_loss(ranked, [-1.0, -1.5], margin=0.5) == pytest.approx(0.0, abs=1e-15)


def test_contrastive_misordered_pays_gap_plus_margin():
    ranked = dummy_ranked(2)
    assert contrastive_loss(ranked, [-2.0, -1.0], margin=0.5) == pytest.approx(1.5, abs=1e-15)


def test_contrastive_strictly_decreasing_zero_margin_is_zero():
    ranked = dummy_ranked(5)
    scores = [-0.5, -1.0, -2.0, -2.5, -9.0]
    assert contrastive_loss(ranked, scores, margin=0.0) == 0.0


def test_contrastive_margin_scales_with_rank_distance():
    ranked = dummy_ranked(3)
    # equal scores: pair (0,1) and (1,2) pay margin, pair (0,2) pays 2*margin
    assert contrastive_loss(ranked, [0.0, 0.0, 0.0], margin=0.1) == pytest.approx(0.4, abs=1e-12)


def test_contrastive_length_mismatch():
    with pytest.raises(ValueError, match="scores"):
        contrastive_loss(dummy_ranked(3), [0.0, -1.0], margin=0.1)


def test_contrastive_shift_invariance():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 7)
        ranked = dummy_ranked(n)
        scores = [rng.uniform(-5, 0) for _ in range(n)]
        base = contrastive_loss(ranked, scores, margin=0.01)
        shifted = contrastive_loss(ranked, [s + 3.7 for s in scores], margin=0.01)
        assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_contrastive_permutation_correctness_property():
    rng = random.Random(42)
    margin = 0.05
    for _ in range(200):
        n = rng.randint(2, 6)
        ranked = dummy_ranked(n)
        gaps = [margin + rng.uniform(0.01, 1.0) for _ in range(n - 1)]
        scores = [0.0]
        for gap in gaps:
            scores.append(scores[-1] - gap)
        assert contrastive_loss(ranked, scores, margin=margin) == 0.0
        k = rng.randrange(n - 1)
        swapped = list(scores)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        assert contrastive_loss(ranked, swapped, margin=margin) > 0.0


# -- brio loss -----------------------------------------------------------------------


def test_brio_loss_reduces_to_mle_when_ctr_weight_zero():
    params = tiny_params(seed=1)
    ranked = dummy_ranked(3)
    config = brio_cfg(ctr_weight=0.0)
    with ad.no_grad():
        combined = brio_loss(params, ranked, config).item()
        ref = ranked.reference_ids
        plain = mle_loss(forward(params, ranked.source_ids, ref[:-1]), ref[1:]).item()
    assert combined == pytest.approx(plain, rel=1e-12)


def varied_ranked(num_candidates, seed=0):
    """A candidate set whose reference and candidates all differ in length."""
    rng = random.Random(seed)
    cands = []
    for i in range(num_candidates):
        body = [rng.randint(4, 12) for _ in range((2, 5, 1, 7, 3, 6)[i])]
        f1 = 1.0 - 0.1 * i
        triple = RougeTriple(*(RougeScore(f1, f1, f1) for _ in range(3)))
        cands.append(
            CandSum("d0", (BOS_ID, *body, EOS_ID), "", 0.0, triple, quality_score(triple))
        )
    return RankedCandidateSet(
        doc_id="d0",
        source_ids=[BOS_ID, 4, 5, 6, 7, 8, EOS_ID],
        reference_ids=[BOS_ID, 9, 10, 11, 12, EOS_ID],
        candidates=cands,
    )


def public_brio_value(params, ranked, config):
    """mle_weight * MLE + ctr_weight * ranking loss, from public functions."""
    ref = ranked.reference_ids
    with ad.no_grad():
        mle = mle_loss(forward(params, ranked.source_ids, ref[:-1]), ref[1:]).item()
    if config.ctr_weight == 0.0 or len(ranked.candidates) < 2:
        return config.mle_weight * mle, mle, 0.0
    scores = [
        sequence_log_prob(params, ranked.source_ids, c.token_ids, config.length_penalty)
        for c in ranked.candidates
    ]
    ctr = contrastive_loss(ranked, scores, config.margin)
    return config.mle_weight * mle + config.ctr_weight * ctr, mle, ctr


def two_pass_brio_loss(params, ranked, config):
    """The loss as a reference pass plus a separate candidate pass."""
    ref = ranked.reference_ids
    total = mle_loss(forward(params, ranked.source_ids, ref[:-1]), ref[1:]) * config.mle_weight
    if config.ctr_weight == 0.0 or len(ranked.candidates) < 2:
        return total
    tokens = [list(c.token_ids) for c in ranked.candidates]
    scores = candidate_scores(params, ranked.source_ids, tokens, config.length_penalty)
    n = len(tokens)
    idx = np.arange(n)
    margins = config.margin * (idx[None, :] - idx[:, None])
    diffs = add(sub(ad.reshape(scores, (1, n)), ad.reshape(scores, (n, 1))), ad.Tensor(margins))
    hinge = tsum(relu(diffs) * ad.Tensor(np.triu(np.ones((n, n)), k=1)))
    return add(total, hinge * config.ctr_weight)


@pytest.mark.parametrize("num_candidates", [1, 3, 6])
def test_brio_loss_matches_public_formula_on_unequal_lengths(num_candidates):
    params = tiny_params(seed=23)
    ranked = varied_ranked(num_candidates, seed=num_candidates)
    lengths = {len(ranked.reference_ids)} | {len(c.token_ids) for c in ranked.candidates}
    assert len(lengths) == num_candidates + 1
    for config in (
        brio_cfg(ctr_weight=2.5, mle_weight=1.5, length_penalty=1.0),
        brio_cfg(ctr_weight=0.7, mle_weight=0.0, length_penalty=0.5),
        brio_cfg(ctr_weight=0.0),
    ):
        with ad.no_grad():
            got = brio_loss(params, ranked, config).item()
        expected, _, _ = public_brio_value(params, ranked, config)
        assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("num_candidates", [1, 3, 6])
def test_brio_loss_gradients_match_two_pass_reference(num_candidates):
    ranked = varied_ranked(num_candidates, seed=10 + num_candidates)
    config = brio_cfg(ctr_weight=2.5, mle_weight=1.5, margin=0.01)

    def grads(loss_fn):
        params = tiny_params(seed=24)
        loss_fn(params, ranked, config).backward()
        return {name: t.grad.copy() for name, t in params.items()}

    got = grads(brio_loss)
    reference = grads(two_pass_brio_loss)
    checked = 0
    for name, ref in reference.items():
        assert np.abs(got[name] - ref).max() <= 1e-10 * np.abs(ref).max(), name
        checked += 1
    assert checked == len(reference) == len(got)


def test_brio_loss_on_the_acceptance_model_is_41_nodes_with_unfused_gradients():
    # One document at the acceptance shapes: a 40-token source, the
    # reference and 6 candidates of 3 to 16 tokens, under the acceptance
    # BRIO weights.
    rng = random.Random(41)
    body = lambda n: [rng.randrange(UNK_ID + 1, ACCEPTANCE_MODEL.vocab_size) for _ in range(n)]  # noqa: E731
    triple = RougeTriple(*(RougeScore(0.5, 0.5, 0.5) for _ in range(3)))
    cands = [CandSum("d0", (BOS_ID, *body(n), EOS_ID), "", 0.0, triple, quality_score(triple))
             for n in (14, 9, 1, 12, 5, 7)]
    ranked = RankedCandidateSet("d0", [BOS_ID, *body(38), EOS_ID], [BOS_ID, *body(10), EOS_ID], cands)
    config = brio_cfg(num_candidates=6, decode=decode_cfg(num_beams=6, num_beam_groups=6),
                      margin=0.001, ctr_weight=0.3, mle_weight=1.0)
    params = init_params(ACCEPTANCE_MODEL, seed=7)
    results = []
    for loss_fn in (brio_loss, unfused_brio_loss):
        params.zero_grads()
        loss = loss_fn(params, ranked, config)
        loss.backward()
        results.append((count_tape_nodes(loss), loss.item(), params.grad.copy()))
    (nodes, value, grad), (unfused_nodes, unfused_value, unfused_grad) = results
    assert (nodes, unfused_nodes) == (41, 55)
    assert value == unfused_value
    assert np.array_equal(grad, unfused_grad)


def test_brio_loss_zero_when_both_terms_vanish():
    params = tiny_params(seed=2)
    ranked = dummy_ranked(2)
    # with mle_weight=0 the loss is the ranking term alone
    config = brio_cfg(mle_weight=0.0, ctr_weight=1.0, margin=0.0)
    with ad.no_grad():
        total = brio_loss(params, ranked, config).item()
    _, _, ctr = public_brio_value(params, ranked, config)
    assert total == pytest.approx(ctr, rel=1e-12)
    assert ctr >= 0.0


def test_brio_loss_is_weighted_sum_of_parts():
    params = tiny_params(seed=3)
    ranked = dummy_ranked(4)
    config = brio_cfg(ctr_weight=2.5, mle_weight=1.5)
    with ad.no_grad():
        total = brio_loss(params, ranked, config).item()
    _, mle_value, ctr_value = public_brio_value(params, ranked, config)
    assert total == pytest.approx(1.5 * mle_value + 2.5 * ctr_value, rel=1e-12)


def test_brio_loss_single_candidate_is_mle_only():
    params = tiny_params(seed=4)
    ranked = dummy_ranked(1)
    config = brio_cfg(ctr_weight=5.0, batch_size=1)
    with ad.no_grad():
        total = brio_loss(params, ranked, config).item()
    _, mle_value, _ = public_brio_value(params, ranked, config)
    assert total == pytest.approx(mle_value, rel=1e-12)
    _, history = brio_train_stage(params, [ranked], config, seed=1)
    assert history[0]["ctr"] == 0.0
    assert history[0]["mle"] == pytest.approx(mle_value, rel=1e-12)


def test_brio_loss_contrastive_matches_public_formula():
    params = tiny_params(seed=5)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, 6, EOS_ID], [BOS_ID, 7, 8, EOS_ID])
    config = brio_cfg(mle_weight=0.0, ctr_weight=1.0)
    ranked = generate_candidates(params, example, config, vocab)
    with ad.no_grad():
        ctr_graph = brio_loss(params, ranked, config).item()
    scores = [c.model_score for c in ranked.candidates]
    assert ctr_graph == pytest.approx(
        contrastive_loss(ranked, scores, config.margin), rel=1e-9
    )


def test_brio_loss_gradcheck_including_hinge():
    params = tiny_params(seed=6)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, 6, EOS_ID], [BOS_ID, 7, 8, EOS_ID])
    config = brio_cfg(num_candidates=3, decode=decode_cfg(num_beams=3, num_beam_groups=3))
    ranked = generate_candidates(params, example, config, vocab)

    # keep the check meaningful: no hinge argument may sit at the kink
    scores = np.array([c.model_score for c in ranked.candidates])
    margins = config.margin * (np.arange(len(scores))[None, :] - np.arange(len(scores))[:, None])
    args = scores[None, :] - scores[:, None] + margins
    assert np.abs(args[np.triu_indices(len(scores), k=1)]).min() > 1e-3

    def loss_fn():
        return brio_loss(params, ranked, config)

    assert max_gradcheck_error(params, loss_fn, sample=300) < 1e-4


# -- candidate generation ----------------------------------------------------------


def test_generate_candidates_sorted_and_counted():
    params = tiny_params(seed=7)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])
    config = brio_cfg()
    ranked = generate_candidates(params, example, config, vocab)
    assert 1 <= len(ranked.candidates) <= config.num_candidates
    qualities = [c.quality for c in ranked.candidates]
    assert qualities == sorted(qualities, reverse=True)
    for cand in ranked.candidates:
        assert cand.token_ids[0] == BOS_ID
        assert cand.token_ids[-1] == EOS_ID
        assert cand.quality == pytest.approx(quality_score(cand.rouge), abs=1e-15)


def test_generate_candidates_reference_scores_one():
    params = tiny_params(seed=8)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])
    ranked = generate_candidates(params, example, brio_cfg(), vocab)
    reference = strip_special_ids(example.target_ids)
    for cand in ranked.candidates:
        if strip_special_ids(cand.token_ids) == reference:
            assert cand.quality == pytest.approx(1.0, abs=1e-12)
            assert ranked.candidates[0] is cand


ZERO = RougeTriple(*(RougeScore(0.0, 0.0, 0.0) for _ in range(3)))


def test_unk_never_matches_unk_in_greedy_evaluation(monkeypatch):
    """<unk> stands for different unknown words: a decode of <unk> against
    a reference of <unk> overlaps in nothing, and a known word beside an
    <unk> still matches."""
    def greedy_score(tokens):
        monkeypatch.setattr(brio, "greedy_decodes", lambda params, sources, config: [
            Hypothesis(tokens, -1.0, True) for _ in sources])
        example = TokenizedExample("d0", [4, 5], list(tokens))
        return evaluate(tiny_params(), [example], decode_cfg())

    per_doc, means = greedy_score((BOS_ID, UNK_ID, EOS_ID))
    assert per_doc == [("d0", ZERO)]
    assert means == {"r1": 0.0, "r2": 0.0, "rl": 0.0}
    _, means = greedy_score((BOS_ID, UNK_ID, 6, EOS_ID))
    assert means == {"r1": 50.0, "r2": 0.0, "rl": 50.0}


def test_mean_greedy_rouge_is_the_mean_quality_of_the_evaluated_documents(monkeypatch):
    """The validation figure is a reduction of ``evaluate``'s per-document
    triples: equal to their mean quality to the bit, not approximately."""
    rng = random.Random(1)
    examples = [
        TokenizedExample(f"d{i}", [rng.randrange(4, 13) for _ in range(10)],
                         [BOS_ID, *(rng.randrange(4, 13) for _ in range(rng.randrange(3, 10))), EOS_ID])
        for i in range(60)
    ]

    def greedy_decodes(params, sources, config):  # decodes of varied lengths give varied qualities
        return [Hypothesis((BOS_ID, *src[: 2 + src[0] % 8], EOS_ID), -1.0, True) for src in sources]

    monkeypatch.setattr(brio, "greedy_decodes", greedy_decodes)
    params, config = tiny_params(), decode_cfg()
    qualities = [quality_score(triple) for _, triple in evaluate(params, examples, config)[0]]
    got = mean_greedy_rouge(params, examples, config)
    assert type(got) is float
    assert got.hex() == (sum(qualities) / len(qualities)).hex()
    backwards = 0.0
    for quality in reversed(qualities):  # on this fixture another order rounds differently
        backwards += quality
    assert backwards / len(qualities) != got


def test_unk_never_matches_unk_in_candidate_scoring(monkeypatch):
    unk = (BOS_ID, UNK_ID, EOS_ID)
    monkeypatch.setattr(brio, "diverse_beam_search", lambda *args: [Hypothesis(unk, -1.0, True)])
    example = TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], list(unk))
    ranked = generate_candidates(tiny_params(), example, brio_cfg(), tiny_vocab())
    assert [(c.token_ids, c.text, c.rouge, c.quality) for c in ranked.candidates] == [
        (unk, "<unk>", ZERO, 0.0)
    ]


def test_generate_candidates_tie_order_by_model_score():
    params = tiny_params(seed=9)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])
    ranked = generate_candidates(params, example, brio_cfg(num_candidates=6, decode=decode_cfg(num_beams=6, num_beam_groups=6)), vocab)
    for a, b in zip(ranked.candidates, ranked.candidates[1:]):
        if a.quality == b.quality:
            assert a.model_score >= b.model_score


def test_generate_candidates_dedups_token_sequences():
    params = tiny_params(seed=10)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])
    # zero diversity penalty on a peaky model tends to produce duplicates
    config = brio_cfg(
        num_candidates=6,
        decode=decode_cfg(num_beams=6, num_beam_groups=6, diversity_penalty=0.0),
    )
    ranked = generate_candidates(params, example, config, vocab)
    sequences = [c.token_ids for c in ranked.candidates]
    assert len(sequences) == len(set(sequences))


def test_generate_candidates_deterministic():
    params = tiny_params(seed=11)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 5, 6, EOS_ID], [BOS_ID, 7, EOS_ID])
    a = generate_candidates(params, example, brio_cfg(), vocab)
    b = generate_candidates(params, example, brio_cfg(), vocab)
    assert [c.token_ids for c in a.candidates] == [c.token_ids for c in b.candidates]
    assert [c.model_score for c in a.candidates] == [c.model_score for c in b.candidates]


def test_ranked_set_ordering_invariant_random_triples():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 6)
        cands = []
        for i in range(n):
            f1s = [rng.random() for _ in range(3)]
            triple = RougeTriple(*(RougeScore(f, f, f) for f in f1s))
            cands.append(
                CandSum("d", (BOS_ID, 4, EOS_ID), "w", -rng.random(), triple, quality_score(triple))
            )
        ordered = sorted(
            range(n), key=lambda i: (-cands[i].quality, -cands[i].model_score, i)
        )
        result = [cands[i] for i in ordered]
        for a, b in zip(result, result[1:]):
            assert a.quality >= b.quality
            if a.quality == b.quality:
                assert a.model_score >= b.model_score


# -- candidate cache ------------------------------------------------------------------


def test_candidate_cache_round_trip(tmp_path):
    params = tiny_params(seed=12)
    vocab = tiny_vocab()
    examples = [
        TokenizedExample("d0", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, EOS_ID]),
        TokenizedExample("d1", [BOS_ID, 7, 8, EOS_ID], [BOS_ID, 9, EOS_ID]),
    ]
    ranked = [generate_candidates(params, ex, brio_cfg(), vocab) for ex in examples]
    path = tmp_path / "cands.jsonl"
    write_candidate_cache(path, ranked, config_hash="h123")
    loaded, stamp = load_candidate_cache(path, examples)
    assert stamp == "h123"
    assert len(loaded) == len(ranked)
    for orig, back in zip(ranked, loaded):
        assert back.doc_id == orig.doc_id
        assert back.source_ids == orig.source_ids
        assert back.reference_ids == orig.reference_ids
        assert [c.token_ids for c in back.candidates] == [c.token_ids for c in orig.candidates]
        assert [c.model_score for c in back.candidates] == [c.model_score for c in orig.candidates]
        assert [c.quality for c in back.candidates] == [c.quality for c in orig.candidates]
        assert [c.text for c in back.candidates] == [c.text for c in orig.candidates]
        assert back.candidates == orig.candidates


def test_candidate_cache_unknown_doc(tmp_path):
    params = tiny_params(seed=12)
    vocab = tiny_vocab()
    example = TokenizedExample("d0", [BOS_ID, 4, EOS_ID], [BOS_ID, 6, EOS_ID])
    ranked = [generate_candidates(params, example, brio_cfg(), vocab)]
    path = tmp_path / "cands.jsonl"
    write_candidate_cache(path, ranked, "h")
    with pytest.raises(ValueError, match="unknown doc id"):
        load_candidate_cache(path, [])


# -- fine-tuning stage ------------------------------------------------------------------


def copy_task_examples(n=8, seed=0, length=4):
    rng = random.Random(seed)
    examples = []
    for i in range(n):
        body = [rng.randint(4, 12) for _ in range(length)]
        seq = [BOS_ID] + body + [EOS_ID]
        examples.append(TokenizedExample(f"c{i}", seq, seq))
    return examples


def test_batch_partitioning():
    batches = batch_indices(list(range(10)), 4)
    assert [len(b) for b in batches] == [4, 4, 2]


def test_finetune_descends_on_copy_task():
    examples = copy_task_examples()
    params = tiny_params(seed=14)
    config = FinetuneConfig(batch_size=4, epochs=5, learning_rate=3e-3, warmup_steps=0)
    _, history = finetune_stage(
        params, examples, examples, config, decode_cfg(max_decode_len=8), seed=1
    )
    assert history[-1]["mean_train_loss"] < history[0]["mean_train_loss"]


def test_finetune_returns_best_validation_checkpoint():
    examples = copy_task_examples()
    params = tiny_params(seed=15)
    config = FinetuneConfig(batch_size=4, epochs=3, learning_rate=3e-3, warmup_steps=0)
    decode_config = decode_cfg(max_decode_len=8)
    best, history = finetune_stage(params, examples, examples, config, decode_config, seed=2)
    best_recorded = max(h["val_quality"] for h in history)
    reproduced = mean_greedy_rouge(best, examples, decode_config)
    assert reproduced == pytest.approx(best_recorded, abs=1e-12)


def test_finetune_rejects_empty_splits():
    with pytest.raises(ValueError, match="non-empty"):
        finetune_stage(tiny_params(), [], [], FinetuneConfig(), decode_cfg())


def test_overfit_copy_task_to_near_zero_loss():
    # memorization sanity: a small model drives 8 copy pairs below 0.01
    examples = copy_task_examples(n=8, seed=3)
    params = tiny_params(seed=16, model_dim=32, num_heads=4, ffn_dim=64)
    opt = init_optimizer("adam", params)
    from briosum.model import DecoderCache, decoder_logprobs, pad_ids, teacher_forcing

    src = pad_ids([ex.source_ids for ex in examples])
    tgt_in, gold = teacher_forcing([ex.target_ids for ex in examples])
    loss_value = None
    for step in range(500):
        cache = DecoderCache.start(params, src)
        loss = mle_loss(decoder_logprobs(params, cache, tgt_in)[0], gold)
        loss.backward()
        optimizer_step(params, opt, 3e-3)
        loss_value = loss.item()
        if loss_value < 0.01:
            break
    assert loss_value < 0.01


# -- brio training stage -----------------------------------------------------------------


def test_brio_stage_with_zero_ctr_matches_plain_mle_steps():
    params = tiny_params(seed=17)
    examples = copy_task_examples(n=6, seed=5)
    vocab = tiny_vocab()
    config = brio_cfg(ctr_weight=0.0, learning_rate=1e-3, batch_size=1)
    ranked = [generate_candidates(params, ex, config, vocab) for ex in examples]

    trained, history = brio_train_stage(params, ranked, config, seed=9)

    # manual replication: same shuffle, same optimizer, MLE only
    from briosum.brio import _epoch_order
    from briosum.model import candidate_scores, forward, mle_loss, sequence_log_prob

    manual = tiny_params(seed=17)
    for name, t in params.items():
        np.testing.assert_array_equal(manual[name].data, t.data)
    opt = init_optimizer("adafactor", manual)
    manual_losses = []
    for idx in _epoch_order(len(ranked), 9, 1):
        ref = ranked[idx].reference_ids
        loss = mle_loss(forward(manual, ranked[idx].source_ids, ref[:-1]), ref[1:])
        loss.backward()
        optimizer_step(manual, opt, config.learning_rate)
        manual_losses.append(loss.item())
    assert [h["loss"] for h in history] == pytest.approx(manual_losses, rel=1e-12)


def test_brio_stage_ctr_terms_finite_nonnegative():
    params = tiny_params(seed=18)
    examples = copy_task_examples(n=5, seed=6)
    vocab = tiny_vocab()
    config = brio_cfg(ctr_weight=2.0)
    ranked = [generate_candidates(params, ex, config, vocab) for ex in examples]
    _, history = brio_train_stage(params, ranked, config, seed=4)
    for row in history:
        assert np.isfinite(row["ctr"])
        assert row["ctr"] >= 0.0


def test_brio_stage_improves_ranking_agreement_on_training_sets():
    params = tiny_params(seed=19)
    examples = copy_task_examples(n=10, seed=7, length=3)
    vocab = tiny_vocab()
    config = brio_cfg(ctr_weight=10.0, mle_weight=0.1, learning_rate=3e-3, margin=0.001)
    ranked = [generate_candidates(params, ex, config, vocab) for ex in examples]
    before = mean_ranking_agreement(params, ranked, config.length_penalty)
    trained, _ = brio_train_stage(params, ranked, config, seed=8)
    after = mean_ranking_agreement(trained, ranked, config.length_penalty)
    assert after > before


def test_kendall_tau_basics():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert kendall_tau([1, 1, 1], [1, 2, 3]) == 0.0
    assert abs(kendall_tau([1, 2, 3, 4], [2, 1, 4, 3])) < 0.5


# -- loop ---------------------------------------------------------------------------------


def own_candidates(params, examples, config):
    return [generate_candidates(params, ex, config, tiny_vocab()) for ex in examples]


def test_loop_zero_iterations_identity():
    params = tiny_params(seed=20)
    examples = copy_task_examples(n=4, seed=9)
    config = brio_cfg(loop_iterations=0)
    out, report = brio_loop(params, examples, examples, examples, config, tiny_vocab(), seed=1)
    assert report == []
    assert out is not params
    for name, t in params.items():
        np.testing.assert_array_equal(out[name].data, t.data)


def test_loop_report_rows_and_candidate_regeneration(monkeypatch):
    params = tiny_params(seed=21)
    examples = copy_task_examples(n=5, seed=10)
    config = brio_cfg(loop_iterations=2, learning_rate=5e-3)
    seeds = count_train_stages(monkeypatch)
    seen = {}

    def sink(iteration, ranked_sets):
        seen[iteration] = (ranked_sets, list(seeds))

    _, report = brio_loop(
        params, examples, examples, examples, config, tiny_vocab(), seed=2, candidate_sink=sink
    )
    assert [row["iteration"] for row in report] == [1, 2]
    for row in report:
        for key in ("r1", "r2", "rl"):
            assert 0.0 <= row[key] <= 100.0
    # iteration 1 evaluates the given model and trains nothing
    _, means = evaluate(params, examples, config.decode)
    assert report[0] == {
        "iteration": 1,
        **means,
        "val_quality": mean_greedy_rouge(params, examples, config.decode),
    }
    # only iteration 2 generates, from that model, and then trains once
    assert set(seen) == {2}
    regenerated, seeds_before = seen[2]
    assert seeds_before == []
    assert seeds == [2 * 1009 + 2]
    assert [(rs.doc_id, rs.source_ids, rs.reference_ids) for rs in regenerated] == [
        (ex.doc_id, ex.source_ids, ex.target_ids) for ex in examples
    ]
    assert [[c.token_ids for c in rs.candidates] for rs in regenerated] == [
        [c.token_ids for c in rs.candidates] for rs in own_candidates(params, examples, config)
    ]


def test_loop_round_two_trains_the_round_one_model_on_its_own_candidates():
    params = tiny_params(seed=24)
    examples = copy_task_examples(n=4, seed=13)
    config = brio_cfg(loop_iterations=2, learning_rate=5e-3)
    _, report = brio_loop(params, examples, examples, examples, config, tiny_vocab(), seed=5)
    trained, _ = brio_train_stage(
        params, own_candidates(params, examples, config), config, seed=5 * 1009 + 2
    )
    _, means = evaluate(trained, examples, config.decode)
    assert report[1] == {
        "iteration": 2,
        **means,
        "val_quality": mean_greedy_rouge(trained, examples, config.decode),
    }


def test_loop_keeps_best_validation_checkpoint():
    params = tiny_params(seed=22)
    examples = copy_task_examples(n=5, seed=11)
    config = brio_cfg(loop_iterations=2, learning_rate=5e-3)
    best, report = brio_loop(params, examples, examples, examples, config, tiny_vocab(), seed=3)
    best_quality = max(row["val_quality"] for row in report)
    got = mean_greedy_rouge(best, examples, config.decode)
    assert got == pytest.approx(best_quality, abs=1e-12)

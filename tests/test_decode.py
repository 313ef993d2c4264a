"""Decoding identities, fixed-logit fixtures, and the enumeration oracle."""

import importlib.util
import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum import brio, decode, model
from briosum.corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID
from briosum.decode import (
    DecodeConfig,
    DecodeConfigError,
    Hypothesis,
    beam_search,
    diverse_beam_search,
    diverse_beam_searches,
    greedy_decode,
    greedy_decodes,
    group_beam_search,
    group_beam_searches,
    make_scorer,
)
from briosum.model import (
    DecoderCache,
    causal_mask,
    decoder_logprobs,
    encode_source,
    mle_loss,
    pad_ids,
    teacher_forcing,
)

from helpers import (
    add,
    assert_relative_close,
    assert_same_searches,
    candidate_set_score_gap,
    closed_tokens,
    composed_attention,
    composed_ffn,
    composed_linear,
    embedding,
    matmul,
    search_score_gap,
    tiny_config,
    tiny_params,
)


def fixed_scorer(table):
    """Scorer ignoring history: one log-prob row per timestep."""

    def step(prefixes):
        t = len(prefixes[0]) - 1
        row = table[min(t, len(table) - 1)]
        return np.tile(row, (len(prefixes), 1))

    return step


def reference_scorer(params, source_ids):
    """The full-prefix scorer that incremental decoding replaced: every call
    re-runs the decoder over whole prefixes and keeps the last position."""
    with ad.no_grad():
        cache = DecoderCache.start(params, np.asarray([source_ids], dtype=np.int64))

    def step(prefixes):
        with ad.no_grad():
            table, _ = decoder_logprobs(params, cache, np.asarray(prefixes, dtype=np.int64))
        return table.data[:, -1, :]

    return step


def reference_decoder_logprobs(params, enc_out, src_mask, tgt_in):
    """The decoder stack composed from primitive ops, one tape node per
    matmul, reshape, softmax and bias add, with no KV cache."""
    heads = params.config.num_heads

    def attention(prefix, queries, keys_values, mask):
        p = lambda name: params[f"{prefix}.{name}"]  # noqa: E731
        k = matmul(keys_values, p("wk"))
        v = composed_linear(keys_values, p("wv"), p("bv"))
        return composed_attention(queries, k, v, p("wq"), p("bq"), p("wo"), p("bo"), mask, heads)

    def norm(prefix, x):
        return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])

    positions = embedding(params["pos_emb_tgt"], np.arange(tgt_in.shape[1]))
    x = add(embedding(params["tok_emb"], tgt_in), positions)
    for i in range(params.config.num_decoder_layers):
        normed = norm(f"dec{i}.ln1", x)
        x = add(x, attention(f"dec{i}.self", normed, normed, causal_mask(tgt_in.shape[1])))
        x = add(x, attention(f"dec{i}.cross", norm(f"dec{i}.ln2", x), enc_out, src_mask))
        ffn = [params[f"dec{i}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2")]
        x = add(x, composed_ffn(norm(f"dec{i}.ln3", x), *ffn))
    x = norm("dec_ln", x)
    out_w = ad.transpose(params["tok_emb"], (1, 0)) if params.config.tie_embeddings else params["out.w"]
    return ad.log_softmax(composed_linear(x, out_w, params["out.b"]), axis=-1)


def log_dist(probs):
    probs = np.asarray(probs, dtype=np.float64)
    probs = probs / probs.sum()
    return np.log(np.maximum(probs, 1e-300))


def reference_group_beam_search(scorer, vocab_size, cfg):
    """The tuple-list selection that the numpy top-k in group_beam_search
    replaced, which never picks PAD or BOS."""
    width = cfg.num_beams // cfg.num_beam_groups
    active = [[Hypothesis((BOS_ID,), 0.0, False)] for _ in range(cfg.num_beam_groups)]
    done = [[] for _ in range(cfg.num_beam_groups)]
    for _ in range(cfg.max_decode_len - 1):
        if not any(active):
            break
        chosen_counts = np.zeros(vocab_size)
        for g in range(cfg.num_beam_groups):
            if not active[g]:
                continue
            logps = scorer([h.tokens for h in active[g]])
            if cfg.diversity_penalty != 0.0:
                logps = logps - cfg.diversity_penalty * chosen_counts
            candidates = [
                (-(active[g][i].log_prob + logps[i, v]), v, i)
                for i in range(len(active[g]))
                for v in range(vocab_size)
                if v not in (PAD_ID, BOS_ID)
            ]
            candidates.sort()
            next_active = []
            for neg_cum, token, i in candidates[: width - len(done[g])]:
                hyp = Hypothesis(active[g][i].tokens + (token,), -neg_cum, token == EOS_ID)
                chosen_counts[token] += 1.0
                if hyp.finished or len(hyp.tokens) >= cfg.max_decode_len:
                    done[g].append(hyp)
                else:
                    next_active.append(hyp)
            active[g] = next_active
    results = []
    for g in range(cfg.num_beam_groups):
        pool = done[g] + active[g]
        order = sorted(range(len(pool)), key=lambda k: (-pool[k].score(cfg.length_penalty), k))
        results.extend(pool[k] for k in order)
    return results


def reference_greedy(scorer, max_decode_len):
    """The argmax loop that greedy_decode's one-beam search replaced, over
    every token but PAD and BOS."""
    tokens, log_prob = (BOS_ID,), 0.0
    while len(tokens) < max_decode_len:
        logps = scorer([tokens])[0]
        masked = logps.copy()
        masked[[PAD_ID, BOS_ID]] = -np.inf
        token = int(np.argmax(masked))
        tokens += (token,)
        log_prob += float(logps[token])
        if token == EOS_ID:
            return Hypothesis(tokens, log_prob, True)
    return Hypothesis(tokens, log_prob, False)


def integer_scorer(vocab_size, seed):
    """History-dependent scorer with small integer log-probs, so many sums tie exactly."""

    def step(prefixes):
        return np.stack(
            [-np.random.default_rng([seed, *p]).integers(0, 3, vocab_size).astype(np.float64) for p in prefixes]
        )

    return step


def config(**kwargs):
    base = dict(
        num_beams=1, num_beam_groups=1, diversity_penalty=0.0, max_decode_len=6, length_penalty=1.0
    )
    base.update(kwargs)
    return DecodeConfig(**base)


# -- config validation ------------------------------------------------------------


def test_config_divisibility_enforced():
    with pytest.raises(DecodeConfigError, match="divisible"):
        DecodeConfig(num_beams=4, num_beam_groups=3)
    with pytest.raises(DecodeConfigError, match="exceed"):
        DecodeConfig(num_beams=2, num_beam_groups=3)
    # beams=4 with groups=6 is invalid on both counts; it must be rejected
    with pytest.raises(DecodeConfigError):
        DecodeConfig(num_beams=4, num_beam_groups=6)
    DecodeConfig(num_beams=6, num_beam_groups=6)


def test_beam_search_rejects_groups():
    params = tiny_params()
    with pytest.raises(DecodeConfigError, match="num_beam_groups"):
        beam_search(params, [BOS_ID, 4, EOS_ID], config(num_beams=4, num_beam_groups=2))


def test_decode_len_capped_by_model():
    params = tiny_params()
    with pytest.raises(DecodeConfigError, match="max_target_len"):
        greedy_decode(params, [BOS_ID, 4, EOS_ID], config(max_decode_len=99))


# -- greedy fixtures ---------------------------------------------------------------


def test_greedy_follows_deterministic_model():
    # probability ~1 on the sequence 5, 6, EOS
    table = np.stack(
        [
            log_dist([1e-9] * 5 + [1.0, 1e-9]),
            log_dist([1e-9] * 6 + [1.0]),
            log_dist([1e-9, 1e-9, 1.0, 1e-9, 1e-9, 1e-9, 1e-9]),
        ]
    )
    scorer = fixed_scorer(table)
    hyps = group_beam_search(scorer, 7, config(max_decode_len=8))
    assert hyps[0].tokens == (BOS_ID, 5, 6, EOS_ID)
    assert hyps[0].finished


def test_greedy_respects_length_cap():
    params = tiny_params(seed=1)
    hyp = greedy_decode(params, [BOS_ID, 4, EOS_ID], config(max_decode_len=2))
    assert len(hyp.tokens) == 2
    assert hyp.tokens[0] == BOS_ID


def test_greedy_tie_breaks_to_lowest_id():
    row = log_dist([1.0, 1.0, 1.0, 1.0])  # all tied
    scorer = fixed_scorer(row[None, :])
    hyps = group_beam_search(scorer, 4, config(max_decode_len=3))
    assert hyps[0].tokens[1] == EOS_ID  # the lowest id but PAD and BOS


def test_greedy_decode_matches_argmax_loop():
    for seed in range(10):
        params = tiny_params(seed=seed)
        src = [BOS_ID, 4 + seed % 5, 5, EOS_ID]
        got = greedy_decode(params, src, config(max_decode_len=8))
        want = reference_greedy(make_scorer(params, src), 8)
        assert (got.tokens, got.log_prob, got.finished) == (want.tokens, want.log_prob, want.finished)


# -- beam fixtures -------------------------------------------------------------------


def test_beam_one_equals_greedy_on_random_models():
    for seed in range(10):
        params = tiny_params(seed=seed)
        src = [BOS_ID, 4 + seed % 5, 5, EOS_ID]
        greedy = greedy_decode(params, src, config())
        beam = beam_search(params, src, config())
        assert len(beam) == 1
        assert beam[0].tokens == greedy.tokens
        assert beam[0].log_prob == pytest.approx(greedy.log_prob, rel=1e-12)


def test_beam_two_matches_enumeration_on_fixed_logits():
    # vocab: 0..4 with EOS=2; two steps max
    table = np.stack([log_dist([0.5, 0.3, 0.2, 0.25, 0.15]), log_dist([0.1, 0.2, 0.7, 0.3, 0.4])])
    scorer = fixed_scorer(table)
    cfg = config(num_beams=2, max_decode_len=3)
    hyps = group_beam_search(scorer, 5, cfg)

    def enumerate_hyps():
        out = []
        for first in (EOS_ID, 3, 4):  # every token but PAD and BOS
            lp1 = table[0][first]
            if first == EOS_ID:
                out.append(((BOS_ID, first), lp1))
                continue
            for second in (EOS_ID, 3, 4):
                out.append(((BOS_ID, first, second), lp1 + table[1][second]))
        return out

    truth = sorted(enumerate_hyps(), key=lambda t: -(t[1] / (len(t[0]) - 1)))
    # beam=2 keeps the two best prefixes; compare the top hypothesis
    assert hyps[0].tokens == truth[0][0]
    assert hyps[0].score(1.0) == pytest.approx(truth[0][1] / (len(truth[0][0]) - 1))


def test_beam_returns_sorted_by_penalized_score():
    for seed in (3, 4, 5):
        params = tiny_params(seed=seed)
        hyps = beam_search(params, [BOS_ID, 4, 5, EOS_ID], config(num_beams=4))
        scores = [h.score(1.0) for h in hyps]
        assert scores == sorted(scores, reverse=True)


def test_beam_matches_exhaustive_enumeration_small_space():
    cfg_model = tiny_config(vocab_size=4)
    for seed in range(8):
        params = tiny_params(seed=40 + seed, vocab_size=4)
        src = [BOS_ID, 3, EOS_ID]
        scorer = make_scorer(params, src)

        leaves = []

        def walk(prefix, logp):
            if prefix[-1] == EOS_ID or len(prefix) >= 4:
                leaves.append((prefix, logp))
                return
            row = scorer([prefix])[0]
            for v in range(cfg_model.vocab_size):
                if v not in (PAD_ID, BOS_ID):
                    walk(prefix + (v,), logp + row[v])

        walk((BOS_ID,), 0.0)
        truth = sorted(leaves, key=lambda t: -(t[1] / (len(t[0]) - 1)))
        got = beam_search(params, src, config(num_beams=len(leaves), max_decode_len=4))
        assert [h.tokens for h in got] == [t[0] for t in truth]
        for h, (_, lp) in zip(got, truth):
            assert h.log_prob == pytest.approx(lp, rel=1e-9)


@pytest.mark.parametrize("vocab_size", [1, 2, 3, 6])
def test_group_beam_search_matches_tuple_list_reference_under_ties(vocab_size):
    # vocab 1..2 lets budgets reach width * vocab; integer log-probs tie often
    for width, groups, penalty, seed in itertools.product((1, 2, 3), (1, 2, 3), (0.0, 0.5, 1.0), range(2)):
        cfg = config(num_beams=width * groups, num_beam_groups=groups, diversity_penalty=penalty)
        scorer = integer_scorer(vocab_size, seed)
        got = group_beam_search(scorer, vocab_size, cfg)
        want = reference_group_beam_search(scorer, vocab_size, cfg)
        assert [(h.tokens, h.log_prob, h.finished) for h in got] == [
            (h.tokens, h.log_prob, h.finished) for h in want
        ]


@pytest.mark.parametrize("vocab_size", [1, 2, 3, 6])
def test_search_of_several_documents_equals_each_documents_own_search_under_ties(vocab_size):
    # Each document has its own integer scorer; they finish at different
    # steps, and every step is one scorer call over all active hypotheses.
    for width, groups, penalty, seed in itertools.product((1, 2, 3), (1, 2, 3), (0.0, 0.5, 1.0), range(2)):
        cfg = config(num_beams=width * groups, num_beam_groups=groups, diversity_penalty=penalty)
        scorers = [integer_scorer(vocab_size, 10 * seed + d) for d in range(3)]
        calls = []

        def score(keys):
            calls.append(keys)
            return np.concatenate([scorers[d]([prefix]) for d, prefix in keys])

        got = group_beam_searches(score, vocab_size, cfg, len(scorers))
        want, alone_calls = [], []
        for scorer in scorers:
            alone_calls.append(0)

            def counted(prefixes, scorer=scorer):
                alone_calls[-1] += 1
                return scorer(prefixes)

            want.append(group_beam_search(counted, vocab_size, cfg))
        assert [[(h.tokens, h.log_prob, h.finished) for h in hyps] for hyps in got] == [
            [(h.tokens, h.log_prob, h.finished) for h in hyps] for hyps in want
        ]
        assert len(calls) == max(alone_calls)


def test_a_document_decodes_alone_as_next_to_a_longer_padded_source():
    beams = config(num_beams=4, num_beam_groups=2, diversity_penalty=0.5, max_decode_len=8)
    greedy = config(max_decode_len=8)
    for seed in range(6):
        params = tiny_params(seed=seed)
        short = [BOS_ID, 4 + seed % 5, EOS_ID]
        longer = [BOS_ID, 5, 6, 7, 8, 9, EOS_ID]
        assert_same_searches(diverse_beam_searches(params, [short, longer], beams)[:1],
                             [diverse_beam_search(params, short, beams)])
        assert_same_searches([greedy_decodes(params, [short, longer], greedy)[:1]],
                             [[greedy_decode(params, short, greedy)]])


def test_same_length_documents_and_one_document_lists_decode_bitwise_as_alone():
    # Without PAD a row's arithmetic is its source's alone, gathered or broadcast.
    beams = config(num_beams=4, num_beam_groups=2, diversity_penalty=0.5, max_decode_len=8)
    greedy = config(max_decode_len=8)
    for seed in range(6):
        params = tiny_params(seed=seed)
        sources = [[BOS_ID, 4 + (seed + d) % 7, 5 + d, EOS_ID] for d in range(3)]
        exact = lambda hyps: [(h.tokens, h.log_prob, h.finished) for h in hyps]  # noqa: E731
        for source, hyps in zip(sources, diverse_beam_searches(params, sources, beams)):
            assert exact(hyps) == exact(diverse_beam_search(params, source, beams))
        assert exact(greedy_decodes(params, sources, greedy)) == exact(
            [greedy_decode(params, source, greedy) for source in sources])
        assert exact(diverse_beam_searches(params, sources[:1], beams)[0]) == exact(
            diverse_beam_search(params, sources[0], beams))
        assert exact(greedy_decodes(params, sources[:1], greedy)) == exact([greedy_decode(params, sources[0], greedy)])


def decode_wide_workload():
    """The benchmark's decode-wide workload, from ``perfbench/workloads.py``."""
    name = "decode_wide_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].WORKLOADS["decode-wide"]


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_document_searches_match_per_document_searches_on_the_decode_wide_inputs(seed, tmp_path):
    # All 51 documents, so the beam search spans several chunks.
    state = decode_wide_workload().setup(seed, tmp_path)
    params, decode_config = state.params, state.config.decode_config()
    sources = [ex.source_ids for ex in state.cand_examples + state.greedy_examples]
    assert_same_searches(diverse_beam_searches(params, sources, decode_config),
                         [diverse_beam_search(params, source, decode_config) for source in sources])
    assert_same_searches([greedy_decodes(params, sources, decode_config)],
                         [[greedy_decode(params, source, decode_config) for source in sources]])


@pytest.mark.parametrize("seed", [1, 5, 7])
def test_search_scores_match_candidate_scores_on_the_decode_wide_inputs(seed, tmp_path):
    # The untrained model at vocabulary 2000 caps every hypothesis of its 6
    # groups, so each score holds the closing step's EOS.
    state = decode_wide_workload().setup(seed, tmp_path)
    params, brio_config = state.params, state.config.brio_config()
    sources = [ex.source_ids for ex in state.cand_examples]
    searches = [diverse_beam_search(params, source, brio_config.decode) for source in sources]
    assert brio_config.decode.num_beam_groups == 6
    assert not any(h.finished for hyps in searches for h in hyps)
    assert search_score_gap(params, sources, searches, brio_config.length_penalty) <= 1e-12
    ranked = [brio.generate_candidates(params, ex, brio_config, state.vocab) for ex in state.cand_examples]
    assert candidate_set_score_gap(params, ranked, brio_config.length_penalty) <= 1e-12


def pad_forcing_scorer(vocab_size, seed):
    """``integer_scorer`` with PAD the best next token of every one-token prefix."""
    scorer = integer_scorer(vocab_size, seed)

    def step(prefixes):
        rows = scorer(prefixes)
        rows[[len(p) == 2 for p in prefixes], PAD_ID] = 0.0
        return rows

    return step


def teacher_forced_sum(scorer, tokens):
    """What ``model.score_rows`` sums for ``tokens``: each token's log-prob
    given the tokens before it, except where the token is PAD."""
    return sum(float(scorer([tokens[:t]])[0][tokens[t]]) for t in range(1, len(tokens)) if tokens[t] != PAD_ID)


def test_search_model_log_probs_skip_pad_and_close_capped_hypotheses_as_teacher_forcing_does():
    # PAD is the best token after BOS, and the search skips it; a model
    # log-prob keeps no diversity penalty.
    counts = {"capped": 0, "finished": 0, "penalized": 0}
    for groups, penalty, seed in itertools.product((1, 2, 3), (0.0, 1.0), range(3)):
        cfg = config(num_beams=2 * groups, num_beam_groups=groups, diversity_penalty=penalty)
        scorers = [pad_forcing_scorer(6, 10 * seed + d) for d in range(2)]

        def score(keys):
            return np.concatenate([scorers[d]([prefix]) for d, prefix in keys])

        for close in (False, True):
            for scorer, hyps in zip(scorers, group_beam_searches(score, 6, cfg, len(scorers), close)):
                for h in hyps:
                    assert h.model_log_prob == teacher_forced_sum(scorer, closed_tokens(h) if close else h.tokens)
                    assert PAD_ID not in h.tokens
                    counts["capped" if not h.finished else "finished"] += 1
                    counts["penalized"] += h.log_prob != h.model_log_prob
    assert all(counts.values()), counts


def special_first_scorer(vocab_size, seed):
    """``integer_scorer`` with PAD and BOS the best next tokens of every prefix."""
    scorer = integer_scorer(vocab_size, seed)

    def step(prefixes):
        rows = scorer(prefixes)
        rows[:, [PAD_ID, BOS_ID]] = 1.0
        return rows

    return step


@pytest.mark.parametrize("vocab_size", [4, 8])
def test_no_search_picks_pad_or_bos_when_the_scorer_ranks_them_highest(vocab_size):
    # A vocabulary of 4 leaves EOS and UNK only.
    searches = [config(), config(num_beams=3), config(num_beams=6, num_beam_groups=3, diversity_penalty=1.0)]
    for cfg, seed, close in itertools.product(searches, range(3), (False, True)):
        scorers = [special_first_scorer(vocab_size, 10 * seed + d) for d in range(3)]

        def score(keys):
            return np.concatenate([scorers[d]([prefix]) for d, prefix in keys])

        alone = [group_beam_search(scorer, vocab_size, cfg) for scorer in scorers]
        shared = group_beam_searches(score, vocab_size, cfg, len(scorers), close)
        for hyps in (*alone, *shared):
            assert len(hyps) == cfg.num_beams
            for h in hyps:
                assert h.tokens[0] == BOS_ID
                assert not {PAD_ID, BOS_ID} & set(h.tokens[1:]), h.tokens
                assert np.isfinite(h.log_prob)


def test_a_search_wider_than_the_words_left_keeps_fewer_hypotheses():
    # One step from BOS over 4 tokens leaves EOS and UNK: 2 hypotheses for 3 beams.
    hyps = group_beam_search(special_first_scorer(4, 0), 4, config(num_beams=3, max_decode_len=2))
    assert sorted(h.tokens for h in hyps) == [(BOS_ID, EOS_ID), (BOS_ID, UNK_ID)]
    assert all(np.isfinite(h.log_prob) for h in hyps)


def test_only_a_candidate_search_closes_capped_hypotheses_with_one_incremental_step(monkeypatch):
    params, src = tiny_params(seed=2), [BOS_ID, 4, 5, EOS_ID]
    calls, decoder = [], decode.decoder_logprobs

    def counted(params, cache, tgt_in):
        calls.append((cache.length, tgt_in.shape))
        return decoder(params, cache, tgt_in)

    monkeypatch.setattr(decode, "decoder_logprobs", counted)
    beams = config(num_beams=4, num_beam_groups=2, diversity_penalty=0.5, max_decode_len=8)
    hyps = diverse_beam_search(params, src, beams)
    capped = [h for h in hyps if not h.finished]
    assert capped and len(capped) < len(hyps)
    assert len(calls) == beams.max_decode_len and calls[-1] == (beams.max_decode_len - 1, (len(capped), 1))
    calls.clear()
    assert not greedy_decode(params, src, config(max_decode_len=8)).finished
    assert len(calls) == 7 and calls[-1] == (6, (1, 1))


def test_a_cache_asked_for_every_row_in_order_is_returned_as_it_is():
    params = tiny_params(seed=2)
    with ad.no_grad():
        start = DecoderCache.start(params, pad_ids([[BOS_ID, 4, EOS_ID], [BOS_ID, 5, 6, EOS_ID]]))
        _, cache = decoder_logprobs(params, start.reading([0, 1, 1]), np.array([[BOS_ID]] * 3))
    assert cache.rows([0, 1, 2]) is cache
    for index in ([0, 2, 1], [0, 1], [0, 1, 2, 2]):
        moved = cache.rows(index)
        assert moved is not cache and list(moved.docs) == [[0, 1, 1][i] for i in index]
        for (k, v), (want_k, want_v) in zip(moved.past, cache.past):
            assert np.array_equal(k.data, want_k.data[index]) and np.array_equal(v.data, want_v.data[index])


# -- diverse beam fixtures -------------------------------------------------------------


def test_diverse_reduces_to_beam_without_penalty():
    for seed in range(10):
        params = tiny_params(seed=seed)
        src = [BOS_ID, 4, 5, EOS_ID]
        dv = diverse_beam_search(params, src, config(num_beams=3, diversity_penalty=0.0))
        bm = beam_search(params, src, config(num_beams=3, diversity_penalty=0.0))
        assert sorted(h.tokens for h in dv) == sorted(h.tokens for h in bm)


def test_two_groups_diverge_when_penalty_beats_gap():
    # two near-tied first tokens (ids 3 and 4), then a forced EOS
    first = log_dist([1e-9, 1e-9, 1e-9, 0.5, 0.49, 1e-9])
    then_eos = log_dist([1e-9, 1e-9, 1.0, 1e-9, 1e-9, 1e-9])
    scorer = fixed_scorer(np.stack([first, then_eos]))

    low = config(num_beams=2, num_beam_groups=2, diversity_penalty=0.001, max_decode_len=4)
    opened_low = {h.tokens[1] for h in group_beam_search(scorer, 6, low)}
    assert opened_low == {3}

    high = config(num_beams=2, num_beam_groups=2, diversity_penalty=1.0, max_decode_len=4)
    opened_high = {h.tokens[1] for h in group_beam_search(scorer, 6, high)}
    assert opened_high == {3, 4}


def test_distinct_first_tokens_monotone_in_penalty():
    params = tiny_params(seed=13)
    src = [BOS_ID, 5, 6, EOS_ID]
    counts = []
    for penalty in (0.0, 0.5, 1.0, 2.0, 5.0):
        hyps = diverse_beam_search(
            params,
            src,
            config(num_beams=4, num_beam_groups=4, diversity_penalty=penalty, max_decode_len=5),
        )
        counts.append(len({h.tokens[1] for h in hyps}))
    assert counts == sorted(counts)


def test_output_count_and_framing():
    for seed in range(6):
        params = tiny_params(seed=seed)
        cfg = config(num_beams=6, num_beam_groups=3, diversity_penalty=1.0, max_decode_len=5)
        hyps = diverse_beam_search(params, [BOS_ID, 4, EOS_ID], cfg)
        assert len(hyps) == 6
        for h in hyps:
            assert h.tokens[0] == BOS_ID
            assert h.log_prob <= 0.0
            if h.finished:
                assert h.tokens[-1] == EOS_ID
            else:
                assert len(h.tokens) == cfg.max_decode_len


def test_finished_hypotheses_never_extended():
    # EOS is immediately the best token: every group finishes at step 1
    row = log_dist([1e-9, 1e-9, 1.0, 1e-9])
    scorer = fixed_scorer(row[None, :])
    cfg = config(num_beams=2, num_beam_groups=2, diversity_penalty=0.0, max_decode_len=6)
    hyps = group_beam_search(scorer, 4, cfg)
    assert all(h.tokens == (BOS_ID, EOS_ID) for h in hyps)


def test_determinism_fixed_params():
    params = tiny_params(seed=21)
    cfg = config(num_beams=6, num_beam_groups=6, diversity_penalty=1.0, max_decode_len=6)
    a = diverse_beam_search(params, [BOS_ID, 7, EOS_ID], cfg)
    b = diverse_beam_search(params, [BOS_ID, 7, EOS_ID], cfg)
    assert [h.tokens for h in a] == [h.tokens for h in b]
    assert [h.log_prob for h in a] == [h.log_prob for h in b]


# -- incremental decoding against the full-prefix path -----------------------------------


def prefix_tree(vocab_size, depth, seed):
    """Every prefix of a few random BOS-rooted branches, shortest first."""
    rng = random.Random(seed)
    prefixes = {(BOS_ID,)}
    for _ in range(6):
        prefix = (BOS_ID,)
        for _ in range(depth - 1):
            prefix += (rng.randrange(vocab_size),)
            prefixes.add(prefix)
    return sorted(prefixes, key=lambda p: (len(p), p))


def sequential_calls(tree, seed):
    """Search-like order: each call holds some children of the previous call's
    prefixes (a parent may repeat or drop out)."""
    rng = random.Random(seed)
    calls, current = [], [(BOS_ID,)]
    while current:
        calls.append(current)
        children = [p for p in tree if p[:-1] in current]
        current = [rng.choice(children) for _ in range(len(children))] if children else []
    return calls


def shuffled_calls(tree, seed):
    """Equal-length batches of the tree's prefixes in random order, so many
    calls hold prefixes whose parents the previous call did not score."""
    prefixes = list(tree)
    random.Random(seed).shuffle(prefixes)
    calls = []
    for prefix in prefixes:
        if calls and len(calls[-1][0]) == len(prefix) and len(calls[-1]) < 3:
            calls[-1].append(prefix)
        else:
            calls.append([prefix])
    return calls


def depth_first_calls(tree):
    calls = []

    def walk(prefix):
        calls.append([prefix])
        for child in (p for p in tree if p[:-1] == prefix):
            walk(child)

    walk((BOS_ID,))
    return calls


@pytest.mark.parametrize("tie_embeddings", [False, True])
@pytest.mark.parametrize("order", ["sequential", "shuffled", "depth-first"])
def test_cached_scorer_matches_full_prefix_scorer(tie_embeddings, order):
    for seed in range(4):
        params = tiny_params(seed=seed, tie_embeddings=tie_embeddings, num_decoder_layers=2)
        tree = prefix_tree(params.config.vocab_size, params.config.max_target_len, seed)
        calls = {
            "sequential": sequential_calls(tree, seed),
            "shuffled": shuffled_calls(tree, seed),
            "depth-first": depth_first_calls(tree),
        }[order]
        for src in ([BOS_ID, 4 + seed, 5, EOS_ID], [BOS_ID, 6, EOS_ID, PAD_ID, PAD_ID]):
            cached, reference = make_scorer(params, src), reference_scorer(params, src)
            for prefixes in calls:
                np.testing.assert_allclose(cached(prefixes), reference(prefixes), rtol=0, atol=1e-12)


def test_decoder_cache_refuses_gradient_mode():
    # A past's K/V are cut from the graph, so only an empty past may be
    # differentiated: that is the teacher-forced pass training runs.
    params = tiny_params(seed=2)
    with ad.no_grad():
        _, cache = decoder_logprobs(params, DecoderCache.start(params, np.array([[BOS_ID, 4, EOS_ID]])),
                                    np.array([[BOS_ID]]))
    assert cache.length == 1
    with pytest.raises(ValueError, match="no_grad"):
        decoder_logprobs(params, cache, np.array([[4]]))
    with pytest.raises(ValueError, match="no_grad"):  # rows gathered by document hold no gradient
        decoder_logprobs(params, DecoderCache.start(params, np.array([[BOS_ID, 4, EOS_ID], [BOS_ID, 5, EOS_ID]]))
                         .reading([1, 0, 1]), np.array([[BOS_ID]] * 3))
    start = DecoderCache.start(params, np.array([[BOS_ID, 4, EOS_ID]]))
    table, _ = decoder_logprobs(params, start, np.array([[BOS_ID, 4]]))
    mle_loss(table, np.array([[4, EOS_ID]])).backward()
    assert params["dec0.cross.wk"].grad.any() and params["enc0.attn.wq"].grad.any()


def test_padded_source_batch_decodes_each_row_as_its_source_alone():
    # What a search over many documents relies on: a source next to a
    # longer, padded one decodes incrementally as it does alone.
    params = tiny_params(seed=4)
    sources = [[BOS_ID, 4, 5, 6, 7, EOS_ID], [BOS_ID, 8, EOS_ID]]
    targets = np.array([[BOS_ID, 9, 10, 11], [BOS_ID, 12, 4, 5]])

    def incremental(cache, tgt):
        tables = []
        for t in range(tgt.shape[1]):  # BOS, then 3 incremental steps
            table, cache = decoder_logprobs(params, cache, tgt[:, t : t + 1])
            tables.append(table.data)
        return np.concatenate(tables, axis=1)

    with ad.no_grad():
        batched = incremental(DecoderCache.start(params, pad_ids(sources)), targets)
        for row, source in enumerate(sources):
            alone = incremental(DecoderCache.start(params, np.array([source])), targets[row : row + 1])
            np.testing.assert_allclose(batched[row], alone[0], rtol=0, atol=1e-12)


def test_one_position_step_without_a_causal_mask_equals_the_step_with_its_zero_mask(monkeypatch):
    # A step on one new position passes no self-attention mask; the mask it
    # once built, causal_mask(t + 1)[:, :, t:, :], is all zeros.
    params = tiny_params(seed=6)
    targets = np.array([[BOS_ID, 9, 10, 11], [BOS_ID, 12, 4, 5]])
    real_attend, self_masks = model._attend, []

    def attend_with_zero_mask(params, prefix, queries, k, v, mask, residual):
        if prefix.endswith(".self"):
            self_masks.append(mask)
            if mask is None:
                mask = causal_mask(k.data.shape[1])[:, :, -1:, :]
                assert not mask.any()
        return real_attend(params, prefix, queries, k, v, mask, residual)

    def steps():
        tables = []
        with ad.no_grad():
            cache = DecoderCache.start(params, pad_ids([[BOS_ID, 4, 5, 6, 7, EOS_ID], [BOS_ID, 8, EOS_ID]]))
            for t in range(targets.shape[1]):  # BOS, then 3 incremental steps
                table, cache = decoder_logprobs(params, cache, targets[:, t : t + 1])
                tables.append(table.data)
        return tables

    without = steps()
    monkeypatch.setattr(model, "_attend", attend_with_zero_mask)
    with_zero_mask = steps()
    assert len(self_masks) == 4 and all(mask is None for mask in self_masks)
    for a, b in zip(without, with_zero_mask):
        assert np.array_equal(a, b)


def test_searches_match_per_group_search_on_the_full_prefix_scorer():
    for seed, groups, penalty in itertools.product(range(10), (1, 2, 3), (0.0, 0.5, 1.0)):
        params = tiny_params(seed=seed)
        src = [BOS_ID, 4 + seed % 5, 5, EOS_ID]
        vocab_size = params.config.vocab_size
        reference = reference_scorer(params, src)
        diverse = config(
            num_beams=2 * groups, num_beam_groups=groups, diversity_penalty=penalty, max_decode_len=8
        )
        runs = [(diverse_beam_search(params, src, diverse), diverse)]
        if groups == 1:
            runs.append((beam_search(params, src, diverse), diverse))
            greedy = config(max_decode_len=8)
            runs.append(([greedy_decode(params, src, greedy)], greedy))
        for got, cfg in runs:
            want = reference_group_beam_search(reference, vocab_size, cfg)
            assert [(h.tokens, h.finished) for h in got] == [(h.tokens, h.finished) for h in want]
            for h, w in zip(got, want):
                assert h.log_prob == pytest.approx(w.log_prob, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("tie_embeddings", [False, True])
def test_training_path_decoder_matches_composed_reference(tie_embeddings):
    # The fused ops compute the same forward floats as the composed graph;
    # their vjps sum in another order, so gradients agree to the bound.
    params = tiny_params(seed=8, tie_embeddings=tie_embeddings, num_decoder_layers=2)
    src = pad_ids([[BOS_ID, 4, 5, 6, EOS_ID], [BOS_ID, 7, EOS_ID]])
    tgt_in, gold = teacher_forcing([[BOS_ID, 8, 9, 10, EOS_ID], [BOS_ID, 11, EOS_ID]])
    results = []
    decoders = (
        lambda: decoder_logprobs(params, DecoderCache.start(params, src), tgt_in)[0],
        lambda: reference_decoder_logprobs(params, *encode_source(params, src), tgt_in),
    )
    for decoder in decoders:
        params.zero_grads()
        table = decoder()
        mle_loss(table, gold).backward()
        results.append((table.data.copy(), {name: t.grad.copy() for name, t in params.items()}))
    (table, grads), (want_table, want_grads) = results
    assert np.array_equal(table, want_table)
    for name in want_grads:
        assert_relative_close(grads[name], want_grads[name])

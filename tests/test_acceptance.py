"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The pipeline criteria run the real CLI pipeline on a
synthetic 500-document lead-sentence corpus with a frozen configuration.

Ranking agreement (Kendall tau) is measured in the model's operational
evaluator role: each checkpoint generates candidates for the held-out
validation documents and scores them itself; tau compares those scores
with the candidates' ROUGE quality.
"""

import itertools
import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum.brio import (
    BrioConfig,
    brio_loss,
    contrastive_loss,
    generate_candidates,
    mean_ranking_agreement,
)
from briosum.cli import (
    BRIO_CKPT,
    EVAL_FILE,
    FINETUNE_CKPT,
    LOOP_REPORT,
    REPORT_CSV,
    REPORT_TXT,
    ExperimentConfig,
    run_pipeline,
)
from briosum.corpus import (
    BOS_ID,
    EOS_ID,
    Document,
    Vocabulary,
    load_corpus,
    split_corpus,
    tokenize_documents,
)
from briosum.decode import (
    DecodeConfig,
    beam_search,
    diverse_beam_search,
    diverse_beam_searches,
    greedy_decode,
    greedy_decodes,
    make_scorer,
)
from briosum.model import forward, load_checkpoint, mle_loss
from briosum.rouge import rouge_l, rouge_n
from briosum.synthetic import make_toy_corpus, write_corpus_jsonl

from helpers import assert_same_searches, max_gradcheck_error, tiny_params, tiny_vocab
from test_brio import dummy_ranked
from test_rouge import exhaustive_lcs, naive_rouge_n_overlap

GRADCHECK_BOUND = 1e-4
ROUGE_PAIRS = 1_000
DECODER_MODELS = 100
CONTRASTIVE_VECTORS = 1_000
R1_GAP_POINTS = 30.0
TAU_GAIN = 0.1
PIPELINE_BUDGET_SECONDS = 30 * 60

TOY_PIPELINE_INI = """
[experiment]
corpus = {corpus}
seed = 7

[corpus]
max_vocab_size = 200

[model]
model_dim = 32
num_heads = 4
ffn_dim = 64
num_encoder_layers = 2
num_decoder_layers = 2
max_source_len = 48
max_target_len = 16
tie_embeddings = true

[finetune]
batch_size = 4
epochs = 7
learning_rate = 2e-3
warmup_steps = 20000

[decode]
num_beams = 6
num_beam_groups = 6
diversity_penalty = 1.0
max_decode_len = 14
length_penalty = 1.0

[brio]
num_candidates = 6
margin = 0.001
length_penalty = 1.0
ctr_weight = 0.3
mle_weight = 1.0
learning_rate = 1e-3
epochs = 12
batch_size = 4
loop_iterations = 2
"""


def criterion(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {state} - {name}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="module")
def toy_pipeline(tmp_path_factory):
    """Run the full pipeline twice with the frozen toy configuration."""
    base = tmp_path_factory.mktemp("acceptance")
    corpus_path = base / "toy.jsonl"
    write_corpus_jsonl(make_toy_corpus(500, seed=7, vocab_words=60, noise_rate=0.02), corpus_path)
    ini = base / "config.ini"
    ini.write_text(TOY_PIPELINE_INI.format(corpus=corpus_path), encoding="utf-8")

    stages = ["split", "finetune", "gen-cands", "brio", "loop", "evaluate", "report"]
    started = time.time()
    first = ExperimentConfig.load(ini, out_dir=str(base / "run1"))
    assert run_pipeline(first, stages) == 0
    elapsed = time.time() - started

    second = ExperimentConfig.load(ini, out_dir=str(base / "run2"))
    assert run_pipeline(second, stages) == 0

    return {
        "config": first,
        "corpus_path": corpus_path,
        "out1": base / "run1",
        "out2": base / "run2",
        "elapsed": elapsed,
    }


def _pipeline_rows(out: Path) -> tuple[dict, list[dict]]:
    eval_rows = {r["system"]: r for r in json.loads((out / EVAL_FILE).read_text())["rows"]}
    loop_rows = json.loads((out / LOOP_REPORT).read_text())["iterations"]
    return eval_rows, loop_rows


# -- criterion 1: gradient fidelity -------------------------------------------------


def test_gradient_fidelity_under_one_minute():
    started = time.time()
    params = tiny_params(seed=6)
    assert params.num_params <= 10_000
    vocab = tiny_vocab()
    from briosum.corpus import TokenizedExample

    example = TokenizedExample("g0", [BOS_ID, 4, 5, 6, EOS_ID], [BOS_ID, 7, 8, EOS_ID])
    decode_config = DecodeConfig(
        num_beams=3, num_beam_groups=3, diversity_penalty=1.0, max_decode_len=6, length_penalty=1.0
    )
    base = BrioConfig(
        num_candidates=3, decode=decode_config, margin=0.001, length_penalty=1.0,
        ctr_weight=1.0, mle_weight=1.0,
    )
    ranked = generate_candidates(params, example, base, vocab)
    assert len(ranked.candidates) >= 2

    # the hinge must sit away from its kink for finite differences to apply
    scores = np.array([c.model_score for c in ranked.candidates])
    n = len(scores)
    margins = base.margin * (np.arange(n)[None, :] - np.arange(n)[:, None])
    args = (scores[None, :] - scores[:, None] + margins)[np.triu_indices(n, k=1)]
    assert np.abs(args).min() > 1e-3

    src, tgt = example.source_ids, example.target_ids

    def mle_only():
        return mle_loss(forward(params, src, tgt[:-1]), tgt[1:])

    def contrastive_only():
        cfg = BrioConfig(
            num_candidates=3, decode=decode_config, margin=base.margin, length_penalty=1.0,
            ctr_weight=1.0, mle_weight=0.0,
        )
        return brio_loss(params, ranked, cfg)

    def combined():
        return brio_loss(params, ranked, base)

    errors = {
        "mle": max_gradcheck_error(params, mle_only),
        "contrastive": max_gradcheck_error(params, contrastive_only),
        "combined": max_gradcheck_error(params, combined),
    }
    elapsed = time.time() - started
    worst = max(errors.values())
    criterion(
        "gradient fidelity (MLE, contrastive, combined < 1e-4; < 60 s)",
        worst < GRADCHECK_BOUND and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s, {params.num_params} params",
    )


# -- criterion 2: ROUGE oracle equivalence -------------------------------------------


def test_rouge_oracle_equivalence():
    rng = random.Random(20260808)

    def sample():
        return [rng.randrange(3) for _ in range(rng.randint(0, 8))]

    exact = True
    for _ in range(ROUGE_PAIRS):
        cand, ref = sample(), sample()
        for n in (1, 2):
            got = rouge_n(cand, ref, n)
            cand_total = max(len(cand) - n + 1, 0)
            ref_total = max(len(ref) - n + 1, 0)
            if cand_total == 0 or ref_total == 0:
                exact &= got.precision == 0.0 and got.recall == 0.0
                continue
            overlap = naive_rouge_n_overlap(cand, ref, n)
            exact &= got.precision == overlap / cand_total
            exact &= got.recall == overlap / ref_total
        got_l = rouge_l(cand, ref)
        if not cand or not ref:
            exact &= got_l.f1 == 0.0
            continue
        lcs = exhaustive_lcs(cand, ref)
        exact &= got_l.precision == lcs / len(cand)
        exact &= got_l.recall == lcs / len(ref)

    fixtures = (
        abs(rouge_n("the cat sat".split(), "the cat was sad".split(), 1).f1 - 4 / 7) < 1e-12
        and abs(rouge_n("a b c d".split(), "a b x d".split(), 2).f1 - 1 / 3) < 1e-12
        and abs(rouge_l("a b c d".split(), "a c b d".split()).f1 - 0.75) < 1e-12
    )
    criterion(
        "ROUGE oracle equivalence (1000 pairs exact + fixtures at 1e-12)",
        exact and fixtures,
    )


# -- criterion 3: decoder identities ---------------------------------------------------


def test_decoder_identities_and_enumeration():
    identates = True
    for seed in range(DECODER_MODELS):
        params = tiny_params(seed=seed, vocab_size=9)
        src = [BOS_ID, 4 + seed % 4, 5, EOS_ID]
        shared = dict(diversity_penalty=0.0, max_decode_len=6, length_penalty=1.0)
        diverse = diverse_beam_search(
            params, src, DecodeConfig(num_beams=3, num_beam_groups=1, **shared)
        )
        beam = beam_search(params, src, DecodeConfig(num_beams=3, num_beam_groups=1, **shared))
        ordered = sorted(diverse, key=lambda h: -h.score(1.0))
        identates &= [h.tokens for h in ordered] == [h.tokens for h in beam]
        single = beam_search(params, src, DecodeConfig(num_beams=1, num_beam_groups=1, **shared))
        greedy = greedy_decode(params, src, DecodeConfig(num_beams=1, num_beam_groups=1, **shared))
        identates &= single[0].tokens == greedy.tokens

    enumeration = True
    for seed in range(10):
        params = tiny_params(seed=300 + seed, vocab_size=4)
        src = [BOS_ID, 3, EOS_ID]
        scorer = make_scorer(params, src)
        leaves = []

        def walk(prefix, logp):
            if prefix[-1] == EOS_ID or len(prefix) >= 4:
                leaves.append((prefix, logp))
                return
            row = scorer([prefix])[0]
            for v in range(4):
                walk(prefix + (v,), logp + row[v])

        walk((BOS_ID,), 0.0)
        truth = sorted(leaves, key=lambda t: -(t[1] / (len(t[0]) - 1)))
        got = beam_search(
            params,
            src,
            DecodeConfig(
                num_beams=len(leaves), num_beam_groups=1, diversity_penalty=0.0,
                max_decode_len=4, length_penalty=1.0,
            ),
        )
        enumeration &= [h.tokens for h in got] == [t[0] for t in truth]

    criterion(
        "decoder identities (100 models) and exhaustive top-k enumeration",
        identates and enumeration,
    )


# -- criterion 4: contrastive-loss closed forms ------------------------------------------


def test_contrastive_closed_forms_and_permutation_property():
    two = dummy_ranked(2)
    fixtures = (
        contrastive_loss(two, [-1.0, -1.5], 0.5) == 0.0
        and contrastive_loss(two, [-2.0, -1.0], 0.5) == 1.5
        and contrastive_loss(dummy_ranked(4), [-0.1, -0.9, -1.7, -3.0], 0.0) == 0.0
    )

    rng = random.Random(99)
    margin = 0.05
    permutation_ok = True
    for _ in range(CONTRASTIVE_VECTORS):
        n = rng.randint(2, 6)
        ranked = dummy_ranked(n)
        scores = [0.0]
        for _ in range(n - 1):
            scores.append(scores[-1] - margin - rng.uniform(0.01, 1.0))
        permutation_ok &= contrastive_loss(ranked, scores, margin) == 0.0
        k = rng.randrange(n - 1)
        swapped = list(scores)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        permutation_ok &= contrastive_loss(ranked, swapped, margin) > 0.0

    criterion(
        "contrastive-loss closed forms (0, 1.5, 0) and permutation correctness",
        fixtures and permutation_ok,
    )


# -- criterion 5: pipeline ordering reproduction -------------------------------------------


def test_pipeline_ordering_reproduction(toy_pipeline):
    out = toy_pipeline["out1"]
    eval_rows, loop_rows = _pipeline_rows(out)

    gap = eval_rows["fine-tuned"]["r1"] - eval_rows["standard"]["r1"]
    gap_ok = gap >= R1_GAP_POINTS

    config = toy_pipeline["config"]
    vocab_payload = json.loads((out / "vocab.json").read_text())
    vocab = Vocabulary(
        token_to_id={t: i for i, t in enumerate(vocab_payload["tokens"])},
        id_to_token=vocab_payload["tokens"],
    )
    split_payload = json.loads((out / "split.json").read_text())
    docs_by_id = {d.id: d for d in load_corpus(toy_pipeline["corpus_path"])}
    model_config = config.model_config(vocab.size)
    val_examples = tokenize_documents(
        [docs_by_id[i] for i in split_payload["validation"]],
        vocab,
        model_config.max_source_len,
        model_config.max_target_len,
    )
    brio_config = config.brio_config()

    def self_agreement(filename):
        params, _ = load_checkpoint(out / filename)
        sets = [generate_candidates(params, ex, brio_config, vocab) for ex in val_examples]
        return mean_ranking_agreement(params, sets, brio_config.length_penalty)

    tau_ft = self_agreement(FINETUNE_CKPT)
    tau_brio = self_agreement(BRIO_CKPT)
    tau_ok = tau_brio - tau_ft >= TAU_GAIN

    delta1 = abs(loop_rows[0]["r1"] - eval_rows["fine-tuned"]["r1"])
    delta2 = abs(loop_rows[1]["r1"] - loop_rows[0]["r1"])
    loop_ok = len(loop_rows) == 2 and delta2 < delta1

    runtime_ok = toy_pipeline["elapsed"] <= PIPELINE_BUDGET_SECONDS

    criterion(
        "pipeline ordering: fine-tuned beats untrained by 30+ R-1 points",
        gap_ok,
        f"standard {eval_rows['standard']['r1']:.2f}, fine-tuned {eval_rows['fine-tuned']['r1']:.2f}",
    )
    criterion(
        "pipeline ordering: ranking stage lifts held-out Kendall tau by 0.1+",
        tau_ok,
        f"tau {tau_ft:.3f} -> {tau_brio:.3f}",
    )
    criterion(
        "pipeline ordering: loop completes twice with diminishing returns",
        loop_ok,
        f"delta1 {delta1:.2f}, delta2 {delta2:.2f}",
    )
    criterion(
        "pipeline runtime within budget",
        runtime_ok,
        f"{toy_pipeline['elapsed']:.0f}s for the full pipeline",
    )


# -- criterion 6: determinism -----------------------------------------------------------------


def test_pipeline_determinism(toy_pipeline):
    same_txt = (toy_pipeline["out1"] / REPORT_TXT).read_bytes() == (
        toy_pipeline["out2"] / REPORT_TXT
    ).read_bytes()
    same_csv = (toy_pipeline["out1"] / REPORT_CSV).read_bytes() == (
        toy_pipeline["out2"] / REPORT_CSV
    ).read_bytes()
    criterion("determinism: two same-seed runs produce byte-identical reports", same_txt and same_csv)


def test_document_searches_match_per_document_searches_on_the_finetuned_model(toy_pipeline):
    # The searches that gen-cands, the loop and evaluate batch, on 200
    # training documents of the acceptance run.
    out, config = toy_pipeline["out1"], toy_pipeline["config"]
    params, _ = load_checkpoint(out / FINETUNE_CKPT)
    tokens = json.loads((out / "vocab.json").read_text())["tokens"]
    train_ids = json.loads((out / "split.json").read_text())["train"][:200]
    docs_by_id = {d.id: d for d in load_corpus(toy_pipeline["corpus_path"])}
    model_config = params.config
    vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)}, id_to_token=tokens)
    examples = tokenize_documents([docs_by_id[i] for i in train_ids], vocab, model_config.max_source_len,
                                  model_config.max_target_len)
    sources = [ex.source_ids for ex in examples]
    assert len(sources) == 200
    decode_config = config.decode_config()
    assert_same_searches(diverse_beam_searches(params, sources, decode_config),
                         [diverse_beam_search(params, source, decode_config) for source in sources])
    assert_same_searches([greedy_decodes(params, sources, decode_config)],
                         [[greedy_decode(params, source, decode_config) for source in sources]])


# -- criterion 7: split arithmetic --------------------------------------------------------------


def test_split_arithmetic():
    docs = [Document(f"d{i}", f"text {i}", f"sum {i}") for i in range(1000)]
    split = split_corpus(docs, seed=123)
    sizes = (len(split.train), len(split.validation), len(split.test))
    criterion("split arithmetic: 1000 documents -> 750/80/170", sizes == (750, 80, 170), str(sizes))

"""The three benchmark workloads and the checks on their outputs.

Every workload builds its inputs from the seed in ``setup`` and then runs
identical passes over them: a pass is one closed-loop, single-process batch
job, so all passes of a run must produce the same outputs. briosum is reached
only through public module attributes, so that tracing can rebind them and
refactors of private helpers do not break the benchmark.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from briosum import brio, cli, corpus, decode, model, rouge, synthetic

# Frozen copy of TOY_PIPELINE_INI in tests/test_acceptance.py (also the
# README quick-start config): the config the acceptance pipeline runs.
TOY_SECTIONS: dict[str, dict[str, str]] = {
    "experiment": {"seed": "7"},
    "corpus": {"max_vocab_size": "200"},
    "model": {
        "model_dim": "32",
        "num_heads": "4",
        "ffn_dim": "64",
        "num_encoder_layers": "2",
        "num_decoder_layers": "2",
        "max_source_len": "48",
        "max_target_len": "16",
        "tie_embeddings": "true",
    },
    "finetune": {"batch_size": "4", "epochs": "7", "learning_rate": "2e-3", "warmup_steps": "20000"},
    "decode": {
        "num_beams": "6",
        "num_beam_groups": "6",
        "diversity_penalty": "1.0",
        "max_decode_len": "14",
        "length_penalty": "1.0",
    },
    "brio": {
        "num_candidates": "6",
        "margin": "0.001",
        "length_penalty": "1.0",
        "ctr_weight": "0.3",
        "mle_weight": "1.0",
        "learning_rate": "1e-3",
        "epochs": "12",
        "batch_size": "4",
        "loop_iterations": "2",
    },
}

REPORT_SYSTEMS = ["standard", "fine-tuned", "BRIO", "BRIO-Loop"]
FIRST_WORD_ID = corpus.UNK_ID + 1
# brio-train candidates: the reference with k = 0..MAX_SUBSTITUTIONS words replaced.
MAX_SUBSTITUTIONS = 5
# decode-wide's vocabulary source: enough docs over enough distinct words
# that the vocabulary reaches the shipped cap of 2000.
WIDE_CORPUS_DOCS = 340
WIDE_VOCAB_WORDS = 2400


class Checker:
    """Counts output checks as operations; one with any problem has failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class PassResult:
    seconds: float
    phases: dict[str, float]
    digest: str
    output: object = None
    artifact_bytes: int = 0


@contextlib.contextmanager
def phase(phases: dict[str, float], name: str, tracer):
    """Time one phase of a pass; in a traced pass it is also a span."""
    with tracer.span(f"cli.{name}") if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        yield
        phases[name] = time.perf_counter() - start


def toy_config(work: Path, docs: list[corpus.Document], changes: dict | None = None) -> cli.ExperimentConfig:
    """Write ``docs`` and the frozen toy INI, with ``changes`` applied (a
    value of None drops the key, leaving the shipped default), and load it."""
    work.mkdir(parents=True, exist_ok=True)
    corpus_path = work / "corpus.jsonl"
    synthetic.write_corpus_jsonl(docs, corpus_path)
    sections = {name: dict(keys) for name, keys in TOY_SECTIONS.items()}
    sections["experiment"]["corpus"] = str(corpus_path)
    for (section, key), value in (changes or {}).items():
        if value is None:
            del sections[section][key]
        else:
            sections[section][key] = value
    ini = work / "config.ini"
    ini.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
            for name, keys in sections.items()
        ),
        encoding="utf-8",
    )
    return cli.ExperimentConfig.load(ini, out_dir=str(work / "out"))


def config_facts(config: cli.ExperimentConfig) -> dict:
    # A copy: pipeline passes rewrite experiment.out_dir in the live values.
    return {"config": copy.deepcopy(config.values), "config_hash": config.config_hash()}


def warm_up(params: model.ModelParams, config: cli.ExperimentConfig) -> None:
    decode.greedy_decode(params, [FIRST_WORD_ID] * 8, config.decode_config())


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


def _same_as_first(result: PassResult, first: PassResult | None, what: str) -> list[str]:
    if first is None or result.digest == first.digest:
        return []
    return [f"{what} differs from the first pass"]


# -- output checks ------------------------------------------------------------------


def report_problems(text: str | None) -> list[str]:
    """report.csv must list the four systems with R-1/R-2/R-L in [0, 100]."""
    if text is None:
        return ["report.csv was not written"]
    try:
        rows = cli.parse_report_csv(text)
    except (ValueError, StopIteration) as exc:
        return [f"report.csv does not parse: {exc}"]
    problems = []
    if [row.system for row in rows] != REPORT_SYSTEMS:
        problems.append(f"report.csv systems are {[row.system for row in rows]}")
    for row in rows:
        for value in (row.r1, row.r2, row.rl):
            if not (0.0 <= value <= 100.0):
                problems.append(f"report.csv value {value} for {row.system} is outside [0, 100]")
    return problems


def loss_problems(row: dict) -> list[str]:
    return [f"step {row['step']}: non-finite {key} {row[key]}" for key in ("loss", "mle", "ctr")
            if not math.isfinite(row[key])]


def loss_fall_problems(history: list[dict], steps_per_epoch: int) -> list[str]:
    """The last epoch's mean loss must be below the first epoch's."""
    first = sum(row["loss"] for row in history[:steps_per_epoch]) / steps_per_epoch
    last = sum(row["loss"] for row in history[-steps_per_epoch:]) / steps_per_epoch
    return [] if last < first else [f"mean loss did not fall: first epoch {first}, last {last}"]


def candidate_set_problems(ranked: brio.RankedCandidateSet, num_candidates: int) -> list[str]:
    """Non-empty, at most ``num_candidates``, unique, BOS/EOS framed, quality-sorted."""
    cands = ranked.candidates
    where = f"candidate set {ranked.doc_id}"
    problems = []
    if not 1 <= len(cands) <= num_candidates:
        problems.append(f"{where} holds {len(cands)} candidates")
    if len({c.token_ids for c in cands}) != len(cands):
        problems.append(f"{where} holds duplicate candidates")
    for c in cands:
        body = c.token_ids[1:-1]
        if len(c.token_ids) < 2 or c.token_ids[0] != corpus.BOS_ID or c.token_ids[-1] != corpus.EOS_ID \
                or corpus.BOS_ID in body or corpus.EOS_ID in body:
            problems.append(f"{where}: candidate {c.token_ids} is not framed by BOS and EOS")
    if any(a.quality < b.quality for a, b in zip(cands, cands[1:])):
        problems.append(f"{where} is not sorted by quality")
    return problems


def greedy_problems(hyp: decode.Hypothesis, max_len: int) -> list[str]:
    tokens = hyp.tokens
    if not tokens or tokens[0] != corpus.BOS_ID or len(tokens) > max_len:
        return [f"greedy hypothesis {tokens} is not BOS-prefixed within {max_len} tokens"]
    if hyp.finished != (tokens[-1] == corpus.EOS_ID) or (not hyp.finished and len(tokens) != max_len):
        return [f"greedy hypothesis {tokens} stopped early without EOS"]
    return []


# -- pipeline ----------------------------------------------------------------------


@dataclass
class PipelineState:
    config: cli.ExperimentConfig
    work: Path
    facts: dict


@dataclass
class Pipeline:
    """All seven stages of ``cli.run_pipeline`` on the frozen toy config."""

    name: str = "pipeline"
    docs: int = 60

    def setup(self, seed: int, work: Path) -> PipelineState:
        docs = synthetic.make_toy_corpus(self.docs, seed)
        config = toy_config(work, docs)
        split = corpus.split_corpus(docs, config.seed)
        vocab = corpus.build_vocab(split.train, config.max_vocab_size, config.min_count)
        warm_up(model.init_params(config.model_config(vocab.size), config.seed), config)
        sizes = {"docs": len(docs), "train": len(split.train), "validation": len(split.validation),
                 "test": len(split.test), "vocab": vocab.size}
        return PipelineState(config, work, {**config_facts(config), "sizes": sizes})

    def run_pass(self, state: PipelineState, index: int, tracer) -> PassResult:
        out = state.work / f"pass{index}"
        state.config.values["experiment"]["out_dir"] = str(out)
        phases: dict[str, float] = {}
        codes = {}
        for stage in cli.STAGES:
            with phase(phases, stage, tracer):
                codes[stage] = cli.run_pipeline(state.config, [stage], stream=io.StringIO())
            if codes[stage] != 0:
                break
        report_path = out / cli.REPORT_CSV
        report = report_path.read_text(encoding="utf-8") if report_path.exists() else None
        artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        return PassResult(sum(phases.values()), phases, _digest(report), (codes, report), artifact_bytes)

    def check(self, state: PipelineState, result: PassResult, first: PassResult | None, checker: Checker) -> None:
        codes, report = result.output
        for stage in cli.STAGES:
            code = codes.get(stage)
            checker.op([] if code == 0 else [f"stage {stage} returned {code}"])
        checker.op(report_problems(report))
        checker.op(_same_as_first(result, first, "report.csv"))

    def phase_metrics(self, state: PipelineState, best: PassResult) -> dict:
        return {
            "pipeline_s": (best.seconds, "s"),
            "brio_stage_s": (best.phases["brio"], "s"),
            "loop_stage_s": (best.phases["loop"], "s"),
        }


# -- brio-train --------------------------------------------------------------------


def substitution_set(
    example: corpus.TokenizedExample, vocab: corpus.Vocabulary, rng: random.Random, max_k: int
) -> brio.RankedCandidateSet:
    """Candidates made from the reference with k = 0..max_k words replaced,
    scored with ROUGE and ordered by quality (fewer substitutions on ties)."""
    reference = brio.strip_special_ids(example.target_ids)
    cands = []
    for k in range(max_k + 1):
        body = list(reference)
        for pos in rng.sample(range(len(body)), min(k, len(body))):
            word = body[pos]
            while word == body[pos]:
                word = rng.randrange(FIRST_WORD_ID, vocab.size)
            body[pos] = word
        tokens = (corpus.BOS_ID, *body, corpus.EOS_ID)
        triple = rouge.score_pair(body, reference)
        cands.append(brio.CandSum(example.doc_id, tokens, corpus.decode_tokens(list(tokens), vocab),
                                  0.0, triple, rouge.quality_score(triple)))
    order = sorted(range(len(cands)), key=lambda i: (-cands[i].quality, i))
    return brio.RankedCandidateSet(example.doc_id, list(example.source_ids), list(example.target_ids),
                                   [cands[i] for i in order])


@dataclass
class BrioTrainState:
    config: cli.ExperimentConfig
    params: model.ModelParams
    sets: list[brio.RankedCandidateSet]
    facts: dict


@dataclass
class BrioTrain:
    """``brio.brio_train_stage`` on fixed candidate sets that no decoder made."""

    name: str = "brio-train"
    sets: int = 90
    epochs: int = 2

    def setup(self, seed: int, work: Path) -> BrioTrainState:
        docs = synthetic.make_toy_corpus(self.sets, seed)
        config = toy_config(work, docs, {("brio", "epochs"): str(self.epochs)})
        vocab = corpus.build_vocab(docs, config.max_vocab_size, config.min_count)
        model_config = config.model_config(vocab.size)
        examples = corpus.tokenize_documents(docs, vocab, model_config.max_source_len, model_config.max_target_len)
        rng = random.Random(seed)
        sets = [substitution_set(ex, vocab, rng, MAX_SUBSTITUTIONS) for ex in examples]
        params = model.init_params(model_config, config.seed)
        brio.brio_loss(params.copy(), sets[0], config.brio_config()).backward()
        sizes = {"sets": len(sets), "candidates": sum(len(s.candidates) for s in sets), "vocab": vocab.size}
        return BrioTrainState(config, params, sets, {**config_facts(config), "sizes": sizes})

    def run_pass(self, state: BrioTrainState, index: int, tracer) -> PassResult:
        start = time.perf_counter()
        trained, history = brio.brio_train_stage(state.params, state.sets, state.config.brio_config(),
                                                 seed=state.config.seed)
        seconds = time.perf_counter() - start
        return PassResult(seconds, {}, _digest(history), (history, trained.all_finite()))

    def check(self, state: BrioTrainState, result: PassResult, first: PassResult | None, checker: Checker) -> None:
        history, params_finite = result.output
        for row in history:
            checker.op(loss_problems(row))
        checker.op([] if params_finite else ["trained parameters are not all finite"])
        checker.op(loss_fall_problems(history, len(history) // self.epochs))
        checker.op(_same_as_first(result, first, "training history"))

    def phase_metrics(self, state: BrioTrainState, best: PassResult) -> dict:
        return {"brio_docs_per_s": (len(state.sets) * self.epochs / best.seconds, "1/s")}


# -- decode-wide -------------------------------------------------------------------


@dataclass
class DecodeWideState:
    config: cli.ExperimentConfig
    params: model.ModelParams
    vocab: corpus.Vocabulary
    cand_examples: list[corpus.TokenizedExample]
    greedy_examples: list[corpus.TokenizedExample]
    facts: dict


@dataclass
class DecodeWide:
    """Diverse-beam candidates, then greedy decodes, with an untrained model
    at the shipped vocabulary cap."""

    name: str = "decode-wide"
    cand_docs: int = 6
    greedy_docs: int = 45

    def setup(self, seed: int, work: Path) -> DecodeWideState:
        docs = synthetic.make_toy_corpus(WIDE_CORPUS_DOCS, seed, vocab_words=WIDE_VOCAB_WORDS)
        config = toy_config(work, docs, {("corpus", "max_vocab_size"): None})
        vocab = corpus.build_vocab(docs, config.max_vocab_size, config.min_count)
        model_config = config.model_config(vocab.size)
        examples = corpus.tokenize_documents(
            docs[: self.cand_docs + self.greedy_docs], vocab, model_config.max_source_len, model_config.max_target_len
        )
        params = model.init_params(model_config, config.seed)
        warm_up(params, config)
        sizes = {"corpus_docs": len(docs), "cand_docs": self.cand_docs, "greedy_docs": self.greedy_docs,
                 "vocab": vocab.size, "vocab_cap": config.max_vocab_size}
        return DecodeWideState(config, params, vocab, examples[: self.cand_docs], examples[self.cand_docs :],
                               {**config_facts(config), "sizes": sizes})

    def run_pass(self, state: DecodeWideState, index: int, tracer) -> PassResult:
        brio_config = state.config.brio_config()
        decode_config = state.config.decode_config()
        phases: dict[str, float] = {}
        start = time.perf_counter()
        ranked = [brio.generate_candidates(state.params, ex, brio_config, state.vocab) for ex in state.cand_examples]
        phases["cands"] = time.perf_counter() - start
        start = time.perf_counter()
        hyps = [decode.greedy_decode(state.params, ex.source_ids, decode_config) for ex in state.greedy_examples]
        phases["greedy"] = time.perf_counter() - start
        digest = _digest([[[c.token_ids, c.model_score] for c in rs.candidates] for rs in ranked]
                         + [[h.tokens, h.log_prob] for h in hyps])
        return PassResult(phases["cands"] + phases["greedy"], phases, digest, (ranked, hyps))

    def check(self, state: DecodeWideState, result: PassResult, first: PassResult | None, checker: Checker) -> None:
        ranked, hyps = result.output
        if first is None:
            reached = state.facts["sizes"]["vocab"]
            checker.op([] if reached == state.config.max_vocab_size else [f"vocabulary reached only {reached}"])
        num_candidates = state.config.brio_config().num_candidates
        for rs in ranked:
            checker.op(candidate_set_problems(rs, num_candidates))
        max_len = state.config.decode_config().max_decode_len
        for hyp in hyps:
            checker.op(greedy_problems(hyp, max_len))
        checker.op(_same_as_first(result, first, "decoded hypotheses"))

    def phase_metrics(self, state: DecodeWideState, best: PassResult) -> dict:
        return {
            "cands_docs_per_s": (self.cand_docs / best.phases["cands"], "1/s"),
            "greedy_docs_per_s": (self.greedy_docs / best.phases["greedy"], "1/s"),
        }


WORKLOADS = {w.name: w for w in (Pipeline(), BrioTrain(), DecodeWide())}

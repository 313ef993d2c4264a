"""Experiment harness: config files, stage orchestration, report tables.

The pipeline is split -> finetune -> gen-cands -> brio -> loop -> evaluate
-> report. Every stage writes self-describing artifacts into the output
directory (each embeds the hash of the resolved configuration); re-running
a completed stage is a no-op unless --force is given, and resuming against
artifacts from a different configuration is refused.

Configuration files are INI: one section per subsystem, flat keys. The
``--seed`` and ``--out`` flags override ``experiment.seed`` and
``experiment.out_dir``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .brio import (
    BrioConfig,
    FinetuneConfig,
    RankedCandidateSet,
    brio_loop,
    brio_train_stage,
    evaluate,
    finetune_stage,
    generate_candidates,
    load_candidate_cache,
    write_candidate_cache,
)
from .corpus import (
    CorpusError,
    Document,
    TokenizedExample,
    Vocabulary,
    build_vocab,
    load_corpus,
    split_corpus,
    tokenize_documents,
)
from .decode import DecodeConfig
from .model import (
    CheckpointError,
    ModelConfig,
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

STAGES = ("split", "finetune", "gen-cands", "brio", "loop", "evaluate", "report")

SPLIT_FILE = "split.json"
VOCAB_FILE = "vocab.json"
STANDARD_CKPT = "standard.ckpt"
FINETUNE_CKPT = "finetune.ckpt"
FINETUNE_METRICS = "finetune_metrics.jsonl"
FINETUNE_CANDIDATES = "candidates_finetune.jsonl"
BRIO_CKPT = "brio.ckpt"
BRIO_METRICS = "brio_metrics.jsonl"
LOOP_CKPT = "loop.ckpt"
LOOP_REPORT = "loop_report.json"
EVAL_FILE = "eval.json"
REPORT_TXT = "report.txt"
REPORT_CSV = "report.csv"

_REPORT_SYSTEMS = (
    ("standard", STANDARD_CKPT),
    ("fine-tuned", FINETUNE_CKPT),
    ("BRIO", BRIO_CKPT),
    ("BRIO-Loop", LOOP_CKPT),
)

_DEFAULTS: dict[str, dict[str, str]] = {
    "experiment": {
        "corpus": "",
        "seed": "7",
        "out_dir": "",
        "max_documents": "0",
    },
    "corpus": {
        "max_vocab_size": "2000",
        "min_count": "1",
    },
    "model": {
        "model_dim": "64",
        "num_heads": "4",
        "ffn_dim": "128",
        "num_encoder_layers": "2",
        "num_decoder_layers": "2",
        "max_source_len": "256",
        "max_target_len": "64",
        "dropout_rate": "0.0",
        "tie_embeddings": "false",
    },
    "finetune": {
        "batch_size": "4",
        "epochs": "5",
        "learning_rate": "1e-5",
        "warmup_steps": "20000",
    },
    "decode": {
        "num_beams": "6",
        "num_beam_groups": "6",
        "diversity_penalty": "1.0",
        "max_decode_len": "32",
        "length_penalty": "1.0",
    },
    "brio": {
        "num_candidates": "6",
        "margin": "0.001",
        "length_penalty": "1.0",
        "ctr_weight": "10.0",
        "mle_weight": "1.0",
        "learning_rate": "1e-3",
        "epochs": "1",
        "batch_size": "4",
        "loop_iterations": "2",
        "restart_from_finetuned": "false",
    },
}

# Location-only keys stay out of the config hash.
_UNHASHED = {("experiment", "out_dir")}


class ConfigError(ValueError):
    """Raised for unreadable, unknown, or inconsistent configuration."""


class StageError(RuntimeError):
    """A pipeline stage failure; carries the stage name for diagnostics."""

    def __init__(self, stage: str, message: str):
        super().__init__(message)
        self.stage = stage


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


@dataclass
class ExperimentConfig:
    """The resolved flat configuration plus typed views of each section."""

    values: dict[str, dict[str, str]]

    @staticmethod
    def load(path: str | Path, seed: int | None = None, out_dir: str | None = None) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        values = {section: dict(keys) for section, keys in _DEFAULTS.items()}
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _DEFAULTS[section]:
                    raise ConfigError(f"{path}: unknown key {section}.{key}")
                values[section][key] = raw.strip()
        config = ExperimentConfig(values)
        if seed is not None:
            config.values["experiment"]["seed"] = str(seed)
        if out_dir is not None:
            config.values["experiment"]["out_dir"] = str(out_dir)
        config.validate()
        return config

    def _int(self, section: str, key: str) -> int:
        raw = self.values[section][key]
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}") from exc

    def _float(self, section: str, key: str) -> float:
        raw = self.values[section][key]
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} must be a number, got {raw!r}") from exc

    @property
    def corpus_path(self) -> Path:
        return Path(self.values["experiment"]["corpus"])

    @property
    def seed(self) -> int:
        return self._int("experiment", "seed")

    @property
    def out_dir(self) -> Path:
        raw = self.values["experiment"]["out_dir"]
        if not raw:
            raise ConfigError("no output directory: set experiment.out_dir or pass --out")
        return Path(raw)

    @property
    def max_documents(self) -> int:
        return self._int("experiment", "max_documents")

    @property
    def max_vocab_size(self) -> int:
        return self._int("corpus", "max_vocab_size")

    @property
    def min_count(self) -> int:
        return self._int("corpus", "min_count")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            model_dim=self._int("model", "model_dim"),
            num_heads=self._int("model", "num_heads"),
            ffn_dim=self._int("model", "ffn_dim"),
            num_encoder_layers=self._int("model", "num_encoder_layers"),
            num_decoder_layers=self._int("model", "num_decoder_layers"),
            max_source_len=self._int("model", "max_source_len"),
            max_target_len=self._int("model", "max_target_len"),
            dropout_rate=self._float("model", "dropout_rate"),
            tie_embeddings=_parse_bool(self.values["model"]["tie_embeddings"]),
        )

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(
            batch_size=self._int("finetune", "batch_size"),
            epochs=self._int("finetune", "epochs"),
            learning_rate=self._float("finetune", "learning_rate"),
            warmup_steps=self._int("finetune", "warmup_steps"),
        )

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(
            num_beams=self._int("decode", "num_beams"),
            num_beam_groups=self._int("decode", "num_beam_groups"),
            diversity_penalty=self._float("decode", "diversity_penalty"),
            max_decode_len=self._int("decode", "max_decode_len"),
            length_penalty=self._float("decode", "length_penalty"),
        )

    def brio_config(self) -> BrioConfig:
        return BrioConfig(
            num_candidates=self._int("brio", "num_candidates"),
            decode=self.decode_config(),
            margin=self._float("brio", "margin"),
            length_penalty=self._float("brio", "length_penalty"),
            ctr_weight=self._float("brio", "ctr_weight"),
            mle_weight=self._float("brio", "mle_weight"),
            learning_rate=self._float("brio", "learning_rate"),
            epochs=self._int("brio", "epochs"),
            batch_size=self._int("brio", "batch_size"),
            loop_iterations=self._int("brio", "loop_iterations"),
            restart_from_finetuned=_parse_bool(self.values["brio"]["restart_from_finetuned"]),
        )

    def validate(self) -> None:
        if not self.values["experiment"]["corpus"]:
            raise ConfigError("experiment.corpus is required")
        if not self.corpus_path.exists():
            raise ConfigError(f"corpus file not found: {self.corpus_path}")
        if self.max_documents < 0:
            raise ConfigError("experiment.max_documents must be >= 0")
        self.model_config(vocab_size=5).validate()
        self.finetune_config().validate()
        self.brio_config().validate()

    def canonical(self) -> str:
        lines = [
            f"{section}.{key}={self.values[section][key]}"
            for section in sorted(self.values)
            for key in sorted(self.values[section])
            if (section, key) not in _UNHASHED
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:16]


@dataclass
class ReportRow:
    system: str
    r1: float
    r2: float
    rl: float

    def validate(self) -> None:
        for name in ("r1", "r2", "rl"):
            value = getattr(self, name)
            if not (0.0 <= value <= 100.0):
                raise ValueError(f"ReportRow.{name} must be in [0, 100], got {value}")


def emit_report(rows: Sequence[ReportRow], format: str = "text") -> str:
    """Render the systems table with two-decimal fixed columns."""
    if not rows:
        raise ValueError("emit_report requires at least one row")
    for row in rows:
        row.validate()
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["System", "R-1", "R-2", "R-L"])
        for row in rows:
            writer.writerow([row.system, f"{row.r1:.2f}", f"{row.r2:.2f}", f"{row.rl:.2f}"])
        return buffer.getvalue()
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    width = max(len("System"), max(len(row.system) for row in rows))
    lines = [f"{'System':<{width}}  {'R-1':>6}  {'R-2':>6}  {'R-L':>6}"]
    for row in rows:
        lines.append(
            f"{row.system:<{width}}  {row.r1:>6.2f}  {row.r2:>6.2f}  {row.rl:>6.2f}"
        )
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> list[ReportRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["System", "R-1", "R-2", "R-L"]:
        raise ValueError(f"unexpected report header: {header}")
    return [ReportRow(name, float(r1), float(r2), float(rl)) for name, r1, r2, rl in reader]


# -- pipeline ------------------------------------------------------------------


@dataclass
class _Context:
    config: ExperimentConfig
    out: Path
    force: bool

    @property
    def hash(self) -> str:
        return self.config.config_hash()

    def path(self, name: str) -> Path:
        return self.out / name


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _read_json(path: Path, stage: str, expected_hash: str) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StageError(stage, f"{path.name} is unreadable ({exc}); use --force to rebuild") from exc
    found = payload.get("config_hash")
    if found != expected_hash:
        raise StageError(
            stage,
            f"{path.name} was produced by a different configuration "
            f"(hash {found}, expected {expected_hash}); use --force to rebuild",
        )
    return payload


def _require(ctx: _Context, filename: str, producer: str) -> Path:
    path = ctx.path(filename)
    if not path.exists():
        raise StageError(producer, f"missing artifact {filename}; run the '{producer}' stage first")
    return path


# Reports embed no config hash on purpose: identical experiments must
# produce byte-identical report files wherever they run.
_UNSTAMPED = {REPORT_TXT, REPORT_CSV}


def _outputs_fresh(ctx: _Context, stage: str, names: Sequence[str]) -> bool:
    """True when every output exists and carries the current config hash."""
    paths = [ctx.path(name) for name in names]
    if not all(p.exists() for p in paths):
        return False
    if ctx.force:
        return False
    for path, name in zip(paths, names):
        if name in _UNSTAMPED:
            continue
        stamp = _artifact_hash(path)
        if stamp != ctx.hash:
            raise StageError(
                stage,
                f"{name} exists but was produced by a different configuration "
                f"(hash {stamp}, expected {ctx.hash}); use --force to rebuild",
            )
    return True


def _artifact_hash(path: Path) -> str | None:
    try:
        if path.suffix == ".ckpt":
            with path.open("rb") as fh:
                return json.loads(fh.readline()).get("meta", {}).get("config_hash")
        with path.open("r", encoding="utf-8") as fh:
            return json.loads(fh.readline()).get("config_hash")
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, AttributeError):
        return None


def _load_checkpoint(ctx: _Context, filename: str, producer: str) -> ModelParams:
    path = _require(ctx, filename, producer)
    try:
        params, meta = load_checkpoint(path)
    except CheckpointError as exc:
        raise StageError(producer, f"{exc}; use --force to rebuild") from exc
    if meta.get("config_hash") != ctx.hash:
        raise StageError(
            producer,
            f"{filename} was produced by a different configuration "
            f"(hash {meta.get('config_hash')}, expected {ctx.hash}); use --force to rebuild",
        )
    return params


@dataclass
class _Corpus:
    split_docs: dict[str, list[Document]]
    vocab: Vocabulary
    train: list[TokenizedExample]
    validation: list[TokenizedExample]
    test: list[TokenizedExample]


def _load_prepared(ctx: _Context) -> _Corpus:
    split_payload = _read_json(_require(ctx, SPLIT_FILE, "split"), "split", ctx.hash)
    vocab_payload = _read_json(_require(ctx, VOCAB_FILE, "split"), "split", ctx.hash)
    docs = {doc.id: doc for doc in load_corpus(ctx.config.corpus_path)}
    tokens = vocab_payload["tokens"]
    vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)}, id_to_token=tokens)
    model_config = ctx.config.model_config(vocab.size)

    split_docs: dict[str, list[Document]] = {}
    tokenized: dict[str, list[TokenizedExample]] = {}
    for name in ("train", "validation", "test"):
        try:
            members = [docs[doc_id] for doc_id in split_payload[name]]
        except KeyError as exc:
            raise StageError(
                "split", f"split references document {exc} absent from the corpus file"
            ) from exc
        split_docs[name] = members
        tokenized[name] = tokenize_documents(
            members, vocab, model_config.max_source_len, model_config.max_target_len
        )
    return _Corpus(
        split_docs=split_docs,
        vocab=vocab,
        train=tokenized["train"],
        validation=tokenized["validation"],
        test=tokenized["test"],
    )


def _stage_split(ctx: _Context) -> str:
    outputs = (SPLIT_FILE, VOCAB_FILE)
    if _outputs_fresh(ctx, "split", outputs):
        return "up to date"
    try:
        docs = load_corpus(ctx.config.corpus_path)
    except (CorpusError, FileNotFoundError) as exc:
        raise StageError("split", str(exc)) from exc
    limit = ctx.config.max_documents
    if limit and limit < len(docs):
        order = list(range(len(docs)))
        random.Random(ctx.config.seed).shuffle(order)
        docs = [docs[i] for i in sorted(order[:limit])]
    try:
        split = split_corpus(docs, ctx.config.seed)
        vocab = build_vocab(split.train, ctx.config.max_vocab_size, ctx.config.min_count)
    except CorpusError as exc:
        raise StageError("split", str(exc)) from exc
    _write_json(
        ctx.path(SPLIT_FILE),
        {
            "config_hash": ctx.hash,
            "train": [d.id for d in split.train],
            "validation": [d.id for d in split.validation],
            "test": [d.id for d in split.test],
        },
    )
    _write_json(ctx.path(VOCAB_FILE), {"config_hash": ctx.hash, "tokens": vocab.id_to_token})
    return f"split {len(split.train)}/{len(split.validation)}/{len(split.test)}, vocab {vocab.size}"


def _stage_finetune(ctx: _Context) -> str:
    outputs = (STANDARD_CKPT, FINETUNE_CKPT, FINETUNE_METRICS)
    if _outputs_fresh(ctx, "finetune", outputs):
        return "up to date"
    prepared = _load_prepared(ctx)
    model_config = ctx.config.model_config(prepared.vocab.size)
    standard = init_params(model_config, ctx.config.seed)
    meta = {"config_hash": ctx.hash}
    save_checkpoint(standard, ctx.path(STANDARD_CKPT), meta | {"stage": "standard"})
    best, history = finetune_stage(
        standard,
        prepared.train,
        prepared.validation,
        ctx.config.finetune_config(),
        ctx.config.decode_config(),
        seed=ctx.config.seed,
    )
    save_checkpoint(best, ctx.path(FINETUNE_CKPT), meta | {"stage": "finetune"})
    with ctx.path(FINETUNE_METRICS).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": ctx.hash, "kind": "finetune_metrics"}) + "\n")
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return f"{len(history)} epochs, best val quality {max(h['val_quality'] for h in history):.4f}"


def _stage_gen_cands(ctx: _Context) -> str:
    outputs = (FINETUNE_CANDIDATES,)
    if _outputs_fresh(ctx, "gen-cands", outputs):
        return "up to date"
    params = _load_checkpoint(ctx, FINETUNE_CKPT, "finetune")
    prepared = _load_prepared(ctx)
    brio_config = ctx.config.brio_config()
    ranked = [
        generate_candidates(params, ex, brio_config, prepared.vocab) for ex in prepared.train
    ]
    write_candidate_cache(ctx.path(FINETUNE_CANDIDATES), ranked, ctx.hash)
    return f"{len(ranked)} candidate sets"


def _stage_brio(ctx: _Context) -> str:
    outputs = (BRIO_CKPT, BRIO_METRICS)
    if _outputs_fresh(ctx, "brio", outputs):
        return "up to date"
    params = _load_checkpoint(ctx, FINETUNE_CKPT, "finetune")
    prepared = _load_prepared(ctx)
    cache_path = _require(ctx, FINETUNE_CANDIDATES, "gen-cands")
    try:
        ranked, cache_hash = load_candidate_cache(cache_path, prepared.train)
    except (ValueError, KeyError, TypeError) as exc:
        raise StageError(
            "gen-cands", f"{FINETUNE_CANDIDATES} is unreadable ({exc!r}); use --force to rebuild"
        ) from exc
    if cache_hash != ctx.hash:
        raise StageError(
            "gen-cands",
            f"{FINETUNE_CANDIDATES} was produced by a different configuration "
            f"(hash {cache_hash}, expected {ctx.hash}); use --force to rebuild",
        )
    if [r.doc_id for r in ranked] != [ex.doc_id for ex in prepared.train]:
        raise StageError(
            "gen-cands",
            f"{FINETUNE_CANDIDATES} holds {len(ranked)} candidate sets that are not the "
            f"{len(prepared.train)} training documents in split order; use --force to rebuild",
        )
    trained, history = brio_train_stage(params, ranked, ctx.config.brio_config(), seed=ctx.config.seed)
    save_checkpoint(trained, ctx.path(BRIO_CKPT), {"config_hash": ctx.hash, "stage": "brio"})
    with ctx.path(BRIO_METRICS).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": ctx.hash, "kind": "brio_metrics"}) + "\n")
        for row in history:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return f"{len(history)} steps"


def _stage_loop(ctx: _Context) -> str:
    brio_config = ctx.config.brio_config()
    cache_names = [
        f"candidates_loop{i}.jsonl" for i in range(1, brio_config.loop_iterations + 1)
    ]
    outputs = (LOOP_CKPT, LOOP_REPORT, *cache_names)
    if _outputs_fresh(ctx, "loop", outputs):
        return "up to date"
    params = _load_checkpoint(ctx, FINETUNE_CKPT, "finetune")
    prepared = _load_prepared(ctx)

    def sink(iteration: int, ranked: list[RankedCandidateSet]) -> None:
        write_candidate_cache(
            ctx.path(f"candidates_loop{iteration}.jsonl"), ranked, ctx.hash
        )

    best, report = brio_loop(
        params,
        prepared.train,
        prepared.validation,
        prepared.test,
        brio_config,
        prepared.vocab,
        seed=ctx.config.seed,
        candidate_sink=sink,
    )
    save_checkpoint(best, ctx.path(LOOP_CKPT), {"config_hash": ctx.hash, "stage": "loop"})
    _write_json(ctx.path(LOOP_REPORT), {"config_hash": ctx.hash, "iterations": report})
    return f"{len(report)} iterations"


def _stage_evaluate(ctx: _Context) -> str:
    outputs = (EVAL_FILE,)
    if _outputs_fresh(ctx, "evaluate", outputs):
        return "up to date"
    prepared = _load_prepared(ctx)
    decode_config = ctx.config.decode_config()
    producers = {STANDARD_CKPT: "finetune", FINETUNE_CKPT: "finetune", BRIO_CKPT: "brio", LOOP_CKPT: "loop"}
    rows = []
    per_doc_payload = {}
    for label, filename in _REPORT_SYSTEMS:
        if not ctx.path(filename).exists():
            continue
        params = _load_checkpoint(ctx, filename, producers[filename])
        if params.config.vocab_size != prepared.vocab.size:
            raise StageError(
                "evaluate",
                f"{filename} vocabulary size {params.config.vocab_size} does not match "
                f"the current vocabulary ({prepared.vocab.size})",
            )
        per_doc, means = evaluate(params, prepared.test, decode_config)
        rows.append({"system": label, **means})
        per_doc_payload[label] = [
            {"doc_id": doc_id, "r1": t.rouge1.f1, "r2": t.rouge2.f1, "rl": t.rougeL.f1}
            for doc_id, t in per_doc
        ]
    if not rows:
        raise StageError("finetune", "no checkpoints to evaluate; run 'finetune' first")
    _write_json(
        ctx.path(EVAL_FILE),
        {"config_hash": ctx.hash, "rows": rows, "per_document": per_doc_payload},
    )
    return f"{len(rows)} systems"


def _stage_report(ctx: _Context) -> str:
    outputs = (REPORT_TXT, REPORT_CSV)
    if _outputs_fresh(ctx, "report", outputs):
        return "up to date"
    payload = _read_json(_require(ctx, EVAL_FILE, "evaluate"), "evaluate", ctx.hash)
    rows = [ReportRow(r["system"], r["r1"], r["r2"], r["rl"]) for r in payload["rows"]]
    ctx.path(REPORT_TXT).write_text(emit_report(rows, "text"), encoding="utf-8")
    ctx.path(REPORT_CSV).write_text(emit_report(rows, "csv"), encoding="utf-8")
    return f"{len(rows)} rows"


_STAGE_FUNCS = {
    "split": _stage_split,
    "finetune": _stage_finetune,
    "gen-cands": _stage_gen_cands,
    "brio": _stage_brio,
    "loop": _stage_loop,
    "evaluate": _stage_evaluate,
    "report": _stage_report,
}


def run_pipeline(
    config: ExperimentConfig,
    stages: Sequence[str],
    force: bool = False,
    stream=None,
) -> int:
    """Run the selected stages in order; returns a process exit status."""
    stream = stream if stream is not None else sys.stdout
    for stage in stages:
        if stage not in _STAGE_FUNCS:
            print(f"error: unknown stage '{stage}'", file=sys.stderr)
            return 2
    try:
        out = config.out_dir
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    ctx = _Context(config=config, out=out, force=force)
    for stage in stages:
        try:
            note = _STAGE_FUNCS[stage](ctx)
        except StageError as exc:
            print(f"error in stage '{exc.stage}': {exc}", file=sys.stderr)
            return 1
        print(f"[{stage}] {note}", file=stream)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="briosum",
        description="Summarization experiment pipeline: fine-tune, generate "
        "candidates, rank-train, loop, evaluate, report.",
    )
    parser.add_argument("stage", choices=STAGES + ("all",), help="pipeline stage to run")
    parser.add_argument("--config", required=True, help="path to the INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override experiment.seed")
    parser.add_argument("--out", default=None, help="override experiment.out_dir")
    parser.add_argument(
        "--force", action="store_true", help="re-run stages even if their outputs exist"
    )
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config, seed=args.seed, out_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stages = list(STAGES) if args.stage == "all" else [args.stage]
    return run_pipeline(config, stages, force=args.force)


if __name__ == "__main__":
    raise SystemExit(main())

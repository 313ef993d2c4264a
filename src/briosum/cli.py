"""Experiment harness: config files, stage orchestration, report tables.

The pipeline is split -> finetune -> gen-cands -> brio -> loop -> evaluate
-> report. Every stage writes self-describing artifacts into the output
directory (each embeds the hash of the resolved configuration); re-running
a completed stage is a no-op unless --force is given, and resuming against
artifacts from a different configuration is refused. A stage function only
computes: ``_run_stage`` loads the inputs that ``_STAGES`` lists, and
publishes the outputs the function returns. Artifacts are written through
one writer, ``_write``, whole or not at all, and read through one reader,
``_load``: one that is missing or does not load whole, or a checkpoint of
another model than 'finetune' would build now, is an error naming its
stage. A ``run_pipeline`` call tokenizes the corpus at most once, and it
holds the output directory's ``.lock`` for its whole run: a second run on
the directory meanwhile exits with status 2 and writes nothing.

Configuration files are INI: one section per subsystem, flat keys. The keys
and defaults of [model], [finetune], [decode] and [brio] are the fields of
ModelConfig, FinetuneConfig, DecodeConfig and BrioConfig. The ``--seed`` and
``--out`` flags override ``experiment.seed`` and ``experiment.out_dir``.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import fcntl
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .brio import (
    BrioConfig,
    FinetuneConfig,
    RankedCandidateSet,
    brio_loop,
    brio_train_stage,
    evaluate,
    finetune_stage,
    generate_candidate_sets,
    generate_candidates,  # noqa: F401  (perfbench's tracing test reaches it as cli.generate_candidates)
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
from .decode import DecodeConfig, check_decode_len
from .model import (
    CheckpointError,
    ModelConfig,
    ModelParams,
    check_candidates,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

SPLIT_FILE = "split.json"
VOCAB_FILE = "vocab.json"
STANDARD_CKPT = "standard.ckpt"
FINETUNE_CKPT = "finetune.ckpt"
FINETUNE_METRICS = "finetune_metrics.json"
FINETUNE_CANDIDATES = "candidates_finetune.jsonl"
LOOP_CANDIDATES = "candidates_loop{}.jsonl"
BRIO_CKPT = "brio.ckpt"
BRIO_METRICS = "brio_metrics.json"
LOOP_CKPT = "loop.ckpt"
LOOP_REPORT = "loop_report.json"
EVAL_FILE = "eval.json"
REPORT_TXT = "report.txt"
REPORT_CSV = "report.csv"
# Held with an exclusive flock for a run's whole length, so that two runs
# never share one directory's temporary names; empty, and no artifact.
LOCK_FILE = ".lock"

_REPORT_SYSTEMS = (
    ("standard", STANDARD_CKPT),
    ("fine-tuned", FINETUNE_CKPT),
    ("BRIO", BRIO_CKPT),
    ("BRIO-Loop", LOOP_CKPT),
)


def _keys(config_class) -> dict[str, object]:
    """A config class's INI keys: its fields with a plain default."""
    return {f.name: f.default for f in fields(config_class) if f.default is not MISSING}


# Each section's keys and typed defaults. The type of a default picks the
# parser of the key's value; the config classes hold the recipe's defaults.
_SECTIONS: dict[str, dict[str, object]] = {
    "experiment": {"corpus": "", "seed": 7, "out_dir": "", "max_documents": 0},
    "corpus": {"max_vocab_size": 2000, "min_count": 1},
    "model": _keys(ModelConfig),
    "finetune": _keys(FinetuneConfig),
    "decode": _keys(DecodeConfig),
    "brio": _keys(BrioConfig),
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


@dataclass
class ExperimentConfig:
    """The resolved flat configuration plus typed views of each section."""

    values: dict[str, dict[str, str]]

    @staticmethod
    def load(path: str | Path, seed: int | None = None, out_dir: str | None = None) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser(interpolation=None)  # every value literal, '%' included
        try:
            parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        # Defaults as raw values; bools in lower case, as INI files write them.
        values = {
            section: {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in keys.items()}
            for section, keys in _SECTIONS.items()
        }
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _SECTIONS[section]:
                    raise ConfigError(f"{path}: unknown key {section}.{key}")
                values[section][key] = raw.strip()
        config = ExperimentConfig(values)
        if seed is not None:
            config.values["experiment"]["seed"] = str(seed)
        if out_dir is not None:
            config.values["experiment"]["out_dir"] = str(out_dir)
        config.validate()
        return config

    def _parse(self, section: str, key: str):
        raw = self.values[section][key]
        default = _SECTIONS[section][key]
        if isinstance(default, bool):
            if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
                raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        try:
            return type(default)(raw)
        except ValueError as exc:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ConfigError(f"{section}.{key} must be {kind}, got {raw!r}") from exc

    def _section(self, section: str) -> dict[str, object]:
        return {key: self._parse(section, key) for key in _SECTIONS[section]}

    @property
    def corpus_path(self) -> Path:
        return Path(self.values["experiment"]["corpus"])

    @property
    def seed(self) -> int:
        return self._parse("experiment", "seed")

    @property
    def out_dir(self) -> Path:
        raw = self.values["experiment"]["out_dir"]
        if not raw:
            raise ConfigError("no output directory: set experiment.out_dir or pass --out")
        return Path(raw)

    @property
    def max_documents(self) -> int:
        return self._parse("experiment", "max_documents")

    @property
    def max_vocab_size(self) -> int:
        return self._parse("corpus", "max_vocab_size")

    @property
    def min_count(self) -> int:
        return self._parse("corpus", "min_count")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, **self._section("model"))

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(**self._section("finetune"))

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(**self._section("decode"))

    def brio_config(self) -> BrioConfig:
        return BrioConfig(decode=self.decode_config(), **self._section("brio"))

    def validate(self) -> None:
        for section in _SECTIONS:
            self._section(section)
        if not self.values["experiment"]["corpus"]:
            raise ConfigError("experiment.corpus is required")
        if not self.corpus_path.exists():
            raise ConfigError(f"corpus file not found: {self.corpus_path}")
        if self.max_documents < 0:
            raise ConfigError("experiment.max_documents must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"experiment.seed must be >= 0, got {self.seed}")
        if self.max_vocab_size < 5:  # the 4 special tokens plus one word
            raise ConfigError(f"corpus.max_vocab_size must be >= 5, got {self.max_vocab_size}")
        if self.min_count < 1:
            raise ConfigError(f"corpus.min_count must be >= 1, got {self.min_count}")
        try:
            model = self.model_config(vocab_size=5)
            self.finetune_config()
            # Candidate searches close their capped hypotheses with EOS.
            check_decode_len(model.max_target_len, self.brio_config().decode, close=True)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

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


@dataclass(frozen=True)
class ReportRow:
    system: str
    r1: float
    r2: float
    rl: float

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "rl"):
            value = getattr(self, name)
            if not (0.0 <= value <= 100.0):
                raise ValueError(f"ReportRow.{name} must be in [0, 100], got {value}")


def emit_report(rows: Sequence[ReportRow], format: str = "text") -> str:
    """Render the systems table with two-decimal fixed columns."""
    if not rows:
        raise ValueError("emit_report requires at least one row")
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


def _strings(items) -> list[str]:
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise TypeError("expected a list of strings")
    return items


def _report_rows(items) -> list[ReportRow]:
    rows = [ReportRow(r["system"], r["r1"], r["r2"], r["rl"]) for r in items]
    emit_report(rows)  # raises unless the rows can be shown
    return rows


# The JSON fields that stages read, each with a check that returns the value
# the stages use and raises unless it is usable.
_JSON_FIELDS = {
    SPLIT_FILE: {"train": _strings, "validation": _strings, "test": _strings},
    VOCAB_FILE: {"tokens": _strings},
    EVAL_FILE: {"rows": _report_rows},
}


@dataclass
class _Corpus:
    vocab: Vocabulary
    train: list[TokenizedExample]
    validation: list[TokenizedExample]
    test: list[TokenizedExample]


@dataclass
class _Context:
    config: ExperimentConfig
    out: Path
    force: bool

    @cached_property
    def hash(self) -> str:
        return self.config.config_hash()

    def path(self, name: str) -> Path:
        return self.out / name

    @cached_property
    def producers(self) -> dict[str, str]:
        iterations = range(2, self.config.brio_config().loop_iterations + 1)
        return {LOOP_CANDIDATES.format(i): "loop" for i in iterations} | _PRODUCERS

    def outputs(self, stage: str) -> list[str]:
        """The artifacts ``stage`` writes, in the order it publishes them:
        the loop's candidate caches come first."""
        return [name for name, producer in self.producers.items() if producer == stage]

    @cached_property
    def prepared(self) -> _Corpus:
        """The split's documents, tokenized with the stored vocabulary."""
        split, tokens = _load(self, SPLIT_FILE), _load(self, VOCAB_FILE)["tokens"]
        vocab = Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)}, id_to_token=tokens)
        model_config = self.config.model_config(vocab.size)
        docs = {doc.id: doc for doc in _documents(self.config)}
        parts = []
        for name in ("train", "validation", "test"):
            try:
                members = [docs[doc_id] for doc_id in split[name]]
            except KeyError as exc:
                raise StageError(
                    "split", f"split references document {exc} absent from the corpus file"
                ) from exc
            parts.append(tokenize_documents(
                members, vocab, model_config.max_source_len, model_config.max_target_len
            ))
        return _Corpus(vocab, *parts)


def _documents(config: ExperimentConfig) -> list[Document]:
    try:
        return load_corpus(config.corpus_path)
    except (CorpusError, OSError) as exc:
        raise StageError("split", str(exc)) from exc


def _load(ctx: _Context, name: str):
    """An artifact as its consumers use it: a checkpoint's parameters, a
    cache's candidate sets for the train split in split order, or a JSON
    payload whose checked fields hold what their checks return. One that is
    missing, unreadable, stamped by another configuration or fails its
    content checks, or a checkpoint of another model than 'finetune' would
    build now for the stored vocabulary, is a StageError naming the stage
    that writes it."""
    stage = ctx.producers[name]
    path = ctx.path(name)
    if not path.exists():
        raise StageError(stage, f"missing artifact {name}; run the '{stage}' stage first")
    try:
        if path.suffix == ".ckpt":
            value, meta = load_checkpoint(path)
            found = meta.get("config_hash")
        elif path.suffix == ".jsonl":
            value, found = load_candidate_cache(path, ctx.prepared.train)
        else:
            value = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(value, dict):
                raise TypeError("not a JSON object")
            found = value.get("config_hash")
    except CheckpointError as exc:
        raise StageError(stage, f"{exc}; use --force to rebuild") from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise StageError(stage, f"{name} is unreadable ({exc!r}); use --force to rebuild") from exc
    if found != ctx.hash:
        raise StageError(
            stage,
            f"{name} was produced by a different configuration "
            f"(hash {found}, expected {ctx.hash}); use --force to rebuild",
        )
    if path.suffix == ".ckpt":
        expected = ctx.config.model_config(ctx.prepared.vocab.size)
        if value.config != expected:
            changed = ", ".join(
                f"{f.name} {getattr(value.config, f.name)} (expected {getattr(expected, f.name)})"
                for f in fields(expected)
                if getattr(value.config, f.name) != getattr(expected, f.name)
            )
            raise StageError(stage, f"{name} was built for another model: {changed}; use --force to rebuild")
    for field, check in _JSON_FIELDS.get(name, {}).items():
        try:
            value[field] = check(value.get(field))
        except (KeyError, TypeError, ValueError) as exc:
            raise StageError(
                stage, f"{name} has no usable '{field}' ({exc!r}); use --force to rebuild"
            ) from exc
    if path.suffix == ".jsonl":
        train = ctx.prepared.train
        if [r.doc_id for r in value] != [ex.doc_id for ex in train]:
            raise StageError(
                stage,
                f"{name} holds {len(value)} candidate sets that are not the "
                f"{len(train)} training documents in split order; use --force to rebuild",
            )
        model_config = ctx.config.model_config(ctx.prepared.vocab.size)
        for rs in value:
            try:
                check_candidates(model_config, [c.token_ids for c in rs.candidates])
            except (ValueError, TypeError) as exc:
                raise StageError(
                    stage, f"{name}: document {rs.doc_id}: {exc}; use --force to rebuild"
                ) from exc
    return value


def _publish(path: Path, write) -> None:
    """Replace ``path`` whole or not at all: ``write`` fills a temporary
    sibling, which one rename then moves into place."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write(ctx: _Context, name: str, value) -> None:
    """Publish an artifact as ``_load`` reads it back: a checkpoint of
    parameters, a candidate cache of ranked sets, or a JSON payload, each
    stamped with the config hash; a report as its plain text."""
    path = ctx.path(name)
    if path.suffix == ".ckpt":
        meta = {"config_hash": ctx.hash, "stage": path.stem}
        _publish(path, lambda tmp: save_checkpoint(value, tmp, meta))
    elif path.suffix == ".jsonl":
        _publish(path, lambda tmp: write_candidate_cache(tmp, value, ctx.hash))
    elif path.suffix == ".json":
        text = json.dumps({"config_hash": ctx.hash, **value}, sort_keys=True)
        _publish(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))
    else:
        _publish(path, lambda tmp: tmp.write_text(value, encoding="utf-8"))


def _outputs_fresh(ctx: _Context, stage: str) -> bool:
    """True when the stage's inputs and outputs all exist and each output
    loads whole through ``_load``; one that does not load is a StageError.
    A stage with a missing input runs, and its read names the stage that
    writes that input."""
    names = ctx.outputs(stage)
    present = (*_STAGES[stage].reads, *names)
    if ctx.force or not names or not all(ctx.path(name).exists() for name in present):
        return False
    for name in names:
        _load(ctx, name)
    return True


def _stage_split(ctx: _Context) -> tuple[dict, str]:
    docs = _documents(ctx.config)
    limit = ctx.config.max_documents
    if limit and limit < len(docs):
        order = list(range(len(docs)))
        random.Random(ctx.config.seed).shuffle(order)
        docs = [docs[i] for i in sorted(order[:limit])]
    split = split_corpus(docs, ctx.config.seed)
    vocab = build_vocab(split.train, ctx.config.max_vocab_size, ctx.config.min_count)
    ids = {name: [d.id for d in getattr(split, name)] for name in ("train", "validation", "test")}
    ctx.__dict__.pop("prepared", None)  # built from the split this stage replaces
    note = f"split {len(split.train)}/{len(split.validation)}/{len(split.test)}, vocab {vocab.size}"
    return {SPLIT_FILE: ids, VOCAB_FILE: {"tokens": vocab.id_to_token}}, note


def _stage_finetune(ctx: _Context) -> tuple[dict, str]:
    prepared = ctx.prepared
    standard = init_params(ctx.config.model_config(prepared.vocab.size), ctx.config.seed)
    best, history = finetune_stage(
        standard,
        prepared.train,
        prepared.validation,
        ctx.config.finetune_config(),
        ctx.config.decode_config(),
        seed=ctx.config.seed,
    )
    # finetune_stage trains a copy, so ``standard`` still holds the initial draw.
    note = f"{len(history)} epochs, best val quality {max(h['val_quality'] for h in history):.4f}"
    return {STANDARD_CKPT: standard, FINETUNE_CKPT: best, FINETUNE_METRICS: {"history": history}}, note


def _stage_gen_cands(ctx: _Context, params: ModelParams) -> tuple[dict, str]:
    prepared = ctx.prepared
    ranked = generate_candidate_sets(params, prepared.train, ctx.config.brio_config(), prepared.vocab)
    return {FINETUNE_CANDIDATES: ranked}, f"{len(ranked)} candidate sets"


def _stage_brio(ctx: _Context, params: ModelParams, ranked: list[RankedCandidateSet]) -> tuple[dict, str]:
    trained, history = brio_train_stage(params, ranked, ctx.config.brio_config(), seed=ctx.config.seed)
    return {BRIO_CKPT: trained, BRIO_METRICS: {"history": history}}, f"{len(history)} steps"


def _stage_loop(ctx: _Context, params: ModelParams) -> tuple[dict, str]:
    prepared = ctx.prepared
    best, report, rounds = brio_loop(
        params,
        prepared.train,
        prepared.validation,
        prepared.test,
        ctx.config.brio_config(),
        prepared.vocab,
        seed=ctx.config.seed,
    )
    caches = {LOOP_CANDIDATES.format(iteration): sets for iteration, sets in rounds.items()}
    return {**caches, LOOP_CKPT: best, LOOP_REPORT: {"iterations": report}}, f"{len(report)} iterations"


def _stage_evaluate(ctx: _Context, *systems: ModelParams) -> tuple[dict, str]:
    decode_config = ctx.config.decode_config()
    rows = []
    per_doc_payload = {}
    for (label, _), params in zip(_REPORT_SYSTEMS, systems):
        per_doc, means = evaluate(params, ctx.prepared.test, decode_config)
        rows.append({"system": label, **means})
        per_doc_payload[label] = [
            {"doc_id": doc_id, "r1": t.rouge1.f1, "r2": t.rouge2.f1, "rl": t.rougeL.f1}
            for doc_id, t in per_doc
        ]
    return {EVAL_FILE: {"rows": rows, "per_document": per_doc_payload}}, f"{len(rows)} systems"


def _stage_report(ctx: _Context, evaluation: dict) -> tuple[dict, str]:
    rows = evaluation["rows"]
    return {REPORT_TXT: emit_report(rows, "text"), REPORT_CSV: emit_report(rows, "csv")}, f"{len(rows)} rows"


class _Stage(NamedTuple):
    run: Callable[..., tuple[dict, str]]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


# Each stage in pipeline order: its function, the artifacts it reads and
# the artifacts it writes. Every stage after ``split`` reads the split and
# the vocabulary, through ``_Context.prepared``; ``_run_stage`` loads the
# rest and passes them to the function in this order. The loop also writes
# a candidate cache for each iteration from the second on, ahead of its
# listed outputs (``_Context.producers``). The reports are not listed:
# they are re-rendered on every run and carry no config hash, so they stay
# byte-identical.
_SPLIT = (SPLIT_FILE, VOCAB_FILE)
_STAGES = {
    "split": _Stage(_stage_split, (), _SPLIT),
    "finetune": _Stage(_stage_finetune, _SPLIT, (STANDARD_CKPT, FINETUNE_CKPT, FINETUNE_METRICS)),
    "gen-cands": _Stage(_stage_gen_cands, (*_SPLIT, FINETUNE_CKPT), (FINETUNE_CANDIDATES,)),
    "brio": _Stage(_stage_brio, (*_SPLIT, FINETUNE_CKPT, FINETUNE_CANDIDATES), (BRIO_CKPT, BRIO_METRICS)),
    "loop": _Stage(_stage_loop, (*_SPLIT, BRIO_CKPT), (LOOP_CKPT, LOOP_REPORT)),
    "evaluate": _Stage(_stage_evaluate, (*_SPLIT, *(name for _, name in _REPORT_SYSTEMS)), (EVAL_FILE,)),
    "report": _Stage(_stage_report, (EVAL_FILE,), ()),
}
STAGES = tuple(_STAGES)
_PRODUCERS = {name: stage for stage, entry in _STAGES.items() for name in entry.writes}


def _run_stage(ctx: _Context, stage: str) -> str:
    """Run one stage: load the inputs it lists, call its function, then
    publish the outputs that it returns, in order. One that fails leaves
    none of its outputs behind: not the listed ones of an earlier run, nor
    any it has published. Nor does it leave the two report tables, which
    are rendered from every artifact before them. An exception it raises
    that is not already a StageError becomes one naming this stage."""
    entry = _STAGES[stage]
    try:
        inputs = [_load(ctx, name) for name in entry.reads if name not in _SPLIT]
        artifacts, note = entry.run(ctx, *inputs)
        for name, value in artifacts.items():
            _write(ctx, name, value)
        return note
    except BaseException as exc:
        for name in (*ctx.outputs(stage), REPORT_TXT, REPORT_CSV):
            with contextlib.suppress(OSError):  # the stage's own error is the one to report
                ctx.path(name).unlink(missing_ok=True)
        if isinstance(exc, Exception) and not isinstance(exc, StageError):
            raise StageError(stage, str(exc) or type(exc).__name__) from exc
        raise


def run_pipeline(
    config: ExperimentConfig,
    stages: Sequence[str],
    force: bool = False,
    stream=None,
) -> int:
    """Run the selected stages in order; returns a process exit status."""
    stream = stream if stream is not None else sys.stdout
    for stage in stages:
        if stage not in _STAGES:
            print(f"error: unknown stage '{stage}'", file=sys.stderr)
            return 2
    try:
        out = config.out_dir
        out.mkdir(parents=True, exist_ok=True)
        lock = (out / LOCK_FILE).open("a")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print(f"error: {out} is in use by another run", file=sys.stderr)
            return 2
        ctx = _Context(config=config, out=out, force=force)
        for stage in stages:
            try:
                note = "up to date" if _outputs_fresh(ctx, stage) else _run_stage(ctx, stage)
            except StageError as exc:
                print(f"error in stage '{exc.stage}': {exc}", file=sys.stderr)
                return 1
            except KeyboardInterrupt:
                print(f"interrupted in stage '{stage}'", file=sys.stderr)
                return 130
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

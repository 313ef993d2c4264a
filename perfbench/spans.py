"""In-memory spans around briosum's public functions, and the per-layer
metrics computed from them.

``Tracer.installed`` rebinds each traced function in this process only: the
defining module, every ``briosum`` module that imported the name with
``from .x import``, and the package namespace all get the same wrapper, and
the originals come back when the block ends. Nothing under ``src/`` is
edited. Callers must reach briosum through module attributes
(``brio.brio_train_stage``), never through names bound before tracing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "run", "parent", "start", "end", "info")

    def __init__(self, name: str, run: int, parent: int):
        self.name = name
        self.run = run
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _grad_mode(tracer, args, kwargs, result):
    return "grad" if importlib.import_module("briosum.autodiff").grad_enabled() else "nograd"


def _optimizer_kind(tracer, args, kwargs, result):
    return _arg(args, kwargs, 1, "state").kind


def _beam_lengths(tracer, args, kwargs, result):
    return [len(h.tokens) for h in result]


def _greedy_length(tracer, args, kwargs, result):
    return [len(result.tokens)]


def _kept_candidates(tracer, args, kwargs, result):
    return len(result.candidates)


def _train_inputs(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    ranked_sets = _arg(args, kwargs, 1, "ranked_sets")
    config = _arg(args, kwargs, 2, "config")
    tracer.train_inputs.append((params, ranked_sets, config))
    return sum(1 for rs in ranked_sets if len(rs.candidates) < 2)


# (module, attribute, info): the span is named "<module>.<last attribute part>".
TARGETS = (
    ("corpus", "load_corpus", None),
    ("corpus", "tokenize_documents", None),
    ("rouge", "score_pair", None),
    ("autodiff", "Tensor.backward", None),
    ("model", "encode_source", None),
    ("model", "decoder_logprobs", _grad_mode),
    ("model", "candidate_scores", None),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("optim", "optimizer_step", _optimizer_kind),
    ("decode", "diverse_beam_search", _beam_lengths),
    ("decode", "greedy_decode", _greedy_length),
    ("brio", "generate_candidates", _kept_candidates),
    ("brio", "brio_train_stage", _train_inputs),
    ("brio", "mean_greedy_rouge", None),
    ("brio", "write_candidate_cache", None),
    ("brio", "load_candidate_cache", None),
)


class Tracer:
    """Spans of one benchmark run; ``run`` is the index of the traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.train_inputs: list[tuple] = []
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.run, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI stage."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, info):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, run: int):
        """Rebind every target for the duration of one traced pass."""
        self.run = run
        modules = [m for n, m in list(sys.modules.items()) if n == "briosum" or n.startswith("briosum.")]
        patches: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, info in TARGETS:
                owner = importlib.import_module(f"briosum.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(f"{module_name}.{leaf}", original, info)
                holders = [owner] if path else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "run": s.run, "parent": s.parent,
                          "start": s.start, "end": s.end, "info": s.info}
                fh.write(json.dumps(record) + "\n")


# -- per-layer metrics ------------------------------------------------------------

STAGE_NAMES = ("split", "finetune", "gen-cands", "brio", "loop", "evaluate", "report")

# name -> (unit, better); the order is the order metrics are printed in.
PER_LAYER = {
    "corpus.load_calls": ("count", "lower"),
    "corpus.load_ms": ("ms", "lower"),
    "corpus.tokenize_ms": ("ms", "lower"),
    "rouge.score_pair_calls": ("count", "lower"),
    "rouge.score_pair_us.p50": ("us", "lower"),
    "rouge.score_pair_us.p90": ("us", "lower"),
    "autodiff.backward_calls_per_step": ("count", "lower"),
    "autodiff.backward_ms.p50": ("ms", "lower"),
    "autodiff.backward_ms.p90": ("ms", "lower"),
    "autodiff.tape_nodes_per_doc": ("count", "lower"),
    "model.encode_calls": ("count", "lower"),
    "model.encode_ms.p50": ("ms", "lower"),
    "model.decoder_calls": ("count", "lower"),
    "model.decoder_ms.grad.p50": ("ms", "lower"),
    "model.decoder_ms.nograd.p50": ("ms", "lower"),
    "model.candidate_scores_ms.p50": ("ms", "lower"),
    "optim.steps": ("count", "lower"),
    "optim.adafactor_step_ms.p50": ("ms", "lower"),
    "optim.adam_step_ms.p50": ("ms", "lower"),
    "decode.beam_ms_per_doc.p50": ("ms", "lower"),
    "decode.beam_ms_per_doc.p90": ("ms", "lower"),
    "decode.greedy_ms_per_doc.p50": ("ms", "lower"),
    "decode.greedy_ms_per_doc.p90": ("ms", "lower"),
    "decode.decoder_calls_per_doc": ("count", "lower"),
    "decode.beam_self_ms_per_doc": ("ms", "lower"),
    "decode.hyp_len_mean": ("tokens", "lower"),
    "brio.generate_candidates_ms.p50": ("ms", "lower"),
    "brio.train_stage_self_ms": ("ms", "lower"),
    "brio.mean_greedy_rouge_ms": ("ms", "lower"),
    "brio.unique_cand_ratio": ("ratio", "higher"),
    "brio.mle_only_sets": ("count", "lower"),
    **{f"cli.stage_s.{stage}": ("s", "lower") for stage in STAGE_NAMES},
    "cli.checkpoint_save_ms": ("ms", "lower"),
    "cli.checkpoint_load_ms": ("ms", "lower"),
    "cli.checkpoint_loads": ("count", "lower"),
    "cli.cache_write_ms": ("ms", "lower"),
    "cli.cache_load_ms": ("ms", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Counts that must repeat exactly for one seed; taken from traced pass 0.
COUNTS = (
    "corpus.load_calls",
    "rouge.score_pair_calls",
    "autodiff.backward_calls_per_step",
    "autodiff.tape_nodes_per_doc",
    "model.encode_calls",
    "model.decoder_calls",
    "optim.steps",
    "decode.decoder_calls_per_doc",
    "decode.hyp_len_mean",
    "brio.mle_only_sets",
    "cli.checkpoint_loads",
    "cli.artifact_bytes",
)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _median(values: list[float]) -> float:
    return float(np.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_tape_nodes(loss) -> int:
    """Recorded ops in the graph behind ``loss`` (nodes carrying a vjp)."""
    seen: set[int] = set()
    stack = [loss]
    nodes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None:
            nodes += 1
        stack.extend(node._parents)
    return nodes


def tape_nodes_per_doc(tracer: Tracer) -> float:
    """Mean tape size of ``brio.brio_loss`` over the first traced training
    call's candidate sets, with that call's starting parameters."""
    if not tracer.train_inputs:
        return 0.0
    brio = importlib.import_module("briosum.brio")
    params, ranked_sets, config = tracer.train_inputs[0]
    return float(np.mean([count_tape_nodes(brio.brio_loss(params, rs, config)) for rs in ranked_sets]))


def layer_metrics(tracer: Tracer, artifact_bytes: int, overhead_s: float, overhead_pct: float) -> dict[str, float]:
    spans = tracer.spans
    children: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    self_s = [s.seconds - children.get(i, 0.0) for i, s in enumerate(spans)]
    runs = sorted({s.run for s in spans}) or [0]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def named(name: str, run: int | None = None) -> list[int]:
        return [i for i in by_name.get(name, []) if run is None or spans[i].run == run]

    def ms(name: str, info=None) -> list[float]:
        return [1e3 * spans[i].seconds for i in named(name) if info is None or spans[i].info == info]

    def total_ms(name: str) -> float:
        """Median over traced passes of the summed time in ``name`` spans."""
        return _median([sum(1e3 * spans[i].seconds for i in named(name, r)) for r in runs])

    first = lambda name: named(name, 0)  # noqa: E731
    steps = len(first("optim.optimizer_step"))
    beams = first("decode.diverse_beam_search")
    beam_set = set(beams)
    beam_decoder_calls = sum(1 for i in first("model.decoder_logprobs") if spans[i].parent in beam_set)
    hyp_lengths = [n for i in beams + first("decode.greedy_decode") for n in spans[i].info]
    kept = sum(spans[i].info for i in first("brio.generate_candidates"))
    decoded = sum(len(spans[i].info) for i in beams
                  if spans[i].parent >= 0 and spans[spans[i].parent].name == "brio.generate_candidates")
    score_us = [1e3 * v for v in ms("rouge.score_pair")]

    m = {
        "corpus.load_calls": len(first("corpus.load_corpus")),
        "corpus.load_ms": total_ms("corpus.load_corpus"),
        "corpus.tokenize_ms": total_ms("corpus.tokenize_documents"),
        "rouge.score_pair_calls": len(first("rouge.score_pair")),
        "rouge.score_pair_us.p50": _pct(score_us, 50),
        "rouge.score_pair_us.p90": _pct(score_us, 90),
        "autodiff.backward_calls_per_step": _ratio(len(first("autodiff.backward")), steps),
        "autodiff.backward_ms.p50": _pct(ms("autodiff.backward"), 50),
        "autodiff.backward_ms.p90": _pct(ms("autodiff.backward"), 90),
        "autodiff.tape_nodes_per_doc": tape_nodes_per_doc(tracer),
        "model.encode_calls": len(first("model.encode_source")),
        "model.encode_ms.p50": _pct(ms("model.encode_source"), 50),
        "model.decoder_calls": len(first("model.decoder_logprobs")),
        "model.decoder_ms.grad.p50": _pct(ms("model.decoder_logprobs", "grad"), 50),
        "model.decoder_ms.nograd.p50": _pct(ms("model.decoder_logprobs", "nograd"), 50),
        "model.candidate_scores_ms.p50": _pct(ms("model.candidate_scores"), 50),
        "optim.steps": steps,
        "optim.adafactor_step_ms.p50": _pct(ms("optim.optimizer_step", "adafactor"), 50),
        "optim.adam_step_ms.p50": _pct(ms("optim.optimizer_step", "adam"), 50),
        "decode.beam_ms_per_doc.p50": _pct(ms("decode.diverse_beam_search"), 50),
        "decode.beam_ms_per_doc.p90": _pct(ms("decode.diverse_beam_search"), 90),
        "decode.greedy_ms_per_doc.p50": _pct(ms("decode.greedy_decode"), 50),
        "decode.greedy_ms_per_doc.p90": _pct(ms("decode.greedy_decode"), 90),
        "decode.decoder_calls_per_doc": _ratio(beam_decoder_calls, len(beams)),
        "decode.beam_self_ms_per_doc": _pct([1e3 * self_s[i] for i in named("decode.diverse_beam_search")], 50),
        "decode.hyp_len_mean": _ratio(sum(hyp_lengths), len(hyp_lengths)),
        "brio.generate_candidates_ms.p50": _pct(ms("brio.generate_candidates"), 50),
        "brio.train_stage_self_ms": _pct([1e3 * self_s[i] for i in named("brio.brio_train_stage")], 50),
        "brio.mean_greedy_rouge_ms": _pct(ms("brio.mean_greedy_rouge"), 50),
        "brio.unique_cand_ratio": _ratio(kept, decoded),
        "brio.mle_only_sets": sum(spans[i].info for i in first("brio.brio_train_stage")),
        **{f"cli.stage_s.{stage}": _median([spans[i].seconds for i in named(f"cli.{stage}")]) for stage in STAGE_NAMES},
        "cli.checkpoint_save_ms": total_ms("model.save_checkpoint"),
        "cli.checkpoint_load_ms": total_ms("model.load_checkpoint"),
        "cli.checkpoint_loads": len(first("model.load_checkpoint")),
        "cli.cache_write_ms": total_ms("brio.write_candidate_cache"),
        "cli.cache_load_ms": total_ms("brio.load_candidate_cache"),
        "cli.artifact_bytes": artifact_bytes,
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(m[name]) for name in PER_LAYER}

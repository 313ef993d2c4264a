"""Self-tests of the benchmark: its output checks reject corrupted outputs,
its traced counts repeat exactly for one seed, its metric names match
BENCHMARK.json, and it refuses to run without the briosum sources.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from briosum import cli, corpus, synthetic  # noqa: E402

# Reduced sizes: the same code paths as the benchmark's workloads, in seconds.
SMALL = {
    "pipeline": workloads.Pipeline(docs=15),
    "brio-train": workloads.BrioTrain(sets=8, epochs=2),
    "decode-wide": workloads.DecodeWide(cand_docs=2, greedy_docs=4),
}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small_sets(count: int = 3) -> list:
    docs = synthetic.make_toy_corpus(count, seed=1)
    vocab = corpus.build_vocab(docs, 200)
    examples = corpus.tokenize_documents(docs, vocab, 48, 16)
    rng = random.Random(1)
    return [workloads.substitution_set(ex, vocab, rng, workloads.MAX_SUBSTITUTIONS) for ex in examples]


def test_report_check_accepts_emitted_report_and_rejects_altered_ones():
    rows = [cli.ReportRow(name, 10.0, 5.0, 9.0) for name in workloads.REPORT_SYSTEMS]
    good = cli.emit_report(rows, "csv")
    assert workloads.report_problems(good) == []
    lines = good.splitlines(keepends=True)
    altered = [
        None,
        "",
        "".join(lines[:-1]),  # a system missing
        good.replace("BRIO-Loop", "BRIO-Lop"),
        good.replace("10.00", "110.00", 1),
        good.replace("5.00", "-5.00", 1),
        good.replace("9.00", "nan", 1),
        good.replace("System", "Model"),
    ]
    for text in altered:
        assert workloads.report_problems(text), text


def test_history_checks_reject_non_finite_and_rising_losses():
    history = [{"step": i + 1, "loss": 4.0 - 0.1 * i, "mle": 3.0, "ctr": 0.1} for i in range(6)]
    assert all(workloads.loss_problems(row) == [] for row in history)
    assert workloads.loss_fall_problems(history, 2) == []
    for key in ("loss", "mle", "ctr"):
        assert workloads.loss_problems({**history[0], key: math.nan})
        assert workloads.loss_problems({**history[0], key: math.inf})
    assert workloads.loss_fall_problems(list(reversed(history)), 2)
    flat = [{**row, "loss": 1.0} for row in history]
    assert workloads.loss_fall_problems(flat, 2)


def test_candidate_check_rejects_unsorted_duplicate_unframed_and_oversized_sets():
    ranked = _small_sets(1)[0]
    assert len(ranked.candidates) == 6
    assert [c.quality for c in ranked.candidates] == sorted((c.quality for c in ranked.candidates), reverse=True)
    assert workloads.candidate_set_problems(ranked, 6) == []
    cands = ranked.candidates
    unframed = replace(cands[1], token_ids=cands[1].token_ids[1:])
    inner_eos = replace(cands[1], token_ids=cands[1].token_ids[:2] + (corpus.EOS_ID,) + cands[1].token_ids[2:])
    corrupted = [
        list(reversed(cands)),
        cands[:2] + [cands[1]] + cands[3:],
        [cands[0], unframed] + cands[2:],
        [cands[0], inner_eos] + cands[2:],
        [],
    ]
    for candidates in corrupted:
        assert workloads.candidate_set_problems(replace(ranked, candidates=candidates), 6), candidates
    assert workloads.candidate_set_problems(ranked, 5)


def test_greedy_check_rejects_unframed_and_early_stopped_hypotheses():
    from briosum.decode import Hypothesis

    bos, eos = corpus.BOS_ID, corpus.EOS_ID
    assert workloads.greedy_problems(Hypothesis((bos, 5, 6, eos), -1.0, True), 14) == []
    assert workloads.greedy_problems(Hypothesis((bos,) + (5,) * 13, -1.0, False), 14) == []
    assert workloads.greedy_problems(Hypothesis((5, 6, eos), -1.0, True), 14)
    assert workloads.greedy_problems(Hypothesis((bos, 5, 6), -1.0, False), 14)
    assert workloads.greedy_problems(Hypothesis((bos,) + (5,) * 14, -1.0, False), 14)


def test_digest_mismatch_is_a_failed_operation():
    checker = workloads.Checker()
    first = workloads.PassResult(1.0, {}, "a")
    checker.op(workloads._same_as_first(first, None, "x"))
    checker.op(workloads._same_as_first(workloads.PassResult(1.0, {}, "a"), first, "x"))
    checker.op(workloads._same_as_first(workloads.PassResult(1.0, {}, "b"), first, "x"))
    assert (checker.attempted, checker.failed) == (3, 1)


def test_tracing_restores_every_rebound_function():
    import briosum
    from briosum import autodiff, brio, decode, model

    before = (brio.generate_candidates, decode.decoder_logprobs, briosum.load_checkpoint,
              cli.load_corpus, autodiff.Tensor.backward)
    tracer = spans.Tracer()
    with tracer.installed(run=0):
        assert cli.generate_candidates is brio.generate_candidates is not before[0]
        assert decode.decoder_logprobs is model.decoder_logprobs is not before[1]
        assert briosum.load_checkpoint is cli.load_checkpoint is model.load_checkpoint is not before[2]
        assert cli.load_corpus is corpus.load_corpus is not before[3]
        assert autodiff.Tensor.backward is not before[4]
    after = (brio.generate_candidates, decode.decoder_logprobs, briosum.load_checkpoint,
             cli.load_corpus, autodiff.Tensor.backward)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_runs_are_correct_name_every_metric_and_repeat_counts(name):
    bench = _benchmark_json()
    workload = SMALL[name]
    result, facts = run.measure(workload, 3, 0, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, facts["problems"]
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = [run.measure(workload, 3, 0, trace=True)[0] for _ in range(2)]
    for res in traced:
        assert res["correct"]
        assert list(res["metrics"]) == [m["name"] for m in bench["per_layer"]]
    for count in spans.COUNTS:
        assert traced[0]["metrics"][count] == traced[1]["metrics"][count], count


def test_benchmark_json_matches_the_metric_tables():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert per_layer == spans.PER_LAYER


def test_exits_nonzero_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    bench = _benchmark_json()
    done = subprocess.run(
        bench["command"] + ["--workload", "brio-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""The in-process A/B timing tool, run on this checkout against itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import ab_compare

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tests" / "ab_compare.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True,
                          timeout=600, cwd=ROOT)


def test_one_round_of_the_checkout_against_itself():
    proc = run_tool(ROOT, ROOT, "--workload", "brio-train", "--rounds", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("a: min ") and lines[1].startswith("b: min ")
    assert lines[2] == "outputs equal: yes"
    summary = json.loads(lines[-1])
    assert (summary["workload"], summary["seed"], summary["rounds"]) == ("brio-train", 3, 1)
    assert summary["outputs_equal"] is True
    for side in (summary["a"], summary["b"]):
        assert side["tree"] == str(ROOT)
        assert len(side["pass_s"]) == 1 and side["min_s"] == side["median_s"] == side["pass_s"][0] > 0.0
        assert side["minflt_per_pass"] >= 0 and side["child_minflt_per_pass"] >= 0
        assert side["cpu_s_per_pass"] > 0.0
    for line, side in zip(lines[:2], (summary["a"], summary["b"])):
        assert f"cpu/pass {side['cpu_s_per_pass']:.4f} s" in line
        assert f"child minflt/pass {side['child_minflt_per_pass']:.0f}" in line
    assert summary["a"]["rounds_won"] + summary["b"]["rounds_won"] <= 1


def test_one_pipeline_round_reports_every_stage():
    proc = run_tool(ROOT, ROOT, "--workload", "pipeline", "--rounds", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2] == "outputs equal: yes"
    summary = json.loads(lines[-1])
    assert summary["workload"] == "pipeline" and summary["outputs_equal"] is True
    stages = ["split", "finetune", "gen-cands", "brio", "loop", "evaluate", "report"]
    for label, line in zip("ab", lines[3:5]):
        phases = summary[label]["phase_median_s"]
        assert sorted(phases) == sorted(stages)  # the summary's keys are sorted
        assert all(seconds > 0.0 for seconds in phases.values())
        assert line == f"{label} phase medians: " + ", ".join(f"{name} {phases[name]:.4f} s" for name in stages)


def test_a_tree_without_sources_is_a_usage_error(tmp_path):
    proc = run_tool(ROOT, tmp_path, "--workload", "decode-wide")
    assert proc.returncode == 2
    assert "no briosum sources" in proc.stderr


def stub_summary(faults_a, faults_b):
    side = {"tree": str(ROOT), "min_s": 0.5, "median_s": 0.5, "rounds_won": 0, "pass_s": [0.5],
            "cpu_s_per_pass": 0.9, "child_minflt_per_pass": 120, "phase_median_s": {}}
    return {"workload": "brio-train", "seed": 1, "rounds": 1, "outputs_equal": True,
            "a": {**side, "minflt_per_pass": faults_a}, "b": {**side, "minflt_per_pass": faults_b}}


def test_a_tenfold_gap_in_minor_faults_is_flagged_as_heap_interference(monkeypatch, capsys):
    for faults, flagged in (((13_368, 458), True), ((458, 13_368), True), ((4_000, 458), False)):
        monkeypatch.setattr(ab_compare, "compare", lambda *args, faults=faults: stub_summary(*faults))
        assert ab_compare.main([str(ROOT), str(ROOT), "--workload", "brio-train", "--rounds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        warnings = [line for line in lines if line.startswith("warning:")]
        assert len(warnings) == flagged, faults
        if flagged:
            assert "share one heap" in warnings[0] and "perfbench/run.py" in warnings[0]
            assert "copy-on-write" in warnings[0]
            assert "13368" in warnings[0] and "458" in warnings[0]
        assert lines[2] == "outputs equal: yes"


def decode_wide_output(score_scale=1.0, log_prob_shift=0.0, last_token=7):
    from briosum.brio import CandSum, RankedCandidateSet
    from briosum.decode import Hypothesis

    cands = [CandSum("d0", (1, 5, last_token, 2), "w", -2.5 * score_scale, None, 0.5),
             CandSum("d0", (1, 6, 2), "v", -1.25, None, 0.25)]
    greedy = [Hypothesis((1, 5, 6, 2), -3.0 + log_prob_shift, True), Hypothesis((1, 4, 4), -0.75, False)]
    return [RankedCandidateSet("d0", [1, 5, 2], [1, 5, 2], cands)], greedy


def test_differing_decode_wide_outputs_are_told_apart_by_tokens_and_score_gaps(monkeypatch, capsys):
    gaps = ab_compare.decode_wide_gaps(decode_wide_output(), decode_wide_output(1.0 + 2e-15, 3e-9))
    assert gaps["tokens_equal"] is True
    assert gaps["max_model_score_rel_gap"] == abs(-2.5 * (1.0 + 2e-15) + 2.5) / 2.5
    assert gaps["max_greedy_log_prob_rel_gap"] == abs(-3.0 + 3e-9 + 3.0) / 3.0
    assert ab_compare.decode_wide_gaps(decode_wide_output(), decode_wide_output()) == {
        "tokens_equal": True, "max_model_score_rel_gap": 0.0, "max_greedy_log_prob_rel_gap": 0.0}
    assert ab_compare.decode_wide_gaps(decode_wide_output(), decode_wide_output(last_token=8))["tokens_equal"] is False

    summary = {**stub_summary(400, 400), "workload": "decode-wide", "outputs_equal": False, **gaps}
    monkeypatch.setattr(ab_compare, "compare", lambda *args: summary)
    assert ab_compare.main([str(ROOT), str(ROOT), "--workload", "decode-wide", "--rounds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["outputs equal: no",
                          "decode-wide tokens and finished flags equal: yes; largest relative gap in candidate "
                          f"model_score {gaps['max_model_score_rel_gap']:.3g}, in greedy log_prob 1e-09"]
    assert json.loads(lines[-1])["max_model_score_rel_gap"] == gaps["max_model_score_rel_gap"]


def brio_train_output(loss_scale=1.0, ctr_shift=0.0, steps=3):
    rows = [{"step": step, "loss": 2.0 / step, "mle": 1.5 / step, "ctr": 0.5 / step, "num_docs": 4}
            for step in range(1, steps + 1)]
    rows[1] = {**rows[1], "loss": rows[1]["loss"] * loss_scale, "ctr": rows[1]["ctr"] + ctr_shift}
    return rows, True


def test_differing_brio_train_histories_are_told_apart_by_step_and_field_gaps(monkeypatch, capsys):
    gaps = ab_compare.brio_train_gaps(brio_train_output(), brio_train_output(1.0 + 4e-15, 2.5e-13))
    assert gaps == {"first_differing_step": 2, "max_loss_rel_gap": abs(1.0 * (1.0 + 4e-15) - 1.0),
                    "max_mle_rel_gap": 0.0, "max_ctr_rel_gap": abs(0.25 + 2.5e-13 - 0.25) / 0.25}
    assert ab_compare.brio_train_gaps(brio_train_output(), brio_train_output()) == {
        "first_differing_step": None, "max_loss_rel_gap": 0.0, "max_mle_rel_gap": 0.0, "max_ctr_rel_gap": 0.0}
    assert ab_compare.brio_train_gaps(brio_train_output(), brio_train_output(steps=2))["first_differing_step"] == 3

    summary = {**stub_summary(400, 400), "outputs_equal": False, **gaps}
    monkeypatch.setattr(ab_compare, "compare", lambda *args: summary)
    assert ab_compare.main([str(ROOT), str(ROOT), "--workload", "brio-train", "--rounds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == ["outputs equal: no",
                          "brio-train histories first differ at step 2; largest relative gap in loss "
                          f"{gaps['max_loss_rel_gap']:.3g}, in MLE 0, in ranking 1e-12"]
    assert json.loads(lines[-1])["first_differing_step"] == 2


def test_a_brio_train_pass_of_two_trees_that_differ_names_the_first_step(tmp_path):
    # A copy of this checkout's sources whose BRIO gradient is scaled by
    # 1 + 2**-40: the first step's history row is equal, the next ones not.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "briosum" / "brio.py"
    text = source.read_text(encoding="utf-8")
    assert text.count("(total * scale).backward()") == 1
    source.write_text(text.replace("(total * scale).backward()",
                                   "(total * (scale * (1 + 2**-40))).backward()"), encoding="utf-8")
    proc = run_tool(ROOT, tmp_path, "--workload", "brio-train", "--rounds", "1", "--seed", "3")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2] == "outputs equal: no"
    assert lines[3].startswith("brio-train histories first differ at step 2; largest relative gap in loss ")
    summary = json.loads(lines[-1])
    assert summary["first_differing_step"] == 2
    assert 0.0 < summary["max_loss_rel_gap"] < 1e-6

"""The in-process A/B timing tool, run on this checkout against itself."""

import json
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

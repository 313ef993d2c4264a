"""The in-process A/B timing tool, run on this checkout against itself."""

import json
import subprocess
import sys
from pathlib import Path

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
        assert side["minflt_per_pass"] >= 0
    assert summary["a"]["rounds_won"] + summary["b"]["rounds_won"] <= 1


def test_a_tree_without_sources_is_a_usage_error(tmp_path):
    proc = run_tool(ROOT, tmp_path, "--workload", "decode-wide")
    assert proc.returncode == 2
    assert "no briosum sources" in proc.stderr

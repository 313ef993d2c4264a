"""The artifact parity tool on two mini runs: equal runs report equal, and
each kind of change is reported as what it is."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from artifact_diff import BYTE_EQUAL, DIFFERS, HASH_ONLY, LOADED_EQUAL, compare_dirs
from briosum.cli import (
    BRIO_METRICS,
    EVAL_FILE,
    FINETUNE_CANDIDATES,
    FINETUNE_CKPT,
    REPORT_CSV,
    REPORT_TXT,
    STAGES,
    ExperimentConfig,
    run_pipeline,
)
from briosum.synthetic import make_toy_corpus, write_corpus_jsonl
from test_cli import MINI_CONFIG

TOOL = Path(__file__).with_name("artifact_diff.py")


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """One config run twice, its corpus at two paths: only the hash differs."""
    base = tmp_path_factory.mktemp("parity")
    runs = []
    for name in ("a", "b"):
        corpus = base / name / "corpus.jsonl"
        corpus.parent.mkdir()
        write_corpus_jsonl(make_toy_corpus(30, seed=5, vocab_words=40), corpus)
        ini = base / name / "config.ini"
        text = MINI_CONFIG.format(corpus=corpus).replace("loop_iterations = 1", "loop_iterations = 2")
        ini.write_text(text, encoding="utf-8")
        out = base / name / "run"
        assert run_pipeline(ExperimentConfig.load(ini, out_dir=str(out)), list(STAGES)) == 0
        runs.append(out)
    return runs


def test_a_copy_is_byte_equal(two_runs, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(two_runs[0], copy)
    summary = compare_dirs(two_runs[0], copy)
    assert summary["all_equal"]
    assert set(summary["status"].values()) == {BYTE_EQUAL}
    assert "candidates_loop2.jsonl" in summary["status"]


def test_second_corpus_path_differs_only_in_the_hash(two_runs):
    summary = compare_dirs(*two_runs)
    assert summary["all_equal"] and summary["differs"] == {}
    status = summary["status"]
    assert status[REPORT_TXT] == status[REPORT_CSV] == BYTE_EQUAL
    stamped = {name for name in status if name not in (REPORT_TXT, REPORT_CSV)}
    assert len(stamped) == 12
    assert {status[name] for name in stamped} == {HASH_ONLY}


def test_header_field_under_the_same_hash_is_equal_when_loaded(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[0], changed)
    header, records = (changed / FINETUNE_CANDIDATES).read_text(encoding="utf-8").split("\n", 1)
    header = json.dumps({**json.loads(header), "note": "a new field"})
    (changed / FINETUNE_CANDIDATES).write_text(header + "\n" + records, encoding="utf-8")
    summary = compare_dirs(two_runs[0], changed)
    assert summary["all_equal"] and summary["differs"] == {}
    assert summary["status"].pop(FINETUNE_CANDIDATES) == LOADED_EQUAL
    assert set(summary["status"].values()) == {BYTE_EQUAL}


def test_flipped_checkpoint_entry_is_reported(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    raw = bytearray((changed / FINETUNE_CKPT).read_bytes())
    raw[-1] ^= 0x80  # the sign bit of the payload's last float64
    (changed / FINETUNE_CKPT).write_bytes(bytes(raw))
    summary = compare_dirs(two_runs[0], changed)
    assert not summary["all_equal"]
    assert summary["status"][FINETUNE_CKPT] == DIFFERS
    (name, detail), = summary["differs"][FINETUNE_CKPT]["tensors"].items()
    assert detail["differing"] == 1 and detail["max_rel"] == 2.0
    assert [n for n, s in summary["status"].items() if s == DIFFERS] == [FINETUNE_CKPT]


def test_cut_artifact_is_reported_as_unreadable(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    raw = (changed / FINETUNE_CKPT).read_bytes()
    (changed / FINETUNE_CKPT).write_bytes(raw[: len(raw) - 4])
    summary = compare_dirs(two_runs[0], changed)
    assert summary["status"][FINETUNE_CKPT] == DIFFERS
    assert "CheckpointError" in summary["differs"][FINETUNE_CKPT]["unreadable"]


def test_changed_model_score_is_reported(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    lines = (changed / FINETUNE_CANDIDATES).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["candidates"][0]["model_score"] *= 1.0 + 1e-9
    lines[1] = json.dumps(record)
    (changed / FINETUNE_CANDIDATES).write_text("\n".join(lines) + "\n", encoding="utf-8")
    detail = compare_dirs(two_runs[0], changed)["differs"][FINETUNE_CANDIDATES]
    assert detail["tokens_equal"] and detail["texts_equal"] and detail["rouge_equal"]
    assert detail["max_rel_model_score"] == pytest.approx(1e-9, rel=1e-3)


def test_changed_history_and_eval_scores_are_reported(two_runs, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(two_runs[1], changed)
    metrics = json.loads((changed / BRIO_METRICS).read_text(encoding="utf-8"))
    metrics["history"][2]["loss"] *= 1.5
    (changed / BRIO_METRICS).write_text(json.dumps(metrics), encoding="utf-8")
    payload = json.loads((changed / EVAL_FILE).read_text(encoding="utf-8"))
    payload["per_document"]["BRIO"][0]["r2"] += 1.0
    (changed / EVAL_FILE).write_text(json.dumps(payload), encoding="utf-8")
    differs = compare_dirs(two_runs[0], changed)["differs"]
    history = differs[BRIO_METRICS]
    assert history["first_differing_step"] == 3
    assert set(history["max_rel_by_field"]) == {"loss"}
    systems = differs[EVAL_FILE]["per_document"]
    assert systems["BRIO"]["differing"] == 1
    assert all(s["differing"] == 0 for name, s in systems.items() if name != "BRIO")


def test_command_line_prints_each_artifact_and_a_json_summary(two_runs):
    cmd = [sys.executable, str(TOOL), *map(str, two_runs)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"{REPORT_TXT}: {BYTE_EQUAL}" in lines
    assert f"{FINETUNE_CKPT}: {HASH_ONLY}" in lines
    assert json.loads(lines[-1]) == compare_dirs(*two_runs)

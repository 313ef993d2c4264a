"""Harness behavior: config files, stage dependencies, reports, end to end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from briosum.cli import (
    BRIO_CKPT,
    EVAL_FILE,
    FINETUNE_CANDIDATES,
    FINETUNE_CKPT,
    LOOP_REPORT,
    REPORT_CSV,
    REPORT_TXT,
    SPLIT_FILE,
    STANDARD_CKPT,
    VOCAB_FILE,
    ConfigError,
    ExperimentConfig,
    ReportRow,
    emit_report,
    evaluate,
    main,
    parse_report_csv,
    run_pipeline,
)
from briosum.corpus import BOS_ID, EOS_ID, TokenizedExample
from briosum.decode import DecodeConfig
from briosum.synthetic import make_toy_corpus, write_corpus_jsonl

from helpers import tiny_params

MINI_CONFIG = """
[experiment]
corpus = {corpus}
seed = 11

[corpus]
max_vocab_size = 120

[model]
model_dim = 16
num_heads = 2
ffn_dim = 32
max_source_len = 48
max_target_len = 16

[finetune]
batch_size = 4
epochs = 2
learning_rate = 1e-3
warmup_steps = 10

[decode]
num_beams = 4
num_beam_groups = 4
max_decode_len = 12

[brio]
num_candidates = 4
epochs = 1
loop_iterations = 1
"""


@pytest.fixture
def mini_corpus(tmp_path):
    docs = make_toy_corpus(30, seed=5, vocab_words=40)
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(docs, path)
    return path


@pytest.fixture
def mini_config(tmp_path, mini_corpus):
    path = tmp_path / "config.ini"
    path.write_text(MINI_CONFIG.format(corpus=mini_corpus), encoding="utf-8")
    return path


# -- config loading ---------------------------------------------------------------


def test_config_defaults_and_overrides(mini_config):
    config = ExperimentConfig.load(mini_config, seed=99, out_dir="/tmp/x")
    assert config.seed == 99
    assert str(config.out_dir) == "/tmp/x"
    assert config.finetune_config().batch_size == 4
    assert config.brio_config().num_candidates == 4
    assert config.decode_config().num_beams == 4
    # untouched defaults survive
    assert config.brio_config().margin == pytest.approx(0.001)


def test_config_hash_changes_with_seed_not_out_dir(mini_config):
    a = ExperimentConfig.load(mini_config, out_dir="/tmp/a")
    b = ExperimentConfig.load(mini_config, out_dir="/tmp/b")
    c = ExperimentConfig.load(mini_config, seed=12, out_dir="/tmp/a")
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_unknown_key_rejected(tmp_path, mini_corpus):
    path = tmp_path / "bad.ini"
    path.write_text(f"[experiment]\ncorpus = {mini_corpus}\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.load(path)


def test_config_missing_corpus_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nseed = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="corpus"):
        ExperimentConfig.load(path)


def test_config_unresolvable_corpus_path(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\ncorpus = /does/not/exist.jsonl\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.load(path)


# -- report emission -----------------------------------------------------------------


def test_emit_report_exact_strings():
    rows = [ReportRow("BARTpho-BRIO-Loop", 60.53, 28.20, 44.20)]
    text = emit_report(rows, "text")
    body = text.splitlines()[1]
    assert body.split() == ["BARTpho-BRIO-Loop", "60.53", "28.20", "44.20"]


def test_emit_report_zero_formatting():
    text = emit_report([ReportRow("x", 0.0, 0.0, 0.0)], "text")
    assert text.splitlines()[1].split() == ["x", "0.00", "0.00", "0.00"]


def test_emit_report_csv_round_trip():
    rows = [
        ReportRow("standard", 3.25, 0.11, 3.08),
        ReportRow("fine-tuned", 81.44, 70.30, 80.01),
    ]
    parsed = parse_report_csv(emit_report(rows, "csv"))
    assert [(r.system, r.r1, r.r2, r.rl) for r in parsed] == [
        ("standard", 3.25, 0.11, 3.08),
        ("fine-tuned", 81.44, 70.30, 80.01),
    ]


def test_emit_report_validates_rows():
    with pytest.raises(ValueError, match="at least one row"):
        emit_report([], "text")
    with pytest.raises(ValueError, match="r1"):
        emit_report([ReportRow("x", 101.0, 0.0, 0.0)], "text")


def test_report_row_order_preserved():
    rows = [ReportRow("b", 1.0, 1.0, 1.0), ReportRow("a", 2.0, 2.0, 2.0)]
    lines = emit_report(rows, "text").splitlines()
    assert lines[1].split()[0] == "b"
    assert lines[2].split()[0] == "a"


# -- evaluate ----------------------------------------------------------------------------


def test_evaluate_perfect_when_references_match_decodes():
    params = tiny_params(seed=30)
    decode_config = DecodeConfig(
        num_beams=1, num_beam_groups=1, diversity_penalty=0.0, max_decode_len=8
    )
    from briosum.brio import strip_special_ids
    from briosum.decode import greedy_decode

    examples = []
    for i, src in enumerate(([BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])):
        decoded = greedy_decode(params, src, decode_config)
        content = strip_special_ids(decoded.tokens)
        if not content:
            continue
        examples.append(TokenizedExample(f"d{i}", src, [BOS_ID, *content, EOS_ID]))
    assert examples, "seed produced empty decodes; pick another seed"
    per_doc, means = evaluate(params, examples, decode_config)
    assert means["r1"] == pytest.approx(100.0)
    assert means["r2"] == pytest.approx(100.0)
    assert means["rl"] == pytest.approx(100.0)


def test_evaluate_mean_is_arithmetic_mean():
    params = tiny_params(seed=31)
    decode_config = DecodeConfig(num_beams=1, num_beam_groups=1, max_decode_len=8)
    examples = [
        TokenizedExample("a", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, EOS_ID]),
        TokenizedExample("b", [BOS_ID, 7, 8, EOS_ID], [BOS_ID, 9, EOS_ID]),
    ]
    per_doc, means = evaluate(params, examples, decode_config)
    assert means["r1"] == pytest.approx(100.0 * np.mean([t.rouge1.f1 for _, t in per_doc]))


def test_evaluate_deterministic():
    params = tiny_params(seed=32)
    decode_config = DecodeConfig(num_beams=1, num_beam_groups=1, max_decode_len=8)
    examples = [TokenizedExample("a", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, EOS_ID])]
    assert evaluate(params, examples, decode_config) == evaluate(params, examples, decode_config)


# -- stage wiring -----------------------------------------------------------------------


def test_stage_dependency_errors_name_the_missing_stage(mini_config, tmp_path, capsys):
    config = ExperimentConfig.load(mini_config, out_dir=str(tmp_path / "run"))
    status = run_pipeline(config, ["brio"])
    assert status == 1
    err = capsys.readouterr().err
    assert "finetune" in err

    status = run_pipeline(config, ["report"])
    assert status == 1
    assert "evaluate" in capsys.readouterr().err


def test_split_then_finetune_artifacts(mini_config, tmp_path):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split", "finetune"]) == 0
    for name in (SPLIT_FILE, VOCAB_FILE, STANDARD_CKPT, FINETUNE_CKPT):
        assert (out / name).exists()
    split = json.loads((out / SPLIT_FILE).read_text())
    assert len(split["train"]) == 23  # 30 docs at 75/8/17
    assert len(split["validation"]) == 2
    assert len(split["test"]) == 5


def test_rerun_skips_completed_stage(mini_config, tmp_path, capsys):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    before = (out / SPLIT_FILE).stat().st_mtime_ns
    capsys.readouterr()
    assert run_pipeline(config, ["split"]) == 0
    assert "up to date" in capsys.readouterr().out
    assert (out / SPLIT_FILE).stat().st_mtime_ns == before


def test_mismatched_config_resume_refused(mini_config, tmp_path, capsys):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    other = ExperimentConfig.load(mini_config, seed=999, out_dir=str(out))
    assert run_pipeline(other, ["split"]) == 1
    assert "different configuration" in capsys.readouterr().err
    # --force rebuilds instead
    assert run_pipeline(other, ["split"], force=True) == 0


def test_cut_split_file_fails_the_split_stage(mini_config, tmp_path, capsys):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    split = out / SPLIT_FILE
    split.write_bytes(split.read_bytes()[:-10])
    capsys.readouterr()
    assert run_pipeline(config, ["finetune"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'split'" in err
    assert SPLIT_FILE in err
    # a header that is valid JSON but not an object is not a stamp either
    split.write_text("[]\n", encoding="utf-8")
    assert run_pipeline(config, ["split"]) == 1
    assert "error in stage 'split'" in capsys.readouterr().err


@pytest.fixture
def mini_cands_run(mini_config, tmp_path):
    """A mini run through gen-cands, ready for the brio stage."""
    config = ExperimentConfig.load(mini_config, out_dir=str(tmp_path / "run"))
    assert run_pipeline(config, ["split", "finetune", "gen-cands"]) == 0
    return config, tmp_path / "run"


def test_truncated_checkpoint_fails_the_producing_stage(mini_cands_run, capsys):
    config, out = mini_cands_run
    ckpt = out / FINETUNE_CKPT
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    assert run_pipeline(config, ["brio"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'finetune'" in err
    assert "floats" in err
    assert not (out / BRIO_CKPT).exists()


def test_cut_candidate_cache_fails_the_gen_cands_stage(mini_cands_run, capsys):
    config, out = mini_cands_run
    cache = out / FINETUNE_CANDIDATES
    text = cache.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    cut_at_line = "".join(lines[: len(lines) // 2])
    cut_mid_record = text[: len(cut_at_line) + 40]
    list_header = "[]\n" + "".join(lines[1:])
    for damaged in (cut_at_line, cut_mid_record, list_header):
        cache.write_text(damaged, encoding="utf-8")
        capsys.readouterr()
        assert run_pipeline(config, ["brio"]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'gen-cands'" in err
        assert FINETUNE_CANDIDATES in err
        assert "Traceback" not in err
        assert not (out / BRIO_CKPT).exists()


def test_full_mini_pipeline_and_determinism(mini_config, tmp_path):
    stages = ["split", "finetune", "gen-cands", "brio", "loop", "evaluate", "report"]
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        config = ExperimentConfig.load(mini_config, out_dir=str(out))
        assert run_pipeline(config, stages) == 0
        outputs.append((out / REPORT_TXT).read_bytes())
        assert (out / REPORT_CSV).exists()
        eval_payload = json.loads((out / EVAL_FILE).read_text())
        assert [r["system"] for r in eval_payload["rows"]] == [
            "standard",
            "fine-tuned",
            "BRIO",
            "BRIO-Loop",
        ]
        loop_payload = json.loads((out / LOOP_REPORT).read_text())
        assert len(loop_payload["iterations"]) == 1
    assert outputs[0] == outputs[1]


def test_cli_subprocess_end_to_end(mini_config, tmp_path):
    out = tmp_path / "cli-run"
    cmd = [
        sys.executable,
        "-m",
        "briosum",
        "all",
        "--config",
        str(mini_config),
        "--out",
        str(out),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert (out / REPORT_TXT).exists()
    report = (out / REPORT_TXT).read_text()
    assert report.splitlines()[0].split() == ["System", "R-1", "R-2", "R-L"]
    assert "BRIO-Loop" in report


def test_max_documents_subsamples_before_split(tmp_path, mini_corpus):
    config_path = tmp_path / "limited.ini"
    config_path.write_text(
        f"[experiment]\ncorpus = {mini_corpus}\nseed = 3\nmax_documents = 20\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    config = ExperimentConfig.load(config_path, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    split = json.loads((out / SPLIT_FILE).read_text())
    total = len(split["train"]) + len(split["validation"]) + len(split["test"])
    assert total == 20
    assert len(split["train"]) == 15  # 20 docs at 75/8/17


def test_cli_error_paths(tmp_path, capsys):
    assert main(["split", "--config", str(tmp_path / "missing.ini")]) == 2
    assert "not found" in capsys.readouterr().err


def test_run_pipeline_requires_out_dir(mini_config, capsys):
    config = ExperimentConfig.load(mini_config)
    assert run_pipeline(config, ["split"]) == 2
    assert "output directory" in capsys.readouterr().err

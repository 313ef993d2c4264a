"""Harness behavior: config files, stage dependencies, reports, end to end."""

import fcntl
import json
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from briosum import cli
from briosum.cli import (
    BRIO_CKPT,
    BRIO_METRICS,
    EVAL_FILE,
    FINETUNE_CANDIDATES,
    FINETUNE_CKPT,
    FINETUNE_METRICS,
    LOOP_CKPT,
    LOOP_REPORT,
    LOCK_FILE,
    REPORT_CSV,
    REPORT_TXT,
    SPLIT_FILE,
    STANDARD_CKPT,
    VOCAB_FILE,
    ConfigError,
    STAGES,
    ExperimentConfig,
    ReportRow,
    emit_report,
    evaluate,
    main,
    parse_report_csv,
    run_pipeline,
)
from briosum.brio import (
    BrioConfig,
    FinetuneConfig,
    brio_train_stage,
    finetune_stage,
    generate_candidate_sets,
    generate_candidates,
    load_candidate_cache,
)
from briosum.corpus import (
    BOS_ID,
    EOS_ID,
    TokenizedExample,
    build_vocab,
    load_corpus,
    split_corpus,
    tokenize_documents,
)
from briosum.decode import DecodeConfig
from briosum.model import ModelConfig, init_params, load_checkpoint
from briosum.synthetic import make_toy_corpus, write_corpus_jsonl

from helpers import count_train_stages, tiny_params
from test_acceptance import TOY_PIPELINE_INI

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


def _readme_ini() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    ini = re.search(r"cat > /tmp/toy\.ini <<'EOF'\n(.*?)\nEOF\n", readme, re.S).group(1)
    return ini.replace("/tmp/toy.jsonl", "{corpus}")


# Every INI key, by section: the pin below fails on a key added or lost.
CONFIG_KEYS = {
    "experiment": "corpus seed out_dir max_documents",
    "corpus": "max_vocab_size min_count",
    "model": "model_dim num_heads ffn_dim num_encoder_layers num_decoder_layers "
    "max_source_len max_target_len tie_embeddings",
    "finetune": "batch_size epochs learning_rate warmup_steps",
    "decode": "num_beams num_beam_groups diversity_penalty max_decode_len length_penalty",
    "brio": "num_candidates margin length_penalty ctr_weight mle_weight learning_rate "
    "epochs batch_size loop_iterations",
}


# A changed hash makes every existing output directory refuse to resume, so
# each change to these values must be recorded for users (README, CHANGES.md).
# The last two leave a learning rate at its default, rendered from the config
# class: 0.001 and 1e-05 (they read 5ecd77bc3714409e and 3d54cd6ac9b1a79c when
# the defaults were written out as 1e-3 and 1e-5).
@pytest.mark.parametrize(
    "ini,expected",
    [
        (TOY_PIPELINE_INI, "e878586f8f5dce91"),
        (_readme_ini(), "833825ab06e1adc9"),
        (MINI_CONFIG, "82582178827d2ae2"),
        ("[experiment]\ncorpus = {corpus}\n", "b71695fbfc881302"),
    ],
    ids=["toy-pipeline", "readme", "mini", "corpus-only"],
)
def test_config_hash_and_keys_are_pinned(tmp_path, monkeypatch, ini, expected):
    monkeypatch.chdir(tmp_path)
    Path("c.jsonl").touch()
    Path("config.ini").write_text(ini.format(corpus="c.jsonl"), encoding="utf-8")
    config = ExperimentConfig.load("config.ini")
    assert config.config_hash() == expected
    keys = {(section, key) for section, values in config.values.items() for key in values}
    assert keys == {(section, key) for section, names in CONFIG_KEYS.items() for key in names.split()}
    assert len(keys) == 32


@pytest.mark.parametrize("config_class", [ModelConfig, FinetuneConfig, DecodeConfig, BrioConfig])
def test_config_defaults_have_their_annotated_types(config_class):
    """The type of a default picks its INI key's parser, so a float field
    with the default 0 would refuse 0.5."""
    for field in fields(config_class):
        if field.default is not MISSING:
            assert type(field.default).__name__ == field.type, field.name


def test_config_unknown_key_rejected(tmp_path, mini_corpus):
    path = tmp_path / "bad.ini"
    path.write_text(f"[experiment]\ncorpus = {mini_corpus}\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bogus"):
        ExperimentConfig.load(path)


@pytest.mark.parametrize("section,key", [("model", "dropout_rate"), ("brio", "restart_from_finetuned")])
def test_removed_config_keys_exit_2(tmp_path, mini_corpus, capsys, section, key):
    path = tmp_path / "old.ini"
    path.write_text(f"[experiment]\ncorpus = {mini_corpus}\n[{section}]\n{key} = 0\n", encoding="utf-8")
    assert main(["split", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert f"unknown key {section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,field,invalid,message",
    [
        (ModelConfig(vocab_size=13), "num_heads", 3, "divisible by num_heads"),
        (DecodeConfig(), "num_beam_groups", 4, "divisible by num_beam_groups"),
        (FinetuneConfig(), "epochs", 0, "epochs must be >= 1"),
        (BrioConfig(), "num_candidates", 7, "cannot exceed decode.num_beams"),
        (ReportRow("x", 1.0, 2.0, 3.0), "r1", 101.0, r"ReportRow.r1 must be in \[0, 100\]"),
    ],
    ids=["model", "decode", "finetune", "brio", "report-row"],
)
def test_configs_are_frozen_and_checked_when_built(config, field, invalid, message):
    with pytest.raises(FrozenInstanceError):
        setattr(config, field, invalid)
    with pytest.raises(ValueError, match=message):
        replace(config, **{field: invalid})


@pytest.mark.parametrize("case", ["not-utf-8", "directory"])
def test_unreadable_config_file_exits_2_without_a_traceback(tmp_path, mini_config, case):
    path = tmp_path / "bad.ini"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(mini_config.read_bytes().replace(b"seed = 11", b"seed = 11 # caf\xe9"))
    cmd = [sys.executable, "-m", "briosum", "split", "--config", str(path), "--out", str(tmp_path / "run")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    expected = "config file not found" if case == "directory" else "can't decode byte 0xe9"
    assert expected in proc.stderr
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("name,field", [(SPLIT_FILE, "train"), (VOCAB_FILE, "tokens")])
def test_split_artifact_without_its_field_fails_the_split_stage(mini_config, tmp_path, capsys, name, field):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    payload = json.loads((out / name).read_text(encoding="utf-8"))
    del payload[field]
    (out / name).write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(config, ["finetune"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'split'" in err
    assert f"{name} has no usable '{field}'" in err


def test_corpus_damaged_after_split_fails_the_split_stage(mini_config, mini_corpus, tmp_path, capsys):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split"]) == 0
    with mini_corpus.open("a", encoding="utf-8") as fh:
        fh.write("{bad\n")
    capsys.readouterr()
    assert run_pipeline(config, ["finetune"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error in stage 'split': line 31: invalid JSON")
    assert not (out / STANDARD_CKPT).exists()


def test_checkpoint_for_another_vocabulary_fails_the_finetune_stage(mini_config, mini_corpus, tmp_path, capsys):
    """A corpus rewritten with more words, then split again: every reader of
    the old checkpoints names 'finetune', whose checkpoints they are."""
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split", "finetune"]) == 0
    write_corpus_jsonl(make_toy_corpus(30, seed=5, vocab_words=80), mini_corpus)
    assert run_pipeline(config, ["split"], force=True) == 0
    vocab_size = len(json.loads((out / VOCAB_FILE).read_text(encoding="utf-8"))["tokens"])
    assert vocab_size != 45
    # Each stage, and the checkpoint it reads first.
    for stage, name in (("gen-cands", FINETUNE_CKPT), ("brio", FINETUNE_CKPT), ("evaluate", STANDARD_CKPT),
                        ("finetune", STANDARD_CKPT)):
        capsys.readouterr()
        assert run_pipeline(config, [stage]) == 1, stage
        captured = capsys.readouterr()
        assert captured.err == (
            f"error in stage 'finetune': {name} was built for another model: "
            f"vocab_size 45 (expected {vocab_size}); use --force to rebuild\n"
        ), stage
        assert captured.out == ""
    assert (out / STANDARD_CKPT).exists() and (out / FINETUNE_CKPT).exists()
    assert run_pipeline(config, ["finetune"], force=True) == 0


def test_split_with_a_damaged_id_fails_the_split_stage_not_up_to_date(mini_config, tmp_path, capsys):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, ["split", "finetune"]) == 0
    payload = json.loads((out / SPLIT_FILE).read_text(encoding="utf-8"))
    payload["train"][0] = [payload["train"][0]]
    (out / SPLIT_FILE).write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(config, ["finetune"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error in stage 'split': {SPLIT_FILE} has no usable 'train'")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_truncated_checkpoint_is_not_up_to_date(mini_cands_run, capsys):
    config, out = mini_cands_run
    ckpt = out / FINETUNE_CKPT
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    capsys.readouterr()
    assert run_pipeline(config, ["finetune"]) == 1
    captured = capsys.readouterr()
    assert "error in stage 'finetune'" in captured.err
    assert "up to date" not in captured.out


def test_checkpoint_with_unknown_config_key_fails_the_finetune_stage(mini_cands_run, capsys):
    config, out = mini_cands_run
    ckpt = out / FINETUNE_CKPT
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    manifest["config"]["dropout_rate"] = 0.0
    ckpt.write_bytes(json.dumps(manifest).encode("utf-8") + b"\n" + payload)
    capsys.readouterr()
    assert run_pipeline(config, ["brio"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'finetune'" in err
    assert "Traceback" not in err


def test_format_1_checkpoint_fails_the_finetune_stage(mini_cands_run, capsys):
    config, out = mini_cands_run
    ckpt = out / FINETUNE_CKPT
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    manifest["format_version"] = 1
    float32 = np.frombuffer(payload, dtype="<f8").astype("<f4").tobytes()
    ckpt.write_bytes(json.dumps(manifest).encode("utf-8") + b"\n" + float32)
    capsys.readouterr()
    assert run_pipeline(config, ["brio"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'finetune'" in err
    assert "unsupported format version 1; use --force to rebuild" in err
    assert not (out / BRIO_CKPT).exists()


def test_unversioned_candidate_cache_fails_the_gen_cands_stage(mini_cands_run, capsys):
    """A cache in the layout before format versions: no version in its
    header, and one F1 per ROUGE variant instead of the full triples."""
    config, out = mini_cands_run
    cache = out / FINETUNE_CANDIDATES
    header, *records = (json.loads(line) for line in cache.read_text(encoding="utf-8").splitlines())
    header.pop("format_version", None)
    for record in records:
        for cand in record["candidates"]:
            r1, r2, rl = (f1 for _, _, f1 in cand.pop("rouge"))
            cand.update(r1=r1, r2=r2, rl=rl)
    cache.write_text("".join(json.dumps(line) + "\n" for line in [header, *records]), encoding="utf-8")
    capsys.readouterr()
    assert run_pipeline(config, ["brio"]) == 1
    err = capsys.readouterr().err
    assert "error in stage 'gen-cands'" in err
    assert "unsupported format version 1" in err and err.rstrip().endswith("use --force to rebuild")
    assert "KeyError" not in err
    assert not (out / BRIO_CKPT).exists()


def test_cli_artifacts_equal_the_library_stages(mini_cands_run):
    """The CLI stores exactly what the library stages return in memory."""
    config, out = mini_cands_run
    assert run_pipeline(config, ["brio"]) == 0
    split = split_corpus(load_corpus(config.corpus_path), config.seed)
    vocab = build_vocab(split.train, config.max_vocab_size, config.min_count)
    model_config = config.model_config(vocab.size)
    train, validation = (
        tokenize_documents(docs, vocab, model_config.max_source_len, model_config.max_target_len)
        for docs in (split.train, split.validation)
    )
    standard = init_params(model_config, config.seed)
    finetuned, _ = finetune_stage(
        standard, train, validation, config.finetune_config(), config.decode_config(), seed=config.seed
    )
    ranked = generate_candidate_sets(finetuned, train, config.brio_config(), vocab)
    trained, _ = brio_train_stage(finetuned, ranked, config.brio_config(), seed=config.seed)
    assert load_candidate_cache(out / FINETUNE_CANDIDATES, train)[0] == ranked
    # Each document's own search finds the same candidates. A search score
    # from a chunk of padded sources can differ from it in the last bits.
    alone = [generate_candidates(finetuned, ex, config.brio_config(), vocab) for ex in train]
    unscored = lambda sets: [[replace(c, model_score=None) for c in rs.candidates] for rs in sets]  # noqa: E731
    assert unscored(alone) == unscored(ranked)
    for got, want in zip(ranked, alone):
        assert [c.model_score for c in got.candidates] == pytest.approx([c.model_score for c in want.candidates],
                                                                        rel=1e-12, abs=0.0)
    for name, params in ((STANDARD_CKPT, standard), (FINETUNE_CKPT, finetuned), (BRIO_CKPT, trained)):
        loaded, _ = load_checkpoint(out / name)
        assert loaded.names() == params.names()
        assert all(np.array_equal(loaded[key].data, t.data) for key, t in params.items()), name


def _payload(ckpt):
    """A checkpoint's weights: everything after its header line."""
    return ckpt.read_bytes().split(b"\n", 1)[1]


def record_publishes(monkeypatch) -> list[str]:
    """The names of the artifacts that ``cli._publish`` publishes from now on, in order."""
    real, names = cli._publish, []

    def publish(path, write):
        names.append(path.name)
        real(path, write)

    monkeypatch.setattr(cli, "_publish", publish)
    return names


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_loop_stage_continues_from_the_brio_checkpoint(mini_config, tmp_path, monkeypatch, iterations):
    ini = tmp_path / "loop.ini"
    ini.write_text(
        mini_config.read_text().replace("loop_iterations = 1", f"loop_iterations = {iterations}"),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    config = ExperimentConfig.load(ini, out_dir=str(out))
    assert run_pipeline(config, ["split", "finetune", "gen-cands", "brio"]) == 0
    # The loop reads brio.ckpt, not the gen-cands cache.
    (out / FINETUNE_CANDIDATES).unlink()
    seeds = count_train_stages(monkeypatch)
    published = record_publishes(monkeypatch)
    assert run_pipeline(config, ["loop"]) == 0
    assert seeds == [config.seed * 1009 + i for i in range(2, iterations + 1)]
    # Each later round's cache, when the loop ends, then the loop's listed outputs.
    caches = [cli.LOOP_CANDIDATES.format(i) for i in range(2, iterations + 1)]
    assert published == [*caches, LOOP_CKPT, LOOP_REPORT] == cli._Context(config, out, False).outputs("loop")
    if iterations == 1:
        assert _payload(out / LOOP_CKPT) == _payload(out / BRIO_CKPT)


@pytest.mark.parametrize("how", ["missing", "cut"])
def test_loop_without_a_whole_brio_checkpoint_fails_the_brio_stage(mini_config, mini_cands_run, how):
    config, out = mini_cands_run
    assert run_pipeline(config, ["brio"]) == 0
    ckpt = out / BRIO_CKPT
    if how == "missing":
        ckpt.unlink()
    else:
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
    cmd = [sys.executable, "-m", "briosum", "loop", "--config", str(mini_config), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert "error in stage 'brio'" in proc.stderr
    assert BRIO_CKPT in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not (out / LOOP_CKPT).exists()


def test_cut_candidate_cache_fails_the_gen_cands_stage(mini_cands_run, capsys):
    config, out = mini_cands_run
    cache = out / FINETUNE_CANDIDATES
    text = cache.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    cut_at_line = "".join(lines[: len(lines) // 2])
    cut_mid_record = text[: len(cut_at_line) + 40]
    list_header = "[]\n" + "".join(lines[1:])

    def with_first_candidate(token_ids):
        record = json.loads(lines[1])
        record["candidates"][0]["token_ids"] = token_ids
        return "".join([lines[0], json.dumps(record) + "\n", *lines[2:]])

    bad_ids = [with_first_candidate([BOS_ID, bad, EOS_ID]) for bad in (-1, 10**6, 5.5)]
    unframed = with_first_candidate([BOS_ID, 5])
    overlong = with_first_candidate([BOS_ID] + [5] * 20 + [EOS_ID])
    for damaged in (cut_at_line, cut_mid_record, list_header, *bad_ids, unframed, overlong):
        cache.write_text(damaged, encoding="utf-8")
        capsys.readouterr()
        assert run_pipeline(config, ["brio"]) == 1
        err = capsys.readouterr().err
        assert "error in stage 'gen-cands'" in err
        assert FINETUNE_CANDIDATES in err
        assert "Traceback" not in err
        assert not (out / BRIO_CKPT).exists()


# Every stamped artifact of a mini run with two loop iterations, and the
# stage that writes it. report.txt and report.csv carry no stamp.
STAMPED_ARTIFACTS = {
    SPLIT_FILE: "split",
    VOCAB_FILE: "split",
    STANDARD_CKPT: "finetune",
    FINETUNE_CKPT: "finetune",
    FINETUNE_METRICS: "finetune",
    FINETUNE_CANDIDATES: "gen-cands",
    BRIO_CKPT: "brio",
    BRIO_METRICS: "brio",
    LOOP_CKPT: "loop",
    LOOP_REPORT: "loop",
    "candidates_loop2.jsonl": "loop",
    EVAL_FILE: "evaluate",
}


@pytest.fixture(scope="module")
def mini_full_run(tmp_path_factory):
    """A finished mini run whose loop generates candidates once (iteration 2)."""
    base = tmp_path_factory.mktemp("full")
    corpus = base / "corpus.jsonl"
    write_corpus_jsonl(make_toy_corpus(30, seed=5, vocab_words=40), corpus)
    ini = base / "config.ini"
    ini.write_text(
        MINI_CONFIG.format(corpus=corpus).replace("loop_iterations = 1", "loop_iterations = 2"),
        encoding="utf-8",
    )
    config = ExperimentConfig.load(ini, out_dir=str(base / "run"))
    assert run_pipeline(config, list(STAGES)) == 0
    return ini, base / "run"


def test_mini_run_writes_exactly_the_stamped_artifacts_and_reports(mini_full_run):
    _, out = mini_full_run
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted([*STAMPED_ARTIFACTS, REPORT_TXT, REPORT_CSV, LOCK_FILE])


def _cut(raw: bytes, how: str) -> bytes:
    lines = raw.splitlines(keepends=True)
    half = b"".join(lines[: len(lines) // 2])
    if how == "half-lines":
        return half
    return raw[: len(half) + len(lines[len(lines) // 2]) // 2]


@pytest.mark.parametrize("how", ["half-lines", "mid-record"])
@pytest.mark.parametrize("name", sorted(STAMPED_ARTIFACTS))
def test_cut_artifact_fails_its_producing_stage(mini_full_run, tmp_path, capsys, name, how):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    target = run / name
    target.write_bytes(_cut(target.read_bytes(), how))
    stage = STAMPED_ARTIFACTS[name]
    capsys.readouterr()
    assert run_pipeline(config, [stage]) == 1
    captured = capsys.readouterr()
    assert f"error in stage '{stage}'" in captured.err
    assert name in captured.err
    assert "up to date" not in captured.out
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("name", [name for _, name in cli._REPORT_SYSTEMS])
def test_evaluate_without_a_checkpoint_fails_its_producing_stage(mini_full_run, tmp_path, capsys, name):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    (run / name).unlink()
    capsys.readouterr()
    assert run_pipeline(config, ["evaluate", "report"], force=True) == 1
    captured = capsys.readouterr()
    stage = STAMPED_ARTIFACTS[name]
    assert captured.err == f"error in stage '{stage}': missing artifact {name}; run the '{stage}' stage first\n"
    assert captured.out == ""
    assert not (run / EVAL_FILE).exists()


@pytest.mark.parametrize("name", [name for _, name in cli._REPORT_SYSTEMS])
def test_evaluate_after_a_checkpoint_is_deleted_is_not_up_to_date(mini_full_run, tmp_path, capsys, name):
    # The same run without --force: eval.json still scores the deleted
    # checkpoint, so evaluate must not count as up to date.
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    (run / name).unlink()
    capsys.readouterr()
    assert run_pipeline(config, ["evaluate", "report"]) == 1
    captured = capsys.readouterr()
    stage = STAMPED_ARTIFACTS[name]
    assert captured.err == f"error in stage '{stage}': missing artifact {name}; run the '{stage}' stage first\n"
    assert captured.out == ""
    assert not (run / EVAL_FILE).exists()


def test_brio_after_its_input_checkpoint_is_deleted_is_not_up_to_date(mini_full_run, tmp_path, capsys):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    (run / FINETUNE_CKPT).unlink()
    capsys.readouterr()
    assert run_pipeline(config, ["brio"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error in stage 'finetune': missing artifact {FINETUNE_CKPT}; run the 'finetune' stage first\n"
    )
    assert captured.out == ""
    assert not (run / BRIO_CKPT).exists()


def test_each_stage_publishes_the_outputs_its_table_lists_in_order(mini_full_run, tmp_path, monkeypatch):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    ctx = cli._Context(config, run, force=True)
    published = record_publishes(monkeypatch)
    for stage in STAGES:
        published.clear()
        assert run_pipeline(config, [stage], force=True) == 0
        expected = [REPORT_TXT, REPORT_CSV] if stage == "report" else ctx.outputs(stage)
        assert published == expected, stage


def test_each_stage_reads_only_what_an_earlier_stage_writes():
    for index, (stage, entry) in enumerate(cli._STAGES.items()):
        assert all(STAGES.index(cli._PRODUCERS[name]) < index for name in entry.reads), stage


@pytest.mark.parametrize("message", ["disk quota", ""], ids=["message", "no-message"])
@pytest.mark.parametrize("stage", sorted(set(STAMPED_ARTIFACTS.values())))
def test_any_exception_in_a_stage_is_one_line_naming_it(mini_full_run, tmp_path, monkeypatch, capsys, stage,
                                                        message):
    # The stage writes its first output whole, then fails with an error no
    # stage anticipates: that output and its old siblings all go.
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    real = cli._publish

    def publish_then_fail(path, write):
        real(path, write)
        raise RuntimeError(message)

    monkeypatch.setattr(cli, "_publish", publish_then_fail)
    capsys.readouterr()
    assert run_pipeline(config, [stage], force=True) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error in stage '{stage}': {message or 'RuntimeError'}\n"
    assert captured.out == ""
    left = {p.name for p in run.iterdir()}
    assert left == {name for name, producer in STAMPED_ARTIFACTS.items() if producer != stage} | {
        REPORT_TXT, REPORT_CSV, LOCK_FILE}


def test_a_report_that_fails_between_its_two_writes_leaves_neither_table(mini_full_run, tmp_path, monkeypatch,
                                                                         capsys):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    real, published = cli._publish, []

    def fail_second_write(path, write):
        published.append(path.name)
        if len(published) == 2:
            raise OSError("No space left on device")
        real(path, write)

    monkeypatch.setattr(cli, "_publish", fail_second_write)
    capsys.readouterr()
    assert run_pipeline(config, ["report"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error in stage 'report': No space left on device\n"
    assert captured.out == ""
    assert published == [REPORT_TXT, REPORT_CSV]
    assert not (run / REPORT_TXT).exists() and not (run / REPORT_CSV).exists()


def test_a_run_on_a_directory_in_use_exits_2_and_writes_nothing(mini_full_run, tmp_path, capsys):
    ini, out = mini_full_run
    run = tmp_path / "run"
    shutil.copytree(out, run)
    config = ExperimentConfig.load(ini, out_dir=str(run))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    capsys.readouterr()
    with (run / LOCK_FILE).open("a") as other_run:  # a separate descriptor, as another process holds it
        fcntl.flock(other_run, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert run_pipeline(config, ["evaluate", "report"], force=True) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {run} is in use by another run\n"
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
    assert run_pipeline(config, ["evaluate", "report"], force=True) == 0
    assert capsys.readouterr().out == "[evaluate] 4 systems\n[report] 4 rows\n"


def test_a_run_reads_the_corpus_once(tmp_path, mini_corpus, monkeypatch, capsys):
    """A fresh run reads the corpus in 'split' and once more for every
    later stage; a rerun reads it once, to check the candidate caches."""
    ini = tmp_path / "loop2.ini"
    ini.write_text(
        MINI_CONFIG.format(corpus=mini_corpus).replace("loop_iterations = 1", "loop_iterations = 2"),
        encoding="utf-8",
    )
    config = ExperimentConfig.load(ini, out_dir=str(tmp_path / "run"))
    calls = []
    real = cli.load_corpus
    monkeypatch.setattr(cli, "load_corpus", lambda path: calls.append(path) or real(path))
    assert run_pipeline(config, list(STAGES)) == 0
    assert len(calls) == 2
    calls.clear()
    capsys.readouterr()
    assert run_pipeline(config, list(STAGES)) == 0
    assert len(calls) == 1
    notes = capsys.readouterr().out.splitlines()
    assert notes[:-1] == [f"[{stage}] up to date" for stage in STAGES[:-1]]
    assert notes[-1] == "[report] 4 rows"


@pytest.mark.parametrize(
    "writer,stages,target",
    [
        ("save_checkpoint", ["split", "finetune"], STANDARD_CKPT),
        ("write_candidate_cache", ["split", "finetune", "gen-cands"], FINETUNE_CANDIDATES),
    ],
    ids=["checkpoint", "cache"],
)
def test_failed_write_leaves_no_partial_artifact(mini_config, tmp_path, monkeypatch, capsys, writer, stages, target):
    out = tmp_path / "run"
    config = ExperimentConfig.load(mini_config, out_dir=str(out))
    assert run_pipeline(config, stages[:-1]) == 0
    real = getattr(cli, writer)

    def write_half_then_fail(*args):
        real(*args)
        path = next(arg for arg in args if isinstance(arg, Path))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, writer, write_half_then_fail)
    capsys.readouterr()
    assert run_pipeline(config, stages[-1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error in stage '{stages[-1]}': ") and "No space left" in err
    assert not (out / target).exists()
    assert not list(out.glob("*.tmp"))


def test_failed_stage_leaves_none_of_its_outputs(mini_config, tmp_path, monkeypatch, capsys):
    # finetune writes standard.ckpt, then fails writing finetune.ckpt: the
    # first must go too, or 'evaluate' would score it as the whole stage.
    out = tmp_path / "run"
    argv = ["--config", str(mini_config), "--out", str(out)]
    assert main(["split", *argv]) == 0
    real, calls = cli.save_checkpoint, []

    def fail_second_save(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("No space left on device")
        real(*args)

    monkeypatch.setattr(cli, "save_checkpoint", fail_second_save)
    capsys.readouterr()
    assert main(["finetune", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error in stage 'finetune': ") and "No space left" in err
    assert sorted(p.name for p in out.iterdir()) == [LOCK_FILE, SPLIT_FILE, VOCAB_FILE]
    assert main(["evaluate", *argv]) == 1
    assert capsys.readouterr().err.startswith("error in stage 'finetune': missing artifact standard.ckpt")


def test_interrupted_stage_exits_130_with_one_line_and_none_of_its_outputs(mini_config, tmp_path, monkeypatch,
                                                                          capsys):
    # finetune writes standard.ckpt, then Ctrl-C arrives inside the stage.
    out = tmp_path / "run"
    argv = ["--config", str(mini_config), "--out", str(out)]
    assert main(["split", *argv]) == 0
    real = cli.save_checkpoint

    def interrupt_second_save(*args):
        if (out / STANDARD_CKPT).exists():
            raise KeyboardInterrupt
        real(*args)

    monkeypatch.setattr(cli, "save_checkpoint", interrupt_second_save)
    capsys.readouterr()
    assert main(["all", *argv]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted in stage 'finetune'\n"
    assert "[finetune]" not in captured.out
    assert sorted(p.name for p in out.iterdir()) == [LOCK_FILE, SPLIT_FILE, VOCAB_FILE]


def test_vocabulary_without_a_word_fails_the_split_stage(tmp_path, mini_corpus, capsys):
    ini = tmp_path / "rare.ini"
    ini.write_text(
        MINI_CONFIG.format(corpus=mini_corpus).replace("[corpus]\n", "[corpus]\nmin_count = 1000000\n"),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert run_pipeline(ExperimentConfig.load(ini, out_dir=str(out)), ["split", "finetune"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error in stage 'split': no word occurs at least min_count=1000000 times\n"
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == [LOCK_FILE]


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


@pytest.mark.parametrize(
    "edit,argv,name",
    [
        (("num_candidates = 4", "num_candidates = 1"), [], "num_candidates"),
        (("model_dim = 16", "model_dim = 0"), [], "model_dim"),
        (("num_beams = 4", "num_beams = 5"), [], "num_beams"),
        (("epochs = 2", "epochs = 0"), [], "epochs"),
        (("[brio]\n", "[brio]\nmargin = nan\n"), [], "margin"),
        (("seed = 11", "seed = -1"), [], "seed"),
        (None, ["--seed", "-1"], "seed"),
        (("learning_rate = 1e-3", "learning_rate = nan"), [], "learning_rate"),
        (("learning_rate = 1e-3", "learning_rate = inf"), [], "learning_rate"),
        (("[brio]\n", "[brio]\nlearning_rate = nan\n"), [], "learning_rate"),
        (("[brio]\n", "[brio]\nlearning_rate = inf\n"), [], "learning_rate"),
        (("[decode]\n", "[decode]\ndiversity_penalty = nan\n"), [], "diversity_penalty"),
        (("[decode]\n", "[decode]\nlength_penalty = nan\n"), [], "length_penalty"),
        (("[decode]\n", "[decode]\nlength_penalty = inf\n"), [], "length_penalty"),
        (("max_vocab_size = 120", "max_vocab_size = abc"), [], "max_vocab_size"),
        (("max_vocab_size = 120", "max_vocab_size = 0"), [], "max_vocab_size"),
        (("[corpus]\n", "[corpus]\nmin_count = -1\n"), [], "min_count"),
        (("[model]\n", "[model]\ntie_embeddings = maybe\n"), [], "tie_embeddings"),
        (("max_decode_len = 12", "max_decode_len = 20"), [], "max_target_len (16)"),
        (("max_decode_len = 12", "max_decode_len = 16"), [], "max_target_len (16)"),
    ],
    ids=[
        "num_candidates", "model_dim", "num_beams", "epochs", "margin", "seed", "seed-flag",
        "finetune-lr-nan", "finetune-lr-inf", "brio-lr-nan", "brio-lr-inf",
        "diversity-penalty-nan", "length-penalty-nan", "length-penalty-inf",
        "corpus-not-an-integer", "vocab-size-0", "min-count-negative", "model-not-a-boolean",
        "decode-longer-than-model-targets", "decode-as-long-as-model-targets",
    ],
)
def test_out_of_range_settings_exit_2_without_a_traceback(tmp_path, mini_corpus, edit, argv, name):
    text = MINI_CONFIG.format(corpus=mini_corpus)
    if edit is not None:
        assert edit[0] in text
        text = text.replace(edit[0], edit[1], 1)
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    cmd = [sys.executable, "-m", "briosum", "all", "--config", str(path), "--out", str(tmp_path / "run"), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and name in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stdout == ""
    assert not (tmp_path / "run").exists()


def test_decode_one_below_the_target_length_runs_to_the_end(tmp_path, mini_corpus):
    # A length-capped candidate gains a closing EOS: 15 decoded tokens plus
    # EOS fill the 16 target positions exactly.
    ini = tmp_path / "longest.ini"
    ini.write_text(
        MINI_CONFIG.format(corpus=mini_corpus).replace("max_decode_len = 12", "max_decode_len = 15"),
        encoding="utf-8",
    )
    assert run_pipeline(ExperimentConfig.load(ini, out_dir=str(tmp_path / "run")), list(STAGES)) == 0


def test_readme_artifact_table_lists_the_outputs_of_each_stage():
    """The README's table of artifacts by stage is ``cli._STAGES``, plus
    the loop's candidate caches and the two reports, which it leaves out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| Stage ", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` +\| (.*)\|$", table, flags=re.M)
    listed = {stage: set(re.findall(r"`([^`]+)`", cell)) for stage, cell in rows}
    expected = {stage: set(entry.writes) for stage, entry in cli._STAGES.items()}
    expected["loop"].add(cli.LOOP_CANDIDATES.format("<i>"))
    expected["report"] |= {REPORT_TXT, REPORT_CSV}
    assert [stage for stage, _ in rows] == list(STAGES)
    assert listed == expected


def test_run_pipeline_requires_out_dir(mini_config, capsys):
    config = ExperimentConfig.load(mini_config)
    assert run_pipeline(config, ["split"]) == 2
    assert "output directory" in capsys.readouterr().err


def test_non_finite_training_fails_the_stage_without_a_traceback(tmp_path, mini_corpus):
    path = tmp_path / "diverge.ini"
    path.write_text(
        MINI_CONFIG.format(corpus=mini_corpus).replace("learning_rate = 1e-3", "learning_rate = 1e300"),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    assert run_pipeline(ExperimentConfig.load(path, out_dir=str(out)), ["split"]) == 0
    cmd = [sys.executable, "-m", "briosum", "finetune", "--config", str(path), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert "error in stage 'finetune'" in proc.stderr
    assert "epoch 1, step " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / FINETUNE_CKPT).exists()
    assert not (out / STANDARD_CKPT).exists()
    # With no checkpoint left behind, evaluate names the failed stage.
    cmd[3] = "evaluate"
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert "error in stage 'finetune'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / EVAL_FILE).exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["regular-file", "under-a-file"])
def test_uncreatable_output_directory_exits_2_without_a_traceback(tmp_path, mini_config, out):
    (tmp_path / "afile").write_text("not a directory", encoding="utf-8")
    cmd = [sys.executable, "-m", "briosum", "split", "--config", str(mini_config), "--out", str(tmp_path / out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(tmp_path / out) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_stage_output_fails_the_stage_without_a_traceback(tmp_path, mini_config):
    out = tmp_path / "run"
    (out / SPLIT_FILE).mkdir(parents=True)
    cmd = [sys.executable, "-m", "briosum", "split", "--config", str(mini_config), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error in stage 'split': ") and SPLIT_FILE in proc.stderr
    assert "Traceback" not in proc.stderr

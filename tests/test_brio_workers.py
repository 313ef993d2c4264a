"""``brio_train_stage`` with forked workers: 0, 1 and 3 workers give equal
results, a killed worker or a bad document changes nothing, Ctrl-C ends
the CLI with one line, and no child process outlives the stage."""

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from briosum import brio
from briosum.brio import CandSum, RankedCandidateSet, _epoch_order, batch_indices, brio_train_stage
from briosum.cli import BRIO_CKPT, ExperimentConfig, run_pipeline
from briosum.corpus import BOS_ID, EOS_ID, UNK_ID
from briosum.model import init_params
from briosum.rouge import RougeScore, RougeTriple, quality_score
from briosum.synthetic import make_toy_corpus, write_corpus_jsonl

from helpers import ACCEPTANCE_MODEL
from test_brio import brio_cfg, decode_cfg
from test_cli import MINI_CONFIG

ROOT = Path(__file__).resolve().parents[1]
TIME_BOUND_S = 120
UNTIED_MODEL = replace(ACCEPTANCE_MODEL, tie_embeddings=False)
SCORE = brio._score


@pytest.fixture(autouse=True)
def bounded_and_reaped():
    """Each test fails after TIME_BOUND_S rather than waiting on a worker,
    and leaves no child process behind."""

    def expire(signum, frame):
        raise TimeoutError(f"test exceeded {TIME_BOUND_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def acceptance_sets(count, seed, vocab_size=ACCEPTANCE_MODEL.vocab_size):
    """Candidate sets at the acceptance shapes: a 40-token source, a
    reference and 6 candidates of 3 to 16 tokens, quality descending."""
    rng = random.Random(seed)

    def body(n):
        return [rng.randrange(UNK_ID + 1, vocab_size) for _ in range(n)]

    sets = []
    for i in range(count):
        cands = []
        for rank, n in enumerate(rng.sample(range(1, 15), 6)):
            f1 = 0.9 - 0.1 * rank
            triple = RougeTriple(*(RougeScore(f1, f1, f1) for _ in range(3)))
            cands.append(CandSum(f"d{i}", (BOS_ID, *body(n), EOS_ID), "", 0.0, triple, quality_score(triple)))
        sets.append(RankedCandidateSet(f"d{i}", [BOS_ID, *body(38), EOS_ID], [BOS_ID, *body(10), EOS_ID], cands))
    return sets


def acceptance_brio_config(**overrides):
    base = dict(num_candidates=6, decode=decode_cfg(num_beams=6, num_beam_groups=6), margin=0.001,
                ctr_weight=0.3, mle_weight=1.0, batch_size=4, epochs=2)
    return brio_cfg(**{**base, **overrides})


def train(monkeypatch, workers, params, sets, config, seed=3, on_score=None):
    """Train with ``workers`` forked workers; returns the trained tensors by
    name, the history and, for each group of documents this process scored
    itself, their set indices."""
    monkeypatch.setattr(brio, "_worker_count", lambda: workers)
    scored = []

    def score(params, group, config, scale):
        scored.append([next(i for i, s in enumerate(sets) if s is ranked) for ranked in group])
        if on_score is not None:
            on_score(len(scored))
        return SCORE(params, group, config, scale)

    monkeypatch.setattr(brio, "_score", score)
    trained, history = brio_train_stage(params, sets, config, seed=seed)
    return {name: t.data.copy() for name, t in trained.items()}, history, scored


def assert_same_training(got, reference):
    (tensors, history, _), (ref_tensors, ref_history, _) = got, reference
    assert history == ref_history
    assert tensors.keys() == ref_tensors.keys()
    for name, data in ref_tensors.items():
        assert np.array_equal(tensors[name], data), name


# 10 sets in batches of 4 leave a remainder batch of 2: each batch is 2 or 1
# pairs, and a batch of 4 forks one worker at most. In batches of 7 and 3, a
# lone last document ends each batch, and 3 workers are forked. Per epoch
# this process scores ceil(groups / (workers + 1)) groups of each batch;
# the workers deliver the rest.
CASES = {
    "plain": ({}, (), [10, 6, 6]),
    "sets-under-2-candidates": ({}, (0, 7), [10, 6, 6]),
    "ctr-weight-0": ({"ctr_weight": 0.0}, (), [10, 6, 6]),
    "batches-of-7": ({"batch_size": 7}, (4,), [12, 6, 4]),
}


@pytest.mark.parametrize("model", [ACCEPTANCE_MODEL, UNTIED_MODEL], ids=["tied", "untied"])
@pytest.mark.parametrize("case", list(CASES))
def test_worker_counts_give_equal_histories_and_tensors(monkeypatch, model, case):
    overrides, short, counts = CASES[case]
    config = acceptance_brio_config(**overrides)
    sets = acceptance_sets(10, seed=20)
    for index, kept in zip(short, (1, 0)):
        sets[index].candidates = sets[index].candidates[:kept]
    params = init_params(model, seed=7)
    runs = {workers: train(monkeypatch, workers, params, sets, config) for workers in (0, 1, 3)}
    for workers in (1, 3):
        assert_same_training(runs[workers], runs[0])
    assert [len(runs[w][2]) for w in (0, 1, 3)] == counts
    # Alone, this process scores each batch in pairs, in batch order.
    batches = [b for epoch in (1, 2) for b in batch_indices(_epoch_order(len(sets), 3, epoch), config.batch_size)]
    assert runs[0][2] == [b[i : i + 2] for b in batches for i in range(0, len(b), 2)]


@pytest.mark.parametrize("size", [3, 4, 5])
def test_a_batch_forks_one_worker_fewer_than_its_pairs(monkeypatch, size):
    counts = []
    real_start = brio._Workers.start

    def start(self, count, batch):
        counts.append(count)
        real_start(self, count, batch)

    monkeypatch.setattr(brio._Workers, "start", start)
    params = init_params(ACCEPTANCE_MODEL, seed=7)
    sets = acceptance_sets(10, seed=23)
    train(monkeypatch, 3, params, sets, acceptance_brio_config(batch_size=size, epochs=1))
    assert counts == [-(-size // 2) - 1]


def test_a_worker_killed_mid_stage_changes_nothing(monkeypatch):
    config = acceptance_brio_config()
    sets = acceptance_sets(10, seed=21)
    params = init_params(ACCEPTANCE_MODEL, seed=7)
    reference = train(monkeypatch, 0, params, sets, config)
    pools = []
    real_start = brio._Workers.start

    def start(self, *args):
        pools.append(self)
        real_start(self, *args)

    monkeypatch.setattr(brio._Workers, "start", start)

    def kill_first_worker(calls):
        if calls == 4:  # this process's first pair of the second epoch
            os.kill(pools[0].procs[0][0], signal.SIGKILL)

    got = train(monkeypatch, 3, params, sets, config, on_score=kill_first_worker)
    assert_same_training(got, reference)
    assert len(pools) == 1 and len(pools[0].procs) == 0  # all reaped at the end
    assert len(got[2]) > 6  # this process scored the killed worker's pairs


@pytest.mark.parametrize("workers", [1, 3])
def test_an_out_of_range_id_raises_what_it_raises_without_workers(monkeypatch, workers):
    config = acceptance_brio_config()
    sets = acceptance_sets(10, seed=22)
    # Position 3 of the first batch is in its second pair, a worker's with 1
    # and with 3 workers.
    bad = _epoch_order(len(sets), 3, 1)[3]
    sets[bad].candidates[2].token_ids += (ACCEPTANCE_MODEL.vocab_size + 5,)
    params = init_params(ACCEPTANCE_MODEL, seed=7)
    errors, scored = [], []
    for count in (0, workers):
        monkeypatch.setattr(brio, "_worker_count", lambda count=count: count)
        monkeypatch.setattr(brio, "_score", lambda p, group, *a: scored.append(group) or SCORE(p, group, *a))
        with pytest.raises(Exception) as info:
            brio_train_stage(params, sets, config, seed=3)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert scored[-1][1] is sets[bad]  # the worker failed, then this process raised


def _children(pid):
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(child) for child in path.read_text().split()] if path.exists() else []


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux /proc and two usable cores, so that the stage forks a worker")
def test_ctrl_c_during_brio_exits_130_with_one_line_and_no_child(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(make_toy_corpus(30, seed=5, vocab_words=40), corpus)
    config_path = tmp_path / "config.ini"
    # The mini config with enough BRIO epochs to be interrupted while training.
    text = MINI_CONFIG.format(corpus=corpus).replace("[brio]\nnum_candidates = 4\nepochs = 1",
                                                      "[brio]\nnum_candidates = 4\nepochs = 400")
    assert "epochs = 400" in text
    config_path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    config = ExperimentConfig.load(config_path, out_dir=str(out))
    assert run_pipeline(config, ["split", "finetune", "gen-cands"]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "briosum", "brio", "--force", "--config", str(config_path), "--out", str(out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        workers = []
        while not workers and proc.poll() is None:
            time.sleep(0.005)
            workers = _children(proc.pid)
        assert workers, "the brio stage ended before it forked a worker"
        os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C does: to every process of the group
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, stderr
    assert stderr == "interrupted in stage 'brio'\n"
    assert not (out / BRIO_CKPT).exists()
    for pid in workers:
        assert not Path(f"/proc/{pid}").exists(), f"worker {pid} outlived the stage"


def test_worker_tests_leak_nothing_under_dev_mode():
    """The tests above once more under ``-X dev`` with ResourceWarning as an
    error, so a pipe left open fails them."""
    cmd = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest", "-q",
           "-p", "no:cacheprovider", "-W", "error::pytest.PytestUnraisableExceptionWarning",
           str(Path(__file__)), "-k", "not dev_mode and not ctrl_c"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIME_BOUND_S - 10, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "ResourceWarning" not in proc.stdout + proc.stderr

"""Corpus ingestion, splitting, vocabulary, and round-trip properties."""

import json
import random
import subprocess
import sys

import pytest

from briosum.corpus import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CorpusError,
    Document,
    build_vocab,
    decode_tokens,
    encode,
    load_corpus,
    split_corpus,
    tokenize,
    tokenize_documents,
)


def write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def make_docs(n, seed=0):
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    docs = []
    for i in range(n):
        body = " ".join(rng.choice(words) for _ in range(8))
        summary = " ".join(rng.choice(words) for _ in range(4))
        docs.append(Document(f"d{i}", body, summary))
    return docs


# -- load_corpus -------------------------------------------------------------


def test_load_corpus_preserves_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "document": "one two", "summary": "one"},
            {"id": "b", "document": "three four", "summary": "three", "category": "x"},
            {"id": "c", "document": "five", "summary": "five"},
        ],
    )
    docs = load_corpus(path)
    assert [d.id for d in docs] == ["a", "b", "c"]
    assert docs[1].category == "x"
    assert docs[0].category is None


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "absent.jsonl")


def test_load_corpus_missing_summary_names_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "document": "one", "summary": "one"},
            {"id": "b", "document": "two"},
        ],
    )
    with pytest.raises(CorpusError, match="line 2.*summary"):
        load_corpus(path)


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a1", "document": "one", "summary": "one"},
            {"id": "a1", "document": "two", "summary": "two"},
        ],
    )
    with pytest.raises(CorpusError, match="line 2.*duplicate id 'a1'"):
        load_corpus(path)


def test_load_corpus_rejects_empty_fields_and_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "document": "  ", "summary": "s"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1.*empty document"):
        load_corpus(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


# -- split_corpus -------------------------------------------------------------


def test_undecodable_corpus_line_is_named_and_fails_split_without_a_traceback(tmp_path):
    # Enough lines before the bad byte that a text reader decodes past the
    # line it is on: the error must still name the line that holds the byte.
    path = tmp_path / "c.jsonl"
    records = [{"id": d.id, "document": d.source_text, "summary": d.reference_summary} for d in make_docs(300)]
    write_jsonl(path, records)
    with path.open("ab") as fh:
        fh.write(b'{"id": "bad", "document": "caf\xe9 au lait", "summary": "x"}\n')
    with pytest.raises(CorpusError, match="^line 301: not valid UTF-8$"):
        load_corpus(path)
    config = tmp_path / "c.ini"
    config.write_text(f"[experiment]\ncorpus = {path}\n", encoding="utf-8")
    cmd = [sys.executable, "-m", "briosum", "split", "--config", str(config), "--out", str(tmp_path / "run")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert proc.stderr == "error in stage 'split': line 301: not valid UTF-8\n"
    assert "Traceback" not in proc.stderr


def test_split_sizes_1000():
    split = split_corpus(make_docs(1000), seed=1)
    assert (len(split.train), len(split.validation), len(split.test)) == (750, 80, 170)


def test_split_sizes_100():
    split = split_corpus(make_docs(100), seed=1)
    assert (len(split.train), len(split.validation), len(split.test)) == (75, 8, 17)


def test_split_seeds_differ_in_membership_not_size():
    docs = make_docs(100)
    a = split_corpus(docs, seed=7)
    b = split_corpus(docs, seed=8)
    assert len(a.train) == len(b.train)
    assert {d.id for d in a.train} != {d.id for d in b.train}


def test_split_too_few_docs():
    with pytest.raises(CorpusError, match="at least 13"):
        split_corpus(make_docs(12), seed=0)


def test_split_is_partition_property():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(13, 400)
        docs = make_docs(n, seed=n)
        split = split_corpus(docs, seed=rng.randint(0, 10_000))
        ids = [d.id for d in split.train + split.validation + split.test]
        assert len(ids) == n
        assert set(ids) == {d.id for d in docs}
        assert split.train and split.validation and split.test


def test_split_deterministic():
    docs = make_docs(60)
    a = split_corpus(docs, seed=3)
    b = split_corpus(docs, seed=3)
    assert [d.id for d in a.train] == [d.id for d in b.train]
    assert [d.id for d in a.test] == [d.id for d in b.test]


# -- vocabulary ----------------------------------------------------------------


def test_tokenize_lowers_and_isolates_punctuation():
    assert tokenize("The cat, sat.") == ["the", "cat", ",", "sat", "."]
    assert tokenize("don't") == ["don", "'", "t"]


def test_build_vocab_frequency_then_lexicographic():
    docs = [Document("d", "a a b", "a a b")]
    vocab = build_vocab(docs, max_size=10)
    assert vocab.token_to_id["a"] == 4
    assert vocab.token_to_id["b"] == 5
    assert vocab.size == 6
    assert vocab.id_to_token[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]


def test_build_vocab_tie_breaks_lexicographically():
    docs = [Document("d", "zebra apple", "zebra apple")]
    vocab = build_vocab(docs, max_size=10)
    assert vocab.token_to_id["apple"] < vocab.token_to_id["zebra"]


def test_build_vocab_max_size_too_small():
    with pytest.raises(CorpusError, match="max_size"):
        build_vocab([Document("d", "a", "a")], max_size=4)


def test_build_vocab_empty_corpus():
    with pytest.raises(CorpusError, match="empty"):
        build_vocab([], max_size=10)


def test_build_vocab_truncates_to_max_size():
    docs = [Document("d", "a a a b b c d e f", "x")]
    vocab = build_vocab(docs, max_size=6)
    assert vocab.size == 6
    assert "a" in vocab.token_to_id and "b" in vocab.token_to_id


def test_min_count_token_maps_to_unk():
    docs = [Document("d", "common common common rare", "common")]
    vocab = build_vocab(docs, max_size=10, min_count=2)
    assert "rare" not in vocab.token_to_id
    ids = encode("common rare", vocab, max_len=10)
    assert ids == [vocab.token_to_id["common"], UNK_ID]


def test_vocabulary_without_a_word_is_rejected():
    docs = [Document("d", "common common rare", "common")]
    with pytest.raises(CorpusError, match="no word occurs at least min_count=4 times"):
        build_vocab(docs, max_size=10, min_count=4)


# -- encode / decode -----------------------------------------------------------


@pytest.fixture
def vocab():
    return build_vocab([Document("d", "a b c d e", "a b")], max_size=16)


def test_encode_bos_eos(vocab):
    ids = encode("a b", vocab, max_len=10, add_bos_eos=True)
    assert ids == [BOS_ID, vocab.token_to_id["a"], vocab.token_to_id["b"], EOS_ID]


def test_encode_oov_maps_to_unk(vocab):
    ids = encode("a zzz b", vocab, max_len=10)
    assert ids[1] == UNK_ID


def test_encode_truncation_preserves_eos(vocab):
    text = " ".join(["a"] * 100)
    ids = encode(text, vocab, max_len=10, add_bos_eos=True)
    assert len(ids) == 10
    assert ids[0] == BOS_ID and ids[-1] == EOS_ID


def test_decode_tokens_basic(vocab):
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    assert decode_tokens([BOS_ID, a, b, EOS_ID], vocab) == "a b"
    assert decode_tokens([BOS_ID, EOS_ID], vocab) == ""
    assert decode_tokens([BOS_ID, a, EOS_ID, b], vocab) == "a"


def test_decode_tokens_out_of_range(vocab):
    with pytest.raises(CorpusError, match="out of range"):
        decode_tokens([BOS_ID, vocab.size, EOS_ID], vocab)


def test_round_trip_property():
    words = ["a", "b", "c", "d", "e", "."]
    vocab = build_vocab([Document("d", " ".join(words), "a")], max_size=16)
    rng = random.Random(4)
    for _ in range(100):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        ids = encode(text, vocab, max_len=32, add_bos_eos=True)
        assert decode_tokens(ids, vocab) == text


def test_vocab_determinism():
    docs = make_docs(50, seed=11)
    a = build_vocab(docs, max_size=40)
    b = build_vocab(docs, max_size=40)
    assert a.id_to_token == b.id_to_token


def test_vocab_maps_are_bijective():
    vocab = build_vocab(make_docs(30, seed=2), max_size=25)
    assert len(vocab.token_to_id) == len(vocab.id_to_token) == vocab.size
    for token, token_id in vocab.token_to_id.items():
        assert vocab.id_to_token[token_id] == token
        assert 0 <= token_id < vocab.size


def test_tokenize_documents_shapes(vocab):
    docs = [Document("d0", "a b c d e a b", "a b")]
    examples = tokenize_documents(docs, vocab, max_source_len=5, max_target_len=16)
    assert len(examples[0].source_ids) == 5
    assert examples[0].target_ids[0] == BOS_ID
    assert examples[0].target_ids[-1] == EOS_ID
    assert PAD_ID not in examples[0].target_ids

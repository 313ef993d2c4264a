"""Corpus ingestion, vocabulary, tokenization, and deterministic splits.

The on-disk corpus format is UTF-8 JSON lines: one object per line with
``id``, ``document`` and ``summary`` string fields plus an optional
``category``. Tokenization is word-level: lowercase, whitespace-delimited,
with punctuation split off as standalone tokens.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

PAD_TOKEN = "<pad>"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"
UNK_TOKEN = "<unk>"

_SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

# Split ratios for train / validation / test.
_SPLIT_RATIOS = (75, 8, 17)
_MIN_SPLIT_DOCS = 13


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus arguments."""


@dataclass
class Document:
    """One source article paired with its reference summary."""

    id: str
    source_text: str
    reference_summary: str
    category: str | None = None


@dataclass
class CorpusSplit:
    train: list[Document]
    validation: list[Document]
    test: list[Document]


@dataclass
class Vocabulary:
    """Bijective token/id maps with reserved PAD, BOS, EOS, UNK ids."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)


@dataclass
class TokenizedExample:
    doc_id: str
    source_ids: list[int]
    target_ids: list[int] = field(default_factory=list)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into words, isolating punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


def load_corpus(path: str | Path) -> list[Document]:
    """Read a JSONL corpus file, preserving file order.

    Raises CorpusError naming the 1-based line number for malformed or
    non-UTF-8 lines, duplicate ids, and empty document/summary fields.
    Blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")

    docs: list[Document] = []
    seen_ids: set[str] = set()
    # Bytes that are not UTF-8 reach the line that holds them as surrogates.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise CorpusError(f"line {lineno}: not valid UTF-8") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise CorpusError(f"line {lineno}: record is not an object")
            for key in ("id", "document", "summary"):
                if key not in record:
                    raise CorpusError(f"line {lineno}: missing field '{key}'")
                if not isinstance(record[key], str):
                    raise CorpusError(f"line {lineno}: field '{key}' is not a string")
            doc_id = record["id"]
            if doc_id in seen_ids:
                raise CorpusError(f"line {lineno}: duplicate id '{doc_id}'")
            seen_ids.add(doc_id)
            source = record["document"]
            summary = record["summary"]
            if not source.strip():
                raise CorpusError(f"line {lineno}: empty document")
            if not summary.strip():
                raise CorpusError(f"line {lineno}: empty summary")
            category = record.get("category")
            if category is not None and not isinstance(category, str):
                raise CorpusError(f"line {lineno}: field 'category' is not a string")
            docs.append(Document(doc_id, source, summary, category))
    return docs


def _split_sizes(total: int) -> tuple[int, int, int]:
    """Largest-remainder apportionment of ``total`` across the split ratios."""
    denom = sum(_SPLIT_RATIOS)
    raw = [total * r / denom for r in _SPLIT_RATIOS]
    sizes = [int(x) for x in raw]
    remainders = [(raw[i] - sizes[i], -i) for i in range(len(raw))]
    for _ in range(total - sum(sizes)):
        best = max(range(len(raw)), key=lambda i: remainders[i])
        sizes[best] += 1
        remainders[best] = (-1.0, remainders[best][1])
    return sizes[0], sizes[1], sizes[2]


def split_corpus(docs: list[Document], seed: int) -> CorpusSplit:
    """Deterministically shuffle then partition into train/validation/test."""
    if len(docs) < _MIN_SPLIT_DOCS:
        raise CorpusError(
            f"need at least {_MIN_SPLIT_DOCS} documents to split, got {len(docs)}"
        )
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    shuffled = [docs[i] for i in order]
    n_train, n_val, n_test = _split_sizes(len(docs))
    return CorpusSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )


def build_vocab(docs: list[Document], max_size: int, min_count: int = 1) -> Vocabulary:
    """Frequency-ranked word vocabulary over documents and summaries.

    Ties in frequency break lexicographically. The four special tokens
    occupy ids 0..3; real tokens start at id 4. ``max_size`` bounds the
    total size including specials. Raises CorpusError when no word occurs
    ``min_count`` times.
    """
    if max_size < len(_SPECIAL_TOKENS) + 1:
        raise CorpusError(
            f"max_size must be at least {len(_SPECIAL_TOKENS) + 1} "
            f"(4 specials plus one token), got {max_size}"
        )
    if not docs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")

    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(tokenize(doc.source_text))
        counts.update(tokenize(doc.reference_summary))
    if not counts:
        raise CorpusError("cannot build a vocabulary from an empty corpus")

    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    id_to_token = list(_SPECIAL_TOKENS)
    for token, count in ranked:
        if count < min_count:
            continue
        if len(id_to_token) >= max_size:
            break
        id_to_token.append(token)
    if len(id_to_token) == len(_SPECIAL_TOKENS):
        raise CorpusError(f"no word occurs at least min_count={min_count} times")
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token)


def encode(
    text: str, vocab: Vocabulary, max_len: int, add_bos_eos: bool = False
) -> list[int]:
    """Tokenize and map to ids; out-of-vocabulary tokens become UNK.

    With ``add_bos_eos`` the result is BOS-prefixed and EOS-terminated and
    truncation preserves the trailing EOS, so the result never exceeds
    ``max_len`` ids.
    """
    if add_bos_eos and max_len < 2:
        raise CorpusError("max_len must be >= 2 when add_bos_eos is set")
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in tokenize(text)]
    if add_bos_eos:
        body = ids[: max_len - 2]
        return [BOS_ID] + body + [EOS_ID]
    return ids[:max_len]


def strip_special_ids(ids: Sequence[int]) -> list[int]:
    """Content tokens only: drop PAD and BOS, stop at the first EOS."""
    out: list[int] = []
    for token_id in ids:
        if token_id == EOS_ID:
            break
        if token_id not in (PAD_ID, BOS_ID):
            out.append(token_id)
    return out


def decode_tokens(ids: Sequence[int], vocab: Vocabulary) -> str:
    """Inverse of encode: strip specials, stop at the first EOS."""
    words: list[str] = []
    for token_id in strip_special_ids(ids):
        if not 0 <= token_id < vocab.size:
            raise CorpusError(f"token id {token_id} out of range for vocab of size {vocab.size}")
        words.append(vocab.id_to_token[token_id])
    return " ".join(words)


def tokenize_documents(
    docs: list[Document],
    vocab: Vocabulary,
    max_source_len: int,
    max_target_len: int,
) -> list[TokenizedExample]:
    """Encode each document's source and BOS/EOS-framed reference summary."""
    return [
        TokenizedExample(
            doc_id=doc.id,
            source_ids=encode(doc.source_text, vocab, max_source_len),
            target_ids=encode(doc.reference_summary, vocab, max_target_len, add_bos_eos=True),
        )
        for doc in docs
    ]

"""Compare the artifacts of two briosum output directories.

    python tests/artifact_diff.py DIR_A DIR_B

For every artifact a pipeline writes (each name in ``cli._PRODUCERS``, the
loop's later candidate caches, and the two reports) it prints one of:

- ``byte-equal``;
- ``equal but for config_hash``: the configuration stamps differ and all
  else is equal once loaded (the stamp hashes the corpus path, so two runs
  of one config in two places differ there and nowhere else);
- ``equal when loaded``: the stamps are equal and the bytes differ, but the
  loaded content is equal (say, a header that gained a field);
- ``differs``, with detail by kind: per checkpoint tensor the count of
  differing entries and the largest absolute and relative difference; per
  metrics history the first differing step and the largest relative
  difference per field; per candidate cache whether tokens, texts and ROUGE
  values are equal and the largest relative ``model_score`` gap; per
  ``eval.json`` system how many documents' scores differ;
- ``only in A`` / ``only in B``.

An artifact that either side cannot load differs, with the loader's error.

Artifacts absent from both directories are skipped. Checkpoints and
candidate caches are read through the package's own loaders. The last line
is one JSON summary. Exit status: 0 when every artifact is equal (in any
of the three ways above), 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from briosum import cli  # noqa: E402
from briosum.brio import load_candidate_cache  # noqa: E402
from briosum.corpus import TokenizedExample  # noqa: E402
from briosum.model import CheckpointError, load_checkpoint  # noqa: E402

BYTE_EQUAL = "byte-equal"
HASH_ONLY = "equal but for config_hash"
LOADED_EQUAL = "equal when loaded"
DIFFERS = "differs"

# The list fields that hold a per-step history, by JSON artifact.
_HISTORIES = {
    cli.FINETUNE_METRICS: "history",
    cli.BRIO_METRICS: "history",
    cli.LOOP_REPORT: "iterations",
}


def artifact_names(dir_a: Path, dir_b: Path) -> list[str]:
    loop_caches = {
        p.name for d in (dir_a, dir_b) for p in d.glob(cli.LOOP_CANDIDATES.format("*"))
    }
    names = [*cli._PRODUCERS, *sorted(loop_caches), cli.REPORT_TXT, cli.REPORT_CSV]
    return [n for n in names if (dir_a / n).exists() or (dir_b / n).exists()]


def _rel_gap(a, b) -> float:
    """Largest |a - b| / max(|a|, |b|), with 0 where both are 0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.abs(a), np.abs(b))
    gap = np.abs(a - b)
    return float(np.max(np.divide(gap, scale, out=np.zeros_like(gap), where=scale > 0)))


def _without_hash(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k != "config_hash"}


def _stamp(path: Path):
    """An artifact's config_hash: in a checkpoint's manifest meta, a
    candidate cache's header line or a JSON payload."""
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8")).get("config_hash")
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    return (header["meta"] if path.suffix == ".ckpt" else header).get("config_hash")


def _compare_checkpoint(path_a: Path, path_b: Path) -> tuple[bool, dict]:
    params_a, meta_a = load_checkpoint(path_a)
    params_b, meta_b = load_checkpoint(path_b)
    detail: dict = {}
    if params_a.config != params_b.config:
        detail["config"] = "differs"
    if _without_hash(meta_a) != _without_hash(meta_b):
        detail["meta"] = {"a": _without_hash(meta_a), "b": _without_hash(meta_b)}
    tensors_a, tensors_b = dict(params_a.items()), dict(params_b.items())
    if list(tensors_a) != list(tensors_b):
        detail["tensor_names"] = "differ"
        return False, detail
    tensors = {}
    for name, ta in tensors_a.items():
        a, b = ta.data, tensors_b[name].data
        if a.shape != b.shape:
            tensors[name] = {"shape": [list(a.shape), list(b.shape)]}
            continue
        differing = int(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))
        if differing:
            tensors[name] = {
                "differing": differing,
                "of": int(a.size),
                "max_abs": float(np.max(np.abs(a - b))),
                "max_rel": _rel_gap(a, b),
            }
    if tensors:
        detail["tensors"] = tensors
    return not detail, detail


def _compare_history(rows_a: list, rows_b: list) -> tuple[bool, dict]:
    if rows_a == rows_b:
        return True, {}
    detail: dict = {"steps": [len(rows_a), len(rows_b)]}
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b), start=1):
        if ra != rb:
            detail["first_differing_step"] = i
            break
    else:
        detail["first_differing_step"] = min(len(rows_a), len(rows_b)) + 1
    fields = {}
    for key in sorted({k for row in rows_a + rows_b for k in row}):
        pairs = [(ra.get(key), rb.get(key)) for ra, rb in zip(rows_a, rows_b)]
        numbers = (int, float)
        if pairs and all(isinstance(x, numbers) and isinstance(y, numbers) for x, y in pairs):
            gap = _rel_gap([x for x, _ in pairs], [y for _, y in pairs])
            if gap:
                fields[key] = gap
        elif any(x != y for x, y in pairs):
            fields[key] = "differs"
    detail["max_rel_by_field"] = fields
    return False, detail


def _compare_eval(payload_a: dict, payload_b: dict) -> tuple[bool, dict]:
    if payload_a == payload_b:
        return True, {}
    detail: dict = {}
    if payload_a.get("rows") != payload_b.get("rows"):
        detail["rows"] = {"a": payload_a.get("rows"), "b": payload_b.get("rows")}
    per_a, per_b = payload_a.get("per_document", {}), payload_b.get("per_document", {})
    systems = {}
    for system in sorted(set(per_a) | set(per_b)):
        docs_a, docs_b = per_a.get(system, []), per_b.get(system, [])
        differing = sum(da != db for da, db in zip(docs_a, docs_b)) + abs(len(docs_a) - len(docs_b))
        systems[system] = {"documents": max(len(docs_a), len(docs_b)), "differing": differing}
    detail["per_document"] = systems
    return False, detail


def _compare_json(name: str, path_a: Path, path_b: Path) -> tuple[bool, dict]:
    payload_a = _without_hash(json.loads(path_a.read_text(encoding="utf-8")))
    payload_b = _without_hash(json.loads(path_b.read_text(encoding="utf-8")))
    if name in _HISTORIES:
        field = _HISTORIES[name]
        equal, detail = _compare_history(payload_a.get(field, []), payload_b.get(field, []))
        other_a = {k: v for k, v in payload_a.items() if k != field}
        other_b = {k: v for k, v in payload_b.items() if k != field}
        if other_a != other_b:
            equal, detail["other_fields"] = False, "differ"
        return equal, detail
    if name == cli.EVAL_FILE:
        return _compare_eval(payload_a, payload_b)
    keys = sorted(k for k in set(payload_a) | set(payload_b) if payload_a.get(k) != payload_b.get(k))
    return not keys, ({"differing_keys": keys} if keys else {})


def _split_ids(out: Path) -> list[str]:
    """The documents a candidate cache may reference: every split member."""
    split = json.loads((out / cli.SPLIT_FILE).read_text(encoding="utf-8"))
    return [doc_id for part in ("train", "validation", "test") for doc_id in split[part]]


def _compare_cache(path_a: Path, path_b: Path) -> tuple[bool, dict]:
    # The loader joins records with their tokenized documents; the sources
    # and references are not in the cache, so empty stand-ins serve.
    def load(path: Path):
        stubs = [TokenizedExample(doc_id, [], []) for doc_id in _split_ids(path.parent)]
        return load_candidate_cache(path, stubs)[0]

    sets_a, sets_b = load(path_a), load(path_b)
    if sets_a == sets_b:
        return True, {}
    cands_a = [c for rs in sets_a for c in rs.candidates]
    cands_b = [c for rs in sets_b for c in rs.candidates]

    def equal_in(*attrs: str) -> bool:
        def values(cands):
            return [[getattr(c, a) for a in attrs] for c in cands]

        return values(cands_a) == values(cands_b)

    detail = {
        "doc_ids_equal": [rs.doc_id for rs in sets_a] == [rs.doc_id for rs in sets_b],
        "candidates": [len(cands_a), len(cands_b)],
        "tokens_equal": equal_in("token_ids"),
        "texts_equal": equal_in("text"),
        "rouge_equal": equal_in("rouge", "quality"),
    }
    if len(cands_a) == len(cands_b):
        detail["max_rel_model_score"] = _rel_gap(
            [c.model_score for c in cands_a], [c.model_score for c in cands_b]
        )
    return False, detail


def _compare_report(name: str, path_a: Path, path_b: Path) -> dict:
    text_a, text_b = path_a.read_text(encoding="utf-8"), path_b.read_text(encoding="utf-8")
    if name == cli.REPORT_CSV:
        rows_a, rows_b = cli.parse_report_csv(text_a), cli.parse_report_csv(text_b)
        return {
            "rows": [
                [ra.system, [ra.r1, ra.r2, ra.rl], [rb.r1, rb.r2, rb.rl]]
                for ra, rb in zip(rows_a, rows_b)
                if ra != rb
            ]
        }
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    differing = sum(x != y for x, y in zip(lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
    return {"differing_lines": differing}


def compare_artifact(name: str, dir_a: Path, dir_b: Path) -> tuple[str, dict]:
    """The status of one artifact and, when it differs, the detail."""
    path_a, path_b = dir_a / name, dir_b / name
    if not path_b.exists():
        return "only in A", {}
    if not path_a.exists():
        return "only in B", {}
    if path_a.read_bytes() == path_b.read_bytes():
        return BYTE_EQUAL, {}
    if name in (cli.REPORT_TXT, cli.REPORT_CSV):
        return DIFFERS, _compare_report(name, path_a, path_b)
    try:
        if name.endswith(".ckpt"):
            equal, detail = _compare_checkpoint(path_a, path_b)
        elif name.endswith(".jsonl"):
            equal, detail = _compare_cache(path_a, path_b)
        else:
            equal, detail = _compare_json(name, path_a, path_b)
        if equal:
            return (HASH_ONLY if _stamp(path_a) != _stamp(path_b) else LOADED_EQUAL), {}
    except (CheckpointError, OSError, ValueError, KeyError, TypeError) as exc:
        return DIFFERS, {"unreadable": repr(exc)}
    return DIFFERS, detail


def compare_dirs(dir_a: str | Path, dir_b: str | Path) -> dict:
    """Status and detail of every artifact, as in the printed JSON summary."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    summary: dict = {"all_equal": True, "status": {}, "differs": {}}
    for name in artifact_names(dir_a, dir_b):
        status, detail = compare_artifact(name, dir_a, dir_b)
        summary["status"][name] = status
        if status not in (BYTE_EQUAL, HASH_ONLY, LOADED_EQUAL):
            summary["all_equal"] = False
            summary["differs"][name] = detail
    return summary


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/artifact_diff.py DIR_A DIR_B", file=sys.stderr)
        return 2
    for arg in args:
        if not Path(arg).is_dir():
            print(f"error: not a directory: {arg}", file=sys.stderr)
            return 2
    summary = compare_dirs(*args)
    for name, status in summary["status"].items():
        print(f"{name}: {status}")
        for key, value in summary["differs"].get(name, {}).items():
            print(f"    {key}: {json.dumps(value, sort_keys=True)}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["all_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Time two briosum trees against each other, alternating in one process.

    python tests/ab_compare.py DIR_A DIR_B --workload pipeline [--rounds 10] [--seed 1]

Each tree's ``src/briosum`` is imported under its own package name
(``briosum_a`` and ``briosum_b``). This checkout's
``perfbench/workloads.py`` is loaded once for each tree, bound to that
tree's package, and builds the workload's inputs from ``--seed`` once; the
file itself is only read. Every round then runs one pass of each tree, the
first tree of a round alternating, so that both sides see the same drift
of a shared host. Separate processes differ by more than two versions of
the code often do; one process does not.

For each side it prints the fastest and the median pass in seconds, the
median CPU seconds per pass (user plus system time of this process and of
the child processes a pass reaped, so a tree that trains on several cores
shows what its wall-time gain costs), the rounds it won, and the minor
page faults per pass (``ru_minflt``) of this process and of the reaped
children, each the median over its passes. When one side's median faults
are more than 10 times the other's, it warns that the two trees share one
heap, which can distort the timings, and that ``perfbench/run.py``'s
alternated processes should confirm the result. A tree that forks takes
the copy-on-write faults its children cause in its own count. It also says whether the two sides' pass outputs
are equal: the workload's digest of the training history (``brio-train``),
of every decoded hypothesis and score (``decode-wide``) or of
``report.csv`` (``pipeline``). For a workload that times phases of its
pass, the seven CLI stages of ``pipeline`` or the candidate and greedy
phases of ``decode-wide``, it then prints each side's median seconds per
phase. The last line is one JSON summary. Exit status: 0 when the outputs are equal, 1 when
they differ.
"""

from __future__ import annotations

import os

# One OpenBLAS thread, as in perfbench/run.py. Must precede numpy's import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
WORKLOAD_NAMES = ("pipeline", "brio-train", "decode-wide")


def _load(name: str, path: Path, package_dir: Path | None = None):
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(label: str, tree: Path):
    """The tree's package as ``briosum_<label>`` and the workloads module
    bound to it. While the workloads module loads, ``briosum`` and its
    submodules name this tree's modules, then the names are restored."""
    package_dir = tree / "src" / "briosum"
    package = _load(f"briosum_{label}", package_dir / "__init__.py", package_dir)
    aliases = {"briosum": package}
    for path in sorted(package_dir.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            aliases[f"briosum.{path.stem}"] = importlib.import_module(f"briosum_{label}.{path.stem}")
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        return _load(f"workloads_{label}", WORKLOADS_PY)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module


def _usage() -> tuple[float, int, int]:
    """CPU seconds of this process and its reaped children, then the minor
    faults of each."""
    own, children = (resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, own.ru_minflt, children.ru_minflt


def compare(trees: list[Path], workload: str, rounds: int, seed: int) -> dict:
    sides = []
    with tempfile.TemporaryDirectory() as work:
        for label, tree in zip("ab", trees):
            module = load_side(label, tree)
            job = module.WORKLOADS[workload]
            state = job.setup(seed, Path(work) / label)
            sides.append({"tree": str(tree), "job": job, "state": state, "seconds": [], "usage": [],
                          "phases": [], "digests": set(), "won": 0})
        for index in range(rounds):
            order = sides if index % 2 == 0 else sides[::-1]
            for side in order:
                usage = _usage()
                start = time.perf_counter()
                result = side["job"].run_pass(side["state"], index, None)
                side["seconds"].append(time.perf_counter() - start)
                side["usage"].append([after - before for after, before in zip(_usage(), usage)])
                side["phases"].append(result.phases)
                side["digests"].add(result.digest)
            a, b = (side["seconds"][-1] for side in sides)
            if a != b:
                sides[0 if a < b else 1]["won"] += 1
    summary = {"workload": workload, "seed": seed, "rounds": rounds,
               "outputs_equal": len(sides[0]["digests"] | sides[1]["digests"]) == 1}
    for label, side in zip("ab", sides):
        summary[label] = {
            "tree": side["tree"],
            "min_s": min(side["seconds"]),
            "median_s": statistics.median(side["seconds"]),
            "rounds_won": side["won"],
            "cpu_s_per_pass": statistics.median(u[0] for u in side["usage"]),
            "minflt_per_pass": statistics.median(u[1] for u in side["usage"]),
            "child_minflt_per_pass": statistics.median(u[2] for u in side["usage"]),
            "pass_s": side["seconds"],
            "phase_median_s": {name: statistics.median(p[name] for p in side["phases"] if name in p)
                               for name in side["phases"][0]},
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Alternate passes of two briosum trees in one process.")
    parser.add_argument("trees", nargs=2, type=Path, metavar="DIR")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in args.trees:
        if not (tree / "src" / "briosum" / "__init__.py").is_file():
            parser.error(f"no briosum sources under {tree / 'src'}")
    summary = compare([tree.resolve() for tree in args.trees], args.workload, args.rounds, args.seed)
    for label in "ab":
        side = summary[label]
        print(f"{label}: min {side['min_s']:.4f} s, median {side['median_s']:.4f} s, "
              f"cpu/pass {side['cpu_s_per_pass']:.4f} s, won {side['rounds_won']}/{args.rounds}, "
              f"minflt/pass {side['minflt_per_pass']:.0f}, child minflt/pass {side['child_minflt_per_pass']:.0f}  "
              f"({side['tree']})")
    print(f"outputs equal: {'yes' if summary['outputs_equal'] else 'no'}")
    for label in "ab":
        if phases := summary[label]["phase_median_s"]:
            print(f"{label} phase medians: " + ", ".join(f"{name} {sec:.4f} s" for name, sec in phases.items()))
    faults = sorted(summary[label]["minflt_per_pass"] for label in "ab")
    if faults[1] > 10 * faults[0]:
        print(f"warning: one side's median minor faults per pass ({faults[1]:.0f}) are more than 10x the "
              f"other's ({faults[0]:.0f}); the two trees share one heap here, and a tree that forks takes its "
              "children's copy-on-write faults in its own count, so confirm this result with "
              "perfbench/run.py's alternated processes")
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["outputs_equal"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

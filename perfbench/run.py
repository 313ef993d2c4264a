"""briosum benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``. The run repeats identical passes
of the workload's job, each from a fresh set-up, until the next one would end
after ``--seconds`` (always at least one), with a few extra set-ups first.
``setup_s`` is the fastest set-up and ``job_s`` the fastest untraced pass. Every pass's outputs
are checked; each check is one attempted operation. Before the result, one JSON line of facts is printed: machine,
BLAS threads, resolved config and its hash, input sizes reached, and the
workload's phase figures. The last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` traced and untraced passes alternate as
traced, plain, plain, traced, ... (at least one of each); spans are kept in memory, written to
``.perfbench_out/spans-<workload>-s<seed>.jsonl`` at the end, and turned into
the per-layer metrics, including the tracing overhead.
"""

import os

# One OpenBLAS thread: with two, the second spins on these tiny matrices,
# doubling CPU time without lowering wall time. Must precede numpy's import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("pipeline", "brio-train", "decode-wide")


def blas_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def machine_facts() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(),
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result, facts)."""
    import spans
    import workloads

    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []

    def set_up():
        start = time.perf_counter()
        state = workload.setup(seed, work)
        setup_times.append(time.perf_counter() - start)
        return state

    # Every pass starts from a fresh set-up, so set-up times are sampled over
    # the whole run, like the passes, and equal outputs show that set-up is
    # deterministic too.
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    checker = workloads.Checker()
    tracer = spans.Tracer() if trace else None
    passes: list[tuple[bool, workloads.PassResult]] = []
    first = None
    start = time.perf_counter()
    while True:
        index = len(passes)
        state = set_up()
        # Traced, plain, plain, traced, ...: both kinds see the same drift.
        traced = trace and index % 4 in (0, 3)
        if traced:
            with tracer.installed(run=sum(1 for t, _ in passes if t)):
                result = workload.run_pass(state, index, tracer)
        else:
            result = workload.run_pass(state, index, None)
        workload.check(state, result, first, checker)
        first = first or result
        passes.append((traced, result))
        kinds = {t for t, _ in passes}
        longest = max(r.seconds for _, r in passes)
        if (not trace or len(kinds) == 2) and time.perf_counter() - start + longest > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    plain = [r for t, r in passes if not t]
    # Interference from other tenants only ever adds time, and it comes in
    # phases longer than a pass, so the fastest pass (and set-up) is the
    # steadiest estimate of the program's own cost.
    best = min(plain, key=lambda r: r.seconds)
    if trace:
        traced_best = min(r.seconds for t, r in passes if t)
        overhead = traced_best - best.seconds
        artifact_bytes = next(r.artifact_bytes for t, r in passes if t)
        values = spans.layer_metrics(tracer, artifact_bytes, overhead, 100.0 * overhead / best.seconds)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload.name}-s{seed}.jsonl")
    else:
        values = {
            "setup_s": min(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "job_s": best.seconds,
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "job_s": "s"}
    facts = {
        "workload": workload.name,
        "seed": seed,
        "machine": machine_facts(),
        **state.facts,
        "pass_s": [r.seconds for _, r in passes],
        "traced_passes": sum(1 for t, _ in passes if t),
        "phases": {name: {"value": v, "unit": u} for name, (v, u) in workload.phase_metrics(state, best).items()},
        "problems": checker.problems[:10],
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return result, facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one briosum workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Relative paths keep the config hash independent of the checkout's location.
    os.chdir(ROOT)
    if not Path("src/briosum/__init__.py").is_file():
        print(f"error: briosum sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    result, facts = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

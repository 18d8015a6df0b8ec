"""splitmix benchmark: one workload, measured for a fixed wall-clock budget.

    python3 bench/run.py --workload mix4 --seed 1 --seconds 40 --trace 0

Closed loop: repetitions run one after another, each a fresh
``bench/worker.py`` process (so every repetition measures set-up from a cold
import), with BLAS and OpenMP pinned to one thread.  A repetition starts
only if it is expected to end within ``--seconds``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, including the tracing
overhead.

Prints one line per metric (value, unit, sample count), then as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and the
``metrics`` that BENCHMARK.json lists.  Exits 1 if any repetition fails:
it raised, lost a non-finite value, failed an output check, or produced
different output from the other repetitions (tracing included).  Exits 2
without a result if the splitmix sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
DEADLINE_S = 170  # the whole run, repetitions and report included

sys.path.insert(0, HERE)
from catalog import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WHY, config_hash  # noqa: E402


def environment() -> dict:
    import numpy as np

    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = done.stdout.strip() or rev
    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: build.get(key, {}) for key in ("blas", "lapack")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "machine": platform.machine(),
    }


def run_rep(args, traced: bool, deadline: float) -> dict:
    """Run one repetition; return its rep.json, or an error record."""
    out_dir = os.path.join(OUT, args.workload, "traced" if traced else "untraced")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out-dir", out_dir, "--trace", str(int(traced))]
    if args.tiny:
        cmd.append("--tiny")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC}
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out"}
    try:
        with open(os.path.join(out_dir, "rep.json")) as fh:
            rep = json.load(fh)
    except (OSError, ValueError):
        return {"error": f"worker exited {done.returncode} without a result:\n{done.stderr}"}
    if "error" not in rep and not rep["splitmix_file"].startswith(SRC + os.sep):
        rep = {"error": f"imported splitmix from {rep['splitmix_file']}, not {SRC}"}
    if "transcript.bin" in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, "transcript.bin"))  # ~1.2 MB per round
    return rep


def end_to_end(reps: list[dict], attempted: int, failed: int) -> dict[str, tuple[float, int]]:
    """(value, sample count) per end-to-end metric that the repetitions carry."""
    out: dict[str, tuple[float, int]] = {}
    rounds = [ms for rep in reps for ms in rep["round_ms"]]
    if rounds:  # every workload runs at least two rounds
        out["round_ms.mean"] = (statistics.fmean(rounds), len(rounds))
        out["round_ms.p50"] = (statistics.median(rounds), len(rounds))
        out["round_ms.p90"] = (statistics.quantiles(rounds, n=10, method="inclusive")[-1],
                               len(rounds))
    for m in END_TO_END:
        values = [rep[m.name] for rep in reps if m.name in rep]
        if values:
            out[m.name] = (statistics.median(values), len(values))
    out["fail_ratio"] = (failed / attempted, attempted)
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, int]]:
    out: dict[str, tuple[float, int]] = {}
    for m in PER_LAYER:
        # A layer with no span in a repetition made no call there: 0 calls, 0 s.
        values = [rep["per_layer"].get(m.name, 0) for rep in traced]
        if values:
            out[m.name] = (statistics.median(values), len(values))
    if traced and untraced:
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in untraced))
        out["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
    return out


def measure(args) -> tuple[dict[bool, list[dict]], int, list[str]]:
    """Run repetitions for ``args.seconds``, or until one fails.

    A repetition starts only if it is expected to end by ``args.seconds``,
    going by the median wall time of the earlier ones, so that a run lasts
    about ``args.seconds``.  Returns the kept repetitions by kind (traced or
    not), the number attempted, and the failed repetition's problems.
    """
    started = time.monotonic()
    deadline = started + DEADLINE_S
    kinds = (False, True) if args.trace else (False,)
    reps: dict[bool, list[dict]] = {False: [], True: []}
    attempted = 0
    walls: list[float] = []
    outputs: set[str] = set()
    errors: list[str] = []

    def another() -> bool:
        if attempted < len(kinds):
            return True
        expected_end = time.monotonic() + statistics.median(walls)
        return expected_end - started <= args.seconds and expected_end < deadline

    # Stop at the first failure: its cause is usually deterministic.
    while not errors and another():
        traced = kinds[attempted % len(kinds)]
        rep_start = time.monotonic()
        rep = run_rep(args, traced, deadline)
        walls.append(time.monotonic() - rep_start)
        attempted += 1
        problems = [rep["error"]] if "error" in rep else list(rep["failed_checks"])
        if "error" not in rep:
            outputs.add(rep["output_sha256"])
            if len(outputs) > 1:
                problems.append("output differs from an earlier repetition "
                                "(metrics.csv or attack_report.json)")
        kind = "traced" if traced else "untraced"
        errors += [f"repetition {attempted} ({kind}): {p}" for p in problems]
        if not problems:
            reps[traced].append(rep)
    return reps, attempted, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to seconds (schema self-test only)")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "splitmix", "__init__.py")):
        print(f"bench: no splitmix sources under {SRC}", file=sys.stderr)
        return 2

    reps, attempted, errors = measure(args)
    failed = 1 if errors else 0
    if args.trace:
        values, catalog = per_layer(reps[True], reps[False]), PER_LAYER
    else:
        values, catalog = end_to_end(reps[False], attempted, failed), END_TO_END
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"config {config_hash(args.workload, args.tiny)}: {WHY[args.workload]}")
    print(f"repetitions: {attempted} attempted, {failed} failed, "
          f"{len(reps[False])} untraced and {len(reps[True])} traced kept")
    print("environment " + json.dumps(env, sort_keys=True))
    for error in errors:
        print("FAILED " + error.rstrip(), file=sys.stderr)
    report = {}
    for m in catalog:
        if args.workload not in m.workloads or m.name not in values:
            continue
        value, count = values[m.name]
        report[m.name] = {"value": value, "unit": m.unit, "n": count,
                          "exported": m.exported}
        print(f"  {m.name:<48} {value:>16.6f} {m.unit:<8} (n={count})")
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    with open(os.path.join(OUT, args.workload, f"result_trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "config_hash": config_hash(args.workload, args.tiny), "tiny": args.tiny,
                   "attempted": attempted, "failed": failed, "environment": env,
                   "metrics": report, "errors": errors,
                   "repetitions": [{k: v for k, v in rep.items()
                                    if k not in ("round_ms", "per_layer", "failed_checks")}
                                   for kind in (False, True) for rep in reps[kind]]},
                  fh, indent=2, sort_keys=True)
    correct = failed == 0 and attempted > 0
    exported = {m.name: {"value": values[m.name][0], "unit": m.unit}
                for m in catalog if m.exported and m.name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": exported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

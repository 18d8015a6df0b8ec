"""Run the benchmark once per seed and summarise each metric over the seeds.

    python3 bench/seeds.py --workload mix4 --seeds 1-10 [--out FILE]

Each run is untraced and measures for `RUN_SECONDS`.  For every metric of
the runs, prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound.  ``--out`` writes every run's values
and the summary as JSON; the files in ``baseline/`` were made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from catalog import END_TO_END, RUN_SECONDS  # noqa: E402
from workloads import WHY  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,7'")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m.name: m.bound for m in END_TO_END}
    runs = []
    for seed in seed_list(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
            capture_output=True, text=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not last["correct"]:
            print(f"seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        # The result file also has the metrics that the last line leaves out.
        with open(os.path.join(ROOT, ".bench_out", args.workload,
                               "result_trace0.json")) as fh:
            result = json.load(fh)
        runs.append({"seed": seed, "attempted": last["attempted"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: {last['attempted']} repetitions", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        summary[name] = summarise([run["metrics"][name] for run in runs])
        s, bound = summary[name], bounds.get(name)
        verdict = "" if bound is None else ("ok" if s["spread"] <= bound / 3
                                            else "within" if s["spread"] <= bound else "OVER")
        print(f"  {name:<48} median {s['median']:>16.6f}  q1 {s['q1']:>14.6f}  "
              f"q3 {s['q3']:>14.6f}  spread {s['spread']:.4f}  bound {bound}  {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "trace": 0,
                       "seconds": RUN_SECONDS, "runs": runs, "summary": summary},
                      fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Schema self-test of the benchmark at a tiny length; checks no speed.

    python3 bench/selftest.py

For each workload, untraced and traced, runs ``run.py --tiny`` and checks
that the run exits 0 and that its last line carries exactly the metrics
BENCHMARK.json lists, with their units; that ``result_trace<0|1>.json`` has
every metric that applies to the workload, with its unit and a sample count; and
that BENCHMARK.json matches ``catalog.py``.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from catalog import END_TO_END, PER_LAYER, benchmark_json  # noqa: E402
from workloads import WHY  # noqa: E402


class SchemaError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def check_run(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    check(done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {set(last)}")
    check(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
          f"{where}: {last['correct']=} {last['attempted']=} {last['failed']=}")
    catalog = PER_LAYER if trace else END_TO_END
    exported = {m.name: m.unit for m in catalog if m.exported}
    check(set(last["metrics"]) == set(exported),
          f"{where}: last line metrics differ from BENCHMARK.json: "
          f"{sorted(set(last['metrics']) ^ set(exported))}")
    for name, entry in last["metrics"].items():
        check(entry["unit"] == exported[name], f"{where}: {name} unit {entry['unit']}")
        check(isinstance(entry["value"], (int, float)), f"{where}: {name} is not a number")

    with open(os.path.join(ROOT, ".bench_out", workload, f"result_trace{trace}.json")) as fh:
        result = json.load(fh)
    for m in catalog:
        if workload not in m.workloads:
            continue
        check(m.name in result["metrics"],
              f"{where}: {m.name} missing from result_trace{trace}.json")
        entry = result["metrics"][m.name]
        check(entry["unit"] == m.unit and entry["n"] >= 1, f"{where}: {m.name}: {entry}")
        printed = [line for line in done.stdout.splitlines() if line.split()[:1] == [m.name]]
        check(len(printed) == 1 and m.unit in printed[0] and "(n=" in printed[0],
              f"{where}: {m.name} not printed with unit and sample count")
    for key in ("git_rev", "python", "numpy", "blas", "nproc", "thread_env"):
        check(key in result["environment"], f"{where}: environment lacks {key}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    try:
        check(on_disk == benchmark_json(), "BENCHMARK.json differs from catalog.py")
        for workload in WHY:
            for trace in (0, 1):
                check_run(workload, trace)
                print(f"ok {workload} --trace {trace}")
    except SchemaError as err:
        print(f"FAIL {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""sha256 of every output the benchmark workloads write, for same-bits checks.

Runs each workload's config from ``bench/workloads.config_dict`` in a
temporary directory, with the splitmix source of this checkout, and prints
one line per output: ``metrics.csv``, ``transcript.bin`` where the config
writes one, and the attack report without its config echo (the echo names
the temporary directory).  Run it at two commits and diff the lines:

    python scripts/output_hashes.py --seeds 1 2
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from workloads import WHY, config_dict  # noqa: E402

from splitmix.config import ExperimentConfig  # noqa: E402
from splitmix.runner import run_attack_suite, run_experiment  # noqa: E402


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def output_hashes(workload: str, seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out_dir:
        cfg = ExperimentConfig.from_dict(config_dict(workload, seed, out_dir))
        if workload == "attack":
            report = run_attack_suite(cfg)
            del report["config"]
            return {"attack_report": _sha256(json.dumps(report, sort_keys=True).encode())}
        run_experiment(cfg)
        hashes = {}
        for name in ("metrics.csv", "transcript.bin"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    hashes[name] = _sha256(fh.read())
        return hashes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workloads", nargs="+", choices=sorted(WHY), default=list(WHY))
    args = ap.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            for name, digest in output_hashes(workload, seed).items():
                print(f"{workload:8} seed={seed} {name:15} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

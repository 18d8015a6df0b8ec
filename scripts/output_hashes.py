#!/usr/bin/env python3
"""sha256 of every output the benchmark workloads write, for same-bits checks.

Runs each workload's config from ``bench/workloads.config_dict`` in a
temporary directory, with the splitmix source of this checkout, and prints
one line per output: ``metrics.csv``, ``transcript.bin`` where the config
writes one, and the attack report without its config echo (the echo names
the temporary directory).  Four small edge configs, defined here, take the
round's paths the workloads miss: ktimes, a singleton group, cutout, and
activation and label noise under shuffle.  Run it at two commits and diff
the lines:

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


# Short runs with a transcript, each on a path no workload takes.
_EDGE_BASE = dict(dataset="synthetic", synthetic_samples=224, synthetic_test=64, epochs=2,
                  warmup_epochs=1, batch_size=8, alpha=6.0, write_transcript=True)
EDGE = {
    "ktimes": dict(method="cutmixsl_ktimes", n_clients=6, k_way=3, gradient_mode="broadcast"),
    "n7k3": dict(method="cutmixsfl", n_clients=7, k_way=3, fedavg_cadence="round"),
    "cutout": dict(method="parallel_sl", n_clients=3, keep_ratio=0.5),
    "noise": dict(method="cutmixsl", n_clients=5, k_way=2, shuffle=True, noise_x=0.1,
                  noise_y=0.05),
}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def output_hashes(workload: str, seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out_dir:
        fields = ({**_EDGE_BASE, **EDGE[workload], "seed": seed, "out_dir": out_dir}
                  if workload in EDGE else config_dict(workload, seed, out_dir))
        cfg = ExperimentConfig.from_dict(fields)
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
    ap.add_argument("--workloads", nargs="+", choices=sorted({*WHY, *EDGE}),
                    default=[*WHY, *EDGE])
    args = ap.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            for name, digest in output_hashes(workload, seed).items():
                print(f"{workload:8} seed={seed} {name:15} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

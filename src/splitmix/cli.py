"""Command-line front end.

``splitmix train`` runs one experiment and writes metrics.csv plus
summary.json under --out-dir; ``splitmix attack`` runs the reconstruction
suite and writes attack_report.json.  Flag values override config-file
values, which override defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ExperimentConfig
from .errors import SplitMixError


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--config", metavar="FILE", help="JSON config file (flags override it)")
    add("--method", choices=("parallel_sl", "splitfed", "cutmixsl", "cutmixsfl",
                             "cutmixsl_ktimes"))
    add("--n-clients", type=int, dest="n_clients")
    add("--k-way", type=int, dest="k_way")
    add("--alpha", help="Dirichlet dispersion: number, 'inf', or 'uniform'")
    add("--shuffle", action=argparse.BooleanOptionalAction)
    add("--gradient-mode", choices=("unicast", "broadcast"), dest="gradient_mode")
    add("--fedavg", action=argparse.BooleanOptionalAction)
    add("--fedavg-cadence", choices=("epoch", "round"), dest="fedavg_cadence")
    add("--keep-ratio", type=float, dest="keep_ratio")
    add("--mask-mode", choices=("fixed", "per_iteration"), dest="mask_mode")
    add("--noise-x", type=float, dest="noise_x")
    add("--noise-y", type=float, dest="noise_y")
    add("--dataset", choices=("synthetic", "cifar10"))
    add("--data-dir", dest="data_dir")
    add("--cifar-subset", type=int, dest="cifar_subset")
    add("--synthetic-samples", type=int, dest="synthetic_samples")
    add("--synthetic-test", type=int, dest="synthetic_test")
    add("--synthetic-classes", type=int, dest="synthetic_classes")
    add("--synthetic-noise", type=float, dest="synthetic_noise")
    add("--synthetic-jitter", type=float, dest="synthetic_jitter")
    add("--synthetic-radius", type=float, dest="synthetic_radius")
    add("--synthetic-mosaic", type=float, dest="synthetic_mosaic")
    add("--partition", choices=("iid", "dirichlet"), dest="partition_mode")
    add("--dirichlet-mu", type=float, dest="dirichlet_mu")
    add("--profile", choices=("paper", "desk"))
    add("--lr", type=float)
    add("--weight-decay", type=float, dest="weight_decay")
    add("--warmup-epochs", type=int, dest="warmup_epochs")
    add("--epochs", type=int)
    add("--batch-size", type=int, dest="batch_size")
    add("--eval-every", type=int, dest="eval_every")
    add("--seed", type=int)
    add("--out-dir", dest="out_dir")
    add("--transcript", action=argparse.BooleanOptionalAction, dest="write_transcript")
    add("--attack-decoder-width", type=int, dest="attack_decoder_width")
    add("--attack-decoder-depth", type=int, dest="attack_decoder_depth")
    add("--attack-epochs", type=int, dest="attack_epochs")
    add("--attack-batch-size", type=int, dest="attack_batch_size")
    add("--attack-lr", type=float, dest="attack_lr")
    add("--attack-keep-ratio", type=float, dest="attack_keep_ratio")
    add("--attack-alpha", type=float, dest="attack_alpha")
    add("--attack-pretrain-epochs", type=int, dest="attack_pretrain_epochs")
    add("--attack-seed", type=int, dest="attack_seed")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = ExperimentConfig().to_dict()
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config")}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        merged.update(file_values)
    merged.update(overrides)
    return ExperimentConfig.from_dict(merged)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="splitmix")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("train", "run a training experiment"),
                            ("attack", "run the reconstruction-attack suite")):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except (SplitMixError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from . import runner
    try:
        if args.command == "train":
            summary = runner.run_experiment(cfg)
            acc = summary["best_top1"]
            print(f"done: rounds={summary['rounds']} best_top1={acc:.4f} "
                  f"uplink_bytes={summary['total_uplink_bytes']}")
        else:
            result = runner.run_attack_suite(cfg)
            for rep, row in result["mse"].items():
                cells = " ".join(f"{frac}:{mse:.4f}" for frac, mse in sorted(row.items()))
                print(f"{rep:>16} {cells}")
    except SplitMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

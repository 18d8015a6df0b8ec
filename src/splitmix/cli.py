"""Command-line front end.

``splitmix train`` runs one experiment and writes metrics.csv plus
summary.json under --out-dir; ``splitmix attack`` runs the reconstruction
suite and writes attack_report.json.  Flag values override config-file
values, which override defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import CHOICES, FIELD_TYPES, ExperimentConfig
from .errors import ContractError, SplitMixError


# Flags not named by the rule "--" + field name with dashes.
_FLAG_NAMES = {"partition_mode": "--partition", "write_transcript": "--transcript"}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per config field, typed and restricted by its declaration."""
    parser.add_argument("--config", metavar="FILE", help="JSON config file (flags override it)")
    for f in dataclasses.fields(ExperimentConfig):
        flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
        kinds = set(FIELD_TYPES[f.name]) - {type(None)}
        spec = {"dest": f.name, "help": f.metadata.get("help")}
        if kinds == {bool}:
            spec["action"] = argparse.BooleanOptionalAction
        elif kinds in ({int}, {float}):
            spec["type"] = kinds.pop()
        if f.name in CHOICES:
            spec["choices"] = CHOICES[f.name]
        parser.add_argument(flag, **spec)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ContractError(f"{args.config}: a config file must hold one JSON object")
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config")}
    return ExperimentConfig.from_dict({**file_values, **overrides})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="splitmix")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("train", "run a training experiment"),
                            ("attack", "run the reconstruction-attack suite")):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or usage and an error: line
        return exc.code
    try:
        cfg = build_config(args)
    except (SplitMixError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: out_dir {cfg.out_dir!r}: {exc.strerror}", file=sys.stderr)
        return 2
    from . import runner
    try:
        if args.command == "train":
            summary = runner.run_experiment(cfg)
            acc = summary["best_top1"]
            best = "none (no evaluation ran)" if acc is None else f"{acc:.4f}"
            print(f"done: rounds={summary['rounds']} best_top1={best} "
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

"""One repetition of a workload in a fresh process; `run.py` starts it.

Writes ``rep.json`` into ``--out-dir``: the timings, the figures the
end-to-end metrics are made of, the output checks that failed and, with
``--trace 1``, the per-layer totals.  Exits 1 if the program raised.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import numpy  # noqa: F401  imported before the clock starts: not splitmix's set-up

from tracer import (Tracer, install_layers, install_probes, layer_totals, ops_per_server_pass,
                    uncovered)
from workloads import config_dict


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _parse_metrics_csv(blob: bytes) -> list[dict]:
    lines = [line for line in blob.decode().splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _train_checks(cfg, summary, captured, rows, sm) -> list[str]:
    failed = []
    n = cfg.n_clients
    if len(rows) != summary["rounds"] or len(rows) != len(captured):
        failed.append(f"metrics.csv has {len(rows)} rows for {summary['rounds']} rounds "
                      f"and {len(captured)} run_round calls")
    for row, (uplink, loss, _) in zip(rows, captured):
        total = int(row["total_bytes"])
        if total != sum(int(row[f"client{c}_bytes"]) for c in range(n)):
            failed.append(f"round {row['round']}: total_bytes != sum of client bytes")
        if total != uplink:
            failed.append(f"round {row['round']}: total_bytes {total} != run_round's {uplink}")
        if not (_finite(float(row["loss"])) and _finite(loss)):
            failed.append(f"round {row['round']}: non-finite loss")
    if summary["server_updates_total"] != sum(c[2] for c in captured):
        failed.append("server_updates_total != sum of per-round server updates")
    top1 = summary["final_top1"]
    if not (_finite(top1) and 0.0 <= top1 <= 1.0):
        failed.append(f"final_top1 {top1!r} is not an accuracy")
    if cfg.write_transcript:
        records = sm.transcript.read_transcript(os.path.join(cfg.out_dir, "transcript.bin"))
        kinds = [r["type"] for r in records]
        if kinds.count("server_step") != summary["server_updates_total"]:
            failed.append(f"transcript has {kinds.count('server_step')} server steps, "
                          f"summary {summary['server_updates_total']}")
        for kind in ("round_start", "round_end"):
            if kinds.count(kind) != summary["rounds"]:
                failed.append(f"transcript has {kinds.count(kind)} {kind} records "
                              f"for {summary['rounds']} rounds")
    return failed


def _attack_checks(result, reports, captured) -> list[str]:
    failed = []
    cells = [(rep, frac, mse) for rep, row in result["mse"].items()
             for frac, mse in row.items()]
    if len(cells) != 10 or len(reports) != 10:
        failed.append(f"attack suite gave {len(cells)} cells and {len(reports)} reports, want 10")
    for rep, frac, mse in cells:
        if not (_finite(mse) and mse > 0):
            failed.append(f"attack MSE {rep}/{frac} = {mse!r} is not finite and positive")
    if not all(_finite(c[1]) for c in captured):
        failed.append("snapshot training produced a non-finite loss")
    return failed


def _per_layer(spans, first_round: float, end: float, cfg) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, t in layer_totals(spans).items():
        out[f"{name}.s"] = t["s"]
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]
    out["tensor.ops_per_server_pass"] = ops_per_server_pass(spans)
    out["runner.other.self_s"] = uncovered(spans, first_round, end)
    if cfg.write_transcript:
        out["transcript.records"] = out["transcript.write.calls"]
        out["transcript.bytes"] = os.path.getsize(os.path.join(cfg.out_dir, "transcript.bin"))
    if "optim.AdamW.step.decoder.calls" in out:
        out["privacy.decoder_steps"] = out["optim.AdamW.step.decoder.calls"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    rep_path = os.path.join(args.out_dir, "rep.json")
    os.makedirs(args.out_dir, exist_ok=True)

    start = time.perf_counter()
    try:
        import splitmix
        from splitmix import config, model, optim, privacy, protocol, rng, runner, transcript
        sm = SimpleNamespace(model=model, optim=optim, privacy=privacy, protocol=protocol,
                             rng=rng, runner=runner, transcript=transcript)
        cfg = config.ExperimentConfig.from_dict(
            config_dict(args.workload, args.seed, args.out_dir, args.tiny))
        captured: list[tuple[int, float, int]] = []  # per round: uplink, loss, server updates
        downlink: list[int] = []  # bytes per route_gradients call
        reports = []
        with Tracer() as tracer:
            install_probes(
                tracer, sm,
                on_round=lambda m: captured.append(
                    (m.total_uplink_bytes, m.train_loss, m.server_updates)),
                on_downs=lambda downs: downlink.append(
                    sum(protocol.payload_meter(d) for d in downs)),
                on_attack=reports.append)
            if args.trace:
                install_layers(tracer, sm)
            if args.workload == "attack":
                result = runner.run_attack_suite(cfg)
            else:
                summary = runner.run_experiment(cfg)
            end = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except Exception:
        with open(rep_path, "w") as fh:
            json.dump({"error": traceback.format_exc()}, fh)
        return 1

    spans = tracer.spans
    rounds = tracer.named("protocol.run_round")
    first_round = rounds[0][1]
    run_s = end - first_round
    rep = {
        "splitmix_file": splitmix.__file__,
        "setup_s": first_round - start,
        "run_s": run_s,
        "round_ms": [(e - s) * 1e3 for _, s, e, _ in rounds],
        "peak_rss_mb": peak_rss_mb,
        "downlink_bytes_per_round": sum(downlink) / len(rounds),
    }
    if args.workload == "attack":
        epochs = cfg.attack_pretrain_epochs
        tail = captured[-(len(captured) // epochs):]
        decoder_s = sum(e - s for _, s, e, _ in tracer.named("privacy.run_attack"))
        cells = [mse for row in result["mse"].values() for mse in row.values()]
        rep.update(
            uplink_bytes_per_round=sum(c[0] for c in captured) / len(captured),
            final_loss=sum(c[1] for c in tail) / len(tail),
            decoder_samples_per_s=sum(r.sample_count for r in reports) * cfg.attack_epochs
            / decoder_s,
            attack_mse_mean=sum(cells) / len(cells),
            # The report echoes the config, output directory included.
            output_sha256=_sha256(json.dumps({k: v for k, v in result.items() if k != "config"},
                                             sort_keys=True).encode()),
            failed_checks=_attack_checks(result, reports, captured))
    else:
        with open(summary["metrics_csv"], "rb") as fh:
            csv_bytes = fh.read()
        rows = _parse_metrics_csv(csv_bytes)
        per_epoch = len(rows) // cfg.epochs
        samples = summary["rounds"] * cfg.n_clients * cfg.batch_size
        rep.update(
            uplink_bytes_per_round=sum(int(r["total_bytes"]) for r in rows) / len(rows),
            final_loss=sum(float(r["loss"]) for r in rows[-per_epoch:]) / per_epoch,
            samples_per_s=samples / run_s,
            server_steps_per_s=summary["server_updates_total"] / run_s,
            final_top1=summary["final_top1"],
            output_sha256=_sha256(csv_bytes),
            failed_checks=_train_checks(cfg, summary, captured, rows, sm))
    if args.trace:
        rep["per_layer"] = _per_layer(spans, first_round, end, cfg)
        with open(os.path.join(args.out_dir, "spans.jsonl"), "w") as fh:
            for name, s, e, parent in spans:
                fh.write(json.dumps([name, s - start, e - start, parent]) + "\n")
    with open(rep_path, "w") as fh:
        json.dump(rep, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration: training runs, evaluation, attack suites, metrics files."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import threading
import time

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, load_cifar10, make_synthetic, partition
from .errors import ContractError, IngestionError
from .model import PROFILES, ModelConfig, client_forward, fleet_of, init_parameters, server_forward
from .optim import AdamW, WarmupCosine
from .privacy import (REPRESENTATIONS, AttackConfig, AttackReport, Snapshot,
                      prepare_representation, run_attack)
from .protocol import (ClientFleet, RoundMetrics, RoundOptions, ServerState,
                       fedavg_client_segments, run_round)
from .rng import RngHub
from .tensor import Tensor, no_grad
from .transcript import TranscriptWriter

CSV_SCHEMA = "splitmix-metrics-v1"
ATTACK_FRACTIONS = (0.1, 1.0)
_EVAL_CHUNK = 256  # test samples per evaluation forward


def model_config_for(cfg: ExperimentConfig) -> ModelConfig:
    return PROFILES[cfg.profile]


def load_experiment_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.dataset == "cifar10":
        data_dir = cfg.resolved_data_dir()
        if not data_dir:
            raise IngestionError(
                "cifar10 requires --data-dir or the SPLITMIX_DATA_DIR environment variable")
        train, test = load_cifar10(data_dir)
        if cfg.cifar_subset:
            hub = RngHub(cfg.seed)
            keep = hub.data(2).permutation(len(train))[:cfg.cifar_subset]
            train = train.subset(np.sort(keep))
        return train, test
    mc = model_config_for(cfg)
    total = cfg.synthetic_samples + cfg.synthetic_test
    full = make_synthetic(total, cfg.synthetic_classes, mc.image_size, cfg.seed,
                          channels=mc.channels, noise_std=cfg.synthetic_noise,
                          jitter=cfg.synthetic_jitter, blob_radius=cfg.synthetic_radius,
                          mosaic_std=cfg.synthetic_mosaic,
                          mosaic_cell=mc.patch_size)
    train = full.subset(np.arange(cfg.synthetic_samples))
    test = full.subset(np.arange(cfg.synthetic_samples, total))
    return train, test


class TrainingSystem:
    """The client fleet, the server, their optimizers, and per-client data shards."""

    def __init__(self, cfg: ExperimentConfig, model_cfg: ModelConfig,
                 train: Dataset, hub: RngHub):
        self.cfg = cfg
        self.model_cfg = model_cfg
        self.hub = hub
        shards = partition(train, cfg.n_clients, cfg.partition_mode, hub.data(0),
                           cfg.dirichlet_mu)
        self.shards = shards
        self.train = train
        base_client, server_segment = init_parameters(model_cfg, cfg.seed)
        segment = fleet_of(base_client, cfg.n_clients)
        self.fleet = ClientFleet(
            segment=segment,
            optimizer=AdamW(segment.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay))
        self.server = ServerState(
            segment=server_segment,
            optimizer=AdamW(server_segment.parameters(), lr=cfg.lr,
                            weight_decay=cfg.weight_decay))
        sizes = [len(s) for s in shards]
        self.rounds_per_epoch = min(sizes) // cfg.batch_size
        if self.rounds_per_epoch < 1:
            raise ContractError(
                f"smallest client shard ({min(sizes)} samples) cannot fill a "
                f"batch of {cfg.batch_size}")
        self._epoch_order: tuple[int, list[np.ndarray]] = (-1, [])

    def batches_for(self, epoch: int, round_in_epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """The fleet's ``(n, batch, C, H, W)`` images and ``(n, batch)``
        labels.  Row i is the next slice of client i's shard in this epoch's
        order, which is drawn once per epoch."""
        if self._epoch_order[0] != epoch:
            self._epoch_order = (epoch, [
                shard[self.hub.data(1, cid, epoch).permutation(len(shard))]
                for cid, shard in enumerate(self.shards)])
        start = round_in_epoch * self.cfg.batch_size
        take = np.stack([order[start:start + self.cfg.batch_size]
                         for order in self._epoch_order[1]])
        return self.train.images[take], self.train.labels[take]

    def round_options(self, apply_fedavg: bool) -> RoundOptions:
        cfg = self.cfg
        return RoundOptions(
            k_way=cfg.k_way, alpha=cfg.alpha_value,
            gradient_mode=cfg.gradient_mode, shuffle=cfg.shuffle,
            ktimes=cfg.method == "cutmixsl_ktimes",
            noise_x=cfg.noise_x, noise_y=cfg.noise_y,
            keep_ratio=cfg.keep_ratio, apply_fedavg=apply_fedavg)


def _forward_accuracy(segment, server, dataset: Dataset, model_cfg: ModelConfig) -> float:
    """Top-1 accuracy of one client's segment (a fleet of one) and the server."""
    correct = 0
    with no_grad():
        for start in range(0, len(dataset), _EVAL_CHUNK):
            images = dataset.images[start:start + _EVAL_CHUNK]
            labels = dataset.labels[start:start + _EVAL_CHUNK]
            tokens = client_forward(segment, images[None], model_cfg).values[0]
            logits = server_forward(server.segment, Tensor(tokens), model_cfg)
            correct += int((logits.values.argmax(axis=1) == labels).sum())
    return correct / max(1, len(dataset))


def evaluate(system: TrainingSystem, test: Dataset) -> float:
    """FedAvg-averaged client segment when averaging is on, else the mean
    of per-client accuracies.

    Averaging is done in place; right after a round that averaged, it moves
    no bits, because the mean of n equal float32 values is that value.
    """
    fleet = system.fleet.segment
    if system.cfg.fedavg_enabled:
        fedavg_client_segments(fleet)
        return _forward_accuracy(fleet.row(0), system.server, test, system.model_cfg)
    accs = [_forward_accuracy(fleet.row(cid), system.server, test, system.model_cfg)
            for cid in range(len(fleet))]
    return float(np.mean(accs))


def _csv_header(n_clients: int) -> list[str]:
    return (["round"] + [f"client{c}_bytes" for c in range(n_clients)]
            + ["total_bytes", "server_updates", "loss", "acc"])


def _csv_row(metrics: RoundMetrics) -> list[str]:
    row = [str(metrics.round_index)]
    row += [str(b) for b in metrics.client_uplink_bytes]
    row += [str(metrics.total_uplink_bytes), str(metrics.server_updates),
            f"{metrics.train_loss:.6f}",
            "" if metrics.eval_accuracy is None else f"{metrics.eval_accuracy:.4f}"]
    return row


def train_rounds(system: TrainingSystem, transcript=None):
    """Run every training round of ``system.cfg`` in order.

    Each round's learning rate comes from one warmup-cosine schedule over
    the whole run; federated averaging follows the config's cadence.
    Yields ``(epoch, last_of_epoch, metrics)`` after each round.
    """
    cfg = system.cfg
    per_epoch = system.rounds_per_epoch
    schedule = WarmupCosine(cfg.lr, cfg.epochs * per_epoch, cfg.warmup_epochs * per_epoch)
    for epoch in range(cfg.epochs):
        for r in range(per_epoch):
            global_round = epoch * per_epoch + r
            lr = schedule.lr_at(global_round)
            system.fleet.optimizer.lr = lr
            system.server.optimizer.lr = lr
            last_of_epoch = r == per_epoch - 1
            apply_fedavg = cfg.fedavg_enabled and (
                cfg.fedavg_cadence == "round" or last_of_epoch)
            images, labels = system.batches_for(epoch, r)
            metrics = run_round(system.fleet, system.server, images, labels,
                                system.model_cfg, system.round_options(apply_fedavg),
                                system.hub, global_round, transcript)
            yield epoch, last_of_epoch, metrics


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Train per the config; write per-round CSV metrics and a JSON summary."""
    started = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    model_cfg = model_config_for(cfg)
    train, test = load_experiment_data(cfg)
    hub = RngHub(cfg.seed)
    system = TrainingSystem(cfg, model_cfg, train, hub)

    csv_path = os.path.join(cfg.out_dir, "metrics.csv")
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    transcript_path = os.path.join(cfg.out_dir, "transcript.bin")

    transcript_fh = open(transcript_path, "wb") if cfg.write_transcript else None
    transcript = TranscriptWriter(transcript_fh) if transcript_fh else None

    best_acc = None
    final_acc = None
    total_uplink = 0
    total_activation = 0
    server_updates_total = 0
    try:
        with open(csv_path, "w", newline="") as fh:
            fh.write(f"# {CSV_SCHEMA}\n")
            writer = csv.writer(fh)
            writer.writerow(_csv_header(cfg.n_clients))
            for epoch, last_of_epoch, metrics in train_rounds(system, transcript):
                if last_of_epoch and (epoch + 1) % cfg.eval_every == 0:
                    acc = evaluate(system, test)
                    metrics.eval_accuracy = acc
                    best_acc = acc if best_acc is None else max(best_acc, acc)
                    final_acc = acc
                writer.writerow(_csv_row(metrics))
                total_uplink += metrics.total_uplink_bytes
                total_activation += metrics.total_activation_bytes
                server_updates_total += metrics.server_updates
    finally:
        if transcript_fh:
            transcript_fh.close()

    summary = {
        "config": cfg.to_dict(),
        "schema": CSV_SCHEMA,
        "rounds": cfg.epochs * system.rounds_per_epoch,
        "best_top1": best_acc,
        "final_top1": final_acc,
        "total_uplink_bytes": total_uplink,
        "total_activation_bytes": total_activation,
        "server_updates_total": server_updates_total,
        "elapsed_seconds": round(time.perf_counter() - started, 3),
        "metrics_csv": csv_path,
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary


def train_snapshot(cfg: ExperimentConfig) -> tuple[Snapshot, Dataset]:
    """Short parallel-SL run to produce the frozen client segment attacks use."""
    model_cfg = model_config_for(cfg)
    train, test = load_experiment_data(cfg)
    hub = RngHub(cfg.seed)
    pre_cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "method": "parallel_sl",
                                          "k_way": 1, "epochs": cfg.attack_pretrain_epochs,
                                          "keep_ratio": 1.0, "warmup_epochs": 0})
    system = TrainingSystem(pre_cfg, model_cfg, train, hub)
    for _ in train_rounds(system):
        pass
    snapshot = Snapshot(client_segment=system.fleet.segment.row(0),
                        dataset=train, model_config=model_cfg)
    return snapshot, test


def run_attack_suite(cfg: ExperimentConfig) -> dict:
    """Five representations x fractions {0.1, 1.0}; table-shaped JSON output.

    A representation is one unit: one preparation, shared by both
    fractions' decoder fits.  The calling thread runs every other unit from
    the first and one helper thread the rest; BLAS and numpy's float32
    loops release the GIL, so the two units' fits overlap.  Each cell draws
    from its own counter-keyed streams and graph recording is per thread,
    so the report does not depend on how the threads interleave.  An
    exception in either thread is raised once both have finished.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    snapshot, _ = train_snapshot(cfg)
    cells: dict[tuple[str, float], AttackReport] = {}

    def run_units(representations: tuple[str, ...]) -> None:
        for representation in representations:
            attacks = [AttackConfig(
                representation=representation, train_fraction=fraction,
                decoder_width=cfg.attack_decoder_width,
                decoder_depth=cfg.attack_decoder_depth,
                epochs=cfg.attack_epochs, batch_size=cfg.attack_batch_size,
                lr=cfg.attack_lr, seed=cfg.seed, keep_ratio=cfg.attack_keep_ratio,
                cutmix_alpha=cfg.attack_alpha) for fraction in ATTACK_FRACTIONS]
            # The build reads no fraction, so both fractions share one; it
            # is dropped before the thread's next is built.
            prepared = prepare_representation(attacks[0], snapshot)
            for attack in attacks:
                cells[representation, attack.train_fraction] = run_attack(attack, prepared)
            del prepared

    helper_errors: list[BaseException] = []

    def helper() -> None:
        try:
            run_units(REPRESENTATIONS[1::2])
        except BaseException as exc:  # re-raised on the calling thread
            helper_errors.append(exc)

    thread = threading.Thread(target=helper, name="attack-suite-helper")
    thread.start()
    try:
        run_units(REPRESENTATIONS[0::2])
    finally:
        thread.join()
    if helper_errors:
        raise helper_errors[0]
    reports = [cells[rep, fraction] for rep in REPRESENTATIONS for fraction in ATTACK_FRACTIONS]
    table = {rep: {str(fraction): cells[rep, fraction].test_mse for fraction in ATTACK_FRACTIONS}
             for rep in REPRESENTATIONS}
    result = {
        "config": cfg.to_dict(),
        "fractions": list(ATTACK_FRACTIONS),
        "mse": table,
        "reports": [dataclasses.asdict(r) for r in reports],
    }
    with open(os.path.join(cfg.out_dir, "attack_report.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result

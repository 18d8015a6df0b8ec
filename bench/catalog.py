"""Every metric the benchmark reports: name, unit, which way is better, and
the workloads it applies to.

`exported` metrics are the ones in BENCHMARK.json: the last line of a run
carries each of them on every workload.  A per-layer metric, time or count,
is exported only if it applies to all three workloads; one that is zero by
construction on some workload is printed and written to
``result_trace1.json`` for the workloads it applies to instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import REPORTED_OPS

ALL = ("mix4", "fleet64", "attack")
TRAIN = ("mix4", "fleet64")
ATTACK = ("attack",)
FLEET = ("fleet64",)
RUN_SECONDS = 40  # measured per run; see README.md for the run-length budget
REPRESENTATIONS = ("smashed", "cutsmashed", "mixup", "patch_cutmix", "shuffled_cutmix")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...] = ALL
    bound: float | None = None  # end-to-end only: allowed worsening, share of median
    exported: bool = True


def _lower(name, unit, workloads=ALL, bound=None, exported=True):
    return Metric(name, unit, "lower", workloads, bound, exported)


def _higher(name, unit, workloads=ALL):
    return Metric(name, unit, "higher", workloads, exported=False)


# The metrics made with `_higher`, `round_ms.p50` and `fail_ratio` stay out of
# BENCHMARK.json: each applies to some workloads only; or (round_ms.p50) it
# jumps between the host's two speeds from run to run, where round_ms.mean
# moves in proportion (README.md, "Noise"); or (fail_ratio) it is 0 on a
# passing run, where the last line's `attempted` and `failed` carry it.
END_TO_END = [
    _lower("setup_s", "s", bound=0.25),
    _lower("run_s", "s", bound=0.25),
    _lower("round_ms.mean", "ms", bound=0.25),
    _lower("round_ms.p90", "ms", bound=0.25),
    _lower("peak_rss_mb", "MB", bound=0.2),
    _lower("uplink_bytes_per_round", "B", bound=0.05),
    _lower("downlink_bytes_per_round", "B", bound=0.05),
    _lower("final_loss", "nats", bound=0.15),
    _higher("samples_per_s", "1/s", TRAIN),
    _higher("server_steps_per_s", "1/s", TRAIN),
    _higher("final_top1", "fraction", TRAIN),
    _higher("decoder_samples_per_s", "1/s", ATTACK),
    _higher("attack_mse_mean", "mse", ATTACK),
    _lower("round_ms.p50", "ms", exported=False),
    _lower("fail_ratio", "fraction", exported=False),
]


def _layer_time(name, workloads=ALL):
    return _lower(name, "s", workloads, exported=workloads == ALL)


def _layer_count(name, workloads=ALL, unit="count"):
    return _lower(name, unit, workloads, exported=workloads == ALL)


PER_LAYER = [
    _layer_time("data.make_synthetic.s"),
    _layer_time("data.partition.s"),
    _layer_time("model.init_parameters.s"),
    _layer_time("model.server_forward.s"),
    _layer_count("model.server_forward.calls"),
    _layer_time("tensor.backward.server.s"),
    _layer_count("tensor.backward.server.calls"),
    _layer_count("tensor.ops_per_server_pass", unit="ops/pass"),
    *[m for op in REPORTED_OPS
      for m in (_layer_count(f"tensor.op.{op}.calls"), _layer_time(f"tensor.op.{op}.s"))],
    _layer_time("model.client_forward.s"),
    _layer_count("model.client_forward.calls"),
    _layer_time("tensor.backward.client.s"),
    _layer_count("tensor.backward.client.calls"),
    _layer_time("optim.AdamW.step.client.s"),
    _layer_count("optim.AdamW.step.client.calls"),
    _layer_time("optim.AdamW.step.server.s"),
    _layer_time("optim.AdamW.step.decoder.s", ATTACK),
    _layer_time("protocol.fedavg_client_segments.s", TRAIN),
    _layer_count("protocol.fedavg_client_segments.calls", TRAIN),
    _layer_time("protocol.route_gradients.s"),
    _layer_time("protocol.validate_upload.s"),
    _layer_time("protocol.run_round.self_s"),
    _layer_time("mixing.sample_mixing_counts.s"),
    _layer_time("mixing.generate_mask_set.s"),
    _layer_time("mixing.cutmix_assemble.s", TRAIN),
    _layer_time("mixing.shuffle_tokens.s", FLEET),
    _layer_time("mixing.unshuffle_grid.s", FLEET),
    _layer_time("runner.batches_for.s"),
    _layer_count("runner.batches_for.calls"),
    _layer_count("rng.stream_generator.calls"),
    _layer_time("rng.stream_generator.s"),
    _layer_time("transcript.write.s", FLEET),
    _layer_count("transcript.records", FLEET),
    _layer_count("transcript.bytes", FLEET, unit="B"),
    _layer_time("runner.evaluate.s", TRAIN),
    _layer_count("runner.evaluate.calls", TRAIN),
    *[_layer_time(f"privacy.build_representation.{rep}.s", ATTACK) for rep in REPRESENTATIONS],
    _layer_time("privacy.run_attack.s", ATTACK),
    _layer_count("privacy.decoder_steps", ATTACK),
    _layer_time("runner.other.self_s"),
    _layer_time("trace.overhead_s"),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json these definitions imply."""
    from workloads import WHY
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in END_TO_END if m.exported],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER if m.exported],
    }


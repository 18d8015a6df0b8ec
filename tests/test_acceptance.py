"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Budgets and tolerances are pinned here, not tuned elsewhere:
  1 payload reduction ........ even 2-way exactly 50%; Dirichlet mean 1/k +/- 0.02
  2 server update imbalance .. transcript counts 5 vs 10 for n=10, k=2
  3 mixing algebra ........... 1000 random instances vs brute-force oracle
  4 gradient correctness ..... full pipeline vs finite differences, rtol 2e-2
  5 degenerate equivalence ... k=1 matches unsplit reference to 1e-5, 20 rounds
  6 accuracy ordering ........ mean per-seed gap to parallel > 0 for cutmixsl and
                               for cutmixsfl, seeds 1-12
  7 privacy ordering ......... Table-shaped attack MSEs ordered, 2 of 3 seeds
  8 determinism .............. rerun yields byte-identical metrics CSV

Criterion 6 gates the sign of the twelve-seed mean gap, not its size, and prints
cutmixsfl-cutmixsl without gating it. The per-seed cutmixsl-parallel gap has a
standard deviation of about 0.024 (mean +0.014 over seeds 1-12), and rescaling the
client gradient by a power of two, which changes AdamW's step only through eps (a
relative 1e-6..1e-5), moves a three-seed median gap over +0.014..+0.042 and flips
the sign of cutmixsfl-cutmixsl. Neither a 2-point margin nor a three-seed ordering
is decided by such runs; the sign of the twelve-seed mean is (it holds in 98% of
bootstrap resamples of the seeds).
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from splitmix.config import ExperimentConfig
from splitmix.data import make_synthetic
from splitmix.mixing import (cut, cutmix_assemble, generate_mask_set,
                             sample_mixing_counts)
from splitmix.model import ModelConfig, client_forward, fleet_of, init_parameters, server_forward
from splitmix.optim import AdamW
from splitmix.protocol import (ClientFleet, RoundOptions, ServerState, one_hot,
                               route_gradients, run_round, upload_bytes)
from splitmix.rng import RngHub
from splitmix import runner
from splitmix.runner import run_attack_suite, run_experiment
from splitmix.tensor import Tensor, backward, cross_entropy, reshape
from splitmix.transcript import TranscriptWriter, read_transcript

from oracles import (central_difference, named_values, ref_client_forward,
                     ref_cross_entropy, ref_server_forward)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


def activation_bytes(counts, tokens, dim, batch, classes, seed):
    """Per client of a group with these counts: the bytes its token rows add
    to its upload, for the masks the mixer draws."""
    masks = generate_mask_set(np.asarray(counts), tokens, np.random.default_rng(seed))
    rows = masks.sum(axis=1)
    return upload_bytes(rows, batch, dim, classes) - upload_bytes(rows, batch, 0, classes)


def test_criterion_1_payload_reduction():
    tokens, dim, batch, classes = 16, 192, 128, 10
    full = activation_bytes([tokens], tokens, dim, batch, classes, seed=0)[0]
    even = activation_bytes([8, 8], tokens, dim, batch, classes, seed=1)
    exact_half = all(part * 2 == full for part in even)

    fractions_ok = True
    detail = []
    for k in (2, 3, 4):
        hub = RngHub(1000 + k)
        sums = np.zeros(k)
        rounds = 600
        for r in range(rounds):
            counts = sample_mixing_counts(k, 6.0, tokens, hub.allocations(r))
            sums += activation_bytes(counts, tokens, dim, 2, classes, seed=r)
        fraction = sums / rounds / activation_bytes([tokens], tokens, dim, 2, classes, 0)[0]
        worst = np.abs(fraction - 1.0 / k).max()
        detail.append(f"k={k} worst |mean-1/k|={worst:.4f}")
        fractions_ok &= worst < 0.02
    report("1 payload-reduction", exact_half and fractions_ok,
           f"even-split exactly 50%: {exact_half}; " + "; ".join(detail))


def _count_server_steps(options, tmp_path, tag):
    config = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                         depth=1, heads=2, mlp_ratio=2.0, num_classes=4)
    base, server_segment = init_parameters(config, seed=0)
    segment = fleet_of(base, 10)
    fleet = ClientFleet(segment=segment, optimizer=AdamW(segment.parameters(), lr=1e-3))
    server = ServerState(segment=server_segment,
                         optimizer=AdamW(server_segment.parameters(), lr=1e-3))
    data = make_synthetic(20, 4, 8, seed=0, channels=1)
    path = tmp_path / f"{tag}.bin"
    with open(path, "wb") as fh:
        run_round(fleet, server, data.images.reshape(10, 2, 1, 8, 8),
                  data.labels.reshape(10, 2), config, options, RngHub(0), 0,
                  transcript=TranscriptWriter(fh))
    records = read_transcript(path)
    return sum(r["type"] == "server_step" for r in records)


def test_criterion_2_server_update_imbalance(tmp_path):
    cutmix = _count_server_steps(RoundOptions(k_way=2, alpha=6.0), tmp_path, "cutmix")
    parallel = _count_server_steps(RoundOptions(k_way=1), tmp_path, "parallel")
    ktimes = _count_server_steps(RoundOptions(k_way=2, alpha=6.0, ktimes=True),
                                 tmp_path, "ktimes")
    ok = cutmix == 5 and parallel == 10 and ktimes == 10
    report("2 server-update-imbalance", ok,
           f"cutmixsl={cutmix} (want 5), parallel={parallel} (want 10), "
           f"k-times={ktimes} (want 10)")


def test_criterion_3_mixing_algebra_oracle():
    rng = np.random.default_rng(2024)
    failures = 0
    for trial in range(1000):
        tokens = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 6))
        alpha = float(rng.uniform(0.3, 12.0))
        counts = sample_mixing_counts(k, alpha, tokens, rng)
        masks = generate_mask_set(counts, tokens, rng)
        if not (np.array_equal(masks.sum(axis=0), np.ones(tokens))
                and np.array_equal(masks.sum(axis=1), counts)):
            failures += 1
            continue
        grids = [rng.normal(size=(2, tokens, 3)).astype(np.float32) for _ in range(k)]
        labels = [rng.dirichlet(np.ones(5)).astype(np.float32)[None].repeat(2, 0)
                  for _ in range(k)]
        parts = [cut(g, m) for g, m in zip(grids, masks)]
        out = cutmix_assemble(np.stack(parts), masks, np.stack(labels), range(k))
        for pos in range(tokens):
            owner = int(np.argmax(masks[:, pos]))
            if not np.array_equal(out.tokens[:, pos, :], grids[owner][:, pos, :]):
                failures += 1
                break
        soft = np.zeros((2, 5), dtype=np.float64)
        for i in range(k):
            for b in range(2):
                for c in range(5):
                    soft[b, c] += counts[i] / tokens * float(labels[i][b, c])
        if np.abs(out.soft_label.astype(np.float64) - soft).max() > 1e-7:
            failures += 1
    report("3 mixing-algebra", failures == 0, f"{failures} failures in 1000 instances")


def test_criterion_4_gradient_correctness():
    config = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                         depth=1, heads=2, mlp_ratio=2.0, num_classes=3)
    base, server_segment = init_parameters(config, seed=4)
    fleet = fleet_of(base, 2)
    rng = np.random.default_rng(5)
    images = [rng.uniform(size=(2, 1, 8, 8)).astype(np.float32) for _ in range(2)]
    labels = [one_hot(rng.integers(0, 3, 2), 3) for _ in range(2)]
    counts = np.array([2, 2])
    masks = generate_mask_set(counts, config.tokens, rng)
    soft = (counts[0] / 4) * labels[0] + (counts[1] / 4) * labels[1]

    params64 = {"server": named_values(server_segment)}
    for cid in range(2):
        params64[f"client{cid}"] = named_values(fleet.row(cid))

    def ref_mix():
        grids = [ref_client_forward(params64[f"client{cid}"],
                                    images[cid].astype(np.float64), config.patch_size)
                 for cid in range(2)]
        return sum(g * m[:, None] for g, m in zip(grids, masks))

    def ref_true_loss():
        logits = ref_server_forward(params64["server"], ref_mix(),
                                    config.depth, config.heads)
        return ref_cross_entropy(logits, soft.astype(np.float64))

    baseline_mix = ref_mix()

    def ref_broadcast_loss(cid):
        # What broadcast routing differentiates: the client's full smashed
        # data perturbs the whole mixed grid, other contributions frozen.
        def inner():
            moved = ref_client_forward(params64[f"client{cid}"],
                                       images[cid].astype(np.float64),
                                       config.patch_size)
            frozen = baselines[cid]
            logits = ref_server_forward(params64["server"],
                                        baseline_mix + moved - frozen,
                                        config.depth, config.heads)
            return ref_cross_entropy(logits, soft.astype(np.float64))
        return inner

    baselines = [ref_client_forward(params64[f"client{cid}"],
                                    images[cid].astype(np.float64), config.patch_size)
                 for cid in range(2)]

    # Engine-side pipeline, both routing modes, with run_round's client step.
    worst = 0.0
    for mode in ("unicast", "broadcast"):
        smashed = client_forward(fleet, np.stack(images), config)
        cuts = [cut(s, m) for s, m in zip(smashed.values, masks)]
        inputs = Tensor(cuts[0] + cuts[1], requires_grad=True)
        loss = cross_entropy(server_forward(server_segment, inputs, config),
                             Tensor(soft))
        backward(loss)

        expected_server = central_difference(ref_true_loss, params64["server"], h=1e-3)
        for key, tensor in server_segment.parameters().items():
            ok = np.allclose(tensor.grad, expected_server[key], rtol=2e-2, atol=1e-4)
            worst = max(worst, float(np.abs(tensor.grad - expected_server[key]).max()))
            assert ok, f"server {key} ({mode})"

        downs = route_gradients([0, 1], masks, inputs.grad, mode)
        backward(smashed, np.stack([down.grad for down in downs]))
        for cid in range(2):
            if mode == "unicast":
                expected = central_difference(ref_true_loss, params64[f"client{cid}"],
                                              h=1e-3)
            else:
                expected = central_difference(ref_broadcast_loss(cid),
                                              params64[f"client{cid}"], h=1e-3)
            for key, tensor in fleet.parameters().items():
                grad = tensor.grad[cid:cid + 1]
                ok = np.allclose(grad, expected[key], rtol=2e-2, atol=1e-4)
                worst = max(worst, float(np.abs(grad - expected[key]).max()))
                assert ok, f"client{cid} {key} ({mode})"
        for tensor in fleet.parameters().values():
            tensor.grad = None
        for tensor in server_segment.parameters().values():
            tensor.grad = None
    report("4 gradient-correctness", True, f"worst |ad - fd| = {worst:.2e}")


def test_criterion_5_degenerate_equivalence():
    config = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                         depth=1, heads=2, mlp_ratio=2.0, num_classes=4)
    rounds = 20
    data = make_synthetic(rounds * 4, 4, 8, seed=17, channels=1)

    base, server_segment = init_parameters(config, 21)
    segment = fleet_of(base, 1)
    split_client = ClientFleet(segment, AdamW(segment.parameters(), lr=1e-3))
    server = ServerState(server_segment, AdamW(server_segment.parameters(), lr=1e-3))
    hub = RngHub(21)
    split_losses = []
    for r in range(rounds):
        metrics = run_round(split_client, server, data.images[None, r * 4:(r + 1) * 4],
                            data.labels[None, r * 4:(r + 1) * 4], config,
                            RoundOptions(k_way=1), hub, r)
        split_losses.append(metrics.train_loss)

    ref_client, ref_server = init_parameters(config, 21)
    opt_c = AdamW(ref_client.parameters(), lr=1e-3)
    opt_s = AdamW(ref_server.parameters(), lr=1e-3)
    ref_losses = []
    for r in range(rounds):
        images = data.images[r * 4:(r + 1) * 4]
        labels = one_hot(data.labels[r * 4:(r + 1) * 4], 4)
        tokens = client_forward(ref_client, images[None], config)
        loss = cross_entropy(
            server_forward(ref_server, reshape(tokens, tokens.shape[1:]), config),
            Tensor(labels))
        backward(loss)
        opt_s.step(); opt_s.zero_grads()
        opt_c.step(); opt_c.zero_grads()
        ref_losses.append(float(loss.values))

    gap = float(np.abs(np.array(split_losses) - np.array(ref_losses)).max())
    report("5 degenerate-equivalence", gap < 1e-5,
           f"max per-round loss gap over {rounds} rounds = {gap:.2e}")


def _ordering_cfg(method, k, seed, gradient_mode):
    return ExperimentConfig(
        method=method, k_way=k, alpha=6.0, n_clients=4, dataset="synthetic",
        synthetic_samples=2048, synthetic_test=2048, synthetic_classes=10,
        synthetic_noise=1.4, synthetic_jitter=1.0, synthetic_radius=16.0,
        gradient_mode=gradient_mode, fedavg_cadence="round", batch_size=16,
        epochs=30, warmup_epochs=1, eval_every=30, seed=seed,
        out_dir=f"/tmp/splitmix_accept6/{method}_{seed}")


ORDERING_METHODS = (("parallel_sl", 1, "unicast"), ("cutmixsl", 2, "broadcast"),
                    ("cutmixsfl", 2, "broadcast"))
ORDERING_SEEDS = tuple(range(1, 13))


def _ordering_top1(job):
    method, k, mode, seed = job
    return run_experiment(_ordering_cfg(method, k, seed, mode))["final_top1"]


@pytest.mark.slow
def test_criterion_6_accuracy_ordering(monkeypatch):
    jobs = [(method, k, mode, seed) for seed in ORDERING_SEEDS
            for method, k, mode in ORDERING_METHODS]
    # Runs are deterministic and bound by Python overhead, so two fresh
    # one-thread workers halve the wall time without changing any result.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        tops = list(pool.map(_ordering_top1, jobs))
    finals = {method: np.array([top for job, top in zip(jobs, tops) if job[0] == method])
              for method, _, _ in ORDERING_METHODS}
    beats = True
    detail = []
    for method, values in finals.items():
        detail.append(f"{method} mean {values.mean():.4f} of "
                      + "/".join(f"{v:.4f}" for v in values))
    for method in ("cutmixsl", "cutmixsfl"):
        gap = finals[method] - finals["parallel_sl"]
        beats &= bool(gap.mean() > 0)
        detail.append(f"{method}-parallel mean {gap.mean():+.4f} "
                      f"(se {gap.std(ddof=1) / np.sqrt(len(gap)):.4f}, "
                      f"{int((gap > 0).sum())}/{len(gap)} seeds > 0)")
    sfl_sl = finals["cutmixsfl"] - finals["cutmixsl"]
    detail.append(f"not gated: cutmixsfl-cutmixsl mean {sfl_sl.mean():+.4f}")
    report("6 accuracy-ordering", beats, "; ".join(detail))


PRIVACY_ORDER = ("shuffled_cutmix", "cutsmashed", "patch_cutmix", "mixup", "smashed")


@pytest.mark.slow
def test_criterion_7_privacy_ordering(monkeypatch, tmp_path):
    # The gate reads the 10% column only.  Each cell is prepared and fitted on
    # its own (test_privacy.test_suite_matches_cells_prepared_on_their_own),
    # so fitting that column alone leaves its MSEs as they are.
    monkeypatch.setattr(runner, "ATTACK_FRACTIONS", (0.1,))
    wins = 0
    per_seed = []
    for seed in (1, 2, 3):
        cfg = ExperimentConfig(
            method="parallel_sl", n_clients=2, dataset="synthetic",
            synthetic_samples=2048, synthetic_test=512, synthetic_mosaic=0.25,
            synthetic_noise=0.05, epochs=10, warmup_epochs=1, batch_size=32,
            seed=seed, out_dir=str(tmp_path / f"s{seed}"),
            attack_pretrain_epochs=6)
        mse = {rep: row["0.1"] for rep, row in run_attack_suite(cfg)["mse"].items()}
        ordered = (mse["shuffled_cutmix"] > mse["cutsmashed"] > mse["patch_cutmix"]
                   > mse["mixup"] > mse["smashed"])
        wins += ordered
        # Adjacent MSE ratios in the gated order; above 1 means that pair is in order.
        ratios = [mse[a] / mse[b] for a, b in zip(PRIVACY_ORDER, PRIVACY_ORDER[1:])]
        per_seed.append(f"seed{seed}:{'ok' if ordered else 'out-of-order'}"
                        f"[{' '.join(f'{r:.3f}' for r in ratios)}]")
    report("7 privacy-ordering", wins >= 2,
           f"{wins}/3 seeds ordered ({', '.join(per_seed)}; "
           f"adjacent MSE ratios along {' > '.join(PRIVACY_ORDER)})")


def test_criterion_8_determinism(tmp_path):
    blobs = []
    for run in ("a", "b"):
        cfg = ExperimentConfig(
            method="cutmixsl", k_way=2, alpha=6.0, n_clients=4, shuffle=True,
            noise_x=0.05, noise_y=0.05, dataset="synthetic",
            synthetic_samples=256, synthetic_test=128, epochs=2, warmup_epochs=1,
            batch_size=16, seed=42, out_dir=str(tmp_path / run))
        run_experiment(cfg)
        blobs.append((tmp_path / run / "metrics.csv").read_bytes())
    report("8 determinism", blobs[0] == blobs[1],
           f"metrics CSV byte-identical across reruns ({len(blobs[0])} bytes)")

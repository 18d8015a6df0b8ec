"""Round protocol: groups, routing, metering, state machine, transcripts."""

import io
import math
import re
import struct

import numpy as np
import pytest

from splitmix.data import make_synthetic
from splitmix.errors import ContractError, IngestionError, ProtocolError
from splitmix.mixing import generate_mask_set, sample_mixing_counts
from splitmix.model import (ClientSegment, ModelConfig, client_forward, fleet_of,
                            init_parameters, server_forward)
from splitmix.optim import AdamW
from splitmix import protocol
from splitmix.protocol import (ClientFleet, RoundOptions, ServerState,
                               fedavg_client_segments, form_groups, one_hot, route_gradients,
                               run_round, upload_bytes, validate_upload)
from splitmix.rng import RngHub
from splitmix.runner import _csv_row
from splitmix.tensor import Tensor, _node, add, backward, cross_entropy, reshape
from splitmix.transcript import (BinaryReader, TranscriptWriter, encode_mask, mask_nbytes,
                                 read_transcript)

import composite
import oracles
from composite import mul

CFG = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                  depth=1, heads=2, mlp_ratio=2.0, num_classes=4)


def build_system(n_clients, seed=0, config=CFG):
    base_client, server_segment = init_parameters(config, seed)
    segment = fleet_of(base_client, n_clients)
    fleet = ClientFleet(segment=segment, optimizer=AdamW(segment.parameters(), lr=1e-3))
    server = ServerState(segment=server_segment,
                         optimizer=AdamW(server_segment.parameters(), lr=1e-3))
    return fleet, server


def one_client(segment, images, config=CFG):
    """A fleet of one's ``(batch, M, d)`` tokens for ``(batch, C, H, W)`` images."""
    tokens = client_forward(segment, images[None], config)
    return reshape(tokens, tokens.shape[1:])


def clear_grads(tensors):
    for t in tensors:
        t.grad = None


def build_batches(n_clients, batch=4, seed=0, config=CFG):
    """The fleet's ``(n, batch, C, H, W)`` images and ``(n, batch)`` labels."""
    data = make_synthetic(n_clients * batch, config.num_classes, config.image_size,
                          seed, channels=config.channels)
    return (data.images.reshape((n_clients, batch) + data.images.shape[1:]),
            data.labels.reshape(n_clients, batch))


class TestFormGroups:
    def test_even_pairs(self):
        groups = form_groups(range(10), 2, np.random.default_rng(0))
        assert sorted(len(g) for g in groups) == [2] * 5
        assert sorted(sum(groups, [])) == list(range(10))

    def test_three_way_with_singleton(self):
        groups = form_groups(range(7), 3, np.random.default_rng(1))
        assert sorted(len(g) for g in groups) == [1, 3, 3]

    def test_four_way_leftover_pair(self):
        groups = form_groups(range(10), 4, np.random.default_rng(2))
        assert sorted(len(g) for g in groups) == [2, 4, 4]

    def test_empty_clients_rejected(self):
        with pytest.raises(ContractError):
            form_groups([], 2, np.random.default_rng(0))


class TestRouting:
    def make_masks(self, seed=0):
        return generate_mask_set(np.array([3, 5]), 8, np.random.default_rng(seed))

    def test_unicast_masks_rows(self):
        masks = self.make_masks()
        grad = np.random.default_rng(3).normal(size=(2, 8, 4)).astype(np.float32)
        seeds = np.empty((2,) + grad.shape, np.float32)
        downs = route_gradients([0, 1], masks, grad, "unicast", seeds)
        for down, mask in zip(downs, masks):
            assert down.rows == mask.sum()
            assert not down.grad[:, mask == 0, :].any()

    def test_unicast_sum_recovers_full_gradient(self):
        grad = np.random.default_rng(5).normal(size=(2, 8, 4)).astype(np.float32)
        seeds = np.empty((2,) + grad.shape, np.float32)
        downs = route_gradients([0, 1], self.make_masks(4), grad, "unicast", seeds)
        assert np.array_equal(downs[0].grad + downs[1].grad, grad)

    def test_broadcast_identical_copies(self):
        grad = np.random.default_rng(7).normal(size=(2, 8, 4)).astype(np.float32)
        seeds = np.empty((2,) + grad.shape, np.float32)
        downs = route_gradients([0, 1], self.make_masks(6), grad, "broadcast", seeds)
        assert len(downs) == 2
        assert np.array_equal(downs[0].grad, downs[1].grad)
        assert all(d.rows == 8 for d in downs)

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            route_gradients([0, 1], self.make_masks(), np.zeros((1, 8, 4), np.float32),
                            "multicast", np.empty((2, 1, 8, 4), np.float32))


def stacked(segments):
    """One fleet whose rows are the given fleets' rows, in order."""
    return ClientSegment(*(
        Tensor(np.concatenate([s.parameters()[k].values for s in segments]), requires_grad=True)
        for k in segments[0].parameters()))


def random_fleet(n, seed):
    rng = np.random.default_rng(seed)
    client, _ = init_parameters(CFG, seed=seed)
    return ClientSegment(*(Tensor(rng.normal(0, 0.3, size=(n,) + t.shape[1:]).astype(np.float32),
                                  requires_grad=True) for t in client.parameters().values()))


def per_name_fedavg(fleet):
    """FedAvg as a float64 loop over the clients, name by name, in place."""
    w = 1.0 / len(fleet)
    for tensor in fleet.parameters().values():
        acc = np.zeros_like(tensor.values[0], dtype=np.float64)
        for row in tensor.values:
            acc += w * row.astype(np.float64)
        tensor.values[...] = acc.astype(np.float32)


class TestFedAvg:
    def test_idempotent_on_identical_segments(self):
        # Bit for bit: evaluation averages a fleet that a round just averaged.
        client, _ = init_parameters(CFG, seed=1)
        client.pos_embed.values = random_fleet(1, 1).pos_embed.values
        for n in (2, 3, 64):
            fleet = fleet_of(client, n)
            fedavg_client_segments(fleet)
            for name, tensor in fleet.parameters().items():
                for row in tensor.values:
                    assert row.tobytes() == client.parameters()[name].values[0].tobytes(), (n, name)

    def test_opposite_segments_cancel(self):
        client, _ = init_parameters(CFG, seed=2)
        negated = fleet_of(client, 1)
        for tensor in negated.parameters().values():
            tensor.values = -tensor.values
        merged = stacked([client, negated])
        fedavg_client_segments(merged)
        for tensor in merged.parameters().values():
            assert np.allclose(tensor.values, 0.0, atol=1e-7)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_stacked_mean_equals_per_name_loop_bit_for_bit(self, n):
        fleet, reference = random_fleet(n, seed=n), random_fleet(n, seed=n)
        fedavg_client_segments(fleet)
        per_name_fedavg(reference)
        for name, tensor in fleet.parameters().items():
            assert tensor.values.tobytes() == reference.parameters()[name].values.tobytes(), name

    def test_three_segment_mean_matches_scalar_loop(self):
        segments = [init_parameters(CFG, seed=s)[0] for s in (3, 4, 5)]
        merged = stacked(segments)
        fedavg_client_segments(merged)
        for name in ("patch_weight", "patch_bias", "pos_embed"):
            stacked_rows = [seg.parameters()[name].values for seg in segments]
            for row in merged.parameters()[name].values[1:]:
                assert row.tobytes() == merged.parameters()[name].values[0].tobytes()
            flat = merged.parameters()[name].values[0].reshape(-1)
            for i in range(flat.size):
                expected = np.float32(
                    (float(stacked_rows[0].reshape(-1)[i]) + float(stacked_rows[1].reshape(-1)[i])
                     + float(stacked_rows[2].reshape(-1)[i])) / 3.0)
                assert flat[i] == pytest.approx(expected, abs=1e-7)


class TestPayloadMeter:
    def test_full_smashed_paper_dimensions(self):
        rows = upload_bytes(16, 128, 192, 10) - upload_bytes(16, 128, 0, 10)
        assert rows == 16 * 192 * 4 * 128 == 1_572_864
        assert upload_bytes(16, 128, 192, 10) == 1_572_864 + 16 + 10 * 4 * 128

    def test_even_two_way_is_half(self):
        rows = upload_bytes([8, 16], 128, 192, 10) - upload_bytes([8, 16], 128, 0, 10)
        assert rows[0] * 2 == rows[1]

    def test_zero_allocation_transmits_nothing(self):
        assert upload_bytes(0, 128, 192, 10) == 0
        assert upload_bytes([0, 3], 2, 4, 5).tolist() == [0, (3 * 4 + 5) * 2 * 4 + 16]

    def test_sequence_assignment_is_one_integer(self):
        assert mask_nbytes(16) == 8
        assert mask_nbytes(64) == 8
        assert mask_nbytes(200) == 25

    def test_upload_invariant_enforced(self):
        masks = np.zeros((3, 16), dtype=np.uint8)
        masks[:, :8] = 1
        uploads = np.zeros((3, 2, 16, 4), dtype=np.float32)
        uploads[:, :, :8, :] = 1.0
        validate_upload(uploads, masks)
        uploads[2, :, 12, :] = 5.0  # outside client 2's mask
        uploads[1, 0, 13, 0] = -1.0  # outside client 1's mask
        with pytest.raises(ProtocolError, match="client 1 "):
            validate_upload(uploads, masks)


class TestRunRound:
    def run(self, n, options, seed=0, batch=4):
        fleet, server = build_system(n, seed)
        images, labels = build_batches(n, batch, seed)
        hub = RngHub(seed)
        return run_round(fleet, server, images, labels, CFG, options, hub, 0)

    def test_two_clients_two_way_single_server_step(self):
        metrics = self.run(2, RoundOptions(k_way=2, alpha=math.inf))
        assert metrics.server_updates == 1

    def test_ten_clients_two_way_five_steps(self):
        metrics = self.run(10, RoundOptions(k_way=2, alpha=6.0))
        assert metrics.server_updates == 5

    def test_ktimes_mode_steps_n_times(self):
        metrics = self.run(10, RoundOptions(k_way=2, alpha=6.0, ktimes=True))
        assert metrics.server_updates == 10

    @pytest.mark.parametrize("mode", ["unicast", "broadcast"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_ktimes_routes_one_message_per_client(self, monkeypatch, mode, k):
        # What route_gradients returns is what goes down the wire.
        routed = []
        original = protocol.route_gradients

        def counting(*args):
            downs = original(*args)
            routed.append(len(downs))
            return downs

        monkeypatch.setattr(protocol, "route_gradients", counting)
        self.run(8, RoundOptions(k_way=k, alpha=6.0, gradient_mode=mode, ktimes=True))
        assert routed == [1] * 8

    def test_plain_sl_steps_n_times(self):
        metrics = self.run(10, RoundOptions(k_way=1))
        assert metrics.server_updates == 10

    def test_uplink_conservation(self):
        metrics = self.run(6, RoundOptions(k_way=3, alpha=6.0))
        assert metrics.total_uplink_bytes == sum(metrics.client_uplink_bytes)
        # Each client that sends anything adds a header and its 4 x 4 label rows.
        senders = sum(b > 0 for b in metrics.client_uplink_bytes)
        overhead = metrics.total_uplink_bytes - metrics.total_activation_bytes
        assert overhead == senders * (16 + 4 * 4 * 4)

    def test_unequal_batches_rejected(self):
        # Labels must be (n, batch) for (n, batch, ...) images of a fleet of n.
        fleet, server = build_system(2)
        images, labels = build_batches(2, 4)
        for bad_images, bad_labels in ((images, labels[:, :2]), (images, labels[:1]),
                                       (images[:1], labels[:1]), (images, labels[:, :, None])):
            with pytest.raises(ContractError, match="fleet of 2"):
                run_round(fleet, server, bad_images, bad_labels, CFG, RoundOptions(),
                          RngHub(0), 0)

    def test_expected_uplink_fraction_is_one_over_k(self):
        # Symmetric Dirichlet allocations: long-run activation fraction 1/k.
        hub = RngHub(99)
        rounds = 600
        k = 2
        total = np.zeros(k)
        for r in range(rounds):
            counts = sample_mixing_counts(k, 6.0, 16, hub.allocations(r, 0))
            total += counts / 16.0
        assert np.all(np.abs(total / rounds - 1.0 / k) < 0.02)


class TestGradientModes:
    def constructed_case(self):
        """Images black outside each client's mask so smashed rows vanish there.

        Bias and positional table are frozen: their Jacobians are constant,
        so only the activation-linked patch weight satisfies the
        zero-rows-kill-broadcast-extras argument.
        """
        config = ModelConfig(image_size=8, patch_size=4, channels=1, embed_dim=8,
                             depth=1, heads=2, mlp_ratio=2.0, num_classes=4)
        base, server_segment = init_parameters(config, seed=3)
        base.patch_bias.values[:] = 0.0
        base.pos_embed.values[:] = 0.0
        masks = generate_mask_set(np.array([2, 2]), 4, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        clients, images = [], []
        for cid in range(2):
            seg = fleet_of(base, 1)
            seg.patch_bias.requires_grad = False
            seg.pos_embed.requires_grad = False
            clients.append(seg)
            img = rng.uniform(0.2, 1.0, size=(3, 1, 8, 8)).astype(np.float32)
            for token in range(4):
                if masks[cid][token] == 0:
                    gy, gx = divmod(token, 2)
                    img[:, :, gy * 4:(gy + 1) * 4, gx * 4:(gx + 1) * 4] = 0.0
            images.append(img)
        return config, clients, server_segment, masks, images

    def test_modes_agree_when_smashed_is_zero_outside_mask(self):
        config, segments, server_segment, masks, images = self.constructed_case()
        grads = {}
        for mode in ("unicast", "broadcast"):
            smashed, cuts = [], []
            for cid in range(2):
                s = one_client(segments[cid], images[cid], config)
                grid = np.repeat(masks[cid][:, None].astype(np.float32),
                                 config.embed_dim, axis=1)
                smashed.append(s)
                cuts.append(mul(s, Tensor(grid)))
            mixed = cuts[0].values + cuts[1].values
            soft = np.full((3, 4), 0.25, dtype=np.float32)
            inputs = Tensor(mixed, requires_grad=True)
            loss = cross_entropy(server_forward(server_segment, inputs, config),
                                 Tensor(soft))
            backward(loss)
            downs = route_gradients([0, 1], masks, inputs.grad, mode,
                                    np.empty((2,) + inputs.grad.shape, np.float32))
            for cid, down in enumerate(downs):
                carrier = smashed[cid] if mode == "broadcast" else cuts[cid]
                backward(carrier, down.grad)
                grads[(mode, cid)] = {k: t.grad.copy() for k, t
                                      in segments[cid].parameters().items()
                                      if t.requires_grad}
                clear_grads(segments[cid].parameters().values())
            clear_grads(server_segment.parameters().values())
        for cid in range(2):
            assert grads[("unicast", cid)]
            for key in grads[("unicast", cid)]:
                assert np.allclose(grads[("unicast", cid)][key],
                                   grads[("broadcast", cid)][key], atol=1e-6), key

    def test_modes_differ_on_general_inputs(self):
        # Difference norm is reported, not asserted against a bound.
        config = CFG
        fleet, server = build_system(2, seed=5)
        images, _ = build_batches(2, 3, seed=5)
        norms = {}
        for mode in ("unicast", "broadcast"):
            segment = fleet_of(fleet.segment.row(0), 1)
            s = one_client(segment, images[0], config)
            masks = generate_mask_set(np.array([2, 2]), 4, np.random.default_rng(12))
            grid = np.repeat(masks[0][:, None].astype(np.float32), config.embed_dim, 1)
            cut_t = mul(s, Tensor(grid))
            other = one_client(fleet.segment.row(1), images[1], config)
            other_cut = other.values * np.repeat(masks[1][:, None], config.embed_dim, 1)
            inputs = Tensor(cut_t.values + other_cut, requires_grad=True)
            loss = cross_entropy(server_forward(server.segment, inputs, config),
                                 Tensor(np.full((3, 4), 0.25, np.float32)))
            backward(loss)
            down = route_gradients([0, 1], masks, inputs.grad, mode,
                                   np.empty((2,) + inputs.grad.shape, np.float32))[0]
            carrier = s if mode == "broadcast" else cut_t
            backward(carrier, down.grad)
            norms[mode] = float(np.linalg.norm(segment.patch_weight.grad))
            clear_grads(server.segment.parameters().values())
        print(f"unicast vs broadcast client-grad norms: {norms}")
        assert norms["unicast"] > 0 and norms["broadcast"] > 0


class TestClientStep:
    @pytest.mark.parametrize("mode,ktimes", [("unicast", False), ("broadcast", False),
                                             ("unicast", True), ("broadcast", True)])
    def test_update_matches_two_carrier_replica(self, tmp_path, mode, ktimes):
        """run_round's client step, bit for bit, against a hand-built graph.

        The replica adds the activation noise and the cut as graph nodes and
        backpropagates broadcast gradients through the noisy activations and
        unicast ones through the cut, feeding each client the gradient the
        round's transcript shows it received.
        """
        n, seed, sigma = 4, 7, 0.1
        fleet, server = build_system(n, seed)
        images, labels = build_batches(n, 3, seed)
        path = tmp_path / "round.bin"
        with open(path, "wb") as fh:
            run_round(fleet, server, images, labels, CFG,
                      RoundOptions(k_way=2, alpha=6.0, gradient_mode=mode,
                                   ktimes=ktimes, noise_x=sigma),
                      RngHub(seed), 0, transcript=TranscriptWriter(fh))
        records = read_transcript(path)
        masks = {r["client_id"]: r["mask"] for r in records if r["type"] == "sequence"}
        downs = {r["target"]: r for r in records if r["type"] == "gradient_down"}
        assert sorted(downs) == list(range(n))

        replicas = [build_system(1, seed)[0] for _ in range(n)]
        hub = RngHub(seed)
        for cid, replica in enumerate(replicas):
            smashed = one_client(replica.segment, images[cid])
            noise = hub.noise(0, cid, 0).normal(0.0, sigma, size=smashed.shape)
            noisy = add(smashed, Tensor(noise.astype(np.float32)))
            grid = np.repeat(masks[cid][:, None].astype(np.float32), CFG.embed_dim, axis=1)
            carrier = noisy if downs[cid]["broadcast"] else mul(noisy, Tensor(grid))
            backward(carrier, downs[cid]["grad"])
            replica.optimizer.step()
            trained = fleet.segment.parameters()
            for name, tensor in replica.segment.parameters().items():
                assert tensor.values[0].tobytes() == trained[name].values[cid].tobytes(), (cid, name)


class PerClientFleet:
    """A fleet run as n separate clients, as it was before it was stacked.

    Each client has its own leaves (views of its rows of the fleet's
    arrays), its own ``linear`` + ``add`` graph and its own per-array AdamW
    (``oracles.RefAdamW``), which steps those rows in place, so its steps
    land in the fleet and FedAvg's in-place writes reach the next forward.
    FedAvg is the per-name float64 loop.  ``forward`` and ``fedavg`` stand
    in for ``protocol``'s functions and the object itself for the fleet's
    optimizer.
    """

    def __init__(self, fleet: ClientFleet):
        opt = fleet.optimizer
        self.segment = fleet.segment
        self.rows = [{k: Tensor(t.values[i], requires_grad=True)
                      for k, t in fleet.segment.parameters().items()}
                     for i in range(len(fleet.segment))]
        self.optimizers = [oracles.RefAdamW({k: t.values for k, t in row.items()}, lr=opt.lr,
                                            weight_decay=opt.weight_decay, in_place=True)
                           for row in self.rows]

    def forward(self, segment, images, config):
        own = [composite.client_forward(*row.values(), images[i], config)
               for i, row in enumerate(self.rows)]
        return _node(np.stack([t.values for t in own]), own, lambda g: tuple(g))

    def fedavg(self, segment):
        per_name_fedavg(segment)

    def step(self):
        for row, opt in zip(self.rows, self.optimizers):
            opt.step({k: t.grad for k, t in row.items()})

    def zero_grads(self):
        for row in self.rows:
            clear_grads(row.values())


class TestFleetMatchesPerClientReference:
    CASES = {
        "unicast": RoundOptions(k_way=2, alpha=6.0, gradient_mode="unicast", apply_fedavg=True),
        "broadcast": RoundOptions(k_way=3, alpha=6.0, gradient_mode="broadcast", shuffle=True),
        "ktimes": RoundOptions(k_way=2, alpha=6.0, gradient_mode="broadcast", ktimes=True),
        "ktimes_unicast": RoundOptions(k_way=3, alpha=6.0, ktimes=True, apply_fedavg=True),
        "cutout": RoundOptions(k_way=1, keep_ratio=0.5),
        "noise": RoundOptions(k_way=2, alpha=6.0, noise_x=0.1, noise_y=0.05, shuffle=True,
                              apply_fedavg=True),
    }

    def run(self, tmp_path, case, reference, monkeypatch):
        n, seed, rounds = 6, 11, 3
        fleet, server = build_system(n, seed)
        if reference:
            per_client = PerClientFleet(fleet)
            monkeypatch.setattr(protocol, "client_forward", per_client.forward)
            monkeypatch.setattr(protocol, "fedavg_client_segments", per_client.fedavg)
            fleet.optimizer = per_client
        data = make_synthetic(rounds * n * 3, CFG.num_classes, CFG.image_size, seed,
                              channels=CFG.channels)
        images = data.images.reshape((rounds, n, 3) + data.images.shape[1:])
        labels = data.labels.reshape(rounds, n, 3)
        path = tmp_path / f"{case}_{reference}.bin"
        rows = []
        with open(path, "wb") as fh:
            for r in range(rounds):
                metrics = run_round(fleet, server, images[r], labels[r], CFG, self.CASES[case],
                                    RngHub(seed), r, transcript=TranscriptWriter(fh))
                rows.append(_csv_row(metrics))
        monkeypatch.undo()
        params = {k: t.values.tobytes() for k, t in fleet.segment.parameters().items()}
        return rows, path.read_bytes(), params

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_transcript_and_parameters_equal(self, tmp_path, monkeypatch, case):
        rows, transcript, params = self.run(tmp_path, case, False, monkeypatch)
        ref_rows, ref_transcript, ref_params = self.run(tmp_path, case, True, monkeypatch)
        assert rows == ref_rows
        assert transcript == ref_transcript
        assert params == ref_params


class TestFleetMixerMatchesPerGroupReference:
    """The round's fleet-array mixer and router against the per-group loop
    they replaced (``oracles.ref_*``), bit for bit: the uploads, grids, soft
    labels and gradient messages the transcript records, the whole
    transcript, the fleet's seeds and the client step."""

    CASES = {
        "n7_k3": (7, RoundOptions(k_way=3, alpha=6.0)),  # two triples and a singleton
        "n8_k3": (8, RoundOptions(k_way=3, alpha=6.0, apply_fedavg=True)),  # and a pair
        "cutout": (4, RoundOptions(k_way=1, keep_ratio=0.5)),
        "ktimes_unicast": (7, RoundOptions(k_way=3, alpha=6.0, ktimes=True)),
        "ktimes_broadcast": (8, RoundOptions(k_way=3, alpha=6.0, gradient_mode="broadcast",
                                             ktimes=True)),
        "shuffle": (8, RoundOptions(k_way=3, alpha=6.0, shuffle=True)),
        "noise": (7, RoundOptions(k_way=2, alpha=6.0, noise_x=0.1, noise_y=0.2, shuffle=True,
                                  gradient_mode="broadcast")),
    }
    REFERENCES = ("cutmix_assemble", "shuffle_tokens", "unshuffle_grid", "route_gradients")

    def run(self, tmp_path, case, reference, monkeypatch):
        n, options = self.CASES[case]
        seed, rounds = 13, 3
        fleet, server = build_system(n, seed)
        if reference:
            for name in self.REFERENCES:
                monkeypatch.setattr(protocol, name, getattr(oracles, f"ref_{name}"))
        seeds = []
        real_backward = protocol.backward

        def recording_backward(root, grad=None):
            if grad is not None:
                seeds.append(np.array(grad).tobytes())
            real_backward(root, grad)

        monkeypatch.setattr(protocol, "backward", recording_backward)
        data = make_synthetic(rounds * n * 3, CFG.num_classes, CFG.image_size, seed,
                              channels=CFG.channels)
        images = data.images.reshape((rounds, n, 3) + data.images.shape[1:])
        labels = data.labels.reshape(rounds, n, 3)
        path = tmp_path / f"{case}_{reference}.bin"
        with open(path, "wb") as fh:
            writer = TranscriptWriter(fh)
            for r in range(rounds):
                run_round(fleet, server, images[r], labels[r], CFG, options, RngHub(seed), r,
                          transcript=writer)
        monkeypatch.undo()
        params = {k: t.values.tobytes() for k, t in fleet.segment.parameters().items()}
        return path.read_bytes(), seeds, params

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_transcript_seeds_and_client_step_equal(self, tmp_path, monkeypatch, case):
        blob, seeds, params = self.run(tmp_path, case, False, monkeypatch)
        ref_blob, ref_seeds, ref_params = self.run(tmp_path, case, True, monkeypatch)
        assert len(seeds) == 3 and seeds == ref_seeds
        assert params == ref_params
        assert blob == ref_blob
        records = read_transcript(tmp_path / f"{case}_False.bin")
        kinds = {r["type"] for r in records}
        assert {"upload", "server_batch", "gradient_down"} <= kinds

    def test_singleton_rows_pass_through_bit_for_bit(self):
        # 0 + 1.0 * label would turn a -0.0 label entry into +0.0.
        uploads = np.random.default_rng(2).normal(size=(3, 2, 4, 2)).astype(np.float32)
        labels = np.full((3, 2, 2), 0.5, dtype=np.float32)
        labels[2, 0] = [-0.0, 1.0]
        masks = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]], np.uint8)
        grids, soft = protocol.cutmix_assemble(uploads, masks, labels, [[0, 1], [2]])
        ref_grids, ref_soft = oracles.ref_cutmix_assemble(uploads, masks, labels, [[0, 1], [2]])
        assert grids.tobytes() == ref_grids.tobytes() and soft.tobytes() == ref_soft.tobytes()
        assert soft[1].tobytes() == labels[2].tobytes()

    def test_mask_errors_name_the_first_broken_group(self):
        uploads = np.ones((6, 1, 4, 2), dtype=np.float32)
        labels = np.ones((6, 1, 2), dtype=np.float32) / 2
        masks = np.array([[1, 1, 0, 0], [0, 0, 1, 1],
                          [1, 0, 0, 0], [0, 1, 1, 1], [0, 0, 1, 0], [1, 1, 1, 1]], np.uint8)
        groups = [[0, 1], [2, 3, 4], [5]]
        for assemble in (protocol.cutmix_assemble, oracles.ref_cutmix_assemble):
            with pytest.raises(ProtocolError, match="position 2 claimed by client 4"):
                assemble(uploads, masks, labels, groups)
        masks[1] = [0, 0, 1, 0]  # the first group now leaves a gap before the second's overlap
        for assemble in (protocol.cutmix_assemble, oracles.ref_cutmix_assemble):
            with pytest.raises(ProtocolError, match="position 3 unclaimed"):
                assemble(uploads, masks, labels, groups)


class TestDegenerateEquivalence:
    def test_k1_matches_unsplit_reference_over_rounds(self):
        """Split protocol with k=1 and full masks tracks a monolithic model."""
        config = CFG
        rounds = 20
        data = make_synthetic(rounds * 4, config.num_classes, config.image_size, 17,
                              channels=config.channels)

        fleet, server = build_system(1, seed=21)
        hub = RngHub(21)
        split_losses = []
        for r in range(rounds):
            metrics = run_round(fleet, server, data.images[None, r * 4:(r + 1) * 4],
                                data.labels[None, r * 4:(r + 1) * 4], config,
                                RoundOptions(k_way=1), hub, r)
            split_losses.append(metrics.train_loss)

        ref_client, ref_server = init_parameters(config, 21)
        opt_c = AdamW(ref_client.parameters(), lr=1e-3)
        opt_s = AdamW(ref_server.parameters(), lr=1e-3)
        ref_losses = []
        for r in range(rounds):
            images = data.images[r * 4:(r + 1) * 4]
            labels = one_hot(data.labels[r * 4:(r + 1) * 4], config.num_classes)
            logits = server_forward(ref_server, one_client(ref_client, images, config), config)
            loss = cross_entropy(logits, Tensor(labels))
            backward(loss)
            opt_s.step()
            opt_s.zero_grads()
            opt_c.step()
            opt_c.zero_grads()
            ref_losses.append(float(loss.values))

        assert np.allclose(split_losses, ref_losses, atol=1e-5)


class TestTranscript:
    def test_round_trip_and_step_counts(self, tmp_path):
        path = tmp_path / "round.bin"
        fleet, server = build_system(10, seed=2)
        images, labels = build_batches(10, 2, seed=2)
        with open(path, "wb") as fh:
            run_round(fleet, server, images, labels, CFG,
                      RoundOptions(k_way=2, alpha=6.0), RngHub(2), 0,
                      transcript=TranscriptWriter(fh))
        records = read_transcript(path)
        kinds = [r["type"] for r in records]
        assert kinds[0] == "round_start" and kinds[-1] == "round_end"
        assert kinds.count("server_step") == 5
        assert kinds.count("client_step") == 10
        uploads = [r for r in records if r["type"] == "upload"]
        assert len(uploads) == 10
        for upload in uploads:
            off = upload["mask"] == 0
            assert not upload["tokens"][:, off, :].any()

    def test_ktimes_transcript_shows_n_steps(self, tmp_path):
        path = tmp_path / "ktimes.bin"
        fleet, server = build_system(10, seed=3)
        images, labels = build_batches(10, 2, seed=3)
        with open(path, "wb") as fh:
            run_round(fleet, server, images, labels, CFG,
                      RoundOptions(k_way=2, alpha=6.0, ktimes=True), RngHub(3), 0,
                      transcript=TranscriptWriter(fh))
        records = read_transcript(path)
        assert sum(r["type"] == "server_step" for r in records) == 10
        # Sequence records list the members group by group, the order in
        # which their passes run; each pass's step precedes the single
        # gradient it sends, which goes to that pass's member.
        members = [r["client_id"] for r in records if r["type"] == "sequence"]
        assert sorted(members) == list(range(10))
        server_side = [r for r in records if r["type"] in ("server_step", "gradient_down")]
        assert [r["type"] for r in server_side] == ["server_step", "gradient_down"] * 10
        assert [r["target"] for r in server_side[1::2]] == members

    @pytest.mark.parametrize("options", [
        RoundOptions(k_way=3, alpha=6.0, gradient_mode="unicast"),
        RoundOptions(k_way=2, alpha=6.0, gradient_mode="unicast", ktimes=True),
    ], ids=["unicast", "ktimes"])
    def test_records_agree_with_their_round(self, tmp_path, options):
        """Each round's records, read back, are consistent with each other
        and with the round's metrics (shuffle off, so batches are plain sums)."""
        n, batch, rounds = 7, 3, 3
        fleet, server = build_system(n, seed=4)
        path = tmp_path / "rounds.bin"
        metrics = []
        with open(path, "wb") as fh:
            writer = TranscriptWriter(fh)
            for r in range(rounds):
                images, labels = build_batches(n, batch, seed=10 + r)
                metrics.append(run_round(fleet, server, images, labels, CFG, options,
                                         RngHub(4), r, transcript=writer))
        records = read_transcript(path)
        starts = [i for i, rec in enumerate(records) if rec["type"] == "round_start"]
        assert len(starts) == rounds
        for m, begin, end in zip(metrics, starts, starts[1:] + [len(records)]):
            round_records = records[begin:end]
            uploads = {rec["client_id"]: rec for rec in round_records if rec["type"] == "upload"}
            batches = {rec["group_id"]: rec for rec in round_records
                       if rec["type"] == "server_batch"}
            groups: dict[int, list[int]] = {}
            group_id = None
            for rec in round_records:
                if rec["type"] == "server_step":
                    group_id = rec["group_id"]
                elif rec["type"] == "gradient_down":
                    groups.setdefault(group_id, []).append(rec["target"])
                    assert not rec["broadcast"]
                    mask = uploads[rec["target"]]["mask"]
                    assert not rec["grad"][:, mask == 0, :].any()
            assert sorted(groups) == sorted(batches)
            assert sorted(sum(groups.values(), [])) == list(range(n))
            for gid, members in groups.items():
                masks = np.stack([uploads[cid]["mask"] for cid in members])
                assert np.array_equal(masks.sum(axis=0), np.ones(CFG.tokens)), (m.round_index, gid)
                tokens = uploads[members[0]]["tokens"].copy()
                soft = np.zeros_like(uploads[members[0]]["label"])
                for cid in members[1:]:
                    tokens += uploads[cid]["tokens"]
                for cid, mask in zip(members, masks):
                    soft += np.float32(mask.sum() / CFG.tokens) * uploads[cid]["label"]
                assert tokens.tobytes() == batches[gid]["tokens"].tobytes(), (m.round_index, gid)
                assert np.array_equal(soft, batches[gid]["soft_label"]), (m.round_index, gid)
            for cid, rec in uploads.items():
                rows = int(rec["mask"].sum())
                samples, _, dim = rec["tokens"].shape
                sent = (rows * dim * 4 * samples + 16 + rec["label"].shape[1] * 4 * samples
                        if rows else 0)
                assert sent == m.client_uplink_bytes[cid], (m.round_index, cid)
            assert round_records[-1]["total_uplink"] == m.total_uplink_bytes

    def test_mask_codec(self):
        rng = np.random.default_rng(0)
        for length in list(range(1, 65)) + [65, 100, 256]:
            for mask in ((rng.random(length) < 0.5).astype(np.uint8),
                         np.ones(length, dtype=np.uint8)):
                blob = encode_mask(mask)
                assert len(blob) == mask_nbytes(length)
                if length <= 64:
                    word = sum(int(bit) << j for j, bit in enumerate(mask))
                    assert blob == struct.pack("<Q", word)
                else:
                    assert len(blob) == math.ceil(length / 8)
                decoded = BinaryReader(blob, "mask").mask(length, "mask")
                assert decoded.dtype == np.uint8
                assert np.array_equal(decoded, mask)
        with pytest.raises(IngestionError):
            BinaryReader(bytes(7), "mask").mask(64, "mask")

    def test_identical_runs_identical_transcripts(self, tmp_path):
        blobs = []
        for run in range(2):
            path = tmp_path / f"t{run}.bin"
            fleet, server = build_system(4, seed=5)
            images, labels = build_batches(4, 2, seed=5)
            with open(path, "wb") as fh:
                run_round(fleet, server, images, labels, CFG,
                          RoundOptions(k_way=2, alpha=6.0, shuffle=True), RngHub(5), 0,
                          transcript=TranscriptWriter(fh))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class CountingFile(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, blob):
        self.writes += 1
        return super().write(blob)


def test_buffered_writer_matches_per_record_writer_with_one_write_a_round():
    rounds = 3
    blobs, writes = {}, {}
    for writer_class in (TranscriptWriter, oracles.PerRecordTranscriptWriter):
        fleet, server = build_system(6, seed=8)
        fh = CountingFile()
        writer = writer_class(fh)
        for r in range(rounds):
            images, labels = build_batches(6, 2, seed=20 + r)
            run_round(fleet, server, images, labels, CFG,
                      RoundOptions(k_way=4, alpha=6.0, shuffle=True, ktimes=True), RngHub(8), r,
                      transcript=writer)
        blobs[writer_class], writes[writer_class] = fh.getvalue(), fh.writes
    assert blobs[TranscriptWriter] == blobs[oracles.PerRecordTranscriptWriter]
    assert writes[TranscriptWriter] == 1 + rounds  # the file header, then one per round
    assert writes[oracles.PerRecordTranscriptWriter] > 2 * rounds * 6


def test_malformed_transcript_loads_or_raises_ingestion_error(tmp_path):
    """Every truncation and single-byte corruption of a small transcript
    either loads or raises IngestionError naming a byte offset."""
    path = tmp_path / "transcript"
    fleet, server = build_system(2, seed=1)
    with open(path, "wb") as fh:
        run_round(fleet, server, *build_batches(2, 1, seed=1), CFG,
                  RoundOptions(k_way=2, alpha=6.0), RngHub(1), 0,
                  transcript=TranscriptWriter(fh))
    blob = path.read_bytes()
    # A byte inside the first record (round_start).
    path.write_bytes(blob[:8] + struct.pack("<BI", 1, 5) + blob[13:17] + b"\0" + blob[17:])
    with pytest.raises(IngestionError, match="trailing"):
        read_transcript(path)
    rng = np.random.default_rng(0)
    variants = [blob[:cut] for cut in range(len(blob))]
    for offset in range(len(blob)):
        for value in (0, 255, int(rng.integers(256))):
            variants.append(blob[:offset] + bytes([value]) + blob[offset + 1:])
    loaded = 0
    for variant in variants:
        path.write_bytes(variant)
        try:
            read_transcript(path)
            loaded += 1
        except IngestionError as exc:
            assert re.search(r"at byte \d+$", str(exc)), str(exc)
    assert 0 < loaded < len(variants)

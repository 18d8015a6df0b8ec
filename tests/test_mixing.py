"""Mask and mixing algebra: examples, invariants, golden vectors, Monte Carlo."""

import math

import numpy as np
import pytest

from splitmix import protocol
from splitmix.data import make_synthetic
from splitmix.errors import ContractError, DimensionError, ProtocolError
from splitmix.mixing import (add_gaussian_noise, add_label_noise, cut, cutmix_assemble,
                             generate_mask_set, keep_count, manifold_mixup,
                             sample_mixing_counts, shuffle_tokens, unshuffle_grid)
from splitmix.model import ModelConfig, fleet_of, init_parameters
from splitmix.optim import AdamW
from splitmix.protocol import (ClientFleet, RoundOptions, ServerState, form_groups,
                               run_round, upload_bytes)
from splitmix.rng import (STREAM_ALLOC, STREAM_MASKS, STREAM_SHUFFLE, RngHub,
                          stream_generator)


def gen(seed=0):
    return np.random.default_rng(seed)


class TestSampleMixingCounts:
    def test_even_split_limit(self):
        counts = sample_mixing_counts(2, math.inf, 16, gen())
        assert counts.tolist() == [8, 8]

    def test_even_split_remainder_to_lowest_indices(self):
        assert sample_mixing_counts(3, math.inf, 16, gen()).tolist() == [6, 5, 5]

    def test_degenerate_single_group(self):
        assert sample_mixing_counts(1, 4.0, 16, gen()).tolist() == [16]

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            sample_mixing_counts(0, 6.0, 16, gen())
        with pytest.raises(ContractError):
            sample_mixing_counts(2, 6.0, 0, gen())
        with pytest.raises(ContractError):
            sample_mixing_counts(2, -1.0, 16, gen())

    def test_matches_dirichlet_multinomial_moments(self):
        # k=2, alpha=6, M=16: Var(a1/M) = (1/4)(1/16 + (15/16)(1/13)).
        rng = gen(123)
        draws = np.array([sample_mixing_counts(2, 6.0, 16, rng)[0]
                          for _ in range(100_000)]) / 16.0
        assert abs(draws.mean() - 0.5) < 0.01
        target_var = 0.25 * (1 / 16 + (15 / 16) * (1 / 13))
        assert abs(draws.var() - target_var) < 0.2 * target_var


class TestGenerateMaskSet:
    def test_degenerate_allocation(self):
        masks = generate_mask_set(np.array([16, 0]), 16, gen())
        assert masks[0].sum() == 16 and masks[1].sum() == 0

    def test_popcounts_and_coverage(self):
        masks = generate_mask_set(np.array([10, 6]), 16, gen(1))
        assert masks[0].sum() == 10 and masks[1].sum() == 6
        assert np.array_equal(masks.sum(axis=0), np.ones(16))

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ContractError):
            generate_mask_set(np.array([9, 6]), 16, gen())

    def test_position_uniformity_monte_carlo(self):
        # Even 2-way split over M=4: each position lands in mask 1 with
        # frequency 1/2 across seeds.
        hits = np.zeros(4)
        for seed in range(10_000):
            masks = generate_mask_set(np.array([2, 2]), 4, gen(seed))
            hits += masks[0]
        freq = hits / 10_000
        assert np.all(np.abs(freq - 0.5) < 0.02)

    def test_mask_set_invariants_over_random_draws(self):
        rng = gen(7)
        for trial in range(10_000):
            k = int(rng.integers(1, 6))
            tokens = int(rng.choice([4, 16, 64]))
            alpha = float(rng.uniform(0.2, 10.0))
            counts = sample_mixing_counts(k, alpha, tokens, rng)
            masks = generate_mask_set(counts, tokens, rng)
            assert np.array_equal(masks.sum(axis=0), np.ones(tokens)), trial
            assert np.array_equal(masks.sum(axis=1), counts), trial


class TestCut:
    def test_identity_mask(self):
        grid = gen(0).normal(size=(2, 4, 3)).astype(np.float32)
        out = cut(grid, np.ones(4, dtype=np.uint8))
        assert np.array_equal(out, grid)

    def test_zero_mask(self):
        grid = gen(0).normal(size=(4, 3)).astype(np.float32)
        assert not cut(grid, np.zeros(4, dtype=np.uint8)).any()

    def test_alternating_mask_definition(self):
        grid = np.array([[1, 2], [3, 4], [5, 6], [7, 8]], dtype=np.float32)
        out = cut(grid, np.array([1, 0, 1, 0], dtype=np.uint8))
        assert np.array_equal(out, [[1, 2], [0, 0], [5, 6], [0, 0]])

    def test_dropped_negative_rows_are_negative_zero(self):
        # A dropped row is value * 0, so its zeros carry the value's sign;
        # uploads and mixed grids are written to transcripts bit for bit.
        grid = np.array([[-1.5, 2.0], [-3.0, 4.0]], dtype=np.float32)
        out = cut(grid, np.array([0, 1], dtype=np.uint8))
        assert out.dtype == np.float32
        assert np.array_equal(out, [[0, 0], [-3, 4]])
        assert np.array_equal(np.signbit(out), [[True, False], [True, False]])

    def test_original_untouched_and_length_checked(self):
        grid = np.ones((4, 2), dtype=np.float32)
        cut(grid, np.array([0, 0, 0, 0], dtype=np.uint8))
        assert grid.all()
        with pytest.raises(DimensionError):
            cut(grid, np.ones(3, dtype=np.uint8))

    def test_mask_must_be_a_one_dimensional_zero_one_vector(self):
        grid = np.ones((2, 2), dtype=np.float32)
        for bad in ([0, 2], [0.5, 1], [-1, 0], [[0, 1], [1, 0]]):
            with pytest.raises(ContractError):
                cut(grid, np.array(bad))
        for good in ([True, False], [1.0, 0.0]):
            assert np.array_equal(cut(grid, np.array(good)), [[1, 1], [0, 0]])


    def test_fleet_masks_cut_each_client_as_its_own_cut(self):
        rng = gen(7)
        fleet = rng.normal(size=(3, 2, 8, 4)).astype(np.float32)
        masks = (rng.random((3, 8)) < 0.5).astype(np.uint8)
        out = cut(fleet, masks[:, None])
        for grid, mask, row in zip(fleet, masks, out):
            assert row.tobytes() == cut(grid, mask).tobytes()
        with pytest.raises(DimensionError):
            cut(fleet, masks[:2, None])
        with pytest.raises(DimensionError):
            cut(fleet, masks[:, None, :7])


class TestCutmixAssemble:
    def test_soft_label_arithmetic(self):
        tokens = 16
        masks = generate_mask_set(np.array([10, 6]), tokens, gen(3))
        grids = [gen(i).normal(size=(2, tokens, 4)).astype(np.float32) for i in range(2)]
        parts = [cut(g, m) for g, m in zip(grids, masks)]
        labels = np.zeros((2, 2, 10), dtype=np.float32)
        labels[0][:, 3] = 1.0
        labels[1][:, 7] = 1.0
        out = cutmix_assemble(np.stack(parts), masks, labels, [0, 1])
        expected = np.zeros((2, 10), dtype=np.float32)
        expected[:, 3] = 0.625
        expected[:, 7] = 0.375
        assert np.allclose(out.soft_label, expected, atol=1e-7)

    def test_single_member_is_plain_upload(self):
        grid = gen(5).normal(size=(2, 8, 3)).astype(np.float32)
        label = np.eye(4, dtype=np.float32)[:2]
        mask = np.ones(8, dtype=np.uint8)
        out = cutmix_assemble(cut(grid, mask)[None], mask[None], label[None], [0])
        assert np.array_equal(out.tokens, grid)
        assert np.array_equal(out.soft_label, label)

    def test_three_way_matches_per_position_oracle(self):
        rng = gen(11)
        for _ in range(50):
            tokens = int(rng.choice([4, 8, 16]))
            counts = sample_mixing_counts(3, 2.0, tokens, rng)
            masks = generate_mask_set(counts, tokens, rng)
            grids = [rng.normal(size=(2, tokens, 3)).astype(np.float32) for _ in range(3)]
            labels = [rng.dirichlet(np.ones(5)).astype(np.float32)[None, :].repeat(2, 0)
                      for _ in range(3)]
            parts = [cut(g, m) for g, m in zip(grids, masks)]
            out = cutmix_assemble(np.stack(parts), masks, np.stack(labels), range(3))
            for pos in range(tokens):
                owner = int(np.argmax(masks[:, pos]))
                assert np.array_equal(out.tokens[:, pos, :], grids[owner][:, pos, :])

    def test_overlap_is_protocol_error(self):
        grids = np.ones((3, 1, 4, 2), dtype=np.float32)
        masks = np.array([[0, 0, 0, 1], [1, 1, 0, 1], [0, 0, 1, 1]], dtype=np.uint8)
        labels = np.ones((3, 1, 2), dtype=np.float32) / 2
        with pytest.raises(ProtocolError, match="position 3 claimed by client 7"):
            cutmix_assemble(cut(grids, masks[:, None]), masks, labels, [4, 7, 9])
        masks[1:] = [[1, 1, 0, 0], [0, 0, 0, 0]]
        with pytest.raises(ProtocolError, match="position 2 unclaimed"):
            cutmix_assemble(cut(grids, masks[:, None]), masks, labels, [4, 7, 9])

    def test_label_shape_mismatch(self):
        grids = np.ones((2, 1, 2, 2), dtype=np.float32)
        masks = np.eye(2, dtype=np.uint8)
        uploads = cut(grids, masks[:, None])
        with pytest.raises(DimensionError):
            cutmix_assemble(uploads, masks, np.ones((2, 2, 3), np.float32), [0, 1])
        with pytest.raises(DimensionError):
            cutmix_assemble(uploads, np.eye(3, dtype=np.uint8)[:2], np.ones((2, 1, 3)), [0, 1])
        with pytest.raises(DimensionError):
            cutmix_assemble(uploads, masks, np.ones((2, 1, 3), np.float32), [0])

    def test_literal_two_way_form(self):
        # k=2 assemble equals cut(s_i, B1) + cut(s_j, B2) bitwise.
        rng = gen(21)
        masks = generate_mask_set(np.array([9, 7]), 16, rng)
        s_i = rng.normal(size=(3, 16, 5)).astype(np.float32)
        s_j = rng.normal(size=(3, 16, 5)).astype(np.float32)
        label = np.full((3, 4), 0.25, dtype=np.float32)
        out = cutmix_assemble(np.stack([cut(s_i, masks[0]), cut(s_j, masks[1])]),
                              masks, np.stack([label, label]), [0, 1])
        direct = cut(s_i, masks[0]) + cut(s_j, masks[1])
        assert np.array_equal(out.tokens, direct)

    def test_unmix_by_mask_recovers_transmitted_rows(self):
        rng = gen(31)
        counts = sample_mixing_counts(4, 1.0, 16, rng)
        masks = generate_mask_set(counts, 16, rng)
        grids = [rng.normal(size=(2, 16, 3)).astype(np.float32) for _ in range(4)]
        labels = np.full((4, 2, 5), 0.2, dtype=np.float32)
        parts = [cut(g, m) for g, m in zip(grids, masks)]
        out = cutmix_assemble(np.stack(parts), masks, labels, range(4))
        for g, m in zip(grids, masks):
            recovered = out.tokens * m[:, None]
            assert np.array_equal(recovered, g * m[:, None])

    def test_soft_labels_on_simplex(self):
        rng = gen(41)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            counts = sample_mixing_counts(k, 6.0, 16, rng)
            labels = [rng.dirichlet(np.ones(6)).astype(np.float32)[None]
                      for _ in range(k)]
            masks = generate_mask_set(counts, 16, rng)
            parts = [cut(np.zeros((1, 16, 2), np.float32), m) for m in masks]
            out = cutmix_assemble(np.stack(parts), masks, np.stack(labels), range(k))
            assert (out.soft_label >= -1e-7).all()
            assert abs(out.soft_label.sum() - 1.0) < 1e-6


class TestShuffle:
    def test_single_row_is_identity(self):
        grid = np.ones((2, 1, 3), np.float32)
        out, _ = shuffle_tokens(grid, gen(0))
        assert np.array_equal(out, grid)

    def test_rows_preserved_as_multiset(self):
        grid = gen(1).normal(size=(3, 8, 4)).astype(np.float32)
        out, _ = shuffle_tokens(grid, gen(2))
        for b in range(3):
            original = {tuple(row) for row in grid[b]}
            shuffled = {tuple(row) for row in out[b]}
            assert original == shuffled

    def test_inverse_permutation_restores(self):
        grid = gen(3).normal(size=(4, 8, 4)).astype(np.float32)
        out, perms = shuffle_tokens(grid, gen(4))
        assert np.array_equal(unshuffle_grid(out, perms), grid)

    def test_one_permutation_per_sample_in_order(self):
        grid = gen(5).normal(size=(3, 6, 2)).astype(np.float32)
        out, perms = shuffle_tokens(grid, gen(6))
        draws = gen(6)
        for b in range(3):
            assert np.array_equal(perms[b], draws.permutation(6))
            assert out[b].tobytes() == grid[b][perms[b]].tobytes()


class TestManifoldMixup:
    def test_lambda_one_returns_first(self):
        a = gen(0).normal(size=(4, 3)).astype(np.float32)
        b = gen(1).normal(size=(4, 3)).astype(np.float32)
        assert np.array_equal(manifold_mixup(a, b, 1.0), a)

    def test_midpoint(self):
        a = np.full((2, 2), 2.0, np.float32)
        b = np.full((2, 2), 4.0, np.float32)
        assert np.array_equal(manifold_mixup(a, b, 0.5), np.full((2, 2), 3.0, np.float32))

    def test_matches_scalar_loop(self):
        rng = gen(9)
        a = rng.normal(size=(3, 4)).astype(np.float32)
        b = rng.normal(size=(3, 4)).astype(np.float32)
        out = manifold_mixup(a, b, 0.3)
        for i in range(3):
            for j in range(4):
                expected = np.float32(0.3) * a[i, j] + np.float32(0.7) * b[i, j]
                assert out[i, j] == expected

    def test_invalid_lambda(self):
        a = np.zeros((2, 2), np.float32)
        with pytest.raises(ContractError):
            manifold_mixup(a, a, 1.5)


CUTOUT_CFG = ModelConfig(image_size=16, patch_size=4, channels=1, embed_dim=8,
                         depth=1, heads=2, mlp_ratio=2.0, num_classes=4)


class TestCutout:
    """Token cutout, the k=1 baseline, over whole rounds: a singleton group
    keeps the first block of a mask set drawn at (round, group), as a mixing
    group draws its own."""

    N, BATCH, SEED = 4, 3, 5

    def rounds(self, monkeypatch, keep_ratio, first, last):
        """Each round's ``(n, M)`` masks and uplink bytes, for rounds
        first..last of a fresh fleet."""
        base_client, server_segment = init_parameters(CUTOUT_CFG, self.SEED)
        segment = fleet_of(base_client, self.N)
        fleet = ClientFleet(segment, AdamW(segment.parameters()))
        server = ServerState(server_segment, AdamW(server_segment.parameters()))
        data = make_synthetic(self.N * self.BATCH, CUTOUT_CFG.num_classes,
                              CUTOUT_CFG.image_size, self.SEED, channels=1)
        images = data.images.reshape((self.N, self.BATCH) + data.images.shape[1:])
        labels = data.labels.reshape(self.N, self.BATCH)
        masks = []
        validate = protocol.validate_upload

        def spy(uploads, round_masks):
            masks.append(round_masks.copy())
            validate(uploads, round_masks)

        with monkeypatch.context() as patch:
            patch.setattr(protocol, "validate_upload", spy)
            uplink = [run_round(fleet, server, images, labels, CUTOUT_CFG,
                                RoundOptions(k_way=1, keep_ratio=keep_ratio),
                                RngHub(self.SEED), r).client_uplink_bytes
                      for r in range(first, last + 1)]
        return masks, uplink

    def test_half_keep_popcount(self, monkeypatch):
        tokens = CUTOUT_CFG.tokens
        keep = keep_count(0.5, tokens)
        masks, uplink = self.rounds(monkeypatch, 0.5, 0, 2)
        hub = RngHub(self.SEED)
        for r, (round_masks, round_uplink) in enumerate(zip(masks, uplink)):
            kept = round_masks.sum(axis=1)
            assert kept.tolist() == [keep] * self.N
            assert round_uplink == upload_bytes(kept, self.BATCH, CUTOUT_CFG.embed_dim,
                                                CUTOUT_CFG.num_classes).tolist()
            for gid, [cid] in enumerate(form_groups(range(self.N), 1, hub.groups(r))):
                drawn = generate_mask_set([keep, tokens - keep], tokens, hub.masks(r, gid))[0]
                assert np.array_equal(round_masks[cid], drawn), (r, cid)

    def test_masks_do_not_depend_on_history(self, monkeypatch):
        # Redrawn every round, from the round's counter alone.
        after, _ = self.rounds(monkeypatch, 0.5, 0, 3)
        fresh, _ = self.rounds(monkeypatch, 0.5, 3, 3)
        assert not np.array_equal(after[2], after[3])
        assert np.array_equal(after[3], fresh[0])

    def test_full_keep_is_identity(self, monkeypatch):
        masks, uplink = self.rounds(monkeypatch, 1.0, 0, 1)
        assert all((m == 1).all() for m in masks)
        full = upload_bytes(CUTOUT_CFG.tokens, self.BATCH, CUTOUT_CFG.embed_dim,
                            CUTOUT_CFG.num_classes)
        assert uplink == [[int(full)] * self.N] * 2

    def test_invalid_ratio(self):
        with pytest.raises(ContractError):
            keep_count(0.0, 16)


class TestNoise:
    def test_zero_sigma_identity(self):
        grid = gen(0).normal(size=(4, 4)).astype(np.float32)
        assert add_gaussian_noise(grid, 0.0, gen(1)) is grid

    def test_empirical_std(self):
        noised = add_gaussian_noise(np.zeros((1000, 1000), np.float32), 1.0, gen(2))
        assert abs(noised.std() - 1.0) < 0.01

    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractError):
            add_gaussian_noise(np.zeros((2, 2), np.float32), -1.0, gen(0))

    def test_label_noise_keeps_distribution(self):
        label = np.eye(6, dtype=np.float32)[:3]
        noised = add_label_noise(label, 0.5, gen(3))
        assert (noised >= 0).all()
        assert np.allclose(noised.sum(axis=-1), 1.0, atol=1e-6)


class TestDeterminism:
    def test_stream_golden_vectors(self):
        g = stream_generator(42, STREAM_MASKS, 3, 1)
        assert g.integers(0, 2 ** 32, size=4).tolist() == [
            3817162576, 2309210811, 215212832, 2522395017]
        g = stream_generator(42, STREAM_ALLOC, 0)
        assert sample_mixing_counts(3, 6.0, 16, g).tolist() == [3, 7, 6]
        masks = generate_mask_set(np.array([3, 7, 6]), 16,
                                  stream_generator(42, STREAM_MASKS, 0))
        rows = ["".join(map(str, row)) for row in masks]
        assert rows == ["0100000101000000", "0000100010111110", "1011011000000001"]
        g = stream_generator(7, STREAM_SHUFFLE, 5)
        assert g.permutation(8).tolist() == [1, 0, 5, 7, 3, 6, 4, 2]

    def test_interleaving_independence(self):
        # Generators are keyed by (seed, stream, counter): consuming one
        # stream never shifts another.
        a_first = stream_generator(5, STREAM_MASKS, 1).integers(0, 1000, 4)
        burn = stream_generator(5, STREAM_ALLOC, 1)
        burn.integers(0, 1000, 100)
        a_second = stream_generator(5, STREAM_MASKS, 1).integers(0, 1000, 4)
        assert np.array_equal(a_first, a_second)

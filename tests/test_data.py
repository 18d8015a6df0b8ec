"""Dataset ingestion, synthetic generation, and partitioning."""

import numpy as np
import pytest

from splitmix.data import CIFAR_RECORD, Dataset, load_cifar10, make_synthetic, partition
from splitmix.errors import ContractError, IngestionError

from oracles import encode_records, ref_make_synthetic


def write_cifar_dir(path, n_per_file=20, seed=0):
    rng = np.random.default_rng(seed)
    blobs = {}
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = np.empty((n_per_file, CIFAR_RECORD), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n_per_file)
        records[:, 1:] = rng.integers(0, 256, (n_per_file, 3072))
        blob = records.tobytes()
        (path / name).write_bytes(blob)
        blobs[name] = blob
    return blobs


class TestCifarLoader:
    def test_wellformed_files(self, tmp_path):
        write_cifar_dir(tmp_path, n_per_file=10)
        train, test = load_cifar10(tmp_path)
        assert len(train) == 50 and len(test) == 10
        assert train.images.shape[1:] == (3, 32, 32)
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError, match="data_batch_1.bin"):
            load_cifar10(tmp_path)

    def test_truncated_record_names_offset(self, tmp_path):
        write_cifar_dir(tmp_path, n_per_file=3)
        target = tmp_path / "data_batch_2.bin"
        target.write_bytes(target.read_bytes()[:-100])
        with pytest.raises(IngestionError, match=f"byte offset {2 * CIFAR_RECORD}"):
            load_cifar10(tmp_path)

    def test_label_byte_out_of_range(self, tmp_path):
        write_cifar_dir(tmp_path, n_per_file=3)
        target = tmp_path / "data_batch_1.bin"
        blob = bytearray(target.read_bytes())
        blob[CIFAR_RECORD] = 255  # second record's label byte
        target.write_bytes(bytes(blob))
        with pytest.raises(IngestionError, match="record 1 carries label byte 255"):
            load_cifar10(tmp_path)

    def test_round_trip_reencoding(self, tmp_path):
        blobs = write_cifar_dir(tmp_path, n_per_file=8)
        _, test = load_cifar10(tmp_path)
        assert encode_records(test) == blobs["test_batch.bin"]

    def test_synthetic_dump_uses_same_record_format(self, tmp_path):
        data = make_synthetic(6, 4, 32, seed=9, channels=3)
        blob = encode_records(data)
        assert len(blob) == 6 * CIFAR_RECORD
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            (tmp_path / name).write_bytes(blob)
        train, _ = load_cifar10(tmp_path)
        assert np.array_equal(train.labels[:6], data.labels)
        assert np.abs(train.images[:6] - data.images).max() <= 0.5 / 255

    def test_dump_rejects_non_record_shapes(self):
        with pytest.raises(ContractError):
            encode_records(make_synthetic(2, 2, 16, seed=0))


class TestSynthetic:
    def test_fixed_seed_identical(self):
        a = make_synthetic(32, 4, 16, seed=5)
        b = make_synthetic(32, 4, 16, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_empty_dataset_valid(self):
        empty = make_synthetic(0, 4, 16, seed=0)
        assert len(empty) == 0

    def test_values_in_unit_interval(self):
        data = make_synthetic(16, 10, 16, seed=1, noise_std=0.4)
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_two_class_blobs_linear_probe(self):
        # Template distance exceeds 5 sigma, so a least-squares probe should
        # be nearly Bayes-optimal (> 95%).
        data = make_synthetic(600, 2, 16, seed=2, noise_std=0.1)
        flat = data.images.reshape(len(data), -1).astype(np.float64)
        means = np.stack([flat[data.labels == c].mean(axis=0) for c in range(2)])
        assert np.linalg.norm(means[0] - means[1]) > 5 * 0.1
        train_x, test_x = flat[:400], flat[400:]
        train_y = np.eye(2)[data.labels[:400]]
        design = np.hstack([train_x, np.ones((400, 1))])
        weights, *_ = np.linalg.lstsq(design, train_y, rcond=None)
        pred = np.hstack([test_x, np.ones((200, 1))]) @ weights
        acc = (pred.argmax(axis=1) == data.labels[400:]).mean()
        assert acc > 0.95

    @pytest.mark.parametrize("args,kwargs", [
        ((0, 3, 8, 5), {}),
        ((1, 3, 8, 5), dict(channels=1)),
        ((300, 10, 16, 1), dict(noise_std=1.4, blob_radius=16.0)),
        ((513, 4, 16, 2), dict(noise_std=0.05, mosaic_std=0.25, mosaic_cell=4)),
        ((260, 10, 32, 3), dict(mosaic_std=0.3, mosaic_cell=8, jitter=0.0, noise_std=0.0)),
        ((64, 5, 12, 4), dict(channels=2, mosaic_std=0.1, mosaic_cell=3)),
    ])
    def test_chunked_draws_equal_the_per_sample_loop(self, args, kwargs):
        data = make_synthetic(*args, **kwargs)
        images, labels = ref_make_synthetic(*args, **kwargs)
        assert data.images.tobytes() == images.tobytes()
        assert data.labels.tobytes() == labels.tobytes()

    def test_mosaic_adds_per_tile_content(self):
        plain = make_synthetic(8, 4, 16, seed=3, mosaic_std=0.0)
        mosaic = make_synthetic(8, 4, 16, seed=3, mosaic_std=0.3, mosaic_cell=4)
        assert not np.array_equal(plain.images, mosaic.images)

    def test_invalid_sizes(self):
        with pytest.raises(ContractError):
            make_synthetic(4, 0, 16, seed=0)
        with pytest.raises(ContractError):
            make_synthetic(-1, 2, 16, seed=0)
        with pytest.raises(ContractError):
            make_synthetic(4, 2, 16, seed=0, mosaic_cell=5)


def tiny_dataset(n, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(images=rng.uniform(size=(n, 1, 1, 1)).astype(np.float32),
                   labels=rng.integers(0, classes, n), num_classes=classes)


class TestPartition:
    def test_iid_paper_shape(self):
        # 50k samples over 10 clients: 5k each, disjoint, complete.
        data = tiny_dataset(50_000)
        blocks = partition(data, 10, "iid", np.random.default_rng(0))
        assert all(len(b) == 5000 for b in blocks)
        merged = np.concatenate(blocks)
        assert len(np.unique(merged)) == 50_000

    def test_iid_union_and_disjoint(self):
        data = tiny_dataset(103)
        blocks = partition(data, 4, "iid", np.random.default_rng(1))
        merged = np.sort(np.concatenate(blocks))
        assert np.array_equal(merged, np.arange(103))

    def test_dirichlet_blocks_disjoint(self):
        data = tiny_dataset(1000)
        blocks = partition(data, 5, "dirichlet", np.random.default_rng(2),
                           dirichlet_mu=0.1)
        merged = np.concatenate(blocks)
        assert len(np.unique(merged)) == len(merged) == 1000

    def test_dirichlet_large_mu_matches_global_histogram(self):
        data = tiny_dataset(20_000)
        global_hist = np.bincount(data.labels, minlength=10) / 20_000
        blocks = partition(data, 4, "dirichlet", np.random.default_rng(3),
                           dirichlet_mu=1e6)
        for block in blocks:
            hist = np.bincount(data.labels[block], minlength=10) / len(block)
            assert np.abs(hist - global_hist).max() < 0.05

    def test_dirichlet_low_mu_reduces_entropy(self):
        def mean_entropy(mu_mode, seed):
            data = tiny_dataset(2000, seed=seed)
            rng = np.random.default_rng(seed + 1000)
            if mu_mode == "iid":
                blocks = partition(data, 10, "iid", rng)
            else:
                blocks = partition(data, 10, "dirichlet", rng, dirichlet_mu=0.1)
            entropies = []
            for block in blocks:
                if len(block) == 0:
                    continue
                p = np.bincount(data.labels[block], minlength=10) / len(block)
                p = p[p > 0]
                entropies.append(float(-(p * np.log(p)).sum()))
            return float(np.mean(entropies))

        wins = sum(mean_entropy("dirichlet", s) < mean_entropy("iid", s)
                   for s in range(100))
        assert wins == 100

    def test_too_many_clients_rejected(self):
        with pytest.raises(ContractError):
            partition(tiny_dataset(3), 4, "iid", np.random.default_rng(0))

import struct

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit.tensor import Rng

from helpers import write_cifar10_binary


@pytest.fixture
def idx_pair(tmp_path):
    images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    labels = np.array([3, 7], dtype=np.uint8)
    ip, lp = tmp_path / "fixture-images-idx3-ubyte", tmp_path / "fixture-labels-idx1-ubyte"
    dt.write_idx(ip, lp, images, labels)
    return ip, lp, images, labels


class TestIdx:
    def test_round_trip(self, idx_pair):
        ip, lp, images, labels = idx_pair
        ds = dt.load_idx(ip, lp)
        np.testing.assert_allclose(ds.inputs, images / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0xdeadbeef, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(dt.FormatError, match="magic"):
            dt.read_idx(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(struct.pack(">IIII", dt.IDX_IMAGES_MAGIC, 2, 4, 4) + b"\x00" * 10)
        with pytest.raises(dt.FormatError, match="offset"):
            dt.read_idx(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "long"
        p.write_bytes(struct.pack(">II", dt.IDX_LABELS_MAGIC, 2) + b"\x00" * 3)
        with pytest.raises(dt.FormatError, match="trailing"):
            dt.read_idx(p)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        ip, lp = tmp_path / "a-images-idx3-ubyte", tmp_path / "a-labels-idx1-ubyte"
        dt.write_idx(ip, lp, images, labels)
        with pytest.raises(dt.FormatError, match="mismatch"):
            dt.load_idx(ip, lp)

    def test_byte_determinism(self, idx_pair):
        ip, lp, *_ = idx_pair
        a = dt.load_idx(ip, lp)
        b = dt.load_idx(ip, lp)
        np.testing.assert_array_equal(a.inputs, b.inputs)


class TestCifar:
    def test_round_trip(self, tmp_path):
        rng = Rng(0)
        images = np.asarray(rng.integers(256, size=(5, 3, 32, 32)), dtype=np.uint8)
        labels = np.asarray(rng.integers(10, size=5), dtype=np.uint8)
        p = tmp_path / "batch.bin"
        write_cifar10_binary(p, images, labels)
        ds = dt.load_cifar10_binary(p)
        assert len(ds) == 5
        np.testing.assert_allclose(ds.inputs, images / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_single_record_exact(self, tmp_path):
        img = np.arange(3072, dtype=np.uint8).reshape(3, 32, 32)
        p = tmp_path / "one.bin"
        write_cifar10_binary(p, img[None], np.array([9], dtype=np.uint8))
        ds = dt.load_cifar10_binary(p)
        assert ds.labels[0] == 9
        np.testing.assert_array_equal((ds.inputs[0] * 255).astype(np.uint8), img)

    def test_truncated_record(self, tmp_path):
        p = tmp_path / "trunc.bin"
        p.write_bytes(b"\x00" * (dt.CIFAR_RECORD + 17))
        with pytest.raises(dt.FormatError, match="records"):
            dt.load_cifar10_binary(p)

    def test_label_byte_above_nine_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        write_cifar10_binary(p, np.zeros((3, 3, 32, 32), dtype=np.uint8),
                                np.array([3, 9, 12], dtype=np.uint8))
        with pytest.raises(dt.FormatError,
                           match=f"record 2 at offset {2 * dt.CIFAR_RECORD} has label byte 12"):
            dt.load_cifar10_binary(p)


class TestStandardize:
    def test_constant_global(self):
        ds = dt.Dataset(inputs=np.full((4, 3), 7.0), labels=np.zeros(4))
        out, _ = dt.standardize(ds)
        assert not out.inputs.any()

    def test_two_point(self):
        ds = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        out, _ = dt.standardize(ds)
        np.testing.assert_allclose(out.inputs, [[-1.0], [1.0]])

    def test_train_stats_reused_for_test(self):
        train = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        test = dt.Dataset(inputs=np.array([[4.0]]), labels=np.zeros(1))
        _, stats = dt.standardize(train)
        out, _ = dt.standardize(test, stats=stats)
        np.testing.assert_allclose(out.inputs, [[3.0]])

    def test_global_invariants_on_synthetic_images(self):
        train, _ = dt.make_synthetic_images(2000, 10, (28, 28), 10, seed=1)
        out, _ = dt.standardize(train)
        assert abs(out.inputs.mean()) < 1e-6
        assert abs(out.inputs.std() - 1.0) < 1e-3

    def test_unknown_mode_rejected(self):
        ds = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        with pytest.raises(ValueError, match="unknown standardization mode"):
            dt.standardize(ds, mode="per-feature")

    def test_idempotent_global(self):
        train, _ = dt.make_synthetic_images(500, 10, (28, 28), 10, seed=2)
        once, _ = dt.standardize(train)
        twice, _ = dt.standardize(once)
        np.testing.assert_allclose(twice.inputs, once.inputs, atol=1e-12)


class TestRegressionTasks:
    def test_deterministic_per_seed(self):
        a = dt.make_regression_tasks(5)
        b = dt.make_regression_tasks(5)
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.train_x, tb.train_x)
            np.testing.assert_array_equal(ta.train_y, tb.train_y)

    def test_three_distinct_tasks(self):
        seq = dt.make_regression_tasks(0)
        assert [t.name for t in seq.tasks] == ["cubic", "sine", "quadratic"]
        assert all(len(t.train_x) == 100 for t in seq.tasks)

    def test_zero_noise_lies_on_curve(self):
        seq = dt.make_regression_tasks(3, noise_std=0.0)
        task = seq.tasks[1]  # sine over [-1, 1]
        # undo standardization to recover raw x
        raw = dt.make_regression_tasks(3, noise_std=0.0)
        assert np.allclose(task.train_y, raw.tasks[1].train_y)
        assert np.abs(task.train_y).max() <= 1.0 + 1e-12

    def test_inputs_standardized(self):
        seq = dt.make_regression_tasks(11)
        for task in seq.tasks:
            assert abs(task.train_x.mean()) < 1e-12
            assert task.train_x.std() == pytest.approx(1.0, abs=1e-12)


class TestSyntheticImages:
    def test_deterministic(self):
        a, _ = dt.make_synthetic_images(50, 10, (28, 28), 10, seed=4)
        b, _ = dt.make_synthetic_images(50, 10, (28, 28), 10, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    def test_shapes_and_ranges(self):
        train, test = dt.make_synthetic_images(40, 20, (3, 32, 32), 10, seed=5)
        assert train.inputs.shape == (40, 3, 32, 32)
        assert test.inputs.shape == (20, 3, 32, 32)
        assert train.inputs.min() >= 0.0 and train.inputs.max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(10))

    def test_classes_are_separable_by_prototype_matching(self):
        # nearest-prototype classification should beat chance by a wide margin
        train, test = dt.make_synthetic_images(400, 200, (28, 28), 10, seed=6)
        protos = np.stack([train.inputs[train.labels == c].mean(axis=0)
                           for c in range(10)])
        flat = test.inputs.reshape(len(test), -1)
        pf = protos.reshape(10, -1)
        pred = ((flat[:, None, :] - pf[None]) ** 2).sum(-1).argmin(1)
        assert (pred == test.labels).mean() > 0.6

    def test_take_subset(self):
        train, _ = dt.make_synthetic_images(50, 10, (28, 28), 10, seed=7)
        sub = train.take(20)
        assert len(sub) == 20
        np.testing.assert_array_equal(sub.inputs, train.inputs[:20])

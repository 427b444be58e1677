import struct
import tracemalloc

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit import train as tr
from hyperinit.tensor import SUM_LEAF, Rng, mean_var

from helpers import on_cores, on_each_core_count, write_cifar10_binary


def assert_same_bits(a, b):
    """Equal as float64 bit patterns: -0.0 and 0.0 differ, a NaN equals itself."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def all_rows(ds):
    return ds.rows(slice(None))


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
        assert ds.inputs.dtype == np.uint8   # the pixels as read
        np.testing.assert_array_equal(ds.inputs, images)
        assert_same_bits(all_rows(ds), images.astype(np.float64) / 255.0)
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

    @pytest.mark.parametrize("dims", [(1 << 16,) * 3, ((1 << 32) - 1,) * 3])
    def test_a_header_larger_than_the_file_reads_nothing(self, tmp_path, dims):
        # 2^48 bytes, and a product that wraps a 64-bit integer
        p = tmp_path / "huge"
        p.write_bytes(struct.pack(">IIII", dt.IDX_IMAGES_MAGIC, *dims) + b"\x00" * 16)
        with pytest.raises(dt.FormatError, match=f"expected {dims[0] ** 3} data bytes "
                                                 f"at offset 16, got 16"):
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
        assert ds.inputs.dtype == np.uint8 and ds.inputs.flags.c_contiguous
        np.testing.assert_array_equal(ds.inputs, images)
        assert_same_bits(all_rows(ds), images.astype(np.float64) / 255.0)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_single_record_exact(self, tmp_path):
        img = np.arange(3072, dtype=np.uint8).reshape(3, 32, 32)
        p = tmp_path / "one.bin"
        write_cifar10_binary(p, img[None], np.array([9], dtype=np.uint8))
        ds = dt.load_cifar10_binary(p)
        assert ds.labels[0] == 9
        np.testing.assert_array_equal(ds.inputs[0], img)
        np.testing.assert_array_equal((ds.rows([0])[0] * 255).astype(np.uint8), img)

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

    def test_records_across_read_chunks(self, tmp_path):
        n = 2 * (dt.READ_CHUNK // dt.CIFAR_RECORD) + 5   # two whole chunks and a short one
        rng = Rng(5)
        images = np.asarray(rng.integers(256, size=(n, 3, 32, 32)), dtype=np.uint8)
        labels = np.asarray(rng.integers(10, size=n), dtype=np.uint8)
        labels[-1] = 11
        p = tmp_path / "batch.bin"
        write_cifar10_binary(p, images, labels)
        with pytest.raises(dt.FormatError,
                           match=f"record {n - 1} at offset {(n - 1) * dt.CIFAR_RECORD} "
                                 f"has label byte 11"):
            dt.load_cifar10_binary(p)
        labels[-1] = 9
        write_cifar10_binary(p, images, labels)
        ds = dt.load_cifar10_binary(p)
        np.testing.assert_array_equal(ds.inputs, images)
        np.testing.assert_array_equal(ds.labels, labels)


class TestStandardize:
    def test_constant_global(self):
        ds = dt.Dataset(inputs=np.full((4, 3), 7.0), labels=np.zeros(4))
        out, stats = dt.standardize(ds)
        assert stats == (7.0, 1.0)   # zero variance: std becomes 1
        assert not all_rows(out).any()

    def test_two_point(self):
        ds = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        out, _ = dt.standardize(ds)
        np.testing.assert_allclose(all_rows(out), [[-1.0], [1.0]])

    def test_train_stats_reused_for_test(self):
        train = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        test = dt.Dataset(inputs=np.array([[4.0]]), labels=np.zeros(1))
        _, stats = dt.standardize(train)
        out, _ = dt.standardize(test, stats=stats)
        np.testing.assert_allclose(all_rows(out), [[3.0]])

    def test_global_invariants_on_synthetic_images(self):
        train, _ = dt.make_synthetic_images(2000, 10, (28, 28), 10, seed=1)
        out, _ = dt.standardize(train)
        assert abs(all_rows(out).mean()) < 1e-6
        assert abs(all_rows(out).std() - 1.0) < 1e-3

    def test_unknown_mode_rejected(self):
        ds = dt.Dataset(inputs=np.array([[0.0], [2.0]]), labels=np.zeros(2))
        with pytest.raises(ValueError, match="unknown standardization mode"):
            dt.standardize(ds, mode="per-feature")

    def test_idempotent_global(self):
        train, _ = dt.make_synthetic_images(500, 10, (28, 28), 10, seed=2)
        once, _ = dt.standardize(train)
        twice, _ = dt.standardize(once)
        np.testing.assert_allclose(all_rows(twice), all_rows(once), atol=1e-12)


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
        assert train.inputs.dtype == np.uint8
        assert all_rows(train).min() >= 0.0 and all_rows(train).max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(10))

    def test_classes_are_separable_by_prototype_matching(self):
        # nearest-prototype classification should beat chance by a wide margin
        train, test = dt.make_synthetic_images(400, 200, (28, 28), 10, seed=6)
        protos = np.stack([all_rows(train)[train.labels == c].mean(axis=0)
                           for c in range(10)])
        flat = all_rows(test).reshape(len(test), -1)
        pf = protos.reshape(10, -1)
        pred = ((flat[:, None, :] - pf[None]) ** 2).sum(-1).argmin(1)
        assert (pred == test.labels).mean() > 0.6

    def test_take_subset(self):
        train, _ = dt.make_synthetic_images(50, 10, (28, 28), 10, seed=7)
        sub = train.take(20)
        assert len(sub) == 20
        np.testing.assert_array_equal(sub.inputs, train.inputs[:20])


def reference_floats(stored, scale=dt.PIXEL_SCALE):
    """The whole float array a dataset's rows are read from: the loaders'
    ``astype(float64) / 255.0`` for pixels, a caller's floats as they are."""
    return stored.astype(np.float64) / scale if scale != 1.0 else stored


def standardized(x):
    """``(x - mean) / std`` by the statistics of ``mean_var``, std 1 when zero."""
    mean, var = mean_var(x)
    std = float(np.sqrt(var)) or 1.0
    return (x - mean) / std, (mean, std)


def assert_rows_equal(ds, want):
    """Every kind of gather of ``ds`` has the bits of indexing ``want``."""
    n = len(ds)
    order = Rng(1).permutation(n)
    for idx in (order[:7], order, slice(0, min(n, 300)), slice(n // 3, n),
                np.array([0, 0, n - 1])):
        assert_same_bits(ds.rows(idx), want[idx])


def image_sets(tmp_path):
    """(name, train Dataset, test Dataset) for every way a set is made."""
    rng = Rng(21)
    pixels = np.asarray(rng.integers(256, size=(70, 3, 32, 32)), dtype=np.uint8)
    labels = np.asarray(rng.integers(10, size=70), dtype=np.uint8)
    idx, cifar = [], []
    for split, rows in (("train", slice(0, 50)), ("test", slice(50, 70))):
        ip, lp = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
        dt.write_idx(ip, lp, pixels[rows, 0], labels[rows])
        idx.append(dt.load_idx(ip, lp))
        write_cifar10_binary(tmp_path / f"{split}.bin", pixels[rows], labels[rows])
        cifar.append(dt.load_cifar10_binary(tmp_path / f"{split}.bin"))
    floats = rng.normal(3.0, (70, 5)) + 1e3
    floats[3, 1] = -0.0
    caller = [dt.Dataset(inputs=floats[rows], labels=np.zeros(len(floats[rows])))
              for rows in (slice(0, 50), slice(50, 70))]
    return [("idx", *idx), ("cifar", *cifar),
            ("synthetic", *dt.make_synthetic_images(50, 20, (3, 8, 8), 10, seed=4)),
            ("caller floats", *caller)]


class TestRows:
    """Every gathered row has the bits of indexing the float array the
    dataset used to hold, raw and standardized, for every way a set is made."""

    def test_rows_equal_the_float_array(self, tmp_path):
        for name, train, test in image_sets(tmp_path):
            want, want_test = (reference_floats(ds.inputs, ds.scale) for ds in (train, test))
            assert_rows_equal(train, want)
            std_train, stats = dt.standardize(train)
            ref, want_stats = standardized(want)
            assert_same_bits(stats, want_stats)
            assert_rows_equal(std_train, ref)
            std_test, _ = dt.standardize(test, stats=stats)
            assert_rows_equal(std_test, (want_test - stats[0]) / stats[1])
            twice, stats2 = dt.standardize(std_train)   # a second pair, read after the first
            ref2, want_stats2 = standardized(ref)
            assert_same_bits(stats2, want_stats2)
            assert_rows_equal(twice, ref2)
            assert len(twice.stats) == 2 and twice.inputs is train.inputs, name

    def test_caller_floats_keep_their_bits(self):
        x = np.array([[-0.0, 0.0], [np.inf, np.nan], [1e-310, -3.5]])
        assert_same_bits(dt.Dataset(inputs=x, labels=np.zeros(3)).rows(slice(None)), x)

    def test_zero_variance_pixels(self):
        ds = dt.Dataset(inputs=np.full((4, 2, 2), 9, dtype=np.uint8), labels=np.zeros(4),
                        scale=dt.PIXEL_SCALE)
        out, stats = dt.standardize(ds)
        assert_same_bits(stats, (9 / 255.0, 1.0))
        assert_same_bits(all_rows(out), np.zeros((4, 2, 2)))

    def test_a_strided_caller_array_is_stored_contiguous(self):
        x = Rng(2).normal(1.0, (6, 8))[:, ::2]
        ds = dt.Dataset(inputs=x, labels=np.zeros(6))
        assert ds.inputs.flags.c_contiguous
        assert_same_bits(all_rows(ds), x)

    def test_nan_in_caller_floats_rejected(self):
        train, test = dt.make_synthetic_images(64, 32, (8, 8), 10, seed=9)
        x = reference_floats(train.inputs)
        x[7, 3, 4] = np.nan
        data = (dt.Dataset(inputs=x, labels=train.labels), test)
        with pytest.raises(dt.FormatError, match="train inputs: non-finite value at index 7"):
            tr.train("mnist-mlp", tr.config_for("mnist-mlp", iterations=1), data=data)


class TestStandardizeStats:
    """``standardize`` reads its statistics leaf by leaf from the stored
    values, with the bits of ``mean_var`` over the float array."""

    SIZES = [SUM_LEAF - 8, SUM_LEAF - 1, SUM_LEAF, SUM_LEAF + 1, 2 * SUM_LEAF + 7,
             6 * SUM_LEAF + 3]   # the last splits on every core

    @pytest.fixture(scope="class")
    def pixels(self):
        return np.asarray(Rng(5).integers(256, size=self.SIZES[-1]), dtype=np.uint8)

    def test_stats_equal_mean_var_of_the_float_array(self, pixels):
        for n in self.SIZES:
            ds = dt.Dataset(inputs=pixels[:n].reshape(n, 1), labels=np.zeros(n),
                            scale=dt.PIXEL_SCALE)
            ref, want = standardized(reference_floats(pixels[:n]))
            _, want2 = standardized(ref)

            def once_and_twice():
                out, stats = dt.standardize(ds)
                return stats, dt.standardize(out)[1]

            for once, twice in on_each_core_count(once_and_twice):
                assert_same_bits(once, want)
                assert_same_bits(twice, want2)


def write_image_files(root, preset, n):
    """``n`` train and ``n`` test synthetic images in the files ``preset`` loads."""
    shape = (28, 28) if preset == "mnist-mlp" else (3, 32, 32)
    train, test = dt.make_synthetic_images(n, n, shape, 10, seed=8)
    if preset == "mnist-mlp":
        for ds, prefix in ((train, "train"), (test, "t10k")):
            dt.write_idx(root / f"{prefix}-images-idx3-ubyte", root / f"{prefix}-labels-idx1-ubyte",
                         ds.inputs, ds.labels.astype(np.uint8))
    else:
        for ds, name in ((train, "data_batch_1.bin"), (test, "test_batch.bin")):
            write_cifar10_binary(root / name, ds.inputs, ds.labels.astype(np.uint8))
    return int(np.prod(shape))


class TestMemory:
    def test_cifar_load_and_standardize_peak_near_the_file_size(self, tmp_path):
        # the pixels once, a 1 MiB read buffer, and a 1 MiB leaf buffer per
        # core standardize sums on (two here, so the bound holds on any machine)
        n = 2000
        rng = Rng(3)
        write_cifar10_binary(tmp_path / "batch.bin",
                             np.asarray(rng.integers(256, size=(n, 3, 32, 32)), dtype=np.uint8),
                             np.asarray(rng.integers(10, size=n), dtype=np.uint8))
        size = (tmp_path / "batch.bin").stat().st_size
        tracemalloc.start()
        try:
            with on_cores(2):
                dt.standardize(dt.load_cifar10_binary(tmp_path / "batch.bin"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size

    @pytest.mark.parametrize("preset", ["mnist-mlp", "cifar-allconv"])
    def test_a_run_from_files_converts_no_whole_set(self, tmp_path, monkeypatch, preset):
        n = 600   # above the probe batch (300) and the evaluation chunk (500)
        per_row = write_image_files(tmp_path, preset, n)
        floats, sizes = dt._floats, []

        def recording(stored, scale, stats, out):
            sizes.append(out.size)
            return floats(stored, scale, stats, out)

        monkeypatch.setattr(dt, "_floats", recording)
        res = tr.train(preset, tr.config_for(preset, iterations=2, eval_every=1),
                       data_dir=tmp_path)
        assert res.steps == 2 and len(res.curve) == 2 and len(res.reports) == 2
        assert max(sizes) < n * per_row

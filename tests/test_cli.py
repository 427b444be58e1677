import json
import os

import numpy as np
import pytest

from hyperinit import data as dt
from hyperinit.cli import main

from helpers import write_cifar10_binary


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, *_ = run(capsys, )
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, *_ = run(capsys, "init-table", "--geometry", "1,1,1,1", "--frobnicate")
        assert code == 2

    def test_zero_depth_rejected(self, capsys):
        code, *_ = run(capsys, "variance-check", "--depth", "0")
        assert code == 2

    def test_bad_geometry_rejected(self, capsys):
        code, *_ = run(capsys, "init-table", "--geometry", "1,2,3")
        assert code == 2

    def test_unknown_scheme_rejected(self, capsys):
        code, *_ = run(capsys, "variance-check", "--scheme", "magic")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("train", "--seeds", "1,x"),
        ("train", "--seeds", "1.5"),
        ("train", "--seeds", ","),
        ("train", "--lr", "-1"),
        ("train", "--lr", "nan"),
        ("init-table", "--var-e", "0"),
        ("init-table", "--var-e", "nan"),
        ("init-table", "--var-e2", "-1"),
        ("train", "--seeds", "1,-2"),
        ("train", "--seed", "-1"),
        ("variance-check", "--seed", "-1"),
        ("variance-check", "--tol-lo", "nan"),
        ("variance-check", "--tol-hi", "inf"),
        ("variance-check", "--tol-lo", "2", "--tol-hi", "1"),
        ("grad-check", "--seed", "-3"),
        ("grad-check", "--threshold", "nan"),
        ("grad-check", "--threshold", "0"),
        ("grad-check", "--threshold", "-1e-5"),
    ])
    def test_bad_flag_value_rejected(self, capsys, argv):
        command, *flags = argv
        required = {"train": ("--preset", "regression-seq", "--iterations", "2"),
                    "init-table": ("--geometry", "1,1,1,1")}
        code, out, err = run(capsys, command, *required.get(command, ()), *flags)
        assert code == 2 and not out
        # every number flag says what it expected, in its own words
        assert f"argument {flags[0]}: expected " in err


class TestInitTable:
    def test_hyperfan_in_row_value(self, capsys):
        code, out, _ = run(capsys, "init-table", "--geometry", "500,500,50,50",
                           "--json")
        assert code == 0
        rows = {r["scheme"]: r for r in json.loads(out)}
        assert rows["hyperfan-in"]["weight_var"] == pytest.approx(4.0e-5)
        assert rows["hyperfan-in"]["bias_var"] is None
        assert rows["hyperfan-in"]["uniform_bound"] == pytest.approx(
            np.sqrt(3 * 4.0e-5))

    def test_gen_bias_splits_weight_and_adds_bias_row(self, capsys):
        code, out, _ = run(capsys, "init-table", "--geometry", "500,500,50,50",
                           "--gen-bias", "--json")
        rows = {r["scheme"]: r for r in json.loads(out)}
        assert rows["hyperfan-in"]["weight_var"] == pytest.approx(2.0e-5)
        assert rows["hyperfan-in"]["bias_var"] == pytest.approx(0.01)

    def test_square_geometry_clamps_hyperfan_out_bias(self, capsys):
        code, out, _ = run(capsys, "init-table", "--geometry", "500,500,50,50",
                           "--gen-bias", "--json")
        rows = {r["scheme"]: r for r in json.loads(out)}
        assert rows["hyperfan-out"]["bias_var"] == 0.0

    def test_text_table_lists_all_schemes(self, capsys):
        code, out, _ = run(capsys, "init-table", "--geometry", "10,10,5,5")
        assert code == 0
        for name in ("fan-in", "fan-out", "harmonic", "hyperfan-in",
                     "hyperfan-out", "small-random", "scaled-output",
                     "const-embedding"):
            assert name in out


class TestVarianceCheck:
    FAST = ["--depth", "3", "--width", "100", "--hyper-width", "16",
            "--batch", "200", "--seed", "42"]

    def test_hyperfan_in_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "variance-check", "--scheme", "hyperfan-in",
                           *self.FAST, "--out", str(out_file))
        assert code == 0
        assert "PASS" in out
        data = json.loads(out_file.read_text())
        assert "0" in data

    def test_fan_in_fails_with_width_sized_ratios(self, capsys):
        code, out, _ = run(capsys, "variance-check", "--scheme", "fan-in",
                           *self.FAST)
        assert code == 1
        assert "FAIL" in out
        ratios = [float(line.split()[4]) for line in out.splitlines()
                  if "act-variance ratio" in line]
        assert ratios and all(r == pytest.approx(100, rel=0.5) for r in ratios)

    def test_hyperfan_out_with_bias_passes(self, capsys):
        code, out, _ = run(capsys, "variance-check", "--scheme", "hyperfan-out",
                           "--gen-bias", *self.FAST)
        assert code == 0

    def test_out_in_a_missing_directory_is_created(self, capsys, tmp_path):
        out_file = tmp_path / "new" / "deeper" / "report.json"
        code, out, err = run(capsys, "variance-check", "--scheme", "hyperfan-in",
                             *self.FAST, "--out", str(out_file))
        assert code == 0, err
        assert "0" in json.loads(out_file.read_text())
        assert (out_file.parent / "manifest.json").is_file()


    @pytest.mark.parametrize("argv", [
        # a dead ReLU layer
        ("--relu", "--width", "2", "--batch", "2", "--depth", "3", "--seed", "1"),
        # one value per layer
        ("--width", "1", "--batch", "1", "--depth", "1"),
    ])
    def test_a_zero_variance_layer_fails(self, capsys, tmp_path, argv):
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "variance-check", *argv, "--out", str(out_file))
        assert code == 1
        assert any("act-variance ratio" in line and "[FAIL]" in line
                   for line in out.splitlines())
        assert "Traceback" not in err
        assert "0" in json.loads(out_file.read_text())

    @pytest.mark.parametrize("argv", [
        ("--scheme", "hyperfan-in", "--width", "16", "--batch", "32", "--depth", "2"),
        ("--relu", "--width", "2", "--batch", "2", "--depth", "3", "--seed", "1"),
        ("--width", "1", "--batch", "1", "--depth", "1"),
    ])
    def test_the_report_is_strict_json(self, capsys, tmp_path, argv):
        # every act_ratio row's mean, and a ratio over a zero variance, is
        # null: no NaN or Infinity token reaches the file
        out_file = tmp_path / "report.json"
        run(capsys, "variance-check", *argv, "--out", str(out_file))

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        data = json.loads(out_file.read_text(), parse_constant=refuse)
        assert all(row["mean"] is None for layer in data["0"].values()
                   for kind, row in layer.items() if kind == "act_ratio")
        code, out, err = run(capsys, "report", "--in", str(out_file), "--summary")
        assert code == 0, err
        assert out.startswith("step 0: ")


class TestGradCheck:
    def test_passes_threshold(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--seed", "7")
        assert code == 0
        assert "PASS" in out


class TestTrainCommand:
    def test_missing_data_dir_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "train", "--preset", "mnist-mlp",
                           "--data-dir", str(tmp_path))
        assert code == 3
        assert "missing" in err

    def test_regression_run_writes_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--preset", "regression-seq",
                           "--iterations", "20", "--out", str(out_dir))
        assert code == 0
        assert "final metric" in out
        assert "steps=60 " in out   # 20 iterations on each of three tasks
        for name in ("curves.csv", "probe.json", "checkpoint.npz",
                     "manifest.json"):
            assert (out_dir / name).exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0

    @pytest.mark.parametrize("blas_threads", [None, "1"])
    def test_the_manifest_records_blas_threads_and_cores(self, capsys, tmp_path, monkeypatch,
                                                         blas_threads):
        # an unpinned run's last bits depend on both (tests/test_split.py)
        if blas_threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--preset", "regression-seq",
                         "--iterations", "2", "--out", str(out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["blas_threads"] == blas_threads
        assert manifest["cores"] == len(os.sched_getaffinity(0)) >= 1

    def test_seed_list_runs_each(self, capsys, tmp_path):
        out_dir = tmp_path / "multi"
        code, out, _ = run(capsys, "train", "--preset", "regression-seq",
                           "--iterations", "10", "--seeds", "1,2",
                           "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "seed1" / "curves.csv").exists()
        assert (out_dir / "seed2" / "curves.csv").exists()

    @staticmethod
    def write_mnist(root, n_train, n_test):
        train_ds, test_ds = dt.make_synthetic_images(n_train, n_test, (28, 28), 10, seed=3)
        dt.write_idx(root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte",
                     train_ds.inputs, train_ds.labels.astype(np.uint8))
        dt.write_idx(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte",
                     test_ds.inputs, test_ds.labels.astype(np.uint8))

    def test_mnist_const_embedding_via_cli(self, capsys, tmp_path):
        # equal embeddings make a shared head's Gram matrix singular; the
        # fast path's probes and closing sync must still fold the heads
        self.write_mnist(tmp_path, 200, 50)
        code, out, err = run(capsys, "train", "--preset", "mnist-mlp",
                             "--init", "const-embedding", "--subset", "200",
                             "--iterations", "5", "--probe-every", "2",
                             "--data-dir", str(tmp_path))
        assert code == 0, err
        assert "steps=5 " in out

    def test_mnist_idx_round_trip_via_cli(self, capsys, tmp_path):
        self.write_mnist(tmp_path, 64, 32)
        code, out, _ = run(capsys, "train", "--preset", "mnist-mlp",
                           "--epochs", "1", "--subset", "64",
                           "--data-dir", str(tmp_path))
        assert code == 0
        assert "steps=6 " in out   # 64 examples in batches of 10

    @pytest.mark.parametrize("split, stem", [("train", "train"), ("test", "t10k")])
    def test_empty_idx_split_is_format_error(self, capsys, tmp_path, split, stem):
        self.write_mnist(tmp_path, 64, 32)
        dt.write_idx(tmp_path / f"{stem}-images-idx3-ubyte",
                     tmp_path / f"{stem}-labels-idx1-ubyte",
                     np.zeros((0, 28, 28), dtype=np.uint8), np.zeros(0, dtype=np.uint8))
        code, _, err = run(capsys, "train", "--preset", "mnist-mlp",
                           "--epochs", "1", "--subset", "64",
                           "--data-dir", str(tmp_path))
        assert code == 3
        assert f"{split} split holds no images" in err

    def test_bad_cifar_label_is_io_error(self, capsys, tmp_path):
        images = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        write_cifar10_binary(tmp_path / "data_batch_1.bin", images,
                                np.array([1, 12], dtype=np.uint8))
        write_cifar10_binary(tmp_path / "test_batch.bin", images,
                                np.array([0, 1], dtype=np.uint8))
        code, _, err = run(capsys, "train", "--preset", "cifar-allconv",
                           "--data-dir", str(tmp_path))
        assert code == 3
        assert "label byte 12" in err


class TestReport:
    def test_json_to_csv(self, capsys, tmp_path):
        out_file = tmp_path / "probe.json"
        code, *_ = run(capsys, "variance-check", "--scheme", "hyperfan-in",
                       "--depth", "2", "--width", "50", "--hyper-width", "8",
                       "--batch", "100", "--out", str(out_file))
        assert code == 0
        csv_file = tmp_path / "probe.csv"
        code, out, _ = run(capsys, "report", "--in", str(out_file),
                           "--csv", str(csv_file), "--summary")
        assert code == 0
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "step,layer,kind,mean,var,theory,ratio"
        assert len(lines) > 1
        assert "step 0" in out

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--in", str(tmp_path / "nope.json"))
        assert code == 3

    @pytest.mark.parametrize("text", [
        "{bad",                                  # not JSON
        '{"0": {"0": {"act": {"var": 1.0}}}}',   # a row without its mean
        "[1, 2]",                                # not step -> layer -> kind
        # a non-numeric field
        '{"0": {"0": {"act": {"mean": "x", "var": 1, "theory": 1, "ratio": 1}}}}',
        '{"0": {"0": {"act": {"mean": 1, "var": [1], "theory": 1, "ratio": 1}}}}',
        '{"0": {"0": {"act": {"mean": 1, "var": 1, "theory": {}, "ratio": 1}}}}',
        '{"0": {"0": {"act": {"mean": 1, "var": 1, "theory": 1, "ratio": "x"}}}}',
    ])
    def test_malformed_report_is_format_error(self, capsys, tmp_path, text):
        path = tmp_path / "probe.json"
        path.write_text(text)
        code, _, err = run(capsys, "report", "--in", str(path))
        assert code == 3
        assert "is not a probe report" in err

    @pytest.mark.parametrize("text, summary", [
        ('{"0": {"0": {"act": {"mean": 0, "var": 0, "theory": 0, "ratio": null}}}}',
         "step 0: 1 rows, kinds=act"),
        ('{"0": {"0": {"act": {"mean": 0, "var": 0, "theory": 0, "ratio": null},'
         ' "weight": {"mean": 0, "var": 2, "theory": 2, "ratio": 1.0}},'
         ' "1": {"weight": {"mean": 0, "var": 1, "theory": 2, "ratio": 0.5}}}}',
         "step 0: 3 rows, kinds=act,weight; worst ratio 0.5 (weight layer 1)"),
    ])
    def test_summary_reads_only_rows_with_a_ratio(self, capsys, tmp_path, text, summary):
        # probe.compare leaves the ratio null where a theory value is 0
        path = tmp_path / "probe.json"
        path.write_text(text)
        code, out, _ = run(capsys, "report", "--in", str(path), "--summary")
        assert code == 0
        assert out == summary + "\n"

"""The perfbench worker still runs against this package: its set-up, and the
first run of each workload cut to two steps.

``perfbench/worker.py`` reads ``Preset.standardize_mode``, the preset
builders, ``RegressionTask`` and eight ``TrainResult`` fields; a change that
breaks one of them would otherwise show only as a failed bench run."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from hyperinit import train as tr

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def worker():
    # the worker imports its sibling modules by their bare names
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("name", ["mnist-mlp", "cifar-allconv", "regression-sweep"])
def test_worker_sets_up_and_runs_the_workload(worker, name, tmp_path, capsys):
    wl = worker.WORKLOADS[name]
    data_dir = None
    if wl.files:
        sys.modules["workloads"].write_image_files(wl, SEED, tmp_path)
        data_dir = str(tmp_path)
    worker.setup(wl, SEED, data_dir)
    assert capsys.readouterr().out == "ready\n"
    configs = [replace(cfg, iterations=2) for cfg in worker._configs(tr, wl, SEED)]
    kwargs = worker._train_kwargs(wl, SEED, data_dir)
    run = worker._run(tr.train, wl, configs, kwargs, 0)
    assert run["problems"] == []
    assert run["steps"] > 0

"""Child process of the perfbench benchmark: one set-up, or one measurement.

``setup`` does what precedes the first SGD step of a workload (import,
dataset parse through ``hyperinit.data``, ``standardize``, ``init_hypernet``),
prints ``ready`` and exits; the parent times it from spawn to that line.

``measure`` runs the workload's pass of ``hyperinit.train.train`` calls once,
then repeats its runs in order while they still fit in ``--seconds``, checks
every result, and prints one JSON object. With ``--trace 1`` it alternates
whole untraced and traced passes and also reports the per-layer span summary.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import HYPERFAN, WORKLOADS, init_seeds, regression_arrays


def _configs(tr, wl, seed):
    seeds = init_seeds(seed, 1 + max(r.seed_index for r in wl.runs))
    out = []
    for r in wl.runs:
        cfg = replace(tr.config_for(wl.preset), seed=seeds[r.seed_index], scheme=r.scheme,
                      iterations=wl.iterations)
        if r.learning_rate is not None:
            cfg = replace(cfg, learning_rate=r.learning_rate)
        out.append(cfg)
    return out


def _task_seq(wl, seed, index):
    from hyperinit.data import RegressionTask, RegressionTaskSeq
    arrays = regression_arrays(seed, index, wl.n_train, wl.n_test)
    return RegressionTaskSeq(seed=seed, tasks=[RegressionTask(*a) for a in arrays])


def _train_kwargs(wl, seed, data_dir):
    """Per-run keyword arguments of ``train``: files, or in-memory tasks."""
    if wl.files:
        return [{"data_dir": data_dir} for _ in wl.runs]
    tasks = {i: _task_seq(wl, seed, i) for i in {r.seed_index for r in wl.runs}}
    return [{"data": tasks[r.seed_index]} for r in wl.runs]


def _load(dt, wl, data_dir):
    root = Path(data_dir)
    if wl.files == "idx":
        return (dt.load_idx(str(root / "train-images-idx3-ubyte"),
                            str(root / "train-labels-idx1-ubyte")),
                dt.load_idx(str(root / "t10k-images-idx3-ubyte"),
                            str(root / "t10k-labels-idx1-ubyte")))
    return (dt.load_cifar10_binary(str(root / "data_batch_1.bin")),
            dt.load_cifar10_binary(str(root / "test_batch.bin")))


def setup(wl, seed, data_dir):
    from hyperinit import data as dt
    from hyperinit import train as tr
    from hyperinit.hypergen import init_hypernet
    from hyperinit.init_schemes import parse_scheme
    from hyperinit.tensor import Rng

    preset = tr.PRESETS[wl.preset]
    cfg = _configs(tr, wl, seed)[0]
    if wl.files:
        train_raw, test_raw = _load(dt, wl, data_dir)
        _, stats = dt.standardize(train_raw.take(cfg.subset), preset.standardize_mode)
        dt.standardize(test_raw, preset.standardize_mode, stats)
    else:
        _task_seq(wl, seed, wl.runs[0].seed_index)
    init_hypernet(preset.build_hspec(), preset.build_mainnet(), parse_scheme(cfg.scheme),
                  Rng(cfg.seed).child(1))
    print("ready", flush=True)


def _final_and_init(res):
    """(final train loss, initial loss) as the desk criteria compare them."""
    if res.task_final_losses or res.task_init_losses:
        return (float(np.mean(res.task_final_losses)) if res.task_final_losses else math.nan,
                float(np.mean(res.task_init_losses)))
    return (res.curve[-1][2] if res.curve else math.nan), res.init_loss


def _summarize(res, cfg, wall_s):
    """Everything a check or metric needs from one run; drops the big result."""
    series = (res.init_loss, res.curve, res.epoch_train_loss, res.task_init_losses,
              res.task_final_losses, res.final_metric, res.divergence_step)
    final, init = _final_and_init(res)
    if res.diverged:
        steps = res.divergence_step
    elif res.task_final_losses:
        steps = cfg.iterations * len(res.task_final_losses)
    else:
        steps = res.curve[-1][0]
    problems = []
    if cfg.scheme in HYPERFAN:
        if res.diverged:
            problems.append(f"diverged at step {res.divergence_step}")
        elif not math.isfinite(final):
            problems.append(f"final loss {final!r} is not finite")
    return {"scheme": cfg.scheme, "lr": cfg.learning_rate, "seed": cfg.seed,
            "wall_s": wall_s, "steps": steps, "diverged": res.diverged,
            "final_loss": final, "init_loss": init, "problems": problems,
            "series": hashlib.sha256(repr(series).encode()).hexdigest()}


def _run(train, wl, configs, kwargs, index, tracer=None):
    """One ``train()`` call of pass position ``index``, summarized."""
    cfg, kw = configs[index], kwargs[index]
    t0 = time.perf_counter()
    if tracer is None:
        res = train(wl.preset, cfg, **kw)
    else:
        res = tracer.call(train, wl.preset, cfg, **kw)
    return {"index": index, **_summarize(res, cfg, time.perf_counter() - t0)}


def _check_learning(runs):
    """Hyperfan runs must, on average over the pass, end below their initial
    loss. The average is taken because a regression run's initial loss is a
    single 32-sample batch, too noisy to judge one run by."""
    hyperfan = [r for r in runs if r["scheme"] in HYPERFAN and not r["problems"]]
    if not hyperfan:
        return
    final = sum(r["final_loss"] for r in hyperfan) / len(hyperfan)
    init = sum(r["init_loss"] for r in hyperfan) / len(hyperfan)
    if not final < init:
        for r in hyperfan:
            r["problems"].append(f"pass mean final loss {final!r} not below initial {init!r}")


def _check_repeats(runs):
    """Every repeat of a pass position must reproduce the loss series of its
    first run bit for bit."""
    first = {}
    for run in runs:
        ref = first.setdefault(run["index"], run)
        if run["series"] != ref["series"]:
            run["problems"].append("loss series differs from the first run of its config")


class Reference:
    """A fixed mix of the work the workloads do (batch-10 dense GEMMs, array
    copies, an interpreter loop), timed between the runs. The machine is
    shared, and its speed drifts by tens of percent over minutes; a run's
    time over the reference's time around it cancels most of that. Its
    arrays take 2.5 MB, a fixed part of the measuring child's peak RSS."""

    EVERY_S = 1.0   # time the reference before a run if its last timing is older

    def __init__(self):
        self.x = np.random.default_rng(0).random((10, 784))
        self.w = np.random.default_rng(1).random((200, 784))
        self.copy = np.empty_like(self.w)
        self.seconds = []
        self._at = -math.inf

    def take(self):
        t0 = time.perf_counter()
        for _ in range(500):
            self.x @ self.w.T
        for _ in range(60):
            np.copyto(self.copy, self.w)
        total = 0
        for i in range(500_000):
            total += i
        self._at = time.perf_counter()
        self.seconds.append(self._at - t0)

    def before_run(self):
        """Index of the timing that precedes the next run."""
        if time.perf_counter() - self._at >= self.EVERY_S:
            self.take()
        return len(self.seconds) - 1

    def around(self, k):
        """Mean of timing ``k`` and the one after it: the reference speed
        over the runs in between."""
        return (self.seconds[k] + self.seconds[k + 1]) / 2


def _environment(blas_threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads": blas_threads, "machine": platform.machine()}


def measure(wl, seed, data_dir, seconds, trace, spans_path):
    import hyperinit
    from hyperinit import train as tr

    configs = _configs(tr, wl, seed)
    kwargs = _train_kwargs(wl, seed, data_dir)
    n = len(configs)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    if trace:
        # Untraced and traced passes alternate, so both see the same machine.
        tracer = Tracer()
        while True:
            t0 = time.perf_counter()
            plain += [_run(tr.train, wl, configs, kwargs, i) for i in range(n)]
            with tracer.installed():
                traced += [_run(tr.train, wl, configs, kwargs, i, tracer) for i in range(n)]
            if time.perf_counter() + (time.perf_counter() - t0) > deadline:
                break
    else:
        # One whole pass, then the pass again in order for as long as the
        # next run (timed by its previous repeat) still ends in the window.
        last = {}
        reference = Reference()
        while len(plain) < n or time.perf_counter() + last[len(plain) % n] <= deadline:
            k = reference.before_run()
            plain.append({**_run(tr.train, wl, configs, kwargs, len(plain) % n), "ref": k})
            last[plain[-1]["index"]] = plain[-1]["wall_s"]
        reference.take()
        for run in plain:
            run["ref_s"] = reference.around(run.pop("ref"))
    _check_learning(plain[:n])
    _check_repeats(plain + traced)
    out = {"hyperinit": hyperinit.__file__, "runs": plain, "traced_runs": traced,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "environment": _environment(os.environ.get("OPENBLAS_NUM_THREADS"))}
    if trace:
        out["layers"] = tracer.summary(len(traced) // n)
        out["missing_sites"] = tracer.missing
        tracer.write(spans_path)
    print(json.dumps(out), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data-dir")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(wl, args.seed, args.data_dir)
    else:
        measure(wl, args.seed, args.data_dir, args.seconds, args.trace, args.spans)


if __name__ == "__main__":
    sys.exit(main())

"""perfbench: the hyperinit benchmark, one command for every workload.

    python3 perfbench/run.py --workload mnist-mlp --seed 1 --seconds 35 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``. The benchmark makes its inputs from ``--seed``, times several fresh
set-ups, then runs the workload's pass of ``hyperinit.train.train`` calls in
a child process, repeating it for ``--seconds``, checks every result, and
prints each metric by name and unit. The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, the per-layer span
profile with ``--trace 1``. Workloads, the layer-to-metric map and what is
deferred are described in ``perfbench/METRICS.md``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import HYPERFAN, WORKLOADS, write_image_files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
BLAS_THREADS = "1"   # at most nproc on any machine, and the steadiest timing
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKER_SLACK_S = 100
PERCENTILES = (99, 95, 90, 75, 50)

SPAN_UNITS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"), ("ms_p50", "ms"))


def child_env():
    """Environment of every child: program from this checkout, BLAS pinned."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"
    return env


def worker_cmd(mode, args, data_dir):
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed)]
    if data_dir is not None:
        cmd += ["--data-dir", str(data_dir)]
    return cmd


def time_setup(args, data_dir, env):
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd("setup", args, data_dir), env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return elapsed


def run_worker(args, data_dir, env, spans_path):
    cmd = worker_cmd("measure", args, data_dir) + [
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans_path)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement child failed with exit code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["hyperinit"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"measured {out['hyperinit']}, not the checkout's src/")
    return out


def tail_percentile(values):
    """(p, value) for the highest listed percentile with >= 10 samples above
    it, or None when the sample is too small for any."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[min(n - 1, int(p / 100 * n))]
    return None


def final_train_loss(wl, runs):
    """Mean final training loss of the non-diverged hyperfan runs of one pass."""
    losses = [r["final_loss"] for r in runs[:len(wl.runs)]
              if r["scheme"] in HYPERFAN and not r["diverged"]]
    return sum(losses) / len(losses) if losses else float("nan")


def end_to_end(wl, out, setups):
    """(JSON metrics, printed-only metrics, runs, notes) of an untraced run.

    The JSON metrics are the ones steady enough to gate a change on a shared
    machine; see METRICS.md for why run_s, steps_per_s, final_train_loss and
    failed_frac are printed but not among them."""
    runs = out["runs"]
    # Diverged runs stop after a few steps; timing only full-length runs keeps
    # the median and the rate independent of where the window cut the pass.
    full = [r for r in runs if not r["diverged"]] or runs
    walls = [r["wall_s"] for r in full]
    short = [r["wall_s"] for r in runs if r["diverged"]]
    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        "setup_s": (median(setups), "s"),
        "run_rel": (sum(walls) / sum(r["ref_s"] for r in full), "ratio"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
    }
    printed = {"run_s": (median(walls), "s"),
               "run_best_s": (min(walls), "s"),
               "reference_s": (median(r["ref_s"] for r in full), "s"),
               "steps_per_s": (sum(r["steps"] for r in full) / sum(walls), "1/s"),
               "final_train_loss": (final_train_loss(wl, runs), "loss"),
               "failed_frac": (failed / len(runs), "fraction")}
    tail = tail_percentile(walls)
    notes = [f"run_s: median of n={len(walls)} full-length train() calls "
             f"({len(runs) / len(wl.runs):.2f} passes); "
             + (f"p{tail[0]}={tail[1]:.4f} s" if tail else "no percentile has 10 samples above it"),
             f"setup_s: median of {len(setups)} fresh set-ups: "
             + ", ".join(f"{s:.4f}" for s in setups),
             f"diverged runs: {len(short)}/{len(runs)}"
             + (f", median {median(short):.4f} s" if short else "")
             + " (fan-in divergence is recorded, not a failure)"]
    return metrics, printed, runs, notes


def per_layer(wl, out):
    layers = out["layers"]
    traced = out["traced_runs"]
    passes = len(traced) / len(wl.runs)
    metrics = {}
    for name, rec in layers.items():
        for key, unit in SPAN_UNITS:
            metrics[f"{name}.{key}"] = (rec[key], unit)
    for name in ("mainnet.forward", "mainnet.backward"):
        rec = layers[name]
        metrics[f"{name}.gflop_s"] = (rec["work"] / rec["busy_s"] / 1e9 if rec["busy_s"] else 0.0,
                                      "GFLOP/s")
    metrics["train.sgd_step.rejected"] = (layers["train.sgd_step"]["work"], "count")
    metrics["tensor.sample.draws"] = (layers["tensor.sample"]["work"], "count")
    metrics["data.load.bytes"] = (layers["data.load"]["work"], "B")
    metrics["train.steps"] = (sum(r["steps"] for r in traced) / passes, "count")
    metrics["train.diverged_runs"] = (sum(r["diverged"] for r in traced) / passes, "count")
    metrics["train.final_loss"] = (final_train_loss(wl, traced), "loss")
    plain_s = sum(r["wall_s"] for r in out["runs"])
    traced_s = sum(r["wall_s"] for r in traced)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    self_sum = sum(rec["self_s"] for rec in layers.values())
    train_s = layers["train"]["busy_s"]
    notes = [f"traced passes: {passes:g}; per-layer values are per pass",
             f"layer self times sum to {self_sum:.6f} s; traced train() wall {train_s:.6f} s",
             "gflop_s is computed from layer shapes and batch size, not counted"]
    if out["missing_sites"]:
        notes.append("not traced (absent from the program): " + ", ".join(out["missing_sites"]))
    consistent = abs(self_sum - train_s) <= 1e-6 * max(train_s, 1.0)
    return metrics, {}, out["runs"] + traced, notes, consistent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyperinit" / "__init__.py").is_file():
        print(f"perfbench: no hyperinit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    data_dir = WORK / f"data-{wl.name}" if wl.files else None
    env = child_env()
    try:
        t0 = time.perf_counter()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
            size = write_image_files(wl, args.seed, data_dir)
            print(f"inputs: {size} bytes of {wl.files} files in "
                  f"{time.perf_counter() - t0:.2f} s", flush=True)
        setups = ([] if args.trace else
                  [time_setup(args, data_dir, env) for _ in range(SETUP_REPEATS)])
        out = run_worker(args, data_dir, env, WORK / f"spans-{wl.name}.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)

    if args.trace:
        metrics, printed, runs, notes, consistent = per_layer(wl, out)
    else:
        metrics, printed, runs, notes = end_to_end(wl, out, setups)
        consistent = True
    failed = sum(1 for r in runs if r["problems"])
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED {r['scheme']} lr={r['lr']} seed={r['seed']}: {problem}")
    print(f"workload {wl.name}: {len(wl.runs)} train() calls per pass")
    print("environment: " + json.dumps(out["environment"], sort_keys=True))
    for note in notes:
        print(note)
    for name, (value, unit) in {**metrics, **printed}.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {"correct": failed == 0 and consistent, "attempted": len(runs), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (WORK / f"result-{wl.name}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
         "environment": out["environment"], "notes": notes, "runs": runs,
         "printed": {k: {"value": v, "unit": u} for k, (v, u) in printed.items()}, **result},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

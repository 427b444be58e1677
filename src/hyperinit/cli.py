"""Command-line entry point.

Subcommands: variance-check, init-table, train, grad-check, report.
Exit codes are the machine contract: 0 success, 1 check failure (tolerance
miss, gradient-check failure, or training divergence), 2 usage error,
3 I/O error. Output files are data-only (JSON/CSV) for external plotting;
every run with an output directory also writes a manifest sufficient to
reproduce it.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import init_schemes as schemes
from .data import FormatError
from .gradcheck import run_suite
from .hypergen import HypernetSpec, SHARED_SAME_SIZE, init_hypernet
from .init_schemes import FanGeometry, parse_scheme, uniform_bound
from .mainnet import IDENTITY, MSE, RELU, TANH, mlp
from .probe import (StatRow, activation_variance_ratios, compare, predict,
                    rows_from_dict, snapshot, write_csv, write_json)
from .tensor import Rng
from .train import DataNotFoundError, PRESETS, config_for, pipeline_step, train

DATA_DIR_ENV = "HYPERINIT_DATA_DIR"


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {v}")
    return v


def _seed_list(text):
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if not seeds:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integer seeds")
    return seeds


def _learning_rate(text):
    v = float(text)
    if not np.isfinite(v) or v < 0:
        raise argparse.ArgumentTypeError(f"expected a finite learning rate >= 0, got {v}")
    return v


def _variance(text):
    v = float(text)
    if not np.isfinite(v) or v <= 0:
        raise argparse.ArgumentTypeError(f"expected a finite variance > 0, got {v}")
    return v


def _geometry(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("geometry must be d_i,d_j,d_k,d_l")
    try:
        d_i, d_j, d_k, d_l = (int(p) for p in parts)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if min(d_i, d_j, d_k, d_l) < 1:
        raise argparse.ArgumentTypeError("geometry entries must be positive")
    return d_i, d_j, d_k, d_l


def build_parser():
    p = argparse.ArgumentParser(
        prog="hyperinit",
        description="Hypernetwork initialization: variance checks, formula "
                    "tables, gradient checks, and experiment presets.")
    sub = p.add_subparsers(dest="command", required=True)

    vc = sub.add_parser("variance-check",
                        help="measure per-layer variance preservation under a scheme")
    vc.add_argument("--scheme", default="hyperfan-in", choices=schemes.ALL_KINDS)
    vc.add_argument("--depth", type=_positive_int, default=5)
    vc.add_argument("--width", type=_positive_int, default=500)
    vc.add_argument("--hyper-width", type=_positive_int, default=50)
    vc.add_argument("--batch", type=_positive_int, default=300)
    vc.add_argument("--seed", type=int, default=42)
    act = vc.add_mutually_exclusive_group()
    act.add_argument("--relu", action="store_true")
    act.add_argument("--tanh", action="store_true")
    vc.add_argument("--gen-bias", action="store_true")
    vc.add_argument("--tol-lo", type=float, default=0.8)
    vc.add_argument("--tol-hi", type=float, default=1.25)
    vc.add_argument("--raw-embeddings", action="store_true",
                    help="keep raw embedding draws instead of pinning their "
                         "empirical variance to the declared value (noisier bands)")
    vc.add_argument("--out", default=None, help="write the report as JSON")

    it = sub.add_parser("init-table", help="tabulate every scheme's variances")
    it.add_argument("--geometry", type=_geometry, required=True,
                    metavar="d_i,d_j,d_k,d_l")
    it.add_argument("--var-e", type=_variance, default=1.0)
    it.add_argument("--var-e2", type=_variance, default=None)
    it.add_argument("--receptive-field", type=_positive_int, default=1)
    it.add_argument("--relu", action="store_true")
    it.add_argument("--gen-bias", action="store_true")
    it.add_argument("--json", action="store_true")

    tr = sub.add_parser("train", help="run an experiment preset")
    tr.add_argument("--preset", required=True, choices=sorted(PRESETS))
    tr.add_argument("--init", default="hyperfan-in", choices=schemes.ALL_KINDS)
    tr.add_argument("--epochs", type=_positive_int, default=None)
    tr.add_argument("--lr", type=_learning_rate, default=None)
    tr.add_argument("--batch", type=_positive_int, default=None)
    tr.add_argument("--subset", type=_positive_int, default=None)
    tr.add_argument("--iterations", type=_positive_int, default=None)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--seeds", type=_seed_list, default=None,
                    help="comma-separated seed list; runs each seed independently")
    tr.add_argument("--probe-every", type=_positive_int, default=None)
    tr.add_argument("--eval-every", type=_positive_int, default=None)
    tr.add_argument("--data-dir", default=None,
                    help=f"dataset root (default ${DATA_DIR_ENV})")
    tr.add_argument("--out", default=None, help="output directory")

    gc = sub.add_parser("grad-check",
                        help="finite-difference gradient check on reduced architectures")
    gc.add_argument("--seed", type=int, default=7)
    gc.add_argument("--threshold", type=float, default=1e-5)

    rp = sub.add_parser("report", help="convert or summarize a probe JSON report")
    rp.add_argument("--in", dest="inp", required=True)
    rp.add_argument("--csv", default=None)
    rp.add_argument("--summary", action="store_true")
    return p


def _write_manifest(out_dir, args, extra=None):
    manifest = {"version": __version__, "argv": sys.argv[1:],
                "flags": {k: v for k, v in vars(args).items() if k != "command"},
                "command": args.command}
    if extra:
        manifest.update(extra)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True, default=str)


def cmd_variance_check(args):
    activation = RELU if args.relu else TANH if args.tanh else IDENTITY
    dims = [args.width] * (args.depth + 1)
    bias = "generated" if args.gen_bias else "zero"
    mspec = mlp(dims, activation=activation, loss=MSE, bias_source=bias)
    hspec = HypernetSpec(embedding_dim=args.hyper_width,
                         head_topology=SHARED_SAME_SIZE,
                         generates_bias=args.gen_bias,
                         normalize_embeddings=not args.raw_embeddings)
    rng = Rng(args.seed)
    scheme = parse_scheme(args.scheme)
    net = init_hypernet(hspec, mspec, scheme, rng.child(1))
    x = rng.child(2).normal(1.0, (args.batch, args.width))
    y = rng.child(3).normal(1.0, (args.batch, args.width))
    step = pipeline_step(net, mspec, x, y, stop_on_divergence=False)
    report = snapshot(0, step.trace, step.params, step.grads,
                      head_feature_grads=step.hyper.head_feature_grads)
    prediction = predict(scheme, mspec, net, var_input=float(np.var(x)))
    comparison = compare(report, prediction, band=(args.tol_lo, args.tol_hi))

    ratios = activation_variance_ratios(step.trace)
    all_ok = True
    for t, ratio in enumerate(ratios):
        ok = args.tol_lo <= ratio <= args.tol_hi
        all_ok = all_ok and ok
        report.rows.append(StatRow(step=0, layer=t, kind="act_ratio",
                                   mean=float("nan"), var=ratio, n=step.trace.acts[t].size,
                                   theory=1.0, ratio=ratio, passed=ok))
        print(f"layer {t}: act-variance ratio {ratio:10.4g}  "
              f"[{'ok' if ok else 'FAIL'}]")
    weight_rows = [r for r in comparison.rows if r.kind == "weight"]
    for r in weight_rows:
        print(f"layer {r.layer}: weight var {r.var:10.4g} vs formula {r.theory:10.4g} "
              f"(ratio {r.ratio:.3f}) [{'ok' if r.passed else 'FAIL'}]")
        all_ok = all_ok and r.passed
    if args.out:
        write_json(args.out, [report])
        _write_manifest(Path(args.out).parent, args)
    print(f"variance-check scheme={args.scheme} depth={args.depth} "
          f"width={args.width}: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_init_table(args):
    d_i, d_j, d_k, d_l = args.geometry
    var_e2 = args.var_e if args.var_e2 is None else args.var_e2
    geom = FanGeometry(d_i=d_i, d_j=d_j, d_k=d_k, d_l=d_l,
                       var_e1=args.var_e, var_e2=var_e2,
                       receptive_field=args.receptive_field)
    rows = []
    for kind in schemes.ALL_KINDS:
        sch = parse_scheme(kind, relu_gain=args.relu,
                           hypernet_bias=args.gen_bias)
        wv = schemes.scheme_weight_variance(sch, geom)
        bv = schemes.scheme_bias_variance(sch, geom) if args.gen_bias else None
        rows.append({"scheme": kind, "weight_var": wv,
                     "bias_var": bv, "uniform_bound": uniform_bound(wv)})
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'scheme':<18} {'weight var':>14} {'bias var':>14} {'uniform bound':>14}")
    for r in rows:
        bias = f"{r['bias_var']:14.6g}" if r["bias_var"] is not None else f"{'-':>14}"
        print(f"{r['scheme']:<18} {r['weight_var']:14.6g} {bias} "
              f"{r['uniform_bound']:14.6g}")
    return 0


def cmd_train(args):
    data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV) or "."
    seeds = args.seeds or [args.seed]
    worst = 0
    for seed in seeds:
        config = config_for(args.preset, learning_rate=args.lr,
                            batch_size=args.batch, epochs=args.epochs,
                            subset=args.subset, iterations=args.iterations,
                            probe_every=args.probe_every,
                            eval_every=args.eval_every)
        config = replace(config, seed=seed, scheme=args.init)
        out_dir = None
        if args.out:
            out_dir = Path(args.out) if len(seeds) == 1 else Path(args.out) / f"seed{seed}"
        result = train(args.preset, config, data_dir=data_dir, out_dir=out_dir)
        if out_dir is not None:
            _write_manifest(out_dir, args, extra={"seed": seed})
        status = (f"diverged at step {result.divergence_step}" if result.diverged
                  else f"final metric {result.final_metric:.4f}")
        print(f"preset={args.preset} init={args.init} seed={seed} "
              f"steps={result.steps} {status}")
        worst = max(worst, 1 if result.diverged else 0)
    return worst


def cmd_grad_check(args):
    results = run_suite(seed=args.seed)
    ok = True
    for name, (rel, absolute) in sorted(results.items()):
        passed = rel < args.threshold
        ok = ok and passed
        print(f"{name:<24} max rel err {rel:.3e}  max abs err {absolute:.3e}  "
              f"[{'ok' if passed else 'FAIL'}]")
    print(f"grad-check: {'PASS' if ok else 'FAIL'} (threshold {args.threshold:g})")
    return 0 if ok else 1


def cmd_report(args):
    with open(args.inp, "r", encoding="utf-8") as f:
        try:
            reports = rows_from_dict(json.load(f))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise FormatError(f"{args.inp} is not a probe report: {e!r}") from e
    if args.csv:
        write_csv(args.csv, reports)
        print(f"wrote {args.csv}")
    if args.summary or not args.csv:
        for rep in reports:
            kinds = rep.kinds()
            with_theory = [r for r in rep.rows if r.theory is not None]
            line = f"step {rep.step}: {len(rep.rows)} rows, kinds={','.join(kinds)}"
            if with_theory:
                worst = max(with_theory,
                            key=lambda r: abs((r.ratio or 1.0) - 1.0))
                line += (f"; worst ratio {worst.ratio:.3g} "
                         f"({worst.kind} layer {worst.layer})")
            print(line)
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    handlers = {
        "variance-check": cmd_variance_check,
        "init-table": cmd_init_table,
        "train": cmd_train,
        "grad-check": cmd_grad_check,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (DataNotFoundError, FormatError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

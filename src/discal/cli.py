"""Command-line surface: simulate | diagnose | benchmark | report."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import classifier as clf
from . import diagnostics as dg
from . import label_mapping as lm
from . import oracle
from . import sim_model as sm

MAPPING_NAMES = {
    "binary": lm.MappingKind.BINARY_FULL,
    "binary-noy": lm.MappingKind.BINARY_NO_Y,
    "rank": lm.MappingKind.BINARY_RANK,
    "multiclass": lm.MappingKind.MULTICLASS,
}

FEATURE_NAMES = {"logp": "log_p", "logq": "log_q", "rank": "rank"}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _int_list(text):
    return tuple(int(x) for x in text.split(",") if x.strip() != "")


def build_parser():
    parser = argparse.ArgumentParser(prog="discal",
                                     description=__doc__.strip())
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic Gaussian table")
    p_sim.add_argument("--d", type=int, default=1)
    p_sim.add_argument("--S", type=int, default=500)
    p_sim.add_argument("--M", type=int, default=10)
    p_sim.add_argument("--sigma2", type=float, default=1.0)
    p_sim.add_argument("--bias", type=float, default=0.0)
    p_sim.add_argument("--var-scale", type=float, default=1.0)
    p_sim.add_argument("--rho", type=float, default=0.0,
                       help="AR(1) autocorrelation of the draws (0 = IID)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-densities", action="store_true",
                       help="omit log_p/log_q columns")
    p_sim.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="run the full diagnostic pipeline")
    p_diag.add_argument("--table", required=True)
    p_diag.add_argument("--mapping", choices=sorted(MAPPING_NAMES), default="binary")
    p_diag.add_argument("--weighted", action="store_true",
                        help="balanced binary weighting (conditional JSD scale)")
    p_diag.add_argument("--features", default="",
                        help="comma list from {logp,logq,rank}")
    p_diag.add_argument("--theta-subset", type=_int_list, default=None)
    p_diag.add_argument("--hidden", type=_int_list, default=(64, 64))
    p_diag.add_argument("--epochs", type=int, default=100)
    p_diag.add_argument("--lr", type=float, default=1e-3)
    p_diag.add_argument("--minibatch", type=int, default=256)
    p_diag.add_argument("--patience", type=int, default=10)
    p_diag.add_argument("--val-fraction", type=float, default=0.2)
    p_diag.add_argument("--B", type=int, default=1000)
    p_diag.add_argument("--R", type=int, default=1000)
    p_diag.add_argument("--alpha", type=float, default=0.05)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--out", default=None, help="report JSON path")
    p_diag.add_argument("--visual", default=None, help="scatter CSV path")
    p_diag.add_argument("--coordinate", default="0",
                        help="feature index or linear-feature name for --visual")

    p_bench = sub.add_parser("benchmark",
                             help="power sweep: classifier test vs SBC rank test")
    p_bench.add_argument("--d", type=int, default=4)
    p_bench.add_argument("--S", type=int, default=300)
    p_bench.add_argument("--M", type=int, default=50)
    p_bench.add_argument("--sigma2", type=float, default=1.0)
    p_bench.add_argument("--grid", required=True,
                         help="comma list of cells like bias:0.1 or var:1.2")
    p_bench.add_argument("--repetitions", type=int, default=50)
    p_bench.add_argument("--alpha", type=float, default=0.05)
    p_bench.add_argument("--B", type=int, default=200)
    p_bench.add_argument("--epochs", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)

    p_rep = sub.add_parser("report", help="render a report JSON as text")
    p_rep.add_argument("report", help="path to a diagnose report JSON")

    return parser


def cmd_simulate(args):
    c = sm.Corruption(bias=args.bias, variance_scale=args.var_scale)
    table = sm.generate_gaussian_table(args.d, args.S, args.M, args.sigma2, c,
                                       seed=args.seed,
                                       attach_densities=not args.no_densities,
                                       rho=args.rho)
    sm.write_table(table, args.out)
    print("wrote %s: S=%d M=%d d=%d bias=%g var-scale=%g rho=%g"
          % (args.out, table.S, table.M, table.d_theta, args.bias,
             args.var_scale, args.rho))
    return 0


def cmd_diagnose(args):
    table = sm.read_table(args.table)
    features = tuple(FEATURE_NAMES[f.strip()] for f in args.features.split(",")
                     if f.strip())
    cfg = lm.FeatureConfig(theta_subset=args.theta_subset,
                           linear_features=features)
    scheme = clf.balanced_binary(table.M) if args.weighted else clf.UNWEIGHTED
    settings = clf.TrainSettings(learning_rate=args.lr, epochs=args.epochs,
                                 minibatch_size=args.minibatch,
                                 weight_scheme=scheme, patience=args.patience,
                                 seed=args.seed, val_fraction=args.val_fraction)
    # one map, with run_pipeline's map seed: the model config and --visual
    # are checked on it before any training (a table without runs stops
    # here, with map_table's error), and training and the export read it
    mapped = lm.map_table(table, MAPPING_NAMES[args.mapping], cfg,
                          seed=dg.pipeline_seeds(args.seed)[0])
    coord = args.coordinate
    coord = int(coord) if coord.lstrip("-").isdigit() else coord
    if args.visual:
        dg.check_visual(mapped, coord)
    model_cfg = clf.config_for_table(mapped, hidden_sizes=args.hidden)
    report, test, model = dg.diagnose_mapped(mapped, model_cfg=model_cfg, settings=settings,
                                             B=args.B, R=args.R, alpha=args.alpha)
    echo = {"table": args.table, "mapping": args.mapping,
            "weighted": args.weighted, "features": list(features),
            "theta_subset": list(args.theta_subset) if args.theta_subset else None,
            "hidden": list(args.hidden), "epochs": args.epochs, "lr": args.lr,
            "B": args.B, "R": args.R, "alpha": args.alpha, "seed": args.seed}
    payload = dg.report_to_dict(report, test, config_echo=echo)
    try:
        # strict JSON: a NaN or infinity fails here, before any file is written
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        print("error: cannot write the report: %s" % exc, file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.visual:
        dg.write_visual_csv(dg.visual_export(model, mapped, coordinate=coord), args.visual)
    print(dg.format_report(payload))
    return 0


def _parse_grid(text):
    cells = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        kind, _, number = item.partition(":")
        try:
            value = float(number)
        except ValueError:
            raise lm.ConfigurationError("grid cell %r: %r is not a number"
                                        % (item, number)) from None
        if kind == "bias":
            cells.append(("bias=%g" % value, sm.Corruption(bias=value)))
        elif kind == "var":
            cells.append(("var=%g" % value, sm.Corruption(variance_scale=value)))
        else:
            raise lm.ConfigurationError("unknown grid cell kind %r" % kind)
    if not cells:
        raise lm.ConfigurationError("empty benchmark grid")
    return cells


def _benchmark_cell(params):
    (label, corruption, args_dict, seed) = params
    a = argparse.Namespace(**args_dict)
    cfg = lm.FeatureConfig(linear_features=("log_p", "log_q"))
    scheme = clf.balanced_binary(a.M)
    rej_clf = 0
    rej_sbc = 0
    children = np.random.SeedSequence(seed).spawn(a.repetitions)
    for ss in children:
        s_table, s_pipe, s_sbc = (int(x.generate_state(1)[0]) for x in ss.spawn(3))
        table = sm.generate_gaussian_table(a.d, a.S, a.M, a.sigma2, corruption,
                                           seed=s_table, attach_densities=True)
        settings = clf.TrainSettings(epochs=a.epochs, weight_scheme=scheme,
                                     seed=s_pipe, patience=3)
        _, test, _ = dg.run_pipeline(table, lm.MappingKind.BINARY_FULL, cfg,
                                     settings=settings, B=a.B, R=100,
                                     alpha=a.alpha)
        rej_clf += test.p_value < a.alpha
        _, reject = oracle.sbc_rank_test(table, alpha=a.alpha, seed=s_sbc)
        rej_sbc += reject
    return [(label, "classifier", rej_clf / a.repetitions, a.repetitions),
            (label, "sbc", rej_sbc / a.repetitions, a.repetitions)]


@contextlib.contextmanager
def _blas_pinned_for_children():
    """Set each BLAS thread variable the user left unset to 1 inside the block.

    Processes started inside the block inherit the setting; this process's
    BLAS is loaded already and keeps its threads.
    """
    unset = [var for var in BLAS_THREAD_VARS if var not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for var in unset:
            os.environ.pop(var, None)


def cmd_benchmark(args):
    cells = _parse_grid(args.grid)
    if args.repetitions < 1:
        raise sm.InvalidParameterError("--repetitions must be >= 1")
    if not 0 < args.alpha < 1:
        raise sm.InvalidParameterError("--alpha must be in (0, 1), got %r" % args.alpha)
    text = os.environ.get("DISCAL_WORKERS", "1")
    workers = int(text) if text.strip().isdecimal() else 0
    if workers < 1:
        raise sm.InvalidParameterError("DISCAL_WORKERS must be an integer >= 1, got %r"
                                       % text)
    args_dict = dict(d=args.d, S=args.S, M=args.M, sigma2=args.sigma2,
                     repetitions=args.repetitions, alpha=args.alpha,
                     B=args.B, epochs=args.epochs)
    seeds = sm.seed_sequence(args.seed).spawn(len(cells))
    jobs = [(label, corr, args_dict, int(ss.generate_state(1)[0]))
            for (label, corr), ss in zip(cells, seeds)]
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: a worker imports numpy afresh, after the
        # thread variables are set, so workers do not oversubscribe the cores
        spawn = multiprocessing.get_context("spawn")
        with _blas_pinned_for_children(), \
                ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_benchmark_cell, jobs))
    else:
        results = [_benchmark_cell(job) for job in jobs]
    with open(args.out, "w") as fh:
        fh.write("corruption,method,rejection_rate,repetitions\n")
        for rows in results:
            for label, method, rate, reps in rows:
                fh.write("%s,%s,%.6g,%d\n" % (label, method, rate, reps))
    for rows in results:
        for label, method, rate, reps in rows:
            print("%-12s %-10s rejection rate %.3f over %d reps"
                  % (label, method, rate, reps))
    return 0


def cmd_report(args):
    try:
        with open(args.report) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("the report is not a JSON object")
        print(dg.format_report(payload))
    except KeyError as exc:
        print("error: cannot render report: missing field %s" % exc, file=sys.stderr)
        return 1
    except (OSError, ValueError, TypeError) as exc:
        print("error: cannot render report: %s" % exc, file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"simulate": cmd_simulate, "diagnose": cmd_diagnose,
               "benchmark": cmd_benchmark, "report": cmd_report}[args.command]
    try:
        return handler(args)
    except (sm.InvalidParameterError, sm.TableFormatError, lm.ConfigurationError,
            dg.PipelineError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

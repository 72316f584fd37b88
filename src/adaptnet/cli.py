"""Command-line front door.

Subcommands: ``analyze`` (stability report), ``simulate`` (learning-curve
CSV), ``compare`` (theory vs simulation), ``two-node`` (closed-form 2-node
maps and point reports).  All CSVs carry a leading comment line with the
tool version and seed, then a header row.  Exit codes: 0 success, 2 bad
config, unsupported input or an output path that cannot be written, 3
stability refusal, 4 other library errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace

import numpy as np

from . import __version__
from .config import load_experiment
from .errors import AdaptNetError, ConfigError, StabilityError, UnsupportedInputError
from .harness import ALL_STRATEGIES, run_experiment, steady_state_vs_theory
from .msdtheory import ordering_checks
from .signalmodel import is_homogeneous
from .spectra import analyze_network
from .strategies import COOPERATIVE
from .twonode import (TwoNodeConfig, condition_grid, consensus_instability_condition,
                      consensus_min_eigenvalue, diffusion_stabilization_range,
                      individual_msd_conditions, msd_region_classify, region_grid,
                      region_thresholds)


# the exit code of an error is that of the first row it is an instance of; an
# OSError is an output path that cannot be written, e.g. in a missing directory
EXIT_CODES = (((ConfigError, UnsupportedInputError, OSError), 2),
              (StabilityError, 3),
              (AdaptNetError, 4))


def _open_out(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


@contextmanager
def _claimed(path):
    """Claim a CSV target before the work that fills it.  Opening it for
    append fails at once on a missing directory or a read-only target and
    truncates nothing; if the block then fails, a file the claim created is
    removed and one that was there already is left as it was."""
    if path is None or path == "-":
        yield
        return
    existed = os.path.lexists(path)
    open(path, "a", encoding="utf-8").close()
    try:
        yield
    except BaseException:
        if not existed:
            with suppress(FileNotFoundError):
                os.unlink(path)
        raise


def _write_csv(path, header, rows, seed=None) -> None:
    fh, close = _open_out(path)
    try:
        stamp = f"# adaptnet {__version__}"
        if seed is not None:
            stamp += f", seed = {seed}"
        fh.write(stamp + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    finally:
        if close:
            fh.close()


def _cell(value) -> str:
    """The one number format of every CSV: a float (NumPy float64 and +-inf
    included) to 12 significant digits, anything else as str."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _fmt_db(x: float) -> str:
    # -inf dB is an exactly-zero MSD (a noiseless node), +inf a diverged one
    if np.isnan(x):
        return f"{'nan':>10}"
    return f"{x:+10}" if np.isinf(x) else f"{x:10.3f}"


def _four_strategy_matrix(cfg):
    """A as the report on all four strategies reads it: a config that selects
    no cooperative strategy resolves its rule again as if it selected them."""
    if any(k in COOPERATIVE for k in cfg.strategies):
        return cfg.resolve_combination()
    return replace(cfg, strategies=ALL_STRATEGIES).resolve_combination()


def cmd_analyze(args) -> int:
    cfg = load_experiment(args.config)
    report = analyze_network(_four_strategy_matrix(cfg), cfg.profiles)
    print(f"{'strategy':<16} {'rho(B)':>12} {'stable':>8} {'margin':>12}")
    for name, rho, stable, margin in report.rows():
        print(f"{name:<16} {rho:12.6f} {str(stable):>8} {margin:12.6f}")
    print()
    print("step-size bounds (per node):")
    print(f"  non_cooperative : {np.array2string(report.noncoop_bounds, precision=6)}")
    if report.consensus_bounds is not None:
        print(f"  consensus       : {np.array2string(report.consensus_bounds, precision=6)}")
    else:
        print("  consensus       : (needs a symmetric combination matrix)")
    if report.equality_bound is not None:
        print(f"  consensus=diffusion radius up to mu = {report.equality_bound:.6g}")
    if args.csv:
        _write_csv(args.csv, ("strategy", "spectral_radius", "stable", "margin"),
                   report.rows(), seed=cfg.seed)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_experiment(args.config)
    with _claimed(args.out):
        curves = run_experiment(cfg)
        rows = []
        for kind in cfg.strategies:
            curve = curves[kind]
            db = curve.normalized_db() if args.normalize else curve.msd_db
            for i, value in enumerate(db):
                rows.append((i, kind.value, value))  # -inf: exact 0, inf: diverged
        _write_csv(args.out, ("iteration", "strategy", "msd_db"), rows, seed=cfg.seed)
    for kind in cfg.strategies:
        curve = curves[kind]
        if curve.diverged_trials:
            print(f"note: {kind.value} diverged in {curve.diverged_trials}/{cfg.trials} "
                  f"trials (earliest onset iteration {curve.divergence_onset})",
                  file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    cfg = load_experiment(args.config)
    with _claimed(args.csv):
        return _compare(args, cfg)


def _compare(args, cfg) -> int:
    result = steady_state_vs_theory(cfg)
    if len(result.refused) == len(cfg.strategies):
        detail = ", ".join(f"{k.value} (rho = {rho:.6f})"
                           for k, rho in result.refused.items())
        raise StabilityError(f"no stable strategy to compare: {detail}")
    print(f"{'strategy':<16} {'theory dB':>10} {'sim dB':>10} {'gap dB':>8}   "
          f"{'node min':>10} {'median':>10} {'max':>10}")
    for kind in cfg.strategies:
        if kind in result.refused:
            print(f"{kind.value:<16} unstable (rho = {result.refused[kind]:.6f}), "
                  f"not simulated")
            continue
        rep = result.theory[kind]
        curve = result.curves[kind]
        th_nodes = rep.per_node_db
        print(f"{kind.value:<16} {_fmt_db(rep.network_db)} "
              f"{_fmt_db(curve.network_steady_db)} "
              f"{result.network_gap(kind):8.3f}   "
              f"{_fmt_db(float(np.min(th_nodes)))} {_fmt_db(float(np.median(th_nodes)))} "
              f"{_fmt_db(float(np.max(th_nodes)))}")
    finite = {k: result.theory[k].network for k in cfg.strategies
              if k not in result.refused}
    if len(finite) > 1:
        lowest = min(finite.values())
        best = [k.value for k, v in finite.items() if v == lowest]
        if len(best) == 1:
            print(f"\nlowest theoretical network MSD: {best[0]}")
        else:
            print(f"\nlowest theoretical network MSD: tie between {', '.join(best)}")
    if args.ordering:
        print(_ordering_line(cfg))
    if args.csv:
        rows = [(r.strategy.value, "network" if r.node is None else r.node,
                 r.theory_db, r.simulated_db, r.gap_db)
                for r in result.rows]
        _write_csv(args.csv, ("strategy", "node", "theory_db", "simulated_db", "gap_db"),
                   rows, seed=cfg.seed)
    return 0


def _ordering_line(cfg) -> str:
    """The eigen route's network ordering verdict, or why it was not checked;
    where its closed forms do not apply, the table above stands."""
    if not is_homogeneous(cfg.profiles):
        return ("ordering not checked: the closed forms need one step size and "
                "one covariance shared by every node")
    try:
        rep = ordering_checks(_four_strategy_matrix(cfg), cfg.profiles[0].covariance,
                              cfg.profiles[0].step_size,
                              [p.noise_variance for p in cfg.profiles])
    except (ConfigError, UnsupportedInputError) as exc:
        return f"ordering not checked: {exc}"
    return f"atc <= cta <= non_cooperative (network): {rep.diffusion_first}"


def cmd_two_node(args) -> int:
    if args.mode == "region":
        grid = region_grid(args.mu_sigma, points=args.points)
        t1, t2, stab = region_thresholds(args.mu_sigma)
        print(f"thresholds at mu*sigma^2 = {args.mu_sigma}: "
              f"region I/II boundary {t1:.6g}, II/III boundary {t2:.6g}, "
              f"stability limit {stab:.6g}", file=sys.stderr)
        _write_csv(args.out, ("a", "b", "region"), grid)
        return 0
    if args.mode == "conditions":
        grid = condition_grid(args.noise_ratio, points=args.points)
        _write_csv(args.out, ("a", "b", "noise_shrink_psd", "strict_condition"), grid)
        return 0
    # single-point report
    cfg = TwoNodeConfig(a=args.a, b=args.b, mu_sigma1=args.mu_sigma1,
                        mu_sigma2=args.mu_sigma2, t=args.noise_ratio)
    lam = consensus_min_eigenvalue(cfg)
    print(f"consensus smallest eigenvalue: {lam:.10f}")
    try:
        unstable = consensus_instability_condition(cfg)
        print(f"consensus unstable (a + b >= 2 - mu1*sigma1^2): {unstable}")
    except ConfigError as exc:
        print(f"consensus instability test not applicable: {exc}")
    # each closed form states its own preconditions; where one does not
    # apply, its ConfigError means the line is left out
    try:
        limit = diffusion_stabilization_range(cfg)
        print(f"diffusion stable for a < {limit:.10f} along b = 1 - a")
    except ConfigError:
        pass
    if args.mu_sigma1 == args.mu_sigma2:
        try:
            region = msd_region_classify(args.a, args.b, args.mu_sigma1)
            print(f"homogeneous MSD region: {region}")
        except StabilityError as exc:
            print(f"homogeneous MSD region: unstable ({exc})")
        except ConfigError:
            pass
    conds = individual_msd_conditions(args.a, args.b, args.noise_ratio)
    print(f"noise shrink matrix PSD: {conds.noise_shrink_psd} "
          f"(det = {conds.determinant:.6g}, min eigenvalue = {conds.min_eigenvalue:.6g})")
    print(f"strict benefit condition: {conds.strict_condition} "
          f"(lhs = {conds.strict_lhs[0]:.6g}, {conds.strict_lhs[1]:.6g})")
    print(f"combination matrix primitive: {conds.primitive}")
    return 0


# one parser per process: parse_args returns a fresh namespace each call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptnet",
        description="distributed adaptive estimation laboratory")
    parser.add_argument("--version", action="version", version=f"adaptnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability report for a config")
    p.add_argument("config")
    p.add_argument("--csv", default=None, help="also write the report as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo learning curves as CSV")
    p.add_argument("config")
    p.add_argument("--out", default="-", help="CSV path (default stdout)")
    p.add_argument("--normalize", action="store_true",
                   help="shift each curve so its peak sits at 0 dB")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="theory vs simulation steady-state table")
    p.add_argument("config")
    p.add_argument("--csv", default=None, help="also write per-node rows as CSV")
    p.add_argument("--ordering", action="store_true",
                   help="print the network ordering verdict (homogeneous models)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("two-node", help="closed-form two-node maps and reports")
    two = p.add_subparsers(dest="mode", required=True)

    q = two.add_parser("region", help="MSD region map over (a, b)")
    q.add_argument("--mu-sigma", type=float, required=True,
                   help="common mu * sigma^2 value, in (0, 1)")
    q.add_argument("--points", type=int, default=200)
    q.add_argument("--out", default="-")
    q.set_defaults(func=cmd_two_node)

    q = two.add_parser("conditions", help="noise-condition map over (a, b)")
    q.add_argument("--noise-ratio", type=float, required=True,
                   help="t = sigma_{v,1}^2 / sigma_{v,2}^2")
    q.add_argument("--points", type=int, default=200)
    q.add_argument("--out", default="-")
    q.set_defaults(func=cmd_two_node)

    q = two.add_parser("point", help="single (a, b) closed-form report")
    q.add_argument("--a", type=float, required=True)
    q.add_argument("--b", type=float, required=True)
    q.add_argument("--mu-sigma1", type=float, required=True)
    q.add_argument("--mu-sigma2", type=float, required=True)
    q.add_argument("--noise-ratio", type=float, default=1.0)
    q.set_defaults(func=cmd_two_node)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdaptNetError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())

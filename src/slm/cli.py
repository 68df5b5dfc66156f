"""Command-line entry point.

Every command reads a run-config file, writes CSV outputs plus a
manifest and a copy of the fully resolved config into the output
directory, and exits nonzero with a one-line machine-parsable category
on failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import RunConfig, parse_config
from .errors import InvalidParameterError, SLMError
from .hierarchy import TruncatedState, solve_hierarchy
from .kernels import domination_theta
from .kinetic import BernoulliParams, bernoulli_q, solve_kinetic
from .microsim import run_ensemble
from .scaling import vlasov_error
from .stats import default_pair_edges, estimate_correlations, subpoisson_diagnostic
from .theory import optimize_alpha


def _fmt(x) -> str:
    """Shortest round-trip decimal form; reruns are byte-identical."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _prepare_out(args, cfg: RunConfig) -> str:
    root = os.environ.get("SLM_OUT_ROOT", "")
    out = os.path.join(root, args.out) if root else args.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "resolved.cfg"), "w") as fh:
        fh.write(cfg.resolved_text())
    return out


def _finish_manifest(out, command, files):
    manifest = {
        "tool": "slm",
        "version": __version__,
        "command": command,
        "config": "resolved.cfg",
        "files": sorted(files),
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- simulate ------------------------------------------------------------


def cmd_simulate(args):
    cfg = parse_config(args.config)
    if args.runs is not None:
        cfg.runs = args.runs
    if args.seed is not None:
        cfg.seed = args.seed
    out = _prepare_out(args, cfg)
    trajectories = run_ensemble(
        cfg.rho0,
        cfg.params,
        cfg.horizon,
        cfg.snapshot_times,
        cfg.seed,
        cfg.runs,
        jobs=args.jobs,
        population_cap=cfg.population_cap,
        keep_events=args.events,
    )

    axes = [f"x{i}" for i in range(cfg.grid.dim)]
    snap_rows, summary_rows, files = [], [], []
    for ridx, traj in enumerate(trajectories):
        for t, pts in zip(traj.times, traj.snapshots):
            summary_rows.append((ridx, t, len(pts)))
            for p in np.atleast_2d(pts):
                snap_rows.append((ridx, t) + tuple(p))
        if args.events:
            ev_file = f"events_run{ridx:04d}.csv"
            _write_csv(
                os.path.join(out, ev_file),
                ["time", "kind"] + axes,
                [(e.time, e.kind) + tuple(np.atleast_1d(e.position)) for e in traj.event_log],
            )
            files.append(ev_file)
    _write_csv(os.path.join(out, "snapshots.csv"), ["run", "t"] + axes, snap_rows)
    _write_csv(os.path.join(out, "summary.csv"), ["run", "t", "N"], summary_rows)
    _finish_manifest(out, "simulate", files + ["snapshots.csv", "summary.csv"])
    return 0


# -- kinetic -------------------------------------------------------------


def _field_rows(t, field):
    grid = field.grid
    centers = grid.centers()
    rows = []
    for flat, v in enumerate(field.values.ravel()):
        idx = np.unravel_index(flat, grid.shape)
        rows.append((t, flat) + tuple(centers[i] for i in idx) + (v,))
    return rows


def cmd_kinetic(args):
    cfg = parse_config(args.config)
    out = _prepare_out(args, cfg)
    snaps = solve_kinetic(cfg.rho0, cfg.params, cfg.horizon, cfg.dt, cfg.snapshot_times)
    bp = BernoulliParams.from_model(cfg.params)
    q = bernoulli_q(bp) if bp.aminus_mass > 0 else math.nan
    axes = [f"x{i}" for i in range(cfg.grid.dim)]
    rows, summary = [], []
    for t, f in zip(cfg.snapshot_times, snaps):
        rows.extend(_field_rows(t, f))
        sup_err = float(np.max(np.abs(f.values - q))) if not math.isnan(q) else math.nan
        summary.append((t, f.min, f.max, f.mean, sup_err))
    _write_csv(os.path.join(out, "fields.csv"), ["t", "cell_index"] + axes + ["rho"], rows)
    _write_csv(
        os.path.join(out, "summary.csv"),
        ["t", "min_rho", "max_rho", "mean_rho", "sup_error_vs_q"],
        summary,
    )
    _finish_manifest(out, "kinetic", ["fields.csv", "summary.csv"])
    return 0


# -- hierarchy -----------------------------------------------------------


def cmd_hierarchy(args):
    cfg = parse_config(args.config)
    closure_rule = args.closure or cfg.closure
    params = cfg.params if args.epsilon is None else cfg.params.with_epsilon(args.epsilon)
    out = _prepare_out(args, cfg)
    state0 = TruncatedState.poisson_like(cfg.rho0, params.epsilon)
    snaps, diag = solve_hierarchy(
        state0, closure_rule, params, cfg.horizon, cfg.dt, cfg.snapshot_times
    )
    offsets = cfg.slice_offsets
    if not offsets:
        h = cfg.grid.spacing
        offsets = [k * h for k in range(0, min(9, cfg.grid.cells // 2), 2)]
    rows, slice_rows = [], []
    for t, st in zip(cfg.snapshot_times, snaps):
        rows.extend(_field_rows(t, st.k1))
        m = cfg.grid.cells
        for r in offsets:
            shift = int(round(r / cfg.grid.spacing)) % m
            diag_vals = np.diagonal(np.roll(st.k2.values, -shift, axis=1))
            slice_rows.append((t, r, float(diag_vals.mean())))
    _write_csv(os.path.join(out, "k1.csv"), ["t", "cell_index", "x0", "k1"], rows)
    _write_csv(os.path.join(out, "k2_slice.csv"), ["t", "r", "value"], slice_rows)
    _finish_manifest(out, "hierarchy", ["k1.csv", "k2_slice.csv"])
    print(f"max symmetry drift per step: {diag['max_symmetry_drift']:.3e}")
    return 0


# -- stats ---------------------------------------------------------------


def cmd_stats(args):
    cfg = parse_config(args.config)
    out = _prepare_out(args, cfg)
    # (run, t, N) comes from summary.csv: a run empty at t enters as a (0, d) array
    sum_path = os.path.join(args.snapshots, "summary.csv")
    index = np.loadtxt(sum_path, delimiter=",", skiprows=1, ndmin=2)
    if index.size == 0:
        raise SLMError(f"no summary rows in {sum_path}")
    data = np.empty((0, 2 + cfg.grid.dim))
    if index[:, 2].any():
        snap_path = os.path.join(args.snapshots, "snapshots.csv")
        data = np.loadtxt(snap_path, delimiter=",", skiprows=1, ndmin=2)
    edges = default_pair_edges(
        cfg.grid.side,
        max(cfg.params.dispersal.support_radius, cfg.params.competition.support_radius),
        cfg.pair_bins,
    )
    dens_rows, pair_rows, diag_rows = [], [], []
    for t in sorted(set(index[:, 1])):
        rows = index[index[:, 1] == t]
        runs, counts = rows[:, 0], rows[:, 2]
        if not counts.any():
            raise InvalidParameterError(f"every run is empty at t={_fmt(t)}; nothing to estimate")
        sel = data[data[:, 1] == t]
        ensemble = [sel[sel[:, 0] == r][:, 2:] for r in runs]
        if [len(p) for p in ensemble] != list(counts):
            raise SLMError(f"snapshots.csv and summary.csv disagree at t={_fmt(t)}")
        est = estimate_correlations(ensemble, cfg.grid, edges, t)
        for flat, (m, s) in enumerate(zip(est.k1_hat.mean.ravel(), est.k1_hat.se.ravel())):
            dens_rows.append((t, flat, m, s))
        for b in est.pair_g:
            pair_rows.append((t, b.r_mid, b.g, b.se))
        report = subpoisson_diagnostic(est, max(est.mean_density * 1.5, 1e-12))
        diag_rows.append((t, report.minimal_C, len(report.flagged_cells) + len(report.flagged_bins)))
    _write_csv(os.path.join(out, "density.csv"), ["t", "cell", "k1_hat", "se"], dens_rows)
    _write_csv(os.path.join(out, "pairs.csv"), ["t", "r_mid", "g_hat", "se"], pair_rows)
    _write_csv(os.path.join(out, "diagnostic.csv"), ["t", "minimal_C", "flags"], diag_rows)
    _finish_manifest(out, "stats", ["density.csv", "pairs.csv", "diagnostic.csv"])
    return 0


# -- scaling -------------------------------------------------------------


def cmd_scaling(args):
    cfg = parse_config(args.config)
    out = _prepare_out(args, cfg)
    report = vlasov_error(
        cfg.eps_list,
        cfg.rho0,
        cfg.params,
        cfg.horizon,
        cfg.scaling_runs,
        cfg.seed,
        mode=args.mode,
        snapshot_times=cfg.snapshot_times or None,
        closure_rule=cfg.closure,
        population_cap=cfg.population_cap,
    )
    _write_csv(
        os.path.join(out, "report.csv"),
        ["eps", "sup_error", "mc_se", "runs"],
        [
            (e, err, se, cfg.scaling_runs if args.mode == "microsim" else 0)
            for e, err, se in zip(report.epsilons, report.errors, report.mc_se)
        ],
    )
    manifest_data = {
        "note": "order-1 sup-norm truncation surrogate of the hierarchy norm",
        "x": "eps",
        "y": "sup_error",
        "source": "report.csv",
    }
    with open(os.path.join(out, "plot_manifest.json"), "w") as fh:
        json.dump(manifest_data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _finish_manifest(out, "scaling", ["report.csv", "plot_manifest.json"])
    return 0


# -- analyze -------------------------------------------------------------


def cmd_analyze(args):
    cfg = parse_config(args.config)
    theta = domination_theta(cfg.params.dispersal, cfg.params.competition)
    if theta is None:
        print("no finite theta")
        return 0
    if theta > 0:
        alpha_max = -math.log(theta)
        alpha_up = cfg.alpha_up if cfg.alpha_up is not None else alpha_max - 0.5
        admissible = f"alpha* < {alpha_max:.6g}"
    else:
        alpha_up = cfg.alpha_up if cfg.alpha_up is not None else 0.0
        admissible = "all alpha*"
    alpha_star, t_star = optimize_alpha(
        alpha_up, cfg.params.dispersal.mass, cfg.params.competition.mass
    )
    print(f"theta            : {theta:.6g}")
    print(f"admissible alpha*: {admissible}")
    print(f"chosen alpha*    : {alpha_up:.6g}")
    print(f"optimal alpha_*  : {alpha_star:.6g}")
    print(f"T*               : {t_star:.6g}")
    if args.out:
        out = _prepare_out(args, cfg)
        _write_csv(
            os.path.join(out, "analysis.csv"),
            ["theta", "alpha_up", "alpha_star_opt", "T_star"],
            [(theta, alpha_up, alpha_star, t_star)],
        )
        _finish_manifest(out, "analyze", ["analysis.csv"])
    return 0


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True, help="run-config file")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="exact stochastic ensemble")
    common(p)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--events", action="store_true", help="write per-run event logs")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kinetic", help="nonlocal kinetic solver")
    common(p)
    p.set_defaults(func=cmd_kinetic)

    p = sub.add_parser("hierarchy", help="truncated correlation dynamics")
    common(p)
    p.add_argument("--closure", choices=["mean-field", "kirkwood"], default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("stats", help="ensemble estimators over simulate output")
    common(p)
    p.add_argument("--snapshots", required=True, help="directory written by simulate")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("scaling", help="weak-interaction convergence experiment")
    common(p)
    p.add_argument("--mode", choices=["microsim", "hierarchy"], default="hierarchy")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("analyze", help="kernel conditions and existence horizon")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SLMError as exc:
        print(f"error-category: {exc.category}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Each command computes its level of description and returns its output
tables; ``main`` alone writes them.  It parses the run-config file once,
with the command-line overrides applied, runs the command, and only then
fills the output directory with the tables, a ``manifest.json`` and a
copy of the fully resolved config, so a failed command writes nothing.
Failures exit nonzero with a one-line machine-parsable category.  Each
command imports its own solver, so a process loads only the modules its
command runs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import parse_config, read_table
from .errors import InvalidParameterError, PreconditionError, SLMError
from .kernels import domination_theta


CSV_BLOCK_ROWS = 1024  # rows per block of a written table, which bounds the memory of writing it


def _cells(col):
    """str of each value of a 1-d array.  A 64-bit numeric array formats
    each distinct bit pattern once (so -0.0 and 0.0 keep their own strings)."""
    if col.dtype.kind not in "fiu" or col.dtype.itemsize != 8:
        return map(str, col.tolist())
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return np.array([str(v) for v in bits.view(col.dtype).tolist()], dtype=object)[inverse]


def _write_csv(fh, header, groups):
    """The header, then the rows of each group of equal-length columns; a
    scalar column repeats its value on every row of its group.  Each group
    is cut into blocks of at most CSV_BLOCK_ROWS rows, and the cells of one
    block are formatted at a time."""
    # str of a Python int or float is its shortest round-trip form: reruns are byte-identical
    fh.write(",".join(header) + "\n")
    for columns in groups:
        columns = [np.asarray(col) for col in columns]
        rows = min((len(col) for col in columns if col.ndim), default=0)
        for start in range(0, rows, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, rows)
            block = [col[start:stop] if col.ndim else np.full(stop - start, col) for col in columns]
            fh.write("\n".join(map(",".join, zip(*map(_cells, block)))))
            fh.write("\n")


def _write_json(fh, data):
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_outputs(out, command, cfg, tables):
    """resolved.cfg, each table (a dict as JSON, a (header, groups) pair
    as CSV) and the manifest listing the tables.  A failed write removes
    every file this call opened and every directory it made before the
    error propagates, so a failed command leaves nothing behind."""
    manifest = {"tool": "slm", "version": __version__, "command": command,
                "config": "resolved.cfg", "files": sorted(tables)}
    files = {"resolved.cfg": cfg.resolved_text(), **tables, "manifest.json": manifest}
    made, path = [], os.path.abspath(out)
    while not os.path.lexists(path):
        made.append(path)  # deepest first
        path = os.path.dirname(path)
    opened = []
    try:
        os.makedirs(out, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(out, name), "w") as fh:
                opened.append(fh.name)
                if isinstance(content, str):
                    fh.write(content)
                elif isinstance(content, dict):
                    _write_json(fh, content)
                else:
                    _write_csv(fh, *content)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _axes(grid):
    return [f"x{i}" for i in range(grid.dim)]


def _field_table(grid, times, fields, name):
    """t, cell index, cell-centre coordinates and value of every cell of
    each field, cells in C order; the per-cell columns are built once."""
    cells = np.arange(grid.size)
    coords = grid.centers()[np.indices(grid.shape).reshape(grid.dim, -1)]
    groups = ((t, cells, *coords, f.values.ravel()) for t, f in zip(times, fields))
    return ["t", "cell_index"] + _axes(grid) + [name], groups


# -- simulate ------------------------------------------------------------


def cmd_simulate(args, cfg):
    from .microsim import run_ensemble

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
    tables = {
        "snapshots.csv": (
            ["run", "t"] + _axes(cfg.grid),
            ((r, t, *pts.T) for r, traj in enumerate(trajectories)
             for t, pts in zip(traj.times, traj.snapshots)),
        ),
        "summary.csv": (
            ["run", "t", "N"],
            ((r, traj.times, [len(pts) for pts in traj.snapshots])
             for r, traj in enumerate(trajectories)),
        ),
        "runs.csv": (
            ["run", "n0", "n_end", "peak_n", "events", "proposals", "births", "natural_deaths",
             "competition_deaths", "absorbed", "max_audit_drift"],
            [zip(*[(r, tr.n0, tr.n_end, tr.peak_n, tr.events, tr.proposals, tr.births,
                    tr.deaths - tr.competition_deaths, tr.competition_deaths,
                    int(tr.absorbed), tr.max_audit_drift)
                   for r, tr in enumerate(trajectories)])],
        ),
    }
    if args.events:
        for r, traj in enumerate(trajectories):
            tables[f"events_run{r:04d}.csv"] = (
                ["time", "kind"] + _axes(cfg.grid),
                # the log's rows, transposed a block at a time; the first for binds this run's log
                (zip(*log[start : start + CSV_BLOCK_ROWS]) for log in [traj.event_log]
                 for start in range(0, len(log), CSV_BLOCK_ROWS)),
            )
    return tables


# -- kinetic -------------------------------------------------------------


def cmd_kinetic(args, cfg):
    from .kinetic import solve_kinetic

    times = cfg.snapshot_times
    snaps = solve_kinetic(cfg.rho0, cfg.params, cfg.horizon, cfg.dt, times)
    # without competition there is no carrying capacity to compare with
    q = cfg.params.carrying_capacity if cfg.params.competition.mass > 0 else math.nan
    summary = [
        (t, f.min, f.max, f.mean, float(np.max(np.abs(f.values - q)))) for t, f in zip(times, snaps)
    ]
    return {
        "fields.csv": _field_table(cfg.grid, times, snaps, "rho"),
        "summary.csv": (
            ["t", "min_rho", "max_rho", "mean_rho", "sup_error_vs_q"], [zip(*summary)]
        ),
    }


# -- hierarchy -----------------------------------------------------------


def cmd_hierarchy(args, cfg):
    from .hierarchy import TruncatedState, solve_hierarchy

    state0 = TruncatedState.poisson_like(cfg.rho0, cfg.params.epsilon)
    snaps, diag = solve_hierarchy(
        state0, cfg.closure, cfg.params, cfg.horizon, cfg.dt, cfg.snapshot_times
    )
    grid = cfg.grid
    # each row is labelled with the distance of the grid offset it reads
    shifts = grid.offset_index(cfg.slice_offsets).tolist() or range(0, min(9, grid.cells // 2), 2)
    radii = np.abs(grid.axis_offsets()).tolist()
    cells = np.arange(grid.cells)
    # the k-th wrapped superdiagonal k2[i, i + k], read without copying k2
    slices = [
        (t, radii[k], float(st.k2[cells, (cells + k) % grid.cells].mean()))
        for t, st in zip(cfg.snapshot_times, snaps)
        for k in shifts
    ]
    print(f"max symmetry drift per step: {diag['max_symmetry_drift']:.3e}")
    return {
        "k1.csv": _field_table(cfg.grid, cfg.snapshot_times, [st.k1 for st in snaps], "k1"),
        "k2_slice.csv": (["t", "r", "value"], [zip(*slices)]),
    }


# -- stats ---------------------------------------------------------------


def cmd_stats(args, cfg):
    from .stats import default_pair_edges, estimate_correlations, subpoisson_diagnostic

    # (run, t, N) comes from summary.csv: a run empty at t enters as a (0, d) array
    sum_path = os.path.join(args.snapshots, "summary.csv")
    index = read_table(sum_path, SLMError, skiprows=1, ndmin=2)
    if index.size == 0:
        raise SLMError(f"no summary rows in {sum_path}")
    if index.shape[1] != 3:
        raise SLMError(f"{sum_path} has {index.shape[1]} columns, but (run, t, N) needs 3")
    if not np.isfinite(index).all():
        raise SLMError(f"{sum_path} has a non-finite value")
    data = np.empty((0, 2 + cfg.grid.dim))
    if index[:, 2].any():
        snap_path = os.path.join(args.snapshots, "snapshots.csv")
        data = read_table(snap_path, SLMError, skiprows=1, ndmin=2)
        if data.shape[1] != 2 + cfg.grid.dim:
            raise SLMError(f"{snap_path} has {data.shape[1]} columns, "
                           f"but a {cfg.grid.dim}-d model needs {2 + cfg.grid.dim}")
        if not np.isfinite(data).all():
            raise SLMError(f"{snap_path} has a non-finite value")
    edges = default_pair_edges(
        cfg.grid.side,
        max(cfg.params.dispersal.support_radius, cfg.params.competition.support_radius),
        cfg.pair_bins,
    )
    r_mid = 0.5 * (edges[:-1] + edges[1:])
    cells = np.arange(cfg.grid.size)
    density, pairs, diagnostic = [], [], []
    for t in sorted(set(index[:, 1].tolist())):
        rows = index[index[:, 1] == t]
        runs, counts = rows[:, 0], rows[:, 2]
        if not counts.any():
            raise InvalidParameterError(f"every run is empty at t={t}; nothing to estimate")
        sel = data[data[:, 1] == t]
        ensemble = [sel[sel[:, 0] == r][:, 2:] for r in runs]
        if [len(p) for p in ensemble] != list(counts):
            raise SLMError(f"snapshots.csv and summary.csv disagree at t={t}")
        est = estimate_correlations(ensemble, cfg.grid, edges)
        k1 = est.k1_hat
        density.append((t, cells, k1.mean.ravel(), k1.se.ravel()))
        pairs.append((t, r_mid, est.pair_g, est.pair_se))
        report = subpoisson_diagnostic(est, max(est.mean_density * 1.5, 1e-12))
        flags = len(report.flagged_cells) + len(report.flagged_bins)
        diagnostic.append((t, report.minimal_C, flags))
    # each (run, t) of summary.csv matched its count; rows at no (run, t) of it show here
    if len(data) != index[:, 2].sum():
        raise SLMError(f"snapshots.csv and summary.csv disagree: {len(data)} rows, "
                       f"but summary.csv counts {index[:, 2].sum():g}")
    return {
        "density.csv": (["t", "cell", "k1_hat", "se"], density),
        "pairs.csv": (["t", "r_mid", "g_hat", "se"], pairs),
        "diagnostic.csv": (["t", "minimal_C", "flags"], [zip(*diagnostic)]),
    }


# -- scaling -------------------------------------------------------------


def cmd_scaling(args, cfg):
    from .scaling import vlasov_error

    report = vlasov_error(
        cfg.eps_list,
        cfg.rho0,
        cfg.params,
        cfg.horizon,
        cfg.dt,
        cfg.snapshot_times,
        cfg.runs,
        cfg.seed,
        mode=args.mode,
        closure_rule=cfg.closure,
        population_cap=cfg.population_cap,
    )
    runs = cfg.runs if args.mode == "microsim" else 0
    source = "report.csv"
    return {
        source: (
            ["eps", "sup_error", "mc_se", "runs"],
            [(report.epsilons, report.errors, report.mc_se, runs)],
        ),
        "plot_manifest.json": {
            "note": "order-1 sup-norm truncation surrogate of the hierarchy norm",
            "x": "eps",
            "y": "sup_error",
            "source": source,
        },
    }


# -- analyze -------------------------------------------------------------


def cmd_analyze(args, cfg):
    from .theory import check_initial_space, optimize_alpha

    theta = domination_theta(cfg.params.dispersal, cfg.params.competition)
    if theta is None:
        print("no finite theta")
        return {}
    if theta > 0:
        alpha_max = -math.log(theta)
        alpha_up = cfg.alpha_up if cfg.alpha_up is not None else alpha_max - 0.5
        if not check_initial_space(theta, alpha_up):
            raise PreconditionError(
                f"alpha_up = {alpha_up:.6g} gives an inadmissible initial space: "
                f"theta = {theta:.6g} needs alpha_up < {alpha_max:.6g}"
            )
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
    return {
        "analysis.csv": (
            ["theta", "alpha_up", "alpha_star_opt", "T_star"],
            [([theta], [alpha_up], [alpha_star], [t_star])],
        )
    }


# -- entry point ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors end, as every other failure
    does, in one ``error-category`` line; subparsers share the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"error-category: usage: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run-config file")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="exact stochastic ensemble")
    common(p)
    p.add_argument("--runs", dest="run:runs", metavar="RUNS")
    p.add_argument("--seed", dest="run:seed", metavar="SEED")
    p.add_argument("--events", action="store_true", help="write per-run event logs")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kinetic", help="nonlocal kinetic solver")
    common(p)
    p.set_defaults(func=cmd_kinetic)

    p = sub.add_parser("hierarchy", help="truncated correlation dynamics")
    common(p)
    p.add_argument("--closure", dest="hierarchy:closure", metavar="CLOSURE")
    p.add_argument("--epsilon", dest="model:epsilon", metavar="EPSILON")
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
    # a flag with dest "section:key" overrides that key with its text, read as the file's is
    overrides = {tuple(dest.split(":")): text for dest, text in vars(args).items()
                 if ":" in dest and text is not None}
    try:
        cfg = parse_config(args.config, overrides)
        tables = args.func(args, cfg)
        if args.out:
            out = os.path.join(os.environ.get("SLM_OUT_ROOT", ""), args.out)
            try:
                _write_outputs(out, args.command, cfg, tables)
            except OSError as exc:
                raise SLMError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from None
    except SLMError as exc:
        print(f"error-category: {exc.category}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

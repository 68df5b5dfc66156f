import configparser
import errno
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slm
from slm import cli
from slm.cli import main
from slm.config import _KEYS, _NOT, _value, parse_config
from slm.errors import ConfigError
from slm.stats import default_pair_edges, estimate_correlations, pair_correlation, subpoisson_diagnostic

BASE_CFG = """\
[model]
dimension = 1
torus_side = 10.0
grid_cells = 50
mortality = 0.3

[kernel.dispersal]
shape = indicator
height = 1.0
radius = 0.5

[kernel.competition]
shape = indicator
height = 1.0
radius = 0.5

[initial]
kind = constant
density = 0.5

[run]
horizon = 1.0
dt = 0.02
snapshot_times = 0.5 1.0
seed = 3
runs = 4
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(BASE_CFG)
    return str(p)


def read(path):
    with open(path) as fh:
        return fh.read()


def with_key(text, section, key, value):
    """``text`` with ``[section] key`` set to ``value``, or removed if ``value`` is None."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    if not cp.has_section(section):
        cp.add_section(section)
    if value is None:
        cp.remove_option(section, key)
    else:
        cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


GAUSSIAN_CFG = BASE_CFG.replace(
    "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.5",
    "[kernel.competition]\nshape = gaussian\nsigma = 0.3",
)
TABLE_CFG = BASE_CFG.replace("kind = constant\ndensity = 0.5", "kind = table\nfile = rho0.csv")
ZERO_CFG = BASE_CFG.replace(
    "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.5",
    "[kernel.competition]\nshape = zero",
)


class TestConfig:
    def test_parses_and_resolves_defaults(self, cfg_path):
        cfg = parse_config(cfg_path)
        assert cfg.runs == 4 and cfg.seed == 3
        assert cfg.params.epsilon == 1.0  # default echoed
        assert "epsilon = 1.0" in cfg.resolved_text()

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/run.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        # scaling runs [run] runs, so [scaling] has no runs key of its own
        p = tmp_path / "bad.cfg"
        for section, key in [("model", "mortality_rate"), ("scaling", "scaling_runs")]:
            p.write_text(with_key(BASE_CFG, section, key, "5"))
            with pytest.raises(ConfigError, match=re.escape(f"unknown config keys: [{section}] {key}")):
                parse_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG + "\n[plotting]\nstyle = fancy\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    @pytest.mark.parametrize(
        "section, key",
        [
            ("model", "dimension"), ("model", "torus_side"), ("model", "grid_cells"),
            ("model", "mortality"), ("kernel.dispersal", "height"), ("kernel.dispersal", "radius"),
            ("kernel.competition", "height"), ("kernel.competition", "radius"),
            ("initial", "density"), ("run", "horizon"), ("run", "dt"), ("run", "snapshot_times"),
            ("kernel.competition", "sigma"), ("initial", "file"),
        ],
    )
    def test_missing_required_key(self, tmp_path, section, key):
        # every required key of BASE_CFG, and those of a gaussian kernel and a table start
        text = {"sigma": GAUSSIAN_CFG, "file": TABLE_CFG}.get(key, BASE_CFG)
        p = tmp_path / "bad.cfg"
        p.write_text(with_key(text, section, key, None))
        with pytest.raises(ConfigError, match=re.escape(f"missing required key [{section}] {key}")):
            parse_config(str(p))

    def test_optional_keys_left_out_of_resolved_cfg(self, tmp_path):
        p = tmp_path / "gauss.cfg"
        p.write_text(GAUSSIAN_CFG)
        text = parse_config(str(p)).resolved_text()
        assert "[kernel.competition]\nshape = gaussian\nsigma = 0.3\n\n" in text
        assert "[theory]" not in text and "alpha_up" not in text
        p.write_text(GAUSSIAN_CFG.replace("sigma = 0.3", "sigma = 0.3\nheight = 2.0\ncutoff = 1.0")
                     + "\n[theory]\nalpha_up = 0.5\n")
        text = parse_config(str(p)).resolved_text()
        assert "cutoff = 1.0\nheight = 2.0\nshape = gaussian\nsigma = 0.3\n" in text
        assert "[theory]\nalpha_up = 0.5\n" in text

    def test_zero_cutoff_is_a_one_cell_kernel(self, tmp_path):
        p = tmp_path / "gauss.cfg"
        p.write_text(GAUSSIAN_CFG.replace("sigma = 0.3", "sigma = 0.3\ncutoff = 0"))
        assert np.count_nonzero(parse_config(str(p)).params.competition.values) == 1

    def test_snapshot_beyond_horizon(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("snapshot_times = 0.5 1.0", "snapshot_times = 2.0"))
        with pytest.raises(ConfigError):
            parse_config(str(p))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "dimension", "1.0"),
            ("model", "grid_cells", "100.7"),
            ("run", "runs", "2.9"),
            ("run", "seed", "1.5"),
            ("run", "population_cap", "1e6"),
            ("run", "population_cap", "0"),
            ("run", "population_cap", "-3"),
            ("stats", "pair_bins", "24.5"),
            ("scaling", "eps_list", "1 half"),
            ("hierarchy", "slice_offsets", "0 0.4x"),
            ("run", "snapshot_times", "0.5 one"),
            ("model", "mortality", "nan"),
            ("model", "torus_side", "inf"),
            ("initial", "density", "nan"),
            ("run", "dt", "nan"),
            ("scaling", "eps_list", "1 nan"),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, section, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(with_key(BASE_CFG, section, key, value))
        assert main(["analyze", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"error-category: config: [{section}] {key}: not " in err

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("run", "seed", "-1", "[run] seed: not nonnegative: '-1'"),
            ("scaling", "eps_list", "", "[scaling] eps_list: not at least one number: ''"),
            ("run", "snapshot_times", "1.0 0.5 1", "[run] snapshot_times: 1.0 is repeated"),
            ("run", "dt", "0", "[run] dt: not positive: '0'"),
            ("run", "horizon", "-1", "[run] horizon: not nonnegative: '-1'"),
            ("run", "runs", "0", "[run] runs: not at least 1: '0'"),
            ("kernel.dispersal", "shape", "gausian",
             "[kernel.dispersal] shape: not one of indicator, gaussian, tabulated, zero: 'gausian'"),
            ("initial", "kind", "tabel", "[initial] kind: not one of constant, table: 'tabel'"),
            ("hierarchy", "closure", "kirkwod",
             "[hierarchy] closure: not one of mean-field, kirkwood: 'kirkwod'"),
            ("model", "dimension", "4", "[model] dimension: not 1, 2 or 3: '4'"),
            ("model", "torus_side", "-1", "[model] torus_side: not positive: '-1'"),
            ("model", "grid_cells", "1", "[model] grid_cells: not at least 2: '1'"),
            ("model", "mortality", "-1", "[model] mortality: not nonnegative: '-1'"),
            ("model", "epsilon", "1.5", "[model] epsilon: not in [0, 1]: '1.5'"),
            ("kernel.dispersal", "radius", "0", "[kernel.dispersal] radius: not positive: '0'"),
            ("kernel.dispersal", "height", "-1", "[kernel.dispersal] height: not positive: '-1'"),
            ("kernel.competition", "sigma", "0", "[kernel.competition] sigma: not positive: '0'"),
            ("kernel.competition", "height", "0", "[kernel.competition] height: not positive: '0'"),
            ("kernel.competition", "cutoff", "-1", "[kernel.competition] cutoff: not nonnegative: '-1'"),
            ("initial", "density", "-1", "[initial] density: not nonnegative: '-1'"),
        ],
    )
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, section, key, value, message):
        # the competition kernel's rows are those of a gaussian
        text = GAUSSIAN_CFG if section == "kernel.competition" else BASE_CFG
        p = tmp_path / "bad.cfg"
        p.write_text(with_key(text, section, key, value))
        assert main(["analyze", "--config", str(p)]) == 2
        assert f"error-category: config: {message}" in capsys.readouterr().err

    def test_negative_seed_override_is_config_error(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg_path, "--out", out, "--seed", "-1"]) == 2
        assert "error-category: config: [run] seed: not nonnegative: '-1'" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_pair_bins_below_one_is_config_error(self, tmp_path, capsys, value):
        p = tmp_path / "bad.cfg"
        p.write_text(with_key(BASE_CFG, "stats", "pair_bins", value))
        assert main(["analyze", "--config", str(p)]) == 2
        assert f"error-category: config: [stats] pair_bins: not at least 1: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "closure, argv",
        [
            ("kirkwod", ["kinetic"]),
            ("kirkwod", ["hierarchy"]),
            ("mean-field", ["hierarchy", "--closure", "kirkwod"]),
            ("mean-field", ["simulate", "--runs", "2.5"]),
        ],
        ids=["kinetic-file", "hierarchy-file", "hierarchy-flag", "simulate-flag"],
    )
    def test_misspelled_closure_or_flag_is_config_error(self, tmp_path, capsys, closure, argv):
        # every command checks the file's closure, and a flag's text is checked as the file's is
        p = tmp_path / "bad.cfg"
        p.write_text(with_key(BASE_CFG, "hierarchy", "closure", closure))
        out = str(tmp_path / "o")
        assert main([argv[0], "--config", str(p), "--out", out, *argv[1:]]) == 2
        message = ("[run] runs: not an integer: '2.5'" if "--runs" in argv
                   else "[hierarchy] closure: not one of mean-field, kirkwood: 'kirkwod'")
        assert capsys.readouterr().err == f"error-category: config: {message}\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "text, section, key",
        [
            (GAUSSIAN_CFG.replace("sigma = 0.3", "sigma = 0.3\nradius = 1.0"), "kernel.competition", "radius"),
            (BASE_CFG.replace("radius = 0.5", "radius = 0.5\nsigma = 0.3", 1), "kernel.dispersal", "sigma"),
            (ZERO_CFG.replace("shape = zero", "shape = zero\nheight = 1.0"), "kernel.competition", "height"),
            (BASE_CFG.replace("density = 0.5", "density = 0.5\nfile = rho0.csv"), "initial", "file"),
            (TABLE_CFG.replace("file = rho0.csv", "file = rho0.csv\ndensity = 0.5"), "initial", "density"),
        ],
        ids=["gaussian-radius", "indicator-sigma", "zero-height", "constant-file", "table-density"],
    )
    def test_unused_key_is_config_error(self, tmp_path, capsys, text, section, key):
        # a key the run does not read would have no effect and no line in resolved.cfg
        np.savetxt(tmp_path / "rho0.csv", np.full(50, 0.5), delimiter=",")
        p = tmp_path / "unused.cfg"
        p.write_text(text)
        out = str(tmp_path / "o")
        assert main(["kinetic", "--config", str(p), "--out", out]) == 2
        assert capsys.readouterr().err == f"error-category: config: unused config keys: [{section}] {key}\n"
        assert not os.path.exists(out)

    def test_every_default_is_an_accepted_value(self):
        # a bad table entry fails here, not in a user's run
        for section, keys in _KEYS.items():
            for key, (kind, default, *_) in keys.items():
                assert kind is str or kind in _NOT, (section, key)
                if default is not None:
                    _value(section, key, default)

    def test_table_initial(self, tmp_path):
        vals = 0.2 + 0.1 * np.arange(50) / 50.0
        np.savetxt(tmp_path / "rho0.csv", vals, delimiter=",")
        p = tmp_path / "table.cfg"
        p.write_text(TABLE_CFG)
        cfg = parse_config(str(p))
        assert np.allclose(cfg.rho0.values, vals)

    def test_non_finite_table_cell_is_config_error(self, tmp_path, capsys):
        # and the other faults of an initial table: a wrong length, a negative cell
        p = tmp_path / "table.cfg"
        p.write_text(TABLE_CFG)
        out = str(tmp_path / "o")
        for size, cell, message in [
            (50, np.nan, "initial table has a non-finite value"),
            (49, 0.5, "initial table has 49 values, grid needs 50"),
            (50, -0.5, "initial density must be nonnegative"),
        ]:
            vals = np.full(size, 0.5)
            vals[7] = cell
            np.savetxt(tmp_path / "rho0.csv", vals, delimiter=",")
            assert main(["kinetic", "--config", str(p), "--out", out]) == 2
            assert f"error-category: config: {message}" in capsys.readouterr().err
            assert not os.path.exists(out)

    def test_non_finite_kernel_file_is_rejected(self, tmp_path, capsys):
        # and a file without two columns
        p = tmp_path / "tab.cfg"
        p.write_text(BASE_CFG.replace(
            "[kernel.dispersal]\nshape = indicator\nheight = 1.0\nradius = 0.5",
            "[kernel.dispersal]\nshape = tabulated\nfile = a.csv",
        ))
        out = str(tmp_path / "o")
        for table, message in [
            ("0.0,1.0\n0.25,nan\n0.5,1.0\n", "tabulated values must be finite"),
            ("0.0,1.0,1.0\n0.5,1.0,1.0\n", f"{tmp_path / 'a.csv'}: expected two columns (offset, value)"),
        ]:
            (tmp_path / "a.csv").write_text(table)
            assert main(["kinetic", "--config", str(p), "--out", out]) == 2
            assert f"error-category: invalid-parameter: {message}" in capsys.readouterr().err
            assert not os.path.exists(out)


class TestCommands:
    def test_simulate_outputs(self, cfg_path, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg_path, "--out", out]) == 0
        for f in ("snapshots.csv", "summary.csv", "manifest.json", "resolved.cfg"):
            assert os.path.exists(os.path.join(out, f))
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["command"] == "simulate"
        summary = read(os.path.join(out, "summary.csv")).splitlines()
        assert summary[0] == "run,t,N"
        assert len(summary) == 1 + 4 * 2  # runs x snapshot times

    def test_simulate_reruns_byte_identical(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg_path, "--out", out1])
        main(["simulate", "--config", cfg_path, "--out", out2])
        for f in ("snapshots.csv", "summary.csv", "runs.csv", "manifest.json", "resolved.cfg"):
            assert read(os.path.join(out1, f)) == read(os.path.join(out2, f))

    def test_simulate_runs_table(self, cfg_path, tmp_path):
        out = str(tmp_path / "sim")
        assert main(["simulate", "--config", cfg_path, "--out", out, "--events"]) == 0
        lines = read(os.path.join(out, "runs.csv")).splitlines()
        assert lines[0] == (
            "run,n0,n_end,peak_n,events,proposals,births,natural_deaths,competition_deaths,"
            "absorbed,max_audit_drift"
        )
        table = np.loadtxt(os.path.join(out, "runs.csv"), delimiter=",", skiprows=1, ndmin=2)
        summary = np.loadtxt(os.path.join(out, "summary.csv"), delimiter=",", skiprows=1)
        assert table[:, 0].tolist() == [0, 1, 2, 3]
        for (run, n0, n_end, peak, events, proposals, births, natural, competition, absorbed,
             drift) in table:
            assert births - natural - competition == n_end - n0
            assert proposals >= events == births + natural + competition > 0
            assert peak >= max(n0, n_end)
            assert n_end == summary[(summary[:, 0] == run) & (summary[:, 1] == 1.0), 2][0]
            assert absorbed == 0 and 0.0 <= drift < 1e-9
            with open(os.path.join(out, f"events_run{int(run):04d}.csv")) as fh:
                kinds = [row.split(",")[1] for row in fh.read().splitlines()[1:]]
            assert [kinds.count(k) for k in ("birth", "death-natural", "death-competition")] == [
                births, natural, competition
            ]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_simulate_event_logs_match_every_cell_oracle(self, tmp_path, dim):
        # each events_runNNNN.csv is its own run's log, row for row and cell for cell;
        # the 1-d runs log more events than one CSV_BLOCK_ROWS block holds
        from slm.microsim import run_ensemble

        cfg = with_key(BASE_CFG, "model", "dimension", str(dim))
        side, cells, horizon = ("400.0", "2000", "20.0") if dim == 1 else ("10.0", "20", "1.0")
        for section, key, value in [("model", "torus_side", side), ("model", "grid_cells", cells),
                                    ("run", "horizon", horizon), ("run", "snapshot_times", horizon),
                                    ("run", "runs", "3")]:
            cfg = with_key(cfg, section, key, value)
        p = tmp_path / "run.cfg"
        p.write_text(cfg)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(p), "--out", str(out), "--events"]) == 0
        c = parse_config(str(p))
        trajectories = run_ensemble(c.rho0, c.params, c.horizon, c.snapshot_times, c.seed, c.runs,
                                    population_cap=c.population_cap, keep_events=True)
        header = ["time", "kind"] + [f"x{i}" for i in range(dim)]
        for r, traj in enumerate(trajectories):
            want = io.StringIO()
            oracles.write_csv(want, header, zip(*traj.event_log))
            assert read(out / f"events_run{r:04d}.csv") == want.getvalue()
        lengths = [len(traj.event_log) for traj in trajectories]
        assert len(set(lengths)) == len(lengths)  # another run's log would not match
        assert max(lengths) > cli.CSV_BLOCK_ROWS if dim == 1 else min(lengths) > 0

    def test_simulate_counts_to_the_horizon(self, tmp_path):
        # runs.csv is the same whatever snapshots are taken before the horizon
        tables = []
        for times in ("0.5 1.0", "0.5", ""):
            p = tmp_path / "run.cfg"
            p.write_text(with_key(BASE_CFG, "run", "snapshot_times", times))
            out = str(tmp_path / f"sim{len(tables)}")
            assert main(["simulate", "--config", str(p), "--out", out]) == 0
            tables.append(read(os.path.join(out, "runs.csv")))
        events = np.loadtxt(io.StringIO(tables[-1]), delimiter=",", skiprows=1, ndmin=2)[:, 4]
        assert events.min() > 0
        assert tables[1] == tables[2] == tables[0]

    def test_simulate_seed_changes_output(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg_path, "--out", out1])
        main(["simulate", "--config", cfg_path, "--out", out2, "--seed", "99"])
        assert read(os.path.join(out1, "snapshots.csv")) != read(
            os.path.join(out2, "snapshots.csv")
        )

    def test_simulate_parallel_matches_serial(self, cfg_path, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--config", cfg_path, "--out", out1])
        main(["simulate", "--config", cfg_path, "--out", out2, "--jobs", "2"])
        for f in ("snapshots.csv", "runs.csv"):
            assert read(os.path.join(out1, f)) == read(os.path.join(out2, f))

    def test_simulate_rejects_fewer_than_one_job(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg_path, "--out", str(out), "--jobs", "0"]) == 2
        assert "error-category: invalid-parameter" in capsys.readouterr().err
        assert not out.exists()

    def test_kinetic_outputs(self, cfg_path, tmp_path):
        out = str(tmp_path / "kin")
        assert main(["kinetic", "--config", cfg_path, "--out", out]) == 0
        fields = read(os.path.join(out, "fields.csv")).splitlines()
        assert fields[0] == "t,cell_index,x0,rho"
        assert len(fields) == 1 + 2 * 50

    def test_kinetic_q_has_no_epsilon(self, tmp_path):
        # q = (<a+> - m)/<a-> = (1 - 0.3)/1 is a steady state of the kinetic
        # equation at every [model] epsilon, which that equation does not read
        cfg = BASE_CFG.replace("mortality = 0.3", "mortality = 0.3\nepsilon = 0.5")
        p = tmp_path / "eps.cfg"
        p.write_text(cfg.replace("density = 0.5", "density = 0.7"))
        out = str(tmp_path / "kin")
        assert main(["kinetic", "--config", str(p), "--out", out]) == 0
        summary = np.loadtxt(os.path.join(out, "summary.csv"), delimiter=",", skiprows=1)
        assert np.all(np.abs(summary[:, 1:4] - 0.7) < 1e-12)
        assert np.all(summary[:, 4] < 1e-12)

    def test_kinetic_without_competition_has_no_q(self, tmp_path):
        # <a-> = 0 leaves q undefined, so the distance to it is nan, not an error
        p = tmp_path / "zero.cfg"
        p.write_text(ZERO_CFG)
        out = str(tmp_path / "kin")
        assert main(["kinetic", "--config", str(p), "--out", out]) == 0
        summary = np.loadtxt(os.path.join(out, "summary.csv"), delimiter=",", skiprows=1)
        assert np.all(np.isnan(summary[:, 4])) and np.all(np.isfinite(summary[:, :4]))

    def test_kinetic_writer_memory_does_not_grow_with_the_table(self, tmp_path, monkeypatch):
        # fields.csv holds 32^3 rows per snapshot, many blocks; the solver must
        # hold each snapshot, but building and writing the tables only one block
        # at a time.  The peak is taken from the end of the solve, above the
        # memory then held, so the solver's own per-snapshot state is not in it
        from slm import kinetic

        cfg = BASE_CFG.replace("dimension = 1", "dimension = 3")
        cfg = cfg.replace("grid_cells = 50", "grid_cells = 32")
        cfg = with_key(with_key(cfg, "run", "horizon", "0.2"), "run", "dt", "0.05")
        solve, held = kinetic.solve_kinetic, []

        def traced_solve(*args):
            snaps = solve(*args)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return snaps

        monkeypatch.setattr(kinetic, "solve_kinetic", traced_solve)
        peaks = []
        for times in ("0.2", "0.05 0.1 0.15 0.2"):
            p = tmp_path / "run.cfg"
            p.write_text(with_key(cfg, "run", "snapshot_times", times))
            out = str(tmp_path / f"o{len(peaks)}")
            tracemalloc.start()
            try:
                assert main(["kinetic", "--config", str(p), "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])
            finally:
                tracemalloc.stop()
        # three more snapshots add 3 * 32^3 rows; the peak after the solve
        # grows by less than one float column of a single snapshot's cells
        assert len(held) == 2 and peaks[1] - peaks[0] < 32**3 * 8
        fields = os.path.join(out, "fields.csv")
        t, cell = np.loadtxt(fields, delimiter=",", skiprows=1, usecols=(0, 1)).T
        assert t.tolist() == np.repeat([0.05, 0.1, 0.15, 0.2], 32**3).tolist()
        assert cell.tolist() == np.tile(np.arange(32**3), 4).tolist()

    def test_hierarchy_outputs(self, cfg_path, tmp_path):
        out = str(tmp_path / "hier")
        assert main(["hierarchy", "--config", cfg_path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "k1.csv"))
        assert os.path.exists(os.path.join(out, "k2_slice.csv"))

    def test_stats_pipeline(self, cfg_path, tmp_path):
        sim = str(tmp_path / "sim")
        out = str(tmp_path / "st")
        main(["simulate", "--config", cfg_path, "--out", sim])
        assert main(["stats", "--config", cfg_path, "--out", out, "--snapshots", sim]) == 0
        for f in ("density.csv", "pairs.csv", "diagnostic.csv"):
            assert os.path.exists(os.path.join(out, f))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_stats_tables_are_the_library_estimates(self, tmp_path, dim):
        # pairs.csv and diagnostic.csv hold, to the bit, what slm.stats gives
        # on the ensemble read back from snapshots.csv
        p = tmp_path / "run.cfg"
        p.write_text(with_key(BASE_CFG, "model", "dimension", str(dim)))
        sim, out = tmp_path / "sim", tmp_path / "st"
        assert main(["simulate", "--config", str(p), "--out", str(sim)]) == 0
        assert main(["stats", "--config", str(p), "--out", str(out), "--snapshots", str(sim)]) == 0
        cfg = parse_config(str(p))
        load = partial(np.loadtxt, delimiter=",", skiprows=1, ndmin=2)
        snaps, summary = load(sim / "snapshots.csv"), load(sim / "summary.csv")
        pairs, diagnostic = load(out / "pairs.csv"), load(out / "diagnostic.csv")
        radius = max(cfg.params.dispersal.support_radius, cfg.params.competition.support_radius)
        edges = default_pair_edges(cfg.grid.side, radius, cfg.pair_bins)
        times = sorted(set(summary[:, 1].tolist()))
        assert diagnostic[:, 0].tolist() == times
        for t, (_, minimal_C, flags) in zip(times, diagnostic):
            at = snaps[snaps[:, 1] == t]
            ensemble = [at[at[:, 0] == r][:, 2:] for r in summary[summary[:, 1] == t, 0]]
            g, se = pair_correlation(ensemble, cfg.grid.side, cfg.grid.dim, edges)
            rows = pairs[pairs[:, 0] == t]
            assert rows[:, 1].tolist() == (0.5 * (edges[:-1] + edges[1:])).tolist()
            assert rows[:, 2].tolist() == g.tolist() and rows[:, 3].tolist() == se.tolist()
            est = estimate_correlations(ensemble, cfg.grid, edges)
            report = subpoisson_diagnostic(est, max(1.5 * est.mean_density, 1e-12))
            assert minimal_C == report.minimal_C
            assert flags == len(report.flagged_cells) + len(report.flagged_bins)

    @pytest.mark.parametrize("sim_dim, stats_dim", [(2, 1), (1, 2)])
    def test_stats_rejects_snapshots_of_another_dimension(
        self, tmp_path, capsys, sim_dim, stats_dim
    ):
        cfgs = {d: tmp_path / f"d{d}.cfg" for d in (1, 2)}
        for d, p in cfgs.items():
            p.write_text(with_key(BASE_CFG, "model", "dimension", str(d)))
        sim, out = tmp_path / "sim", tmp_path / "st"
        assert main(["simulate", "--config", str(cfgs[sim_dim]), "--out", str(sim)]) == 0
        capsys.readouterr()
        argv = ["stats", "--config", str(cfgs[stats_dim]), "--out", str(out), "--snapshots", str(sim)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error-category: error: {sim / 'snapshots.csv'} has {2 + sim_dim} columns, "
            f"but a {stats_dim}-d model needs {2 + stats_dim}\n"
        )
        assert not out.exists()

    def test_stats_counts_extinct_runs(self, tmp_path):
        # subcritical (m > <a+>): some runs die out before the last snapshot
        cfg = BASE_CFG.replace("mortality = 0.3", "mortality = 1.5")
        cfg = cfg.replace("horizon = 1.0", "horizon = 2.0")
        cfg = cfg.replace("snapshot_times = 0.5 1.0", "snapshot_times = 1.0 2.0")
        cfg = cfg.replace("runs = 4", "runs = 20")
        p = tmp_path / "extinct.cfg"
        p.write_text(cfg)
        sim, out = str(tmp_path / "sim"), str(tmp_path / "st")
        assert main(["simulate", "--config", str(p), "--out", sim]) == 0
        assert main(["stats", "--config", str(p), "--out", out, "--snapshots", sim]) == 0
        summary = np.loadtxt(os.path.join(sim, "summary.csv"), delimiter=",", skiprows=1)
        density = np.loadtxt(os.path.join(out, "density.csv"), delimiter=",", skiprows=1)
        last = summary[summary[:, 1] == 2.0, 2]
        assert 0 < np.count_nonzero(last == 0) < len(last)  # the case under test
        for t in (1.0, 2.0):
            mean_n = summary[summary[:, 1] == t, 2].mean()
            k1_hat = density[density[:, 0] == t, 2]
            assert k1_hat.mean() == pytest.approx(mean_n / 10.0, rel=1e-12)

    def test_stats_all_runs_empty(self, tmp_path, capsys):
        cfg = BASE_CFG.replace("mortality = 0.3", "mortality = 20.0")
        cfg = cfg.replace("horizon = 1.0", "horizon = 2.0")
        cfg = cfg.replace("snapshot_times = 0.5 1.0", "snapshot_times = 2.0")
        p = tmp_path / "dead.cfg"
        p.write_text(cfg)
        sim, out = str(tmp_path / "sim"), str(tmp_path / "st")
        assert main(["simulate", "--config", str(p), "--out", sim]) == 0
        assert main(["stats", "--config", str(p), "--out", out, "--snapshots", sim]) == 2
        err = capsys.readouterr().err
        assert "error-category: invalid-parameter" in err and "t=2.0" in err

    def test_scaling_outputs(self, tmp_path):
        cfg = BASE_CFG + "\n[scaling]\neps_list = 1 0.5\n"
        p = tmp_path / "s.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "sc")
        assert main(["scaling", "--config", str(p), "--out", out]) == 0
        report = read(os.path.join(out, "report.csv")).splitlines()
        assert report[0] == "eps,sup_error,mc_se,runs"
        assert len(report) == 3
        assert os.path.exists(os.path.join(out, "plot_manifest.json"))

    def test_scaling_reads_the_run_section(self, tmp_path, monkeypatch):
        # the reference steps at [run] dt to [run] snapshot_times, and microsim averages [run] runs
        from slm import scaling

        solve, simulate, calls = scaling.solve_kinetic, scaling.run_ensemble, []

        def kinetic(rho0, params, horizon, dt, times):
            calls.append((horizon, dt, times))
            return solve(rho0, params, horizon, dt, times)

        def ensemble(rho0, params, horizon, times, seed, runs, **kwargs):
            calls.append((seed, runs))
            return simulate(rho0, params, horizon, times, seed, runs, **kwargs)

        monkeypatch.setattr(scaling, "solve_kinetic", kinetic)
        monkeypatch.setattr(scaling, "run_ensemble", ensemble)
        p = tmp_path / "s.cfg"
        p.write_text(BASE_CFG + "\n[scaling]\neps_list = 1 0.5\n")
        out = str(tmp_path / "sc")
        assert main(["scaling", "--config", str(p), "--out", out, "--mode", "microsim"]) == 0
        assert calls == [(1.0, 0.02, [0.5, 1.0]), (3, 4), (3, 4)]
        assert [row.split(",")[-1] for row in read(os.path.join(out, "report.csv")).splitlines()] == [
            "runs", "4", "4"
        ]

    @pytest.mark.parametrize("mode", ["hierarchy", "microsim"])
    def test_scaling_rejects_eps_outside_unit_interval(self, tmp_path, capsys, mode):
        cfg = BASE_CFG + "\n[scaling]\neps_list = 2 1 -0.5\n"
        p = tmp_path / "s.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "sc")
        assert main(["scaling", "--config", str(p), "--out", out, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "error-category: invalid-parameter: eps must lie in (0, 1], got 2.0" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode", ["hierarchy", "microsim"])
    def test_scaling_rejects_a_model_epsilon_other_than_one(self, tmp_path, capsys, mode):
        cfg = BASE_CFG.replace("mortality = 0.3", "mortality = 0.3\nepsilon = 0.5", 1)
        p = tmp_path / "s.cfg"
        p.write_text(cfg + "\n[scaling]\neps_list = 1 0.5\n")
        out = str(tmp_path / "sc")
        assert main(["scaling", "--config", str(p), "--out", out, "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert "error-category: invalid-parameter" in err and "epsilon = 0.5" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("alpha_up, code", [(5.0, 2), (-1.0, 0), (720.0, 2), (-746.0, 0)])
    def test_analyze_requires_an_admissible_initial_space(self, tmp_path, capsys, alpha_up, code):
        # a+ = 2 a-, so theta = 2 and theta e^alpha_up < 1 needs alpha_up < -ln 2;
        # e^720 overflows, and at -746 W0 and T* underflow to 0
        cfg = BASE_CFG.replace("height = 1.0", "height = 2.0", 1)
        p = tmp_path / "a.cfg"
        p.write_text(cfg + f"\n[theory]\nalpha_up = {alpha_up}\n")
        out = str(tmp_path / "an")
        assert main(["analyze", "--config", str(p), "--out", out]) == code
        captured = capsys.readouterr()
        if code:
            assert "error-category: precondition-violation" in captured.err
            assert "T*" not in captured.out and not os.path.exists(out)
        else:
            assert "theta            : 2" in captured.out and "T*" in captured.out

    def test_analyze_prints_horizon(self, cfg_path, capsys):
        assert main(["analyze", "--config", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "T*" in text and "theta" in text

    def test_analyze_without_dispersal_admits_every_alpha(self, tmp_path, capsys):
        # a+ = 0 gives theta = 0: every alpha* is admissible, and alpha_up defaults to 0
        cfg = BASE_CFG.replace(
            "[kernel.dispersal]\nshape = indicator\nheight = 1.0\nradius = 0.5",
            "[kernel.dispersal]\nshape = zero",
        )
        p = tmp_path / "z.cfg"
        p.write_text(cfg)
        out = tmp_path / "an"
        assert main(["analyze", "--config", str(p), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "theta            : 0\n" in text and "admissible alpha*: all alpha*\n" in text
        rows = read(out / "analysis.csv").splitlines()
        assert rows[0] == "theta,alpha_up,alpha_star_opt,T_star"
        assert rows[1].startswith("0.0,0.0,-1.0,")

    def test_analyze_no_finite_theta_exits_zero(self, tmp_path, capsys):
        cfg = BASE_CFG.replace(
            "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.5",
            "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.25",
        )
        p = tmp_path / "n.cfg"
        p.write_text(cfg)
        assert main(["analyze", "--config", str(p)]) == 0
        assert "no finite theta" in capsys.readouterr().out


class TestOutputPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--events"],
            ["kinetic"],
            ["hierarchy"],
            ["stats", "--snapshots", "SIM"],
            ["scaling"],
            ["analyze"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_manifest_lists_every_written_file(self, tmp_path, argv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG + "\n[scaling]\neps_list = 1 0.5\n")
        sim = str(tmp_path / "sim")
        assert main(["simulate", "--config", str(cfg), "--out", sim]) == 0
        out = str(tmp_path / "out")
        cmd, *rest = [sim if a == "SIM" else a for a in argv]
        assert main([cmd, "--config", str(cfg), "--out", out, *rest]) == 0
        manifest = json.loads(read(os.path.join(out, "manifest.json")))
        assert manifest["command"] == cmd
        written = set(os.listdir(out)) - {"manifest.json", "resolved.cfg"}
        assert written and manifest["files"] == sorted(written)

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["simulate", "--runs", "2", "--seed", "11"], ["snapshots.csv", "summary.csv"]),
            (
                ["hierarchy", "--closure", "kirkwood", "--epsilon", "0.5"],
                ["k1.csv", "k2_slice.csv"],
            ),
        ],
        ids=["simulate", "hierarchy"],
    )
    def test_resolved_cfg_reproduces_override_flags(self, cfg_path, tmp_path, argv, data):
        cmd, *flags = argv
        first, again = str(tmp_path / "first"), str(tmp_path / "again")
        assert main([cmd, "--config", cfg_path, "--out", first, *flags]) == 0
        resolved = os.path.join(first, "resolved.cfg")
        assert main([cmd, "--config", resolved, "--out", again]) == 0
        for f in data:
            assert read(os.path.join(first, f)) == read(os.path.join(again, f))
        assert read(resolved) == read(os.path.join(again, "resolved.cfg"))

    def test_out_root_prefixes_a_relative_out(self, cfg_path, tmp_path, monkeypatch):
        # SLM_OUT_ROOT is joined in front of --out, which an absolute --out ignores
        monkeypatch.setenv("SLM_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", cfg_path, "--out", "rel"]) == 0
        assert (tmp_path / "root" / "rel" / "analysis.csv").exists()
        assert not (tmp_path / "rel").exists()
        assert main(["analyze", "--config", cfg_path, "--out", str(tmp_path / "abs")]) == 0
        assert (tmp_path / "abs" / "analysis.csv").exists()
        assert os.listdir(tmp_path / "root") == ["rel"]


# -0.0, a NaN with a payload, a negative signalling NaN, the smallest subnormal, +-inf
SPECIAL_FLOATS = np.array(
    [0x8000000000000000, 0x7FF8000000000001, 0xFFF0000000000002, 1, 0x7FF0000000000000,
     0xFFF0000000000000],
    dtype=np.uint64,
).view(np.float64)
CELL_VALUES = {
    "float": st.floats(allow_subnormal=True) | st.sampled_from(list(SPECIAL_FLOATS)),
    "int": st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1]),
    "str": st.text("abz-_. 09", max_size=4),
}


@st.composite
def csv_tables(draw):
    """(header, columns, as_rows, cuts): each column repeats values from a
    small pool; as_rows passes the columns as tuples from zip(*rows), and
    the rows between consecutive cuts form one block of the writer."""
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(sorted(CELL_VALUES)), max_size=4))
    columns = []
    for kind in kinds:
        pool = draw(st.lists(CELL_VALUES[kind], min_size=1, max_size=5))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        values = [pool[i] for i in picks]
        columns.append(values if kind == "str" else np.array(values, dtype=f"{kind}64"))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    return [f"c{i}" for i in range(len(kinds))], columns, draw(st.booleans()), cuts


@settings(max_examples=150, deadline=None)
@given(csv_tables(), st.integers(1, 8))
@example((
    ["zeros", "specials", "ints"],
    [np.array([0.0, -0.0, 0.0]), SPECIAL_FLOATS[:3], np.array([-(2**63), 2**63 - 1, -(2**63)])],
    False,
    [],
), 1024)
def test_write_csv_matches_every_cell_oracle(table, block_rows):
    # the writer takes the table in groups of drawn, unequal sizes and cuts each into
    # blocks of at most block_rows rows; the oracle takes whole columns
    header, columns, as_rows, cuts = table
    rows = list(zip(*(np.asarray(col).tolist() for col in columns)))
    if as_rows:
        columns = list(zip(*rows))
    bounds = zip([0, *cuts], [*cuts, len(rows)])
    groups = [[col[start:stop] for col in columns] for start, stop in bounds]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        written = []
        for write, data in ((cli._write_csv, groups), (oracles.write_csv, columns)):
            path = os.path.join(tmp, f"{len(written)}.csv")
            with open(path, "w") as fh:
                write(fh, header, data)
            with open(path, "rb") as fh:
                written.append(fh.read())
    assert written[0] == written[1]


def test_write_csv_repeats_a_scalar_column_on_every_row_of_its_group():
    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", 2)
        cli._write_csv(buf, ["t", "r", "n"], [(0.5, [1, 2, 3], 7), (1.5, [4], 8), (2.5, [], 9)])
    assert buf.getvalue() == "t,r,n\n0.5,1,7\n0.5,2,7\n0.5,3,7\n1.5,4,8\n"


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_example_config(tmp_path, capsys):
    (block,) = re.findall(r"```ini\n(.*?)```", read(README), re.S)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block)
    for cmd, *flags in ["kinetic"], ["hierarchy"], ["scaling", "--mode", "hierarchy"], ["analyze"]:
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd), *flags]) == 0, cmd
    # the mean-field closure's own solution turns negative near t = 1.94
    mean_field = ["--out", str(tmp_path / "mf"), "--closure", "mean-field"]
    assert main(["hierarchy", "--config", str(cfg), *mean_field]) == 2
    assert "error-category: instability" in capsys.readouterr().err


def test_readme_library_example_runs():
    # the documented API, run as a reader would paste it
    section = read(README).split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["slm"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    rho_mean, density = map(float, out.stdout.split())
    assert rho_mean > 0 and density >= 0


@pytest.mark.filterwarnings("error")
def test_k2_slice_rows_name_the_offsets_read(tmp_path):
    # k2 is read at round(r / h) mod M cells; each row names that grid offset at minimum
    # image.  Offsets far beyond the integer range read the cell of their exact residue
    # (r / h = 1e301 is a multiple of the M = 100 cells, 3e301 is 72 above one), with no
    # overflow in a cast
    (block,) = re.findall(r"```ini\n(.*?)```", read(README), re.S)
    cfg = tmp_path / "run.cfg"
    for offsets, cells in ("0.25 -0.3 7.5 100", (2, 3, 25, 0)), ("1e300 -1e300 3e300", (0, 0, 28)):
        cfg.write_text(with_key(block, "hierarchy", "slice_offsets", offsets))
        out = str(tmp_path / f"hier{len(cells)}")
        assert main(["hierarchy", "--config", str(cfg), "--out", out]) == 0
        table = np.loadtxt(os.path.join(out, "k2_slice.csv"), delimiter=",", skiprows=1)
        assert table[:, 0].tolist() == np.repeat([1.0, 2.5, 5.0], len(cells)).tolist()
        assert table[:, 1].tolist() == [k * 0.1 for k in cells] * 3


def test_cli_import_loads_no_scipy(cfg_path, tmp_path):
    # scipy is a test dependency only: the commands run in fresh
    # processes, which must end with no scipy module loaded.  Each command
    # imports its own solver, so `import slm.cli` and a parsed config load
    # none of the solver modules below; `slm simulate`, `slm stats` and
    # `slm analyze`, run first, load no kinetic solver, and `slm kinetic`,
    # run in its own process, none of the first three.
    def loaded_after(commands):
        code = (
            "import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('slm', 'scipy'))\n"
            "from slm.cli import main\n"
            "from slm.config import parse_config\n"
            "cfg, out, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
            "parse_config(cfg)\n"
            "codes, steps = [], [loaded()]\n"
            "for cmd, *flags in commands:\n"
            "    codes.append(main([cmd, '--config', cfg, '--out', f'{out}/{cmd}', *flags]))\n"
            "    steps.append(loaded())\n"
            "print(json.dumps([codes, steps]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["slm"].__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-c", code, cfg_path, str(tmp_path), json.dumps(commands)]
        out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        codes, steps = json.loads(out.stdout.splitlines()[-1])
        assert codes == [0] * len(commands)
        return steps

    steps = loaded_after([
        ["simulate"],
        ["stats", "--snapshots", str(tmp_path / "simulate")],
        ["analyze"],
        ["kinetic"],
        ["hierarchy"],
        ["scaling", "--mode", "hierarchy"],
    ])
    solvers = ["slm.microsim", "slm.stats", "slm.hierarchy", "slm.kinetic", "slm.scaling", "slm.theory"]
    assert set(steps[0]).isdisjoint(solvers)
    assert all("slm.kinetic" not in step for step in steps[1:4])
    assert "slm.kinetic" in steps[4]
    assert [m for m in steps[-1] if m.startswith("scipy")] == []
    assert set(loaded_after([["kinetic"]])[1]).isdisjoint(solvers[:3])


def test_package_loads_each_public_name_from_its_module_on_first_use():
    # `import slm` loads no submodule, so a misspelled name in its table
    # would only fail on first use: every name is checked here
    code = "import sys, slm\nprint(sorted(m for m in sys.modules if m.startswith('slm.')))\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["slm"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
    for name in slm.__all__:
        value = getattr(slm, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    with pytest.raises(AttributeError, match="^module 'slm' has no attribute 'no_such_name'$"):
        slm.no_such_name


class TestFailures:
    def test_config_error_category(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\ndimension = 1\n")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", str(p), "--out", out]) == 2
        assert "error-category: config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--jobs", "x"], "argument --jobs: invalid int value: 'x'"),
            (["scaling", "--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
            (["hierarchy"], "the following arguments are required: --config"),
        ],
        ids=["bad-int", "bad-choice", "missing-config"],
    )
    def test_usage_error_category(self, cfg_path, tmp_path, capsys, argv, message):
        # an option argparse rejects ends in an error-category line, as every other failure does
        out = tmp_path / "o"
        config = [] if "--config" in message else ["--config", cfg_path]
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *config, "--out", str(out), *argv[1:]])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error-category: usage: slm {argv[0]}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("simulate", "[--runs RUNS] [--seed SEED]"),
        ("hierarchy", "[--closure CLOSURE] [--epsilon EPSILON]"),
    ], ids=["simulate", "hierarchy"])
    def test_usage_names_override_flags_by_their_value(self, capsys, command, flags):
        # the flags store under "section:key", which the usage line must not show
        with pytest.raises(SystemExit):
            main([command, "--no-such-flag"])
        assert flags in " ".join(capsys.readouterr().err.split())

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["hierarchy", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""

    def test_blow_up_category(self, tmp_path, capsys):
        cfg = BASE_CFG.replace("height = 1.0\nradius = 0.5\n\n[kernel.competition]",
                               "height = 8.0\nradius = 0.5\n\n[kernel.competition]")
        cfg = cfg.replace(
            "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.5",
            "[kernel.competition]\nshape = zero",
        )
        cfg = cfg.replace("horizon = 1.0", "horizon = 8.0")
        cfg = cfg.replace("snapshot_times = 0.5 1.0", "snapshot_times = 8.0")
        cfg += "\n[run]\npopulation_cap = 300\n"
        # configparser forbids duplicate sections; rebuild instead
        cfg = cfg.replace("\n[run]\npopulation_cap = 300\n", "")
        cfg = cfg.replace("runs = 4", "runs = 1\npopulation_cap = 300")
        p = tmp_path / "boom.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", str(p), "--out", out]) == 2
        assert "error-category: blow-up" in capsys.readouterr().err

    def test_kirkwood_on_an_empty_start_says_k1_has_no_positive_value(self, tmp_path, capsys):
        # an all-zero k1 passes "k1 >= 0 everywhere"; what fails is that no value is positive
        p = tmp_path / "empty.cfg"
        p.write_text(with_key(BASE_CFG, "initial", "density", "0.0"))
        out = tmp_path / "o"
        argv = ["hierarchy", "--config", str(p), "--out", str(out), "--closure", "kirkwood"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error-category: closure-singularity: kirkwood closure: k1 has no positive value (max 0)\n"
        )
        assert not out.exists()

    def test_header_only_summary_is_one_error_line(self, cfg_path, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "summary.csv").write_text("run,t,N\n")
        out = str(tmp_path / "o")
        assert main(["stats", "--config", cfg_path, "--out", out, "--snapshots", str(sim)]) == 2
        err = capsys.readouterr().err
        assert err == f"error-category: error: no summary rows in {sim / 'summary.csv'}\n"

    def test_stats_rejects_counts_that_disagree(self, cfg_path, tmp_path, capsys):
        sim, out = tmp_path / "sim", tmp_path / "o"
        assert main(["simulate", "--config", cfg_path, "--out", str(sim)]) == 0
        summary, snapshots = read(sim / "summary.csv"), read(sim / "snapshots.csv")
        header, first, *rest = summary.splitlines()
        run, t, n = first.split(",")
        total = sum(int(row.split(",")[2]) for row in [first, *rest])
        # a count one too high, then a point of a run that summary.csv does not list
        (sim / "summary.csv").write_text("\n".join([header, f"{run},{t},{int(n) + 1}", *rest]) + "\n")
        edits = [
            f"snapshots.csv and summary.csv disagree at t={float(t)}",
            f"snapshots.csv and summary.csv disagree: {total + 1} rows, "
            f"but summary.csv counts {total}",
        ]
        for err in edits:
            capsys.readouterr()
            assert main(["stats", "--config", cfg_path, "--out", str(out), "--snapshots", str(sim)]) == 2
            assert capsys.readouterr().err == f"error-category: error: {err}\n"
            assert not out.exists()
            (sim / "summary.csv").write_text(summary)
            (sim / "snapshots.csv").write_text(snapshots + f"99,{t},5.0\n")

    @pytest.mark.parametrize("header", ["run,t", "run,t,N,x"])
    def test_stats_rejects_a_summary_of_another_width(self, cfg_path, tmp_path, capsys, header):
        sim = tmp_path / "sim"
        sim.mkdir()
        width = header.count(",") + 1
        row = ",".join(["0"] * width)
        (sim / "summary.csv").write_text(f"{header}\n{row}\n{row}\n")
        out = tmp_path / "o"
        assert main(["stats", "--config", cfg_path, "--out", str(out), "--snapshots", str(sim)]) == 2
        assert capsys.readouterr().err == (
            f"error-category: error: {sim / 'summary.csv'} has {width} columns, "
            "but (run, t, N) needs 3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["hierarchy"], ["scaling", "--mode", "hierarchy"]])
    def test_pair_functions_on_2d_fail_before_allocating(self, tmp_path, capsys, argv):
        # a 64 x 64 grid: the pair function k2 alone would take 4096^2 doubles (134 MB)
        cfg = BASE_CFG.replace("dimension = 1", "dimension = 2")
        cfg = cfg.replace("grid_cells = 50", "grid_cells = 64")
        p = tmp_path / "two.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "o")
        tracemalloc.start()
        try:
            assert main([*argv, "--config", str(p), "--out", out]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert "error-category: invalid-parameter" in err and "1-d tori only" in err
        assert peak < 10e6
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "case",
        ["initial-missing", "initial-text", "kernel-missing", "stats-no-dir",
         "stats-no-snapshots", "stats-text", "stats-nan", "stats-inf", "stats-summary-nan"],
    )
    def test_unreadable_data_file_is_an_error_category(self, tmp_path, capsys, case):
        cfg = TABLE_CFG if case.startswith("initial") else BASE_CFG
        if case == "initial-text":
            (tmp_path / "rho0.csv").write_text("0.5\n" * 20 + "half\n" + "0.5\n" * 29)
        if case == "kernel-missing":
            cfg = with_key(cfg, "kernel.dispersal", "shape", "tabulated")
            cfg = with_key(cfg, "kernel.dispersal", "file", "a.csv")
        p = tmp_path / "run.cfg"
        p.write_text(cfg)
        argv = ["kinetic"]
        if case.startswith("stats"):
            sim = tmp_path / "sim"
            if case != "stats-no-dir":
                assert main(["simulate", "--config", str(p), "--out", str(sim)]) == 0
            if case == "stats-no-snapshots":
                os.remove(sim / "snapshots.csv")
            # one cell of a data row: a t that is not a number, or a coordinate or a
            # count that no point or run can have
            table, col, cell = {
                "stats-text": ("snapshots.csv", 1, "x{}"), "stats-nan": ("snapshots.csv", 2, "nan"),
                "stats-inf": ("snapshots.csv", 2, "-inf"), "stats-summary-nan": ("summary.csv", 2, "nan"),
            }.get(case, (None, None, None))
            if table:
                text = read(sim / table).splitlines()
                cells = text[3].split(",")
                cells[col] = cell.format(cells[col])
                text[3] = ",".join(cells)
                (sim / table).write_text("\n".join(text) + "\n")
            argv = ["stats", "--snapshots", str(sim)]
        out = str(tmp_path / "o")
        capsys.readouterr()
        assert main([argv[0], "--config", str(p), "--out", out, *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        category = "error" if case.startswith("stats") else "config"
        reason = "cannot read "
        if case in ("stats-nan", "stats-inf", "stats-summary-nan"):
            reason = f"{sim / table} has a non-finite value"
        assert len(err) == 1 and err[0].startswith(f"error-category: {category}: {reason}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("case", ["existing-file", "below-a-file", "table-is-a-directory"])
    def test_unwritable_out_is_an_error_category(self, cfg_path, tmp_path, capsys, case):
        # the error names the path that could not be written
        blocker = tmp_path / "file"
        blocker.write_text("")
        out, failed, code = {
            "existing-file": (blocker, blocker, errno.EEXIST),
            "below-a-file": (blocker / "o", blocker / "o", errno.ENOTDIR),
            "table-is-a-directory": (tmp_path / "o", tmp_path / "o" / "fields.csv", errno.EISDIR),
        }[case]
        if code == errno.EISDIR:
            failed.mkdir(parents=True)
        assert main(["kinetic", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error-category: error: cannot write {failed}: {os.strerror(code)}\n"
        )

    def test_failed_write_leaves_nothing_behind(self, cfg_path, tmp_path, capsys):
        # fields.csv is a directory, so the write fails after resolved.cfg:
        # the directory keeps only what it held before the command
        out = tmp_path / "partial"
        (out / "fields.csv").mkdir(parents=True)
        assert main(["kinetic", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error-category: error: cannot write ")
        assert os.listdir(out) == ["fields.csv"]

    def test_failed_write_removes_the_directories_it_made(self, cfg_path, tmp_path, capsys, monkeypatch):
        # a disk that fills midway through fields.csv, below two directories the command makes
        def full(col):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "_cells", full)
        out = tmp_path / "made" / "o"
        assert main(["kinetic", "--config", cfg_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error-category: error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        )
        assert not (tmp_path / "made").exists()

    def test_kinetic_dt_guard_category(self, tmp_path, capsys):
        # slm scaling steps its kinetic reference at [run] dt too
        cfg = BASE_CFG.replace("dt = 0.02", "dt = 5.0")
        p = tmp_path / "dt.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "o")
        for argv in ["kinetic"], ["scaling", "--mode", "hierarchy"], ["scaling", "--mode", "microsim"]:
            assert main([*argv, "--config", str(p), "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error-category: invalid-parameter: dt=5 exceeds the stability guard")
            assert not os.path.exists(out)  # a failed command writes nothing

import json
import os

import numpy as np
import pytest

from slm.cli import main
from slm.config import parse_config
from slm.errors import ConfigError

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
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG + "\n[model]\nmortality_rate = 1\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG + "\n[plotting]\nstyle = fancy\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("mortality = 0.3\n", ""))
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_snapshot_beyond_horizon(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(BASE_CFG.replace("snapshot_times = 0.5 1.0", "snapshot_times = 2.0"))
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_table_initial(self, tmp_path):
        vals = 0.2 + 0.1 * np.arange(50) / 50.0
        np.savetxt(tmp_path / "rho0.csv", vals, delimiter=",")
        p = tmp_path / "table.cfg"
        p.write_text(
            BASE_CFG.replace("kind = constant\ndensity = 0.5", "kind = table\nfile = rho0.csv")
        )
        cfg = parse_config(str(p))
        assert np.allclose(cfg.rho0.values, vals)


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
        for f in ("snapshots.csv", "summary.csv", "manifest.json", "resolved.cfg"):
            assert read(os.path.join(out1, f)) == read(os.path.join(out2, f))

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
        assert read(os.path.join(out1, "snapshots.csv")) == read(
            os.path.join(out2, "snapshots.csv")
        )

    def test_kinetic_outputs(self, cfg_path, tmp_path):
        out = str(tmp_path / "kin")
        assert main(["kinetic", "--config", cfg_path, "--out", out]) == 0
        fields = read(os.path.join(out, "fields.csv")).splitlines()
        assert fields[0] == "t,cell_index,x0,rho"
        assert len(fields) == 1 + 2 * 50

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
        cfg = BASE_CFG + "\n[scaling]\neps_list = 1 0.5\nscaling_runs = 5\n"
        p = tmp_path / "s.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "sc")
        assert main(["scaling", "--config", str(p), "--out", out]) == 0
        report = read(os.path.join(out, "report.csv")).splitlines()
        assert report[0] == "eps,sup_error,mc_se,runs"
        assert len(report) == 3
        assert os.path.exists(os.path.join(out, "plot_manifest.json"))

    def test_analyze_prints_horizon(self, cfg_path, capsys):
        assert main(["analyze", "--config", cfg_path]) == 0
        text = capsys.readouterr().out
        assert "T*" in text and "theta" in text

    def test_analyze_no_finite_theta_exits_zero(self, tmp_path, capsys):
        cfg = BASE_CFG.replace(
            "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.5",
            "[kernel.competition]\nshape = indicator\nheight = 1.0\nradius = 0.25",
        )
        p = tmp_path / "n.cfg"
        p.write_text(cfg)
        assert main(["analyze", "--config", str(p)]) == 0
        assert "no finite theta" in capsys.readouterr().out


class TestFailures:
    def test_config_error_category(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[model]\ndimension = 1\n")
        out = str(tmp_path / "o")
        assert main(["simulate", "--config", str(p), "--out", out]) == 2
        assert "error-category: config" in capsys.readouterr().err

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

    def test_kinetic_dt_guard_category(self, tmp_path, capsys):
        cfg = BASE_CFG.replace("dt = 0.02", "dt = 5.0")
        p = tmp_path / "dt.cfg"
        p.write_text(cfg)
        out = str(tmp_path / "o")
        assert main(["kinetic", "--config", str(p), "--out", out]) == 2
        assert "error-category: invalid-parameter" in capsys.readouterr().err

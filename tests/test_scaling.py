import numpy as np
import pytest

from oracles import unit_mass_indicator

import slm.scaling
from slm.errors import InvalidParameterError
from slm.grid import Grid
from slm.hierarchy import solve_hierarchy
from slm.kinetic import Field, solve_kinetic
from slm.microsim import run_ensemble
from slm.model import ModelParams
from slm.scaling import scaled_params, vlasov_error

# four snapshot times up to T = 1 and a step under the stability guard of the fixtures
TIMES = [0.25, 0.5, 0.75, 1.0]
DT = 0.02


@pytest.fixture
def grid():
    return Grid(1, 10.0, 64)


@pytest.fixture
def params(grid):
    return ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))


@pytest.fixture
def rho0(grid):
    x = grid.centers()
    return Field(grid, 0.4 + 0.1 * np.sin(2 * np.pi * x / grid.side))


class TestScaledParams:
    def test_identity_at_one(self, params, rho0):
        p, r = scaled_params(params, rho0, 1.0)
        assert p.epsilon == params.epsilon
        assert np.array_equal(r.values, rho0.values)

    def test_scaling_direction(self, params, rho0):
        p, r = scaled_params(params, rho0, 0.25)
        assert p.epsilon == pytest.approx(0.25)
        assert np.allclose(r.values, 4.0 * rho0.values)

    def test_multiplicative_composition(self, params, rho0):
        p1, r1 = scaled_params(params, rho0, 0.5)
        p2, r2 = scaled_params(p1, r1, 0.5)
        p, r = scaled_params(params, rho0, 0.25)
        assert p2.epsilon == pytest.approx(p.epsilon)
        assert np.allclose(r2.values, r.values)

    def test_invalid_eps(self, params, rho0):
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                scaled_params(params, rho0, eps)


class TestVlasovError:
    def test_hierarchy_errors_decrease(self, params, rho0):
        report = vlasov_error([1.0, 0.5, 0.1], rho0, params, 1.0, DT, TIMES, runs=0, seed=0)
        assert all(b < a for a, b in zip(report.errors, report.errors[1:]))
        # near-linear decay in eps: the eps = 0.1 error sits well below
        # the eps = 1 error
        assert report.errors[-1] < 0.2 * report.errors[0]

    def test_microsim_mode_runs(self, params, rho0):
        report = vlasov_error(
            [0.5, 0.2], rho0, params, 0.5, DT, [0.125, 0.25, 0.375, 0.5], runs=30, seed=7,
            mode="microsim",
        )
        assert len(report.errors) == 2
        assert all(e >= 0 for e in report.errors)
        assert all(se > 0 for se in report.mc_se)

    def test_microsim_runs_stop_at_the_last_snapshot(self, params, rho0, monkeypatch):
        # the runs are compared at the snapshot times only
        horizons = []

        def ensemble(rho0, params, horizon, *args, **kwargs):
            horizons.append(horizon)
            return run_ensemble(rho0, params, horizon, *args, **kwargs)

        monkeypatch.setattr(slm.scaling, "run_ensemble", ensemble)
        vlasov_error([1.0, 0.5], rho0, params, 1.0, DT, [0.25], runs=2, seed=0, mode="microsim")
        assert horizons == [0.25, 0.25]

    def test_every_solve_steps_at_the_given_dt(self, params, rho0, monkeypatch):
        # the kinetic reference and the hierarchy at each eps, all at the caller's dt and times
        dt, calls = 0.035, []

        def kinetic(rho0, params, horizon, dt, times):
            calls.append(("kinetic", horizon, dt, times))
            return solve_kinetic(rho0, params, horizon, dt, times)

        def hierarchy(state0, rule, params, horizon, dt, times):
            calls.append(("hierarchy", horizon, dt, times))
            return solve_hierarchy(state0, rule, params, horizon, dt, times)

        monkeypatch.setattr(slm.scaling, "solve_kinetic", kinetic)
        monkeypatch.setattr(slm.scaling, "solve_hierarchy", hierarchy)
        vlasov_error([1.0, 0.5], rho0, params, 1.0, dt, TIMES, runs=0, seed=0)
        assert calls == [(name, 1.0, dt, TIMES) for name in ("kinetic", "hierarchy", "hierarchy")]

    def test_eps_list_must_decrease(self, params, rho0):
        with pytest.raises(InvalidParameterError):
            vlasov_error([0.5, 1.0], rho0, params, 1.0, DT, TIMES, runs=0, seed=0)

    @pytest.mark.parametrize("mode", ["hierarchy", "microsim"])
    def test_every_eps_checked_before_the_reference(self, params, rho0, monkeypatch, mode):
        def solve(*args):
            raise AssertionError("kinetic reference solved before eps_list was checked")

        monkeypatch.setattr(slm.scaling, "solve_kinetic", solve)
        for eps_list in ([2.0, 1.0, -0.5], [1.0, 0.5, 0.0], [1.5]):
            with pytest.raises(InvalidParameterError, match="eps must lie in"):
                vlasov_error(eps_list, rho0, params, 1.0, DT, TIMES, runs=2, seed=0, mode=mode)

    @pytest.mark.parametrize("mode", ["hierarchy", "microsim"])
    def test_model_epsilon_other_than_one_is_rejected(self, params, rho0, monkeypatch, mode):
        def solve(*args):
            raise AssertionError("kinetic reference solved before epsilon was checked")

        monkeypatch.setattr(slm.scaling, "solve_kinetic", solve)
        with pytest.raises(InvalidParameterError, match="epsilon = 0.5"):
            vlasov_error(
                [1.0, 0.5], rho0, params.with_epsilon(0.5), 1.0, DT, TIMES, runs=2, seed=0, mode=mode
            )

    @pytest.mark.parametrize("mode", ["hierarchy", "microsim"])
    def test_snapshot_times_checked_before_the_reference(self, params, rho0, monkeypatch, mode):
        def solve(*args):
            raise AssertionError("kinetic reference solved before the snapshot times were checked")

        monkeypatch.setattr(slm.scaling, "solve_kinetic", solve)
        with pytest.raises(InvalidParameterError, match="at least one snapshot time"):
            vlasov_error([1.0, 0.5], rho0, params, 1.0, DT, [], runs=2, seed=0, mode=mode)

    @pytest.mark.parametrize("runs", [1, 0, -5])
    def test_microsim_runs_checked_before_the_reference(self, params, rho0, monkeypatch, runs):
        def solve(*args):
            raise AssertionError("kinetic reference solved before runs was checked")

        monkeypatch.setattr(slm.scaling, "solve_kinetic", solve)
        with pytest.raises(InvalidParameterError, match="at least 2 runs"):
            vlasov_error([1.0, 0.5], rho0, params, 1.0, DT, TIMES, runs=runs, seed=0, mode="microsim")

    def test_unknown_mode(self, params, rho0):
        with pytest.raises(InvalidParameterError):
            vlasov_error([1.0], rho0, params, 1.0, DT, TIMES, runs=0, seed=0, mode="pde")

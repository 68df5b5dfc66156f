from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slm.errors import (
    InvalidIntervalError,
    InvalidParameterError,
    NoInteriorMaximumError,
)
from slm.theory import (
    NormedHierarchyState,
    check_initial_space,
    horizon_T,
    knorm_alpha,
    optimize_alpha,
)


def state(*qs):
    return NormedHierarchyState(tuple(enumerate(qs)))


class TestKnorm:
    def test_flat_orders_alpha_zero(self):
        assert knorm_alpha(state(1.0, 1.0, 1.0), 0.0) == 1.0

    def test_geometric_orders_cancel(self):
        assert knorm_alpha(state(1.0, 2.0, 4.0), -np.log(2.0)) == pytest.approx(1.0)

    def test_poisson_intensity(self):
        kappa = 3.7
        s = state(1.0, kappa, kappa**2)
        assert knorm_alpha(s, -np.log(kappa)) == pytest.approx(1.0)

    @given(
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
        st.floats(-3.0, 3.0),
        st.floats(1e-4, 2.0),
    )
    def test_embedding_monotonicity(self, q1, q2, alpha, step):
        s = state(1.0, q1, q2)
        assert knorm_alpha(s, alpha - step) <= knorm_alpha(s, alpha) + 1e-12

    def test_constant_when_only_order_zero(self):
        s = NormedHierarchyState(((0, 2.0),), k0=2.0)
        assert knorm_alpha(s, -5.0) == knorm_alpha(s, 5.0) == 2.0

    def test_negative_q_rejected(self):
        with pytest.raises(InvalidParameterError):
            NormedHierarchyState(((1, -1.0),))


class TestHorizon:
    def test_symmetric_masses(self):
        assert horizon_T(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_competition_only(self):
        assert horizon_T(-1.0, 0.0, 0.0, 1.0) == pytest.approx(1.0 / np.e)

    def test_dispersal_only(self):
        assert horizon_T(0.0, 2.0, 2.0, 0.0) == pytest.approx(1.0)
        # no competition term, so no e^{-alpha_star} to overflow
        assert horizon_T(-800.0, 0.0, 2.0, 0.0) == 400.0

    def test_interval_validation(self):
        with pytest.raises(InvalidIntervalError):
            horizon_T(1.0, 1.0, 1.0, 1.0)

    def test_zero_denominator(self):
        with pytest.raises(InvalidParameterError):
            horizon_T(0.0, 1.0, 0.0, 0.0)

    def test_positive_and_increasing_in_alpha_up(self):
        t1 = horizon_T(-0.5, 0.5, 1.0, 2.0)
        t2 = horizon_T(-0.5, 1.0, 1.0, 2.0)
        assert 0 < t1 < t2


class TestOptimizeAlpha:
    @pytest.mark.parametrize("alpha_up", [1.0, 0.0, -0.4])
    def test_matches_grid_search(self, alpha_up):
        a_opt, t_max = optimize_alpha(alpha_up, 1.0, 1.0)
        grid = np.arange(-10.0, alpha_up, 1e-4)
        t_grid = (alpha_up - grid) / (1.0 + np.exp(-grid))
        assert t_max >= t_grid.max() - 1e-6
        assert abs(t_max - t_grid.max()) <= 1e-6

    def test_stationary_point(self):
        a_opt, t_max = optimize_alpha(0.5, 2.0, 0.7)
        for da in (-1e-5, 1e-5):
            assert horizon_T(a_opt + da, 0.5, 2.0, 0.7) <= t_max + 1e-12

    def test_shift_invariance(self):
        # shifting both alphas by c while scaling <a-> by e^c keeps T_max
        _, t1 = optimize_alpha(1.0, 1.0, 1.0)
        c = 0.7
        _, t2 = optimize_alpha(1.0 + c, 1.0, np.exp(c) * 1.0)
        assert t1 == pytest.approx(t2, rel=1e-9)

    @pytest.mark.parametrize(
        "alpha_up, ap, am",
        [(1.0, 1.0, 1.0), (-0.4, 2.0, 0.7), (3.0, 1e-4, 50.0), (-8.0, 40.0, 1e-3), (0.5, 0.0, 2.0)],
    )
    def test_matches_lambertw(self, alpha_up, ap, am):
        from scipy.special import lambertw

        a_opt, t_max = optimize_alpha(alpha_up, ap, am)
        w = lambertw(ap * np.exp(alpha_up - 1.0) / am).real
        assert a_opt == pytest.approx(alpha_up - 1.0 - w, rel=1e-13, abs=1e-13)
        assert t_max == horizon_T(a_opt, alpha_up, ap, am)

    @pytest.mark.parametrize("alpha_up", [-40.0, -720.0, -746.0, -1000.0])
    def test_extreme_alpha_up(self, alpha_up):
        # below z = 2^-53, W0(z) = z to double precision; e^{-alpha_star}
        # overflows past -alpha_star = 709.78, where T* falls to subnormals and 0
        from scipy.special import lambertw

        ap, am = 1.1, 0.9
        a_opt, t_max = optimize_alpha(alpha_up, ap, am)
        w = lambertw(ap * np.exp(alpha_up - 1.0) / am).real
        assert a_opt == alpha_up - 1.0 - w
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(alpha_up) - Decimal(a_opt)
            exact /= Decimal(ap) + Decimal(am) * Decimal(-a_opt).exp()
        assert t_max == pytest.approx(float(exact), rel=1e-12, abs=1e-320)

    def test_no_interior_maximum(self):
        with pytest.raises(NoInteriorMaximumError):
            optimize_alpha(1.0, 1.0, 0.0)


class TestInitialSpace:
    def test_examples(self):
        assert check_initial_space(1.0, -0.1)
        assert not check_initial_space(1.0, 0.0)  # strict inequality
        assert check_initial_space(0.5, np.log(2.0) - 0.01)

    def test_theta_positive_required(self):
        with pytest.raises(InvalidParameterError):
            check_initial_space(0.0, 0.0)

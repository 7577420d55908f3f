import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from swlw.grid import ComplexGridFn, Grid, RealGridFn, sample
from swlw.oracle import DECAY_THRESHOLD, TravelingWave, wave_speed


class TestWaveSpeed:
    def test_reference_value(self):
        # independently: 2c = 1 + sqrt(1 + (a/3)(1+6a)) at a = -1/12
        a = -1.0 / 12.0
        ref = 0.5 * (1.0 + math.sqrt(1.0 + (a / 3.0) * (1.0 + 6.0 * a)))
        assert ref == pytest.approx(0.9965156369922077, abs=1e-15)
        assert wave_speed(a) == pytest.approx(ref, abs=5e-7)

    def test_endpoints_are_unit_speed(self):
        assert wave_speed(0.0) == pytest.approx(1.0, abs=1e-15)
        assert wave_speed(-1.0 / 6.0) == pytest.approx(1.0, abs=1e-15)

    def test_piecewise_monotone_with_interior_minimum(self):
        # c(alpha) dips to a single interior minimum near alpha = -1/12
        alphas = np.linspace(-1.0 / 6.0, 0.0, 201)
        c = np.array([wave_speed(a) for a in alphas])
        k = int(np.argmin(c))
        assert 0 < k < len(c) - 1
        assert np.all(np.diff(c[:k + 1]) <= 0)
        assert np.all(np.diff(c[k:]) >= 0)
        res = minimize_scalar(wave_speed, bounds=(-1 / 6, 0),
                              method="bounded")
        assert res.x == pytest.approx(-1.0 / 12.0, abs=1e-6)

    def test_radicand_positive_on_all_reals(self):
        # 1 + (a/3)(1 + 6a) = 2a^2 + a/3 + 1 has negative discriminant,
        # so the speed formula is defined for every real alpha
        for a in (-100.0, -1.0, 0.0, 1.0, 100.0):
            assert wave_speed(a) >= 0.5


class TestTravelingWave:
    def test_alpha_range_enforced(self):
        for bad in (0.1, -0.2):
            with pytest.raises(ValueError):
                TravelingWave(alpha=bad)

    def test_model_params_relations(self):
        w = TravelingWave(alpha=-0.05)
        p = w.model_params()
        assert p.beta == -1.0
        assert p.gamma == pytest.approx(w.alpha / 2.0)
        assert p.lam == 0.5

    def test_crest_values(self):
        w = TravelingWave(alpha=-1.0 / 12.0, omega=0.0, x0=3.0)
        u, v = w.evaluate(3.0, 0.0)
        assert abs(u) == pytest.approx(w.amplitude_u, rel=1e-14)
        assert v == pytest.approx(w.amplitude_v, rel=1e-14)
        assert v == pytest.approx(12.0 * w.c_star, rel=1e-14)

    def test_crest_travels_at_speed_c(self):
        w = TravelingWave(alpha=-1.0 / 12.0, x0=0.0)
        t = 2.5
        u, v = w.evaluate(w.c * t, t)
        assert abs(u) == pytest.approx(w.amplitude_u, rel=1e-14)
        assert v == pytest.approx(w.amplitude_v, rel=1e-14)

    def test_satisfies_continuous_pde(self):
        """Plug the wave into the PDE with high-order finite differences.

        Only omega = 0 is exact: for omega != 0 the published closed form
        does not satisfy the dispersion relation of the short-wave
        equation, so the zero-frequency member is the verification target.
        """
        w = TravelingWave(alpha=-1.0 / 12.0, omega=0.0, x0=0.0)
        al = w.alpha
        rng = np.random.default_rng(0)
        xs = rng.uniform(-3, 3, 40)
        ts = rng.uniform(0, 2, 40)
        eps = 1e-4

        def u_f(x, t):
            return w.evaluate(x, t)[0]

        def v_f(x, t):
            return w.evaluate(x, t)[1]

        def dx(f, x, t):
            return (f(x - 2 * eps, t) - 8 * f(x - eps, t)
                    + 8 * f(x + eps, t) - f(x + 2 * eps, t)) / (12 * eps)

        def dxx(f, x, t):
            return (-f(x - 2 * eps, t) + 16 * f(x - eps, t) - 30 * f(x, t)
                    + 16 * f(x + eps, t) - f(x + 2 * eps, t)) / (12 * eps**2)

        def dt_(f, x, t):
            return (f(x, t - 2 * eps) - 8 * f(x, t - eps)
                    + 8 * f(x, t + eps) - f(x, t + 2 * eps)) / (12 * eps)

        for x, t in zip(xs, ts):
            u, v = w.evaluate(x, t)
            # i u_t + u_xx - alpha v u + |u|^2 u = 0
            r1 = (1j * dt_(u_f, x, t) + dxx(u_f, x, t)
                  - al * v * u + abs(u)**2 * u)
            assert abs(r1) < 1e-6
            # v_t + v_xxx + v v_x - (alpha/2) (|u|^2)_x = 0
            h3 = 1e-3
            vxxx = (v_f(x + 2 * h3, t) - 2 * v_f(x + h3, t)
                    + 2 * v_f(x - h3, t) - v_f(x - 2 * h3, t)) / (2 * h3**3)
            usq_x = dx(lambda x_, t_: abs(u_f(x_, t_))**2, x, t)
            r2 = dt_(v_f, x, t) + vxxx + v * dx(v_f, x, t) - al / 2 * usq_x
            assert abs(r2) < 1e-4  # nested FD loses a few digits

    def test_time_derivative_matches_fd(self):
        w = TravelingWave(alpha=-0.05, omega=0.4, x0=1.0)
        xs = np.linspace(-4, 4, 31)
        eps = 1e-6
        du, dv = w.time_derivative(xs, 0.7)
        u_p, v_p = w.evaluate(xs, 0.7 + eps)
        u_m, v_m = w.evaluate(xs, 0.7 - eps)
        np.testing.assert_allclose(du, (u_p - u_m) / (2 * eps),
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(dv, (v_p - v_m) / (2 * eps),
                                   rtol=0, atol=1e-8)


class TestGridSampling:
    def test_state_samples_exact_values(self):
        w = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        g = Grid(64, 70.0)
        s = w.state(g, 0.0, x_left=-20.0)
        a = g.active
        ue, ve = w.evaluate(g.x[a] - 20.0, 0.0)
        np.testing.assert_allclose(s.u.values[a], ue, rtol=1e-14)
        np.testing.assert_allclose(s.v.values[a], ve, rtol=1e-14)

    def test_initial_state_warns_on_poor_decay(self):
        w = TravelingWave(alpha=-1.0 / 12.0, x0=2.0)
        g = Grid(16, 4.0)  # crest right next to the boundary
        with pytest.warns(UserWarning, match="not decayed"):
            w.initial_state(g)

    def test_initial_state_silent_on_wide_window(self):
        # v decays below threshold on [-20, 50] with crest at 15; the u
        # envelope decays half as fast and still trips the warning, so use
        # a wider window where both tails are below DECAY_THRESHOLD
        w = TravelingWave(alpha=-1.0 / 12.0, x0=45.0)
        g = Grid(64, 120.0)
        for xb in (-15.0, 105.0):
            ub, vb = w.evaluate(xb, 0.0)
            assert max(abs(ub), abs(vb)) <= DECAY_THRESHOLD
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w.initial_state(g, x_left=-15.0)

    def test_relative_error_zero_on_exact_state(self):
        w = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        g = Grid(128, 70.0)
        s = w.state(g, 0.3, x_left=-20.0)
        e = w.relative_l2_error(s, x_left=-20.0)
        assert e["err_u"] == 0.0
        assert e["err_v"] == 0.0

    def test_relative_error_normalization(self):
        # doubling the numerical field yields relative error exactly 1
        from swlw.dynamics import State
        from swlw.grid import ComplexGridFn, RealGridFn
        w = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        g = Grid(128, 70.0)
        s = w.state(g, 0.0, x_left=-20.0)
        doubled = State(0.0, ComplexGridFn(g, 2 * s.u.values),
                        RealGridFn(g, 2 * s.v.values))
        e = w.relative_l2_error(doubled, x_left=-20.0)
        assert e["err_u"] == pytest.approx(1.0, rel=1e-12)
        assert e["err_v"] == pytest.approx(1.0, rel=1e-12)

    def test_l2_norms_match_continuum(self):
        # discrete mass of the sampled wave ~ closed-form continuum L2 norm
        w = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        g = Grid(2000, 70.0)
        s = w.state(g, 0.0, x_left=-20.0)
        from swlw.grid import norm_p
        ref = np.sqrt(quad(lambda x: abs(w.evaluate(x, 0.0)[0])**2,
                           -20, 50, limit=200)[0])
        assert norm_p(s.u, 2) == pytest.approx(ref, rel=1e-6)


class TestArrayState:
    """``TravelingWave.state`` evaluates the closed form once on the node
    array; it must agree with the per-node definition through
    ``grid.sample``."""

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(-1.0 / 6.0, 0.0),
           omega=st.floats(-2.0, 2.0),
           x0=st.floats(-50.0, 50.0),
           t=st.floats(0.0, 5.0),
           x_left=st.floats(-50.0, 50.0),
           J=st.integers(6, 600),
           L=st.floats(1.0, 100.0))
    def test_matches_per_node_sampling(self, alpha, omega, x0, t, x_left, J,
                                       L):
        w = TravelingWave(alpha=alpha, omega=omega, x0=x0)
        g = Grid(J, L)
        s = w.state(g, t, x_left)
        u = sample(lambda x: w.evaluate(x + x_left, t)[0], g,
                   cls=ComplexGridFn)
        v = sample(lambda x: w.evaluate(x + x_left, t)[1], g, cls=RealGridFn)
        assert s.t == t
        assert isinstance(s.u, ComplexGridFn) and isinstance(s.v, RealGridFn)
        np.testing.assert_array_equal(s.u.values, u.values)
        assert np.max(np.abs(s.v.values - v.values)) \
            <= 2 * np.spacing(w.amplitude_v)
        ghosts = [0, 1, J, J + 1]
        assert not np.any(s.u.values[ghosts])
        assert not np.any(s.v.values[ghosts])

    def test_nonfinite_wave_names_first_node(self):
        w = TravelingWave(alpha=-1.0 / 12.0, x0=math.nan)
        g = Grid(20, 10.0)
        with pytest.raises(ValueError, match=r"node j=2, x=") as ei:
            w.state(g, 0.0)
        assert f"x={g.x[2]}" in str(ei.value)
        with pytest.raises(ValueError, match=r"node j=2,"):
            w.initial_state(g, x_left=-5.0)

import numpy as np
import pytest
from scipy.linalg import expm

from swlw.dynamics import (BlowUpError, ModelParams, State, energy,
                           integrate_semidiscrete, rhs, rk4_step,
                           stability_budget)
from swlw.grid import ComplexGridFn, Grid, RealGridFn, norm_p, sample
from swlw.oracle import TravelingWave
from swlw.truncation import TruncationFamily


def bump_state(grid, scale_u=1.0, scale_v=1.0, t=0.0):
    u = sample(lambda x: scale_u * np.exp(-(x - grid.L / 2)**2)
               * np.exp(0.3j * x), grid, cls=ComplexGridFn)
    v = sample(lambda x: scale_v * np.exp(-0.5 * (x - grid.L / 2)**2),
               grid, cls=RealGridFn)
    return State(t, u, v)


def dense_operators(grid):
    """Dense Laplacian and third-difference matrices on the active range."""
    n = grid.J - 2
    h = grid.h
    lap = np.zeros((n, n))
    d3 = np.zeros((n, n))
    for i in range(n):
        lap[i, i] = -2 / h**2
        if i > 0:
            lap[i, i - 1] = 1 / h**2
            d3[i, i - 1] = 2 / (2 * h**3)
        if i < n - 1:
            lap[i, i + 1] = 1 / h**2
            d3[i, i + 1] = -2 / (2 * h**3)
        if i > 1:
            d3[i, i - 2] = -1 / (2 * h**3)
        if i < n - 2:
            d3[i, i + 2] = 1 / (2 * h**3)
    return lap, d3


class TestModelParams:
    def test_state_grid_mismatch(self):
        u = ComplexGridFn.zeros(Grid(8, 1.0))
        v = RealGridFn.zeros(Grid(10, 1.0))
        with pytest.raises(ValueError):
            State(0.0, u, v)


class TestRhs:
    def test_zero_state_is_fixed_point(self):
        g = Grid(16, 5.0)
        s = State(0.0, ComplexGridFn.zeros(g), RealGridFn.zeros(g))
        du, dv = rhs(s, ModelParams(-0.1, -1.0, -0.05, 0.5))
        assert np.all(du.values == 0)
        assert np.all(dv.values == 0)

    def test_linear_parts_match_dense_matrices(self):
        # beta = alpha = lam = 0: du/dt = i Lap u, dv/dt = -D3 v exactly
        g = Grid(20, 4.0)
        s = bump_state(g)
        params = ModelParams(0.0, 0.0, 0.0, 0.0)
        du, dv = rhs(s, params)
        lap, d3 = dense_operators(g)
        a = g.active
        np.testing.assert_allclose(du.values[a], 1j * lap @ s.u.values[a],
                                   rtol=1e-13)
        np.testing.assert_allclose(dv.values[a], -d3 @ s.v.values[a],
                                   rtol=1e-12, atol=1e-14)

    def test_traveling_wave_satisfies_semidiscrete_system(self):
        # rhs on the sampled exact wave ~ its analytic time derivative,
        # up to the O(h^2) spatial truncation error (refine: error / 4)
        wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        params = wave.model_params()
        errs = []
        for J in (250, 500):
            g = Grid(J, 70.0)
            s = wave.state(g, 0.0, x_left=-20.0)
            du, dv = rhs(s, params)
            eu, ev = wave.time_derivative(g.x[g.active] - 20.0, 0.0)
            errs.append(max(np.max(np.abs(du.values[g.active] - eu)),
                            np.max(np.abs(dv.values[g.active] - ev))))
        assert errs[1] < errs[0] / 3.0


class TestRk4:
    def test_free_schrodinger_matches_expm(self):
        # alpha = beta = 0, v = 0: exact flow of u is expm(i t Lap)
        g = Grid(16, 10.0)
        params = ModelParams(0.0, 0.0, 0.0, 1.0)
        s0 = bump_state(g, scale_v=0.0)
        lap, _ = dense_operators(g)
        a = g.active
        T = 0.02
        prop = expm(1j * T * lap)
        exact = prop @ s0.u.values[a]
        errs = []
        for dt in (8e-4, 4e-4):
            s = s0
            for _ in range(round(T / dt)):
                s = rk4_step(s, params, dt)
            errs.append(np.max(np.abs(s.u.values[a] - exact)))
        # fourth order: halving dt shrinks the error ~16x
        assert errs[0] / errs[1] > 8.0
        assert errs[1] < 1e-10

    def test_airy_flow_matches_expm(self):
        # u = 0, lam = 0: dv/dt = -D3 v is linear, exact flow expm(-t D3)
        g = Grid(16, 10.0)
        params = ModelParams(0.0, 0.0, 0.0, 0.0)
        s0 = bump_state(g, scale_u=0.0)
        _, d3 = dense_operators(g)
        a = g.active
        T = 0.02
        exact = expm(-T * d3) @ s0.v.values[a]
        s = s0
        dt = 4e-4
        for _ in range(round(T / dt)):
            s = rk4_step(s, params, dt)
        assert np.max(np.abs(s.v.values[a] - exact)) < 1e-10

    def test_blowup_detection(self):
        g = Grid(16, 1.0)
        s = bump_state(g, scale_u=50.0, scale_v=50.0)
        params = ModelParams(-0.1, -1.0, -0.05, 0.5)
        with pytest.raises(BlowUpError), np.errstate(all="ignore"):
            st = s
            for _ in range(200):
                st = rk4_step(st, params, 1.0)  # wildly unstable on purpose


class TestInvariants:
    wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)

    def params(self):
        return self.wave.model_params()

    def initial(self, J=128):
        g = Grid(J, 70.0)
        return self.wave.state(g, 0.0, x_left=-20.0)

    def test_mass_energy_drift_small_and_fourth_order(self):
        s0 = self.initial()
        params = self.params()
        T = 0.1
        drifts = []
        for dt in (0.05, 0.025):
            _, diags = integrate_semidiscrete(s0, params, dt, T)
            m = np.asarray(diags.mass)
            e = np.asarray(diags.energy)
            drifts.append((np.max(np.abs(m - m[0])),
                           np.max(np.abs(e - e[0]))))
        assert drifts[0][0] <= 1e-8      # mass drift, coarse dt
        assert drifts[0][1] <= 1e-6      # energy drift, coarse dt
        # RK4 drift is O(dt^4): halving dt shrinks it ~16x
        assert 8.0 <= drifts[0][0] / drifts[1][0] <= 32.0
        assert 8.0 <= drifts[0][1] / drifts[1][1] <= 32.0

    def test_q_drift_vanishes_with_h(self):
        params = self.params()
        drifts = []
        for J in (64, 128, 256):
            g = Grid(J, 70.0)
            s0 = self.wave.state(g, 0.0, x_left=-20.0)
            _, diags = integrate_semidiscrete(s0, params, 1e-3, 0.05)
            q = np.asarray(diags.q_invariant)
            drifts.append(np.max(np.abs(q - q[0])))
        assert drifts[0] > drifts[1] > drifts[2]

    def test_energy_quadrature_against_reference(self):
        # independently recompute E with plain Python sums
        s = self.initial(J=64)
        p = self.params()
        g = s.grid
        h = g.h
        u, v = s.u.values, s.v.values
        tr = p.trunc
        e = p.gamma * sum(abs((u[j + 1] - u[j]) / h)**2 * h
                          for j in range(1, g.J))
        e += 0.5 * p.alpha * sum(abs((v[j + 1] - v[j]) / h)**2 * h
                                 for j in range(1, g.J))
        e += 0.5 * p.beta * p.gamma * sum(abs(u[j])**4 * h
                                          for j in range(2, g.J))
        e += p.alpha * p.gamma * sum(tr.coupling(v[j]) * abs(u[j])**2 * h
                                     for j in range(2, g.J))
        e -= p.alpha * p.lam * sum(tr.flux_antiderivative(v[j]) * h
                                   for j in range(2, g.J))
        assert energy(s, p) == pytest.approx(e, rel=1e-12)

    def test_truncated_energy_matches_on_bounded_data(self):
        s = self.initial(J=64)
        p_off = self.params()
        p_on = self.wave.model_params(trunc=TruncationFamily.active(10.0))
        assert energy(s, p_on) == energy(s, p_off)


class TestIntegrateDriver:
    def test_budget_enforced(self):
        g = Grid(32, 10.0)
        s = bump_state(g)
        params = ModelParams(-0.1, -1.0, -0.05, 0.5)
        with pytest.raises(ValueError):
            integrate_semidiscrete(s, params, 10 * stability_budget(g), 1.0)

    def test_sampling_counts_and_final_time(self):
        g = Grid(32, 10.0)
        s = bump_state(g)
        params = ModelParams(-0.1, -1.0, -0.05, 0.5)
        dt = 0.5 * stability_budget(g)
        T = 20 * dt
        final, diags = integrate_semidiscrete(s, params, dt, T,
                                              sample_every=5)
        assert final.t == pytest.approx(T)
        # samples at t=0 plus every 5th of 20 steps
        assert len(diags.times) == 5
        assert diags.times[-1] == pytest.approx(T)

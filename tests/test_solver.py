import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlw import solver
from swlw.dynamics import ModelParams, State, mass
from swlw.grid import ComplexGridFn, Grid, RealGridFn, norm_p, sample
from swlw.oracle import TravelingWave
from swlw.solver import (NonConvergenceError, Pentadiag, SingularSystemError,
                         SolverConfig, Tridiag, _kdv_residual, kdv_jacobian,
                         kdv_update, run, schrodinger_update, solve_tridiag,
                         step)
from swlw.truncation import TruncationFamily


def tridiag_dense(system):
    n = len(system.diag)
    A = np.zeros((n, n), dtype=np.result_type(system.diag, system.lower))
    A[np.arange(n), np.arange(n)] = system.diag
    A[np.arange(1, n), np.arange(n - 1)] = system.lower
    A[np.arange(n - 1), np.arange(1, n)] = system.upper
    return A


def penta_dense(p):
    n = p.n
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = p.d0
    A[np.arange(1, n), np.arange(n - 1)] = p.dm1
    A[np.arange(n - 1), np.arange(1, n)] = p.dp1
    A[np.arange(2, n), np.arange(n - 2)] = p.dm2
    A[np.arange(n - 2), np.arange(2, n)] = p.dp2
    return A


def diag_dominant_tridiag(rng, n, complex_=False):
    def draw(k):
        x = rng.normal(size=k)
        return x + 1j * rng.normal(size=k) if complex_ else x
    lo, up = draw(n - 1), draw(n - 1)
    d = draw(n)
    d += (np.sign(d.real) + (d.real == 0)) * (np.abs(lo).max(initial=0)
                                              + np.abs(up).max(initial=0)
                                              + 1.0)
    return Tridiag(lo, d, up)


def diag_dominant_penta(rng, n):
    bands = [rng.normal(size=k) for k in (n - 2, n - 1, n, n - 1, n - 2)]
    mag = sum(np.abs(b).max(initial=0) for b in bands[:2] + bands[3:])
    bands[2] += np.sign(bands[2]) * (mag + 1.0) + (bands[2] == 0) * (mag + 1.0)
    return Pentadiag(*bands)


class TestBandedSolvers:
    def test_tridiag_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for k in range(100):
            n = int(rng.integers(3, 51))
            sys_ = diag_dominant_tridiag(rng, n, complex_=bool(k % 2))
            b = rng.normal(size=n) + (1j * rng.normal(size=n) if k % 2 else 0)
            x = solve_tridiag(sys_, b)
            ref = np.linalg.solve(tridiag_dense(sys_), b)
            assert np.max(np.abs(x - ref)) <= 1e-10 * max(1, np.abs(ref).max())

    def test_tridiag_singular_raises(self):
        sys_ = Tridiag(np.zeros(2), np.zeros(3), np.zeros(2))
        with pytest.raises(SingularSystemError):
            solve_tridiag(sys_, np.ones(3))

    def test_tridiag_rhs_length_check(self):
        sys_ = Tridiag(np.ones(2), 4 * np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            solve_tridiag(sys_, np.ones(4))

    def test_penta_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            p = diag_dominant_penta(rng, n)
            A = penta_dense(p)
            b = rng.normal(size=n)
            x = p.solve(b)
            ref = np.linalg.solve(A, b)
            assert np.max(np.abs(x - ref)) <= 1e-10 * max(1, np.abs(ref).max())

    def test_penta_factor_idempotent_and_reusable(self):
        rng = np.random.default_rng(2)
        p = diag_dominant_penta(rng, 20)
        A = penta_dense(p)
        p.factor()
        assert p.factored
        p.factor()  # no-op
        for _ in range(3):
            b = rng.normal(size=20)
            np.testing.assert_allclose(A @ p.solve(b), b, rtol=0, atol=1e-10)

    def test_penta_singular_raises(self):
        p = Pentadiag(np.zeros(3), np.zeros(4), np.zeros(5),
                      np.zeros(4), np.zeros(3))
        with pytest.raises(SingularSystemError):
            p.factor()

    def test_penta_band_length_check(self):
        with pytest.raises(ValueError):
            Pentadiag(np.zeros(3), np.zeros(3), np.zeros(5),
                      np.zeros(4), np.zeros(3))

    # the reduction pads to 2**L - 1 (block) rows: cover both sides of
    # each padding edge as well as the smallest systems
    EDGE_SIZES = list(range(1, 10)) + [m + d for m in (16, 32, 64)
                                       for d in (-1, 0, 1)]

    @pytest.mark.parametrize("n", EDGE_SIZES)
    @pytest.mark.parametrize("complex_", [False, True])
    def test_tridiag_edge_sizes_match_dense_oracle(self, n, complex_):
        rng = np.random.default_rng(n)
        sys_ = diag_dominant_tridiag(rng, n, complex_=complex_)
        b = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_ else 0)
        ref = np.linalg.solve(tridiag_dense(sys_), b)
        x = solve_tridiag(sys_, b)
        assert x.shape == (n,)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [n for n in EDGE_SIZES if n >= 2])
    def test_penta_edge_sizes_match_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        p = diag_dominant_penta(rng, n)
        b = rng.normal(size=n)
        ref = np.linalg.solve(penta_dense(p), b)
        x = p.solve(b)
        assert x.shape == (n,)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n,row", [(9, 4), (16, 7), (16, 8), (33, 31)])
    def test_zero_pivot_inside_reports_its_row(self, n, row):
        # a zero row makes the pivot of that row exactly zero in any
        # elimination order, so the error must name it
        rng = np.random.default_rng(4)
        t = diag_dominant_tridiag(rng, n)
        t.diag[row] = 0.0
        t.lower[row - 1] = 0.0
        if row < n - 1:
            t.upper[row] = 0.0
        with pytest.raises(SingularSystemError) as ei:
            solve_tridiag(t, np.ones(n))
        assert ei.value.row == row
        p = diag_dominant_penta(rng, n)
        p.d0[row] = 0.0
        p.dm1[row - 1] = 0.0
        p.dm2[row - 2] = 0.0
        p.dp1[row:row + 1] = 0.0
        p.dp2[row:row + 1] = 0.0
        with pytest.raises(SingularSystemError) as ei:
            p.factor()
        assert ei.value.row == row
        assert not p.factored

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
           complex_=st.booleans())
    def test_band_solves_match_dense_oracle_property(self, n, seed,
                                                     complex_):
        rng = np.random.default_rng(seed)
        sys_ = diag_dominant_tridiag(rng, n, complex_=complex_)
        b = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_ else 0)
        ref = np.linalg.solve(tridiag_dense(sys_), b)
        assert np.max(np.abs(solve_tridiag(sys_, b) - ref)) \
            <= 1e-12 * np.abs(ref).max()
        if n >= 2:
            p = diag_dominant_penta(rng, n)
            b = rng.normal(size=n)
            ref = np.linalg.solve(penta_dense(p), b)
            assert np.max(np.abs(p.solve(b) - ref)) \
                <= 1e-12 * np.abs(ref).max()


class TestLargeEntries:
    """The identity rows that pad the reduction to 2**L - 1 (block) rows
    must clear the pivot floor however large the matrix entries are."""

    SIZES = [5] + [m + d for m in (8, 16, 64) for d in (-1, 0, 1)]

    def test_scaled_tridiag_from_the_report(self):
        sys_ = Tridiag(np.full(4, 1e15), np.full(5, 4e15), np.full(4, 1e15))
        ref = np.linalg.solve(tridiag_dense(sys_), np.ones(5))
        x = solve_tridiag(sys_, np.ones(5))
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("complex_", [False, True])
    def test_scaled_tridiag_matches_dense_oracle(self, n, complex_):
        rng = np.random.default_rng(n)
        t = diag_dominant_tridiag(rng, n, complex_=complex_)
        sys_ = Tridiag(1e15 * t.lower, 1e15 * t.diag, 1e15 * t.upper)
        b = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_ else 0)
        ref = np.linalg.solve(tridiag_dense(sys_), b)
        x = solve_tridiag(sys_, b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", SIZES)
    def test_scaled_penta_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n)
        p = Pentadiag(*[1e15 * b for b in diag_dominant_penta(rng, n).bands])
        b = rng.normal(size=n)
        ref = np.linalg.solve(penta_dense(p), b)
        x = p.solve(b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("scale", [1.0, 1e15])
    def test_singular_names_a_row_of_the_matrix(self, n, scale):
        rng = np.random.default_rng(n)
        row = n // 2
        t = diag_dominant_tridiag(rng, n)
        t.diag[row] = t.lower[row - 1] = 0.0
        if row < n - 1:
            t.upper[row] = 0.0
        with pytest.raises(SingularSystemError) as ei:
            solve_tridiag(Tridiag(scale * t.lower, scale * t.diag,
                                  scale * t.upper), np.ones(n))
        assert ei.value.row == row
        p = Pentadiag(*[scale * b for b in diag_dominant_penta(rng, n).bands])
        p.d0[row] = p.dm1[row - 1] = p.dm2[row - 2] = 0.0
        p.dp1[row] = p.dp2[row] = 0.0
        with pytest.raises(SingularSystemError) as ei:
            p.factor()
        assert ei.value.row == row

    def test_run_with_huge_long_wave_is_not_blamed_on_a_pivot(self):
        # the CN matrix carries alpha * 1e100 on its diagonal; its padding
        # rows used to fail the floor and were reported as row -1
        g = Grid(16, 1.0)
        bump = np.sin(np.pi * g.x / g.L)
        s = State(0.0, ComplexGridFn(g, bump), RealGridFn(g, 1e100 * bump))
        params = TravelingWave(alpha=-1.0 / 12.0).model_params()
        u, _ = schrodinger_update(s.u, s.v, params,
                                  SolverConfig(tau=1e-3, T=1.0, tol=1e-8))
        assert np.all(np.isfinite(u.values))


class TestHardSystems:
    """The systems the stepper itself solves at J = 4000, tau = 1e-4.

    There 1/tau = 1e4 while 1/(2h^3) is about 9.3e4, so the KdV Jacobian
    is far from diagonally dominant; only its positive definite symmetric
    part makes elimination without pivoting safe.  The reference is
    LAPACK's partially pivoted band LU, which is the dense LU restricted
    to the band and needs no dense 4000 x 4000 matrix.
    """

    wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
    tau = 1e-4

    def setup_method(self):
        self.g = Grid(4000, 70.0)
        self.s = self.wave.state(self.g, 0.0, x_left=-20.0)
        self.params = self.wave.model_params()

    @staticmethod
    def reference(bands, b):
        from scipy.linalg import solve_banded
        w = len(bands) // 2
        ab = np.zeros((len(bands), len(b)), dtype=np.result_type(*bands))
        for o, band in zip(range(w, -w - 1, -1), bands[::-1]):
            ab[w - o, max(o, 0):len(b) + min(o, 0)] = band
        return solve_banded((w, w), ab, b)

    def test_crank_nicolson_system(self, monkeypatch):
        seen = []

        def capture(system, rhs):
            seen.append((system, rhs))
            return solve_tridiag(system, rhs)
        monkeypatch.setattr(solver, "solve_tridiag", capture)
        schrodinger_update(self.s.u, self.s.v, self.params,
                           SolverConfig(tau=self.tau, T=1.0, tol=1e-8))
        system, rhs = seen[0]
        ref = self.reference((system.lower, system.diag, system.upper), rhs)
        x = solve_tridiag(system, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()

    def test_kdv_jacobian(self):
        g = self.g
        w = self.s.v.values
        usq = np.abs(self.s.u.values)**2
        jac = kdv_jacobian(w, usq, self.params, self.tau, g)
        assert jac.d0[0] < abs(jac.dm2[0]) + abs(jac.dp2[0])
        # the first Newton system of the step, warm-started at v^n
        rhs = -_kdv_residual(w, w, usq, self.params, self.tau, g)
        ref = self.reference(jac.bands, rhs)
        x = jac.solve(rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.abs(ref).max()


class TestSchrodingerUpdate:
    def setup_method(self):
        self.wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        self.params = self.wave.model_params()

    def test_zero_field_shortcut(self):
        g = Grid(16, 5.0)
        u0 = ComplexGridFn.zeros(g)
        v0 = RealGridFn.zeros(g)
        w, iters = schrodinger_update(u0, v0, self.params,
                                      SolverConfig(tau=0.01, T=1.0))
        assert np.all(w.values == 0)
        assert iters == 1

    def test_mass_conserved_to_tolerance(self):
        g = Grid(128, 70.0)
        s = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-3, T=1.0, tol=1e-12)
        w, iters = schrodinger_update(s.u, s.v, self.params, cfg)
        m0 = norm_p(s.u, 2)
        m1 = norm_p(w, 2)
        # exact conservation at the fixed point; the iteration stops at tol
        assert abs(m1 - m0) <= 1e-11
        assert iters >= 2

    def test_free_propagator_matches_expm(self):
        # alpha = beta = 0: one CN step equals the Cayley transform of Lap
        from scipy.linalg import expm
        g = Grid(16, 10.0)
        params = ModelParams(0.0, 0.0, 0.0, 0.0)
        u0 = sample(lambda x: np.exp(-(x - 5)**2) * np.exp(0.5j * x), g,
                    cls=ComplexGridFn)
        v0 = RealGridFn.zeros(g)
        tau = 1e-3
        w, iters = schrodinger_update(u0, v0, params,
                                      SolverConfig(tau=tau, T=1.0, tol=1e-14))
        n = g.J - 2
        h = g.h
        lap = (np.diag(-2 * np.ones(n)) + np.diag(np.ones(n - 1), 1)
               + np.diag(np.ones(n - 1), -1)) / h**2
        eye = np.eye(n)
        cayley = np.linalg.solve(eye - 0.5j * tau * lap,
                                 (eye + 0.5j * tau * lap)
                                 @ u0.values[g.active])
        np.testing.assert_allclose(w.values[g.active], cayley,
                                   rtol=0, atol=1e-13)
        assert iters <= 2

    def test_nonconvergence_raises(self):
        g = Grid(32, 10.0)
        u0 = sample(lambda x: 5 * np.exp(-(x - 5)**2), g, cls=ComplexGridFn)
        v0 = RealGridFn.zeros(g)
        cfg = SolverConfig(tau=0.1, T=1.0, tol=1e-15, max_iter=2)
        with pytest.raises(NonConvergenceError):
            schrodinger_update(u0, v0, self.params, cfg)

    def test_stall_keeps_full_increment_history(self):
        g = Grid(64, 70.0)
        s = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-3, T=1.0, tol=1e-300, max_iter=3)
        with pytest.raises(NonConvergenceError) as ei:
            schrodinger_update(s.u, s.v, self.params, cfg)
        assert len(ei.value.residuals) == 3
        assert "after 3 iterations" in str(ei.value)


class TestKdvUpdate:
    def setup_method(self):
        self.wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)
        self.params = self.wave.model_params()

    def test_jacobian_matches_finite_differences(self):
        g = Grid(16, 10.0)
        rng = np.random.default_rng(3)
        w = np.zeros(g.J + 2)
        w[g.active] = rng.normal(size=g.J - 2)
        usq = np.zeros(g.J + 2)
        usq[g.active] = rng.uniform(0, 2, size=g.J - 2)
        tau = 0.01
        from swlw.solver import _kdv_residual
        vn = np.zeros(g.J + 2)
        jac = penta_dense(kdv_jacobian(w, usq, self.params, tau, g))
        n = g.J - 2
        eps = 1e-6
        fd = np.zeros((n, n))
        for k in range(n):
            wp, wm = w.copy(), w.copy()
            wp[2 + k] += eps
            wm[2 + k] -= eps
            rp = _kdv_residual(wp, vn, usq, self.params, tau, g)
            rm = _kdv_residual(wm, vn, usq, self.params, tau, g)
            fd[:, k] = (rp - rm) / (2 * eps)
        scale = np.abs(fd).max()
        assert np.max(np.abs(jac - fd)) <= 1e-5 * scale

    def test_newton_quadratic_convergence(self):
        g = Grid(128, 70.0)
        s = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-2, T=1.0, tol=1e-14, max_iter=20)
        try:
            kdv_update(s.v, s.u, self.params, cfg)
            residuals = None
        except NonConvergenceError as exc:
            residuals = exc.residuals
        if residuals is None:
            # re-run with a looser tol to capture the increments
            w, it = kdv_update(s.v, s.u, self.params,
                               SolverConfig(tau=1e-2, T=1.0, tol=1e-13,
                                            max_iter=20))
            assert it <= 6
        # a quadratic contraction: each increment ~ square of the previous
        cfg2 = SolverConfig(tau=1e-2, T=1.0, tol=1e-30, max_iter=4)
        with pytest.raises(NonConvergenceError) as ei:
            kdv_update(s.v, s.u, self.params, cfg2)
        r = ei.value.residuals
        assert r[1] < 0.1 * r[0]
        assert r[2] < 0.1 * r[1]

    def test_implicit_euler_matches_dense_oracle_linear(self):
        # lam = 0, u = 0: (I/tau + D3) w = v/tau, solvable densely
        g = Grid(20, 6.0)
        params = ModelParams(0.0, 0.0, 0.0, 0.0)
        v0 = sample(lambda x: np.exp(-(x - 3)**2), g, cls=RealGridFn)
        u0 = ComplexGridFn.zeros(g)
        tau = 1e-3
        w, it = kdv_update(v0, u0, params,
                           SolverConfig(tau=tau, T=1.0, tol=1e-13))
        n = g.J - 2
        h = g.h
        d3 = np.zeros((n, n))
        i2h3 = 1 / (2 * h**3)
        for i in range(n):
            if i > 0:
                d3[i, i - 1] = 2 * i2h3
            if i < n - 1:
                d3[i, i + 1] = -2 * i2h3
            if i > 1:
                d3[i, i - 2] = -i2h3
            if i < n - 2:
                d3[i, i + 2] = i2h3
        ref = np.linalg.solve(np.eye(n) / tau + d3, v0.values[g.active] / tau)
        np.testing.assert_allclose(w.values[g.active], ref, rtol=0, atol=1e-12)


class TestStepAndRun:
    wave = TravelingWave(alpha=-1.0 / 12.0, x0=15.0)

    def test_step_mass_change_tiny(self):
        params = self.wave.model_params()
        g = Grid(128, 70.0)
        s = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-3, T=1.0, tol=1e-10)
        s1, iu, iv = step(s, params, cfg)
        assert abs(mass(s1) - mass(s)) <= 1e-9
        assert s1.t == pytest.approx(1e-3)
        assert iu >= 1 and iv >= 1

    def test_global_first_order_in_time(self):
        # fixed horizon, tau and tau/2: global error ratio ~ 2
        params = self.wave.model_params()
        g = Grid(400, 70.0)
        s0 = self.wave.state(g, 0.0, x_left=-20.0)
        T = 0.1
        finals = []
        for tau in (5e-3, 2.5e-3):
            cfg = SolverConfig(tau=tau, T=T, tol=1e-12)
            final, _ = run(s0, params, cfg, sample_every=10**9)
            finals.append(final)
        # Richardson against the finer run; the coarse-fine gap itself
        # shrinks linearly, so compare both to a much finer reference
        ref, _ = run(s0, params, SolverConfig(tau=6.25e-4, T=T, tol=1e-12),
                     sample_every=10**9)
        errs = [max(np.max(np.abs(f.u.values - ref.u.values)),
                    np.max(np.abs(f.v.values - ref.v.values)))
                for f in finals]
        assert 1.5 <= errs[0] / errs[1] <= 3.0

    def test_run_diagnostics_sampling(self):
        params = self.wave.model_params()
        g = Grid(64, 70.0)
        s0 = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-2, T=0.1, tol=1e-8)
        final, diags = run(s0, params, cfg, sample_every=5)
        assert final.t == pytest.approx(0.1)
        assert len(diags.times) == 3  # t = 0, 0.05, 0.1
        assert diags.inner_iters_u[-1] >= 1

    def test_run_attaches_failure_context(self):
        params = self.wave.model_params()
        g = Grid(64, 70.0)
        s0 = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-2, T=0.1, tol=1e-16, max_iter=2)
        with pytest.raises(NonConvergenceError) as ei:
            run(s0, params, cfg)
        assert ei.value.step_index >= 1
        assert ei.value.diagnostics is not None

    def test_truncation_transparent_when_inactive(self):
        # M far above the solution sup: bitwise-identical trajectory
        g = Grid(64, 70.0)
        s0 = self.wave.state(g, 0.0, x_left=-20.0)
        cfg = SolverConfig(tau=1e-2, T=0.05, tol=1e-10)
        p_off = self.wave.model_params()
        p_on = self.wave.model_params(trunc=TruncationFamily.active(10.0))
        f_off, _ = run(s0, p_off, cfg)
        f_on, _ = run(s0, p_on, cfg)
        assert np.array_equal(f_off.u.values, f_on.u.values)
        assert np.array_equal(f_off.v.values, f_on.v.values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=-1.0, T=1.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=0.1, T=1.0, tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(tau=0.1, T=1.0, max_iter=0)

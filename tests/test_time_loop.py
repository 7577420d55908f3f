"""The single time loop: sampling, failure context and blow-up reporting,
seen from the library drivers and from the CLI."""

import csv

import numpy as np
import pytest

import swlw.solver
from swlw.cli import main
from swlw.dynamics import (BlowUpError, ModelParams, State,
                           integrate_semidiscrete, stability_budget)
from swlw.grid import ComplexGridFn, Grid, RealGridFn
from swlw.harness import cmd_run, parse_config
from swlw.solver import (NonConvergenceError, SolverConfig, kdv_update, run,
                         schrodinger_update)

# 5 steps of tau = 1e-2 sampled every 2nd step: t = 0, 0.02, 0.04, 0.05
ODD_YAML = """
domain: [-20, 50]
J: 64
tau: 1.0e-2
T: 0.05
params: {alpha: -0.0833333333333333, beta: -1.0, gamma: -0.0416666666666667,
         lambda: 0.5}
solver: {tol: 1.0e-10}
initial:
  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}
outputs: {sample_every: 2}
"""

PARAMS = ModelParams(-0.1, -1.0, -0.05, 0.5)


def bump_state(g, scale_u=1.0, scale_v=1.0):
    x = np.arange(g.J + 2) * g.h
    bump = np.zeros(g.J + 2)
    bump[g.active] = np.sin(np.pi * x[g.active] / g.L)
    return State(0.0, ComplexGridFn(g, scale_u * bump + 0j),
                 RealGridFn(g, scale_v * bump))


def poisoned(state, field, value):
    """state with one interior entry of field ('u' or 'v') set to value."""
    arrays = {"u": state.u.values.copy(), "v": state.v.values.copy()}
    arrays[field][5] = value
    g = state.grid
    return State(state.t, ComplexGridFn(g, arrays["u"]),
                 RealGridFn(g, arrays["v"]))


def csv_text(rows, header):
    def fmt(v):
        return str(v) if isinstance(v, int) else format(float(v), ".17g")
    return "\n".join([header] + [",".join(fmt(v) for v in r)
                                 for r in rows]) + "\n"


def read_column(path, name):
    with open(path) as f:
        return [row[name] for row in csv.DictReader(f)]


@pytest.fixture
def odd_config():
    return parse_config(ODD_YAML)


class TestSingleLoop:
    def test_cmd_run_writes_the_diagnostics_of_run(self, odd_config,
                                                   tmp_path):
        cmd_run(odd_config, tmp_path)
        _, diags = run(odd_config.initial_state(), odd_config.params,
                       odd_config.solver_config(), odd_config.sample_every)
        rows = zip(diags.times, diags.mass, diags.q_invariant, diags.energy,
                   diags.v_sup, diags.inner_iters_u, diags.inner_iters_v)
        header = ("t,mass,q_invariant,energy,v_sup,inner_iters_u,"
                  "inner_iters_v")
        assert (tmp_path / "diagnostics.csv").read_text() == \
            csv_text(rows, header)

    def test_errors_sampled_with_diagnostics_and_at_last_step(
            self, odd_config, tmp_path):
        cmd_run(odd_config, tmp_path)
        t_diag = read_column(tmp_path / "diagnostics.csv", "t")
        assert read_column(tmp_path / "errors.csv", "t") == t_diag
        assert [float(t) for t in t_diag] == pytest.approx(
            [0.0, 0.02, 0.04, 0.05], abs=1e-15)

    def test_observe_sees_each_sampled_state(self, odd_config):
        seen = []
        final, diags = run(odd_config.initial_state(), odd_config.params,
                           odd_config.solver_config(), 2,
                           observe=lambda s: seen.append(s.t))
        assert seen == diags.times
        assert final.t == seen[-1]

    def test_failing_rk4_run_carries_step_time_and_diagnostics(self):
        g = Grid(16, 1.0)
        dt = 0.5 * stability_budget(g)
        with pytest.raises(BlowUpError) as ei, np.errstate(all="ignore"):
            integrate_semidiscrete(bump_state(g, scale_u=1e3), PARAMS, dt,
                                   200 * dt)
        exc = ei.value
        assert exc.step_index >= 2
        assert exc.time == exc.t == (exc.step_index - 1) * dt
        assert exc.dt == dt
        assert exc.diagnostics.times[-1] == exc.time
        assert len(exc.diagnostics.times) == exc.step_index

    def test_cli_trailer_names_the_failing_step(self, tmp_path, capsys,
                                                monkeypatch):
        real_step = swlw.solver.step
        calls = []

        def step_failing_third(state, params, cfg):
            calls.append(state.t)
            if len(calls) == 3:
                raise NonConvergenceError("injected iteration", [1.0])
            return real_step(state, params, cfg)

        monkeypatch.setattr(swlw.solver, "step", step_failing_third)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(ODD_YAML.replace("sample_every: 2", "sample_every: 1"))
        assert main(["run", str(cfg), "--output-dir", str(tmp_path),
                     "--quiet"]) == 2
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[-1] == ("# status: failed at step 3: injected iteration "
                             "did not converge: last increment 1.000e+00 "
                             "after 1 iterations")
        assert len(lines) == 1 + 3 + 1  # header, t = 0, 1, 2 tau, trailer


class TestBlowUp:
    def cfg(self):
        return SolverConfig(tau=1e-3, T=1e-2, tol=1e-8, max_iter=50)

    def test_cn_iteration_stops_at_first_nonfinite_increment(self):
        s = poisoned(bump_state(Grid(16, 1.0)), "u", np.nan)
        with pytest.raises(BlowUpError, match="non-finite"), \
                np.errstate(all="ignore"):
            schrodinger_update(s.u, s.v, PARAMS, self.cfg())

    def test_newton_iteration_stops_at_first_nonfinite_increment(self):
        s = poisoned(bump_state(Grid(16, 1.0)), "v", np.inf)
        with pytest.raises(BlowUpError), np.errstate(all="ignore"):
            kdv_update(s.v, s.u, PARAMS, self.cfg())

    def test_run_reports_blowup_with_context(self):
        s = poisoned(bump_state(Grid(16, 1.0)), "v", np.nan)
        with pytest.raises(BlowUpError) as ei, np.errstate(all="ignore"):
            run(s, PARAMS, self.cfg())
        exc = ei.value
        assert (exc.step_index, exc.time, exc.t) == (1, 0.0, 0.0)
        assert len(exc.diagnostics.times) == 1
        assert str(exc) == "non-finite state at t=0.0 (dt=0.001)"

    def test_cmd_run_flushes_partial_diagnostics(self, tmp_path, capsys,
                                                 monkeypatch):
        real_step = swlw.solver.step

        def step_poisoned_second(state, params, cfg):
            if state.t > 0.5 * cfg.tau:
                state = poisoned(state, "u", np.nan)
            return real_step(state, params, cfg)

        monkeypatch.setattr(swlw.solver, "step", step_poisoned_second)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(ODD_YAML)
        with np.errstate(all="ignore"):
            code = main(["run", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "solver failure: non-finite state at t=0.01" in \
            capsys.readouterr().err
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[-1].startswith("# status: failed at step 2: non-finite")
        assert len(lines) == 3  # header, t = 0, trailer

    def test_conserve_rk4_blowup_exits_two(self, tmp_path, capsys):
        g = Grid(16, 1.0)
        s = bump_state(g, scale_u=1e3)
        np.savez(tmp_path / "big.npz", u=s.u.values, v=s.v.values)
        dt = 0.5 * stability_budget(g)
        cfg = tmp_path / "conserve.yaml"
        cfg.write_text(f"""
L: 1.0
J: 16
tau: {dt!r}
T: {200 * dt!r}
params: {{alpha: -0.1, beta: -1.0, gamma: -0.05, lambda: 0.5}}
initial: {{file: {tmp_path / 'big.npz'}}}
""")
        with np.errstate(all="ignore"):
            code = main(["conserve", str(cfg), "--output-dir", str(tmp_path)])
        assert code == 2
        assert "solver failure: non-finite state" in capsys.readouterr().err

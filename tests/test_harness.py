import dataclasses
import time

import numpy as np
import pytest

from swlw import solver
from swlw.cli import main
from swlw.dynamics import RunDiagnostics, State
from swlw.grid import Grid
from swlw.harness import (CONVERGENCE_HEADER, DIAGNOSTICS_HEADER, ConfigError,
                          cmd_conserve, cmd_converge, cmd_run, cmd_truncate,
                          parse_config)
from swlw.solver import run

GOOD_YAML = """
domain: [-20, 50]
J: 64
tau: 1.0e-2
T: 0.05
params: {alpha: -0.0833333333333333, beta: -1.0, gamma: -0.0416666666666667,
         lambda: 0.5}
initial:
  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}
"""


@pytest.fixture
def good_config():
    return parse_config(GOOD_YAML)


class TestParseConfig:
    def test_good_document(self, good_config):
        c = good_config
        assert c.L == pytest.approx(70.0)
        assert c.x_left == pytest.approx(-20.0)
        assert c.J == 64
        assert c.params.lam == 0.5
        assert not c.params.trunc.is_active
        assert c.wave is not None
        assert c.wave.x0 == 15.0

    def test_plain_L_domain(self):
        c = parse_config(GOOD_YAML.replace("domain: [-20, 50]", "L: 70"))
        assert c.L == 70.0
        assert c.x_left == 0.0

    def test_missing_key_names_path(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config(GOOD_YAML.replace("tau: 1.0e-2\n", ""))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(GOOD_YAML + "\nbogus: 1\n")

    def test_unknown_nested_key_rejected(self):
        bad = GOOD_YAML.replace("lambda: 0.5", "lambda: 0.5, zeta: 1")
        with pytest.raises(ConfigError, match="params.zeta"):
            parse_config(bad)

    def test_domain_order_checked(self):
        with pytest.raises(ConfigError, match="domain"):
            parse_config(GOOD_YAML.replace("[-20, 50]", "[50, -20]"))

    def test_J_validation(self):
        with pytest.raises(ConfigError, match="J"):
            parse_config(GOOD_YAML.replace("J: 64", "J: 4"))

    def test_truncation_level(self):
        c = parse_config(GOOD_YAML + "\ntruncation: {M: 8.0}\n")
        assert c.params.trunc.is_active
        assert c.params.trunc.M == 8.0
        with pytest.raises(ConfigError, match="truncation"):
            parse_config(GOOD_YAML + "\ntruncation: {M: 0.5}\n")

    def test_bad_wave_alpha(self):
        with pytest.raises(ConfigError, match="traveling_wave"):
            parse_config(GOOD_YAML.replace(
                "traveling_wave: {alpha: -0.0833333333333333",
                "traveling_wave: {alpha: 0.5"))

    def test_not_yaml(self):
        with pytest.raises(ConfigError):
            parse_config("{:::")

    def test_initial_file_branch(self, tmp_path):
        npz = tmp_path / "init.npz"
        J = 64
        np.savez(npz, u=np.zeros(J + 2, complex), v=np.zeros(J + 2))
        doc = GOOD_YAML.replace(
            "initial:\n  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}",
            f"initial:\n  file: {npz}")
        c = parse_config(doc)
        assert c.wave is None
        s = c.initial_state()
        assert s.t == 0.0
        assert np.all(s.u.values == 0)


class TestCsvEmission:
    def test_run_writes_both_csvs(self, good_config, tmp_path):
        paths = cmd_run(good_config, tmp_path)
        assert len(paths) == 2
        diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert diag[0] == DIAGNOSTICS_HEADER
        assert len(diag) == 2 + 5  # header + t=0 + 5 sampled steps
        errs = (tmp_path / "errors.csv").read_text().splitlines()
        assert errs[0] == "t,err_u,err_v"
        first = errs[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0  # exact initial data

    def test_determinism_bitwise(self, good_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_run(good_config, a)
        cmd_run(good_config, b)
        assert (a / "diagnostics.csv").read_bytes() == \
            (b / "diagnostics.csv").read_bytes()
        assert (a / "errors.csv").read_bytes() == \
            (b / "errors.csv").read_bytes()

    def test_seventeen_significant_digits(self, good_config, tmp_path):
        cmd_run(good_config, tmp_path)
        row = (tmp_path / "diagnostics.csv").read_text().splitlines()[2]
        mass_str = row.split(",")[1]
        # round-trips exactly through float
        assert format(float(mass_str), ".17g") == mass_str

    def test_converge_csv(self, good_config, tmp_path):
        path, rows = cmd_converge(good_config, [32, 64], tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == CONVERGENCE_HEADER
        assert len(rows) == 2
        assert rows[0][1] > rows[1][1]  # h descending
        assert all(r[8] == "ok" for r in rows)

    def test_converge_needs_two_meshes_and_a_wave(self, good_config):
        with pytest.raises(ValueError):
            cmd_converge(good_config, [64], ".")

    def test_conserve_csvs(self, good_config, tmp_path):
        import dataclasses
        cfg = dataclasses.replace(good_config, tau=1e-3, T=5e-3)
        paths = cmd_conserve(cfg, tmp_path)
        for p in paths:
            assert p.read_text().splitlines()[0] == DIAGNOSTICS_HEADER

    def test_conserve_rejects_unstable_tau(self, good_config, tmp_path):
        import dataclasses
        fine = dataclasses.replace(good_config, J=300)  # budget ~ 5e-3
        with pytest.raises(ValueError, match="budget"):
            cmd_conserve(fine, tmp_path)  # tau=1e-2 > 0.4 h^3

    def test_truncate_rows(self, good_config, tmp_path):
        import dataclasses
        cfg = dataclasses.replace(good_config, T=0.02)
        path, rows = cmd_truncate(cfg, [1.5, 10.0], tmp_path)
        assert path.read_text().splitlines()[0] == \
            "M,v_sup_max,truncation_active,max_state_diff"
        by_M = {r[0]: r for r in rows}
        # v_sup ~ 3 for this wave: M=1.5 is active, M=10 transparent
        assert by_M[1.5][2] == 1
        assert by_M[10.0][2] == 0
        assert by_M[10.0][3] == 0.0
        assert by_M[1.5][3] > 0.0


    def test_truncate_samples_every_step(self, tmp_path):
        # the crest nears a node at step 4, between the samples of
        # sample_every 5: v_sup_max must still see it, and M = 2.9788 (above
        # every sampled sup norm, below the step-4 one) must read active
        doc = GOOD_YAML.replace("T: 0.05", "T: 0.1").replace("x0: 15.0",
                                                             "x0: 15.5")
        rows = {}
        for every in (1, 5):
            cfg = parse_config(doc + f"outputs: {{sample_every: {every}}}\n")
            _, rows[every] = cmd_truncate(cfg, [2.9788], tmp_path)
        assert rows[5] == rows[1]
        (_, v_sup_max, active, _), = rows[5]
        assert v_sup_max >= 2.9788 and active == 1

    @pytest.mark.parametrize("solver_doc",
                             ["{}", "{tol: 1.0e-16, max_iter: 1}"])
    def test_converge_wall_times_lie_within_the_call(self, tmp_path,
                                                     solver_doc):
        # the second solver block fails every mesh: both branches time
        cfg = parse_config(GOOD_YAML + f"solver: {solver_doc}\n")
        t0 = time.perf_counter()
        path, _ = cmd_converge(cfg, [16, 32], tmp_path)
        elapsed = time.perf_counter() - t0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 2
        assert all(0.0 <= float(row[7]) <= elapsed for row in rows)


class TestTruncationActive:
    """``truncation_active`` is 1 exactly when the truncation acted."""

    def test_level_equal_to_the_sup_norm_is_inactive(self, tmp_path):
        # the README wave; at M = max |v| every evaluator stays plain
        cfg = parse_config(GOOD_YAML.replace("J: 64", "J: 250")
                           .replace("tau: 1.0e-2", "tau: 1.0e-3")
                           .replace("T: 0.05", "T: 0.1"))
        _, diags = run(cfg.initial_state(), cfg.params, cfg.solver_config())
        M = max(diags.v_sup)
        _, [(_, v_sup_max, active, diff)] = cmd_truncate(cfg, [M], tmp_path)
        assert v_sup_max == M
        assert diff == 0.0 and active == 0

    def test_newton_overshoot_above_the_sup_norm_is_active(self, tmp_path,
                                                           monkeypatch):
        # at tau = 0.05 the Newton iterates of this bump reach above every
        # accepted state; a level in between is crossed only by an iterate
        x = Grid(32, 20.0).x
        npz = tmp_path / "bump.npz"
        np.savez(npz, u=1.97 * np.exp(-(x - 10.0)**2 + 1j * x),
                 v=3.74 * np.exp(-0.5 * (x - 10.0)**2))
        cfg = parse_config(f"""
L: 20
J: 32
tau: 0.05
T: 0.3
params: {{alpha: 0.3, beta: 0.38, gamma: -0.22, lambda: 1.0}}
solver: {{tol: 1.0e-10}}
initial: {{file: {npz}}}
""")
        peak = []
        residual = solver._kdv_residual

        def record_peak(w, *args):
            peak.append(np.max(np.abs(w)))
            return residual(w, *args)

        monkeypatch.setattr(solver, "_kdv_residual", record_peak)
        _, diags = run(cfg.initial_state(), cfg.params, cfg.solver_config())
        sup = max(diags.v_sup)
        assert max(peak) > sup * (1 + 1e-4)
        M = 0.5 * (sup + max(peak))
        _, [(_, v_sup_max, active, diff)] = cmd_truncate(cfg, [M], tmp_path)
        assert v_sup_max < M
        assert diff > 0.0 and active == 1


class TestCli:
    def write_config(self, tmp_path, text=GOOD_YAML):
        p = tmp_path / "run.yaml"
        p.write_text(text)
        return str(p)

    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", cfg, "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "diagnostics.csv" in out

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", cfg, "--output-dir", str(tmp_path),
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_config_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_config_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "J: 4\n")
        assert main(["run", cfg]) == 1

    def test_solver_failure_exit_two(self, tmp_path, capsys):
        bad = GOOD_YAML + "\nsolver: {tol: 1.0e-16, max_iter: 1}\n"
        cfg = self.write_config(tmp_path, bad)
        assert main(["run", cfg, "--output-dir", str(tmp_path),
                     "--quiet"]) == 2
        assert "solver failure" in capsys.readouterr().err
        # partial diagnostics flushed with a status trailer
        text = (tmp_path / "diagnostics.csv").read_text()
        assert "# status: failed" in text

    def test_converge_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["converge", cfg, "--meshes", "32,64",
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "convergence.csv").exists()

    def test_converge_needs_meshes(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["converge", cfg, "--meshes", "64"]) == 1

    def test_truncate_subcommand(self, tmp_path):
        cfg = self.write_config(tmp_path, GOOD_YAML.replace("T: 0.05",
                                                            "T: 0.02"))
        assert main(["truncate", cfg, "--levels", "10",
                     "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "truncate.csv").exists()

    def test_unknown_subcommand_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_paper_profile_overrides(self, tmp_path, monkeypatch):
        # intercept cmd_run to observe the effective config
        import swlw.cli as cli
        seen = {}

        def fake_run(config, outdir):
            seen["tau"] = config.tau
            seen["T"] = config.T
            return []

        monkeypatch.setattr(cli, "cmd_run", fake_run)
        cfg = self.write_config(tmp_path)
        assert main(["run", cfg, "--profile", "paper", "--quiet"]) == 0
        assert seen["tau"] == 1e-4
        assert seen["T"] == 5.0


class TestBenchmarkHooks:
    """The benchmark wraps ``swlw.solver.step`` and ``swlw.harness.run`` by
    name: every step goes through the first, every command run through
    the second, and each run returns (State, RunDiagnostics)."""

    @pytest.fixture
    def counted(self, monkeypatch):
        import swlw.harness as harness
        import swlw.solver as solver
        steps, runs = [], []
        step, run = solver.step, harness.run

        def counting_step(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        def counting_run(*args, **kwargs):
            result = run(*args, **kwargs)
            runs.append(result)
            return result

        monkeypatch.setattr(solver, "step", counting_step)
        monkeypatch.setattr(harness, "run", counting_run)
        return steps, runs

    def test_truncate_runs_and_steps(self, counted, good_config, tmp_path):
        steps, runs = counted
        cfg = dataclasses.replace(good_config, T=3 * good_config.tau)
        cmd_truncate(cfg, [1.5, 10.0], tmp_path)
        assert len(steps) == 9 and len(runs) == 3
        for result in runs:
            final, diags = result
            assert isinstance(final, State)
            assert isinstance(diags, RunDiagnostics)

    def test_converge_one_run_per_mesh(self, counted, good_config, tmp_path):
        steps, runs = counted
        cfg = dataclasses.replace(good_config, T=3 * good_config.tau)
        cmd_converge(cfg, [64, 32], tmp_path)
        assert len(steps) == 6
        assert [final.grid.J for final, _ in runs] == [32, 64]

"""Bad input is rejected at the boundary as ConfigError (exit code 1, an
``error:`` line naming the key), never as a traceback or a solver
failure."""

import numpy as np
import pytest

from swlw.cli import main
from swlw.harness import ConfigError, parse_config

BASE_YAML = """
domain: [-20, 50]
J: 16
tau: 1.0e-2
T: 0.02
params: {alpha: -0.0833333333333333, beta: -1.0, gamma: -0.0416666666666667,
         lambda: 0.5}
solver: {tol: 1.0e-8}
initial:
  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}
"""


def cli_error(tmp_path, capsys, text, *extra, command="run"):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    code = main([command, str(cfg), "--output-dir", str(tmp_path),
                 "--quiet", *extra])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ")
    return err


def file_config(tmp_path, **arrays):
    path = tmp_path / "initial.npz"
    np.savez(path, **arrays)
    return BASE_YAML.replace(
        "  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}",
        f"  file: {path}")


@pytest.mark.parametrize("missing", ["u", "v"])
def test_npz_without_an_array(tmp_path, capsys, missing):
    arrays = {"u": np.zeros(18, complex), "v": np.zeros(18)}
    del arrays[missing]
    err = cli_error(tmp_path, capsys, file_config(tmp_path, **arrays))
    assert "initial.file" in err and f"'{missing}'" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_npz_with_nonfinite_values(tmp_path, capsys, bad):
    v = np.zeros(18)
    v[7] = bad
    err = cli_error(tmp_path, capsys,
                    file_config(tmp_path, u=np.zeros(18, complex), v=v))
    assert "initial.file" in err and "'v'" in err


def test_fractional_meshes(tmp_path, capsys):
    err = cli_error(tmp_path, capsys, BASE_YAML, "--meshes", "32.7,64.2",
                    command="converge")
    assert "--meshes" in err


def test_nonfinite_levels(tmp_path, capsys):
    err = cli_error(tmp_path, capsys, BASE_YAML, "--levels", "2,nan",
                    command="truncate")
    assert "--levels" in err


def test_nan_tau_on_the_cli(tmp_path, capsys):
    err = cli_error(tmp_path, capsys,
                    BASE_YAML.replace("tau: 1.0e-2", "tau: .nan"))
    assert "'tau'" in err


@pytest.mark.parametrize("old, new, key", [
    ("tau: 1.0e-2", "tau: .nan", "'tau'"),
    ("tau: 1.0e-2", "tau: .inf", "'tau'"),
    ("T: 0.02", "T: .nan", "'T'"),
    ("T: 0.02", "T: .inf", "'T'"),
    ("domain: [-20, 50]", "L: .nan", "'L'"),
    ("domain: [-20, 50]", "L: .inf", "'L'"),
    ("domain: [-20, 50]", "domain: [.nan, 50]", "'domain'"),
    ("domain: [-20, 50]", "domain: [-20, .inf]", "'domain'"),
    ("tol: 1.0e-8", "tol: .nan", "'solver.tol'"),
    ("tol: 1.0e-8", "tol: .inf", "'solver.tol'"),
    ("beta: -1.0", "beta: .nan", "'params.beta'"),
    ("beta: -1.0", "beta: -.inf", "'params.beta'"),
    ("lambda: 0.5", "lambda: .nan", "'params.lambda'"),
    ("alpha: -0.0833333333333333, beta", "alpha: .nan, beta",
     "'params.alpha'"),
    ("gamma: -0.0416666666666667", "gamma: .inf", "'params.gamma'"),
])
def test_nonfinite_numbers_name_their_key(old, new, key):
    assert old in BASE_YAML
    with pytest.raises(ConfigError, match=key):
        parse_config(BASE_YAML.replace(old, new))


def test_non_numeric_param_names_its_key():
    with pytest.raises(ConfigError, match="'params.beta'"):
        parse_config(BASE_YAML.replace("beta: -1.0", "beta: minus one"))

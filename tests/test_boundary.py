"""Bad input is rejected at the boundary as ConfigError (exit code 1, an
``error:`` line naming the key), never as a traceback or a solver
failure."""

import copy

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("old, new, key", [
    ("J: 16", "J: 16\noutputs: {sample_every: 2.5}", "'outputs.sample_every'"),
    ("J: 16", "J: 16\noutputs: {sample_every: .nan}",
     "'outputs.sample_every'"),
    ("J: 16", "J: 16\noutputs: {sample_every: 0}", "'outputs.sample_every'"),
    ("J: 16", "J: 16\noutputs: 5", "'outputs'"),
    ("solver: {tol: 1.0e-8}", "solver: {tol: 1.0e-8, max_iter: 2.7}",
     "'solver.max_iter'"),
    ("solver: {tol: 1.0e-8}", "solver: {tol: 1.0e-8, max_iter: abc}",
     "'solver.max_iter'"),
    ("solver: {tol: 1.0e-8}", "solver: {tol: 1.0e-8, max_iter: true}",
     "'solver.max_iter'"),
    ("solver: {tol: 1.0e-8}", "solver: 5", "'solver'"),
    ("  traveling_wave: {alpha: -0.0833333333333333, x0: 15.0}",
     "  traveling_wave: 5", "'initial.traveling_wave'"),
    ("x0: 15.0}", "x0: .nan}", "'initial.traveling_wave.x0'"),
    ("x0: 15.0}", "x0: 15.0, omega: .inf}", "'initial.traveling_wave.omega'"),
    ("{alpha: -0.0833333333333333, x0", "{alpha: .nan, x0",
     "'initial.traveling_wave.alpha'"),
    ("domain: [-20, 50]", "domain: [-1.0e308, 1.0e308]", "'domain'"),
    ("J: 16", "J: 16\ntruncation: {M: [2]}", "'truncation.M'"),
    ("J: 16", "J: 16\ntruncation: {M: .inf}", "'truncation.M'"),
])
def test_malformed_values_name_their_key(old, new, key):
    assert old in BASE_YAML
    with pytest.raises(ConfigError, match=key):
        parse_config(BASE_YAML.replace(old, new))


def test_params_not_a_mapping():
    doc = yaml.safe_load(BASE_YAML)
    doc["params"] = 5
    with pytest.raises(ConfigError, match="'params'"):
        parse_config(doc)


@pytest.mark.parametrize("old, new, key", [
    ("solver: {tol: 1.0e-8}", "solver: 5", "'solver'"),
    ("solver: {tol: 1.0e-8}", "solver: {tol: 1.0e-8, max_iter: abc}",
     "'solver.max_iter'"),
    ("x0: 15.0}", "x0: .nan}", "'initial.traveling_wave.x0'"),
    ("J: 16", "J: 16\noutputs: 5", "'outputs'"),
])
def test_malformed_values_exit_1_on_the_cli(tmp_path, capsys, old, new, key):
    assert key in cli_error(tmp_path, capsys, BASE_YAML.replace(old, new))


# any YAML-like value: what a malformed document can put at a key
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
_BASE_DOC = yaml.safe_load(BASE_YAML + "outputs: {sample_every: 1}\n"
                           "truncation: {M: 2.0}\n")
_PATHS = sorted({(key,) for key in _BASE_DOC}
                | {(key, sub) for key, value in _BASE_DOC.items()
                   if isinstance(value, dict) for sub in value}
                | {("initial", "traveling_wave", sub)
                   for sub in ("alpha", "omega", "x0")}
                | {("L",), ("initial", "file"), ("outputs", "errors"),
                   ("bogus",)})


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(_PATHS),
                                st.none() | _JUNK.map(lambda v: [v])),
                      min_size=1, max_size=4))
def test_parse_config_raises_only_config_error(edits):
    doc = copy.deepcopy(_BASE_DOC)
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is None:
            parent.pop(path[-1], None)  # a missing key
        else:
            parent[path[-1]] = value[0]
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert cfg.J >= 6 and cfg.max_iter >= 1 and cfg.sample_every >= 1
    assert all(np.isfinite([cfg.L, cfg.x_left, cfg.tau, cfg.T, cfg.tol]))

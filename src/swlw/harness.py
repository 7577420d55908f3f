"""Run configuration, experiment drivers and CSV emission.

Configs are YAML documents; see ``parse_config`` for the schema.  All
numeric CSV fields are written with 17 significant digits and a '.'
decimal separator, so identical configs produce bitwise-identical files.
"""

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .dynamics import (ModelParams, SolverFailure, State,
                       integrate_semidiscrete)
from .grid import ComplexGridFn, Grid, RealGridFn
from .oracle import TravelingWave
from .solver import SolverConfig, run
from .truncation import TruncationFamily

__all__ = ["RunConfig", "ConfigError", "parse_config", "load_config",
           "cmd_run", "cmd_converge", "cmd_conserve", "cmd_truncate",
           "DIAGNOSTICS_HEADER", "CONVERGENCE_HEADER"]

DIAGNOSTICS_HEADER = "t,mass,q_invariant,energy,v_sup,inner_iters_u,inner_iters_v"
CONVERGENCE_HEADER = "J,h,tau,T,err_u,err_v,max_inner_iters,wall_time_s,status"
ERRORS_HEADER = "t,err_u,err_v"
TRUNCATE_HEADER = "M,v_sup_max,truncation_active,max_state_diff"


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key path."""


@dataclass
class RunConfig:
    """Validated run configuration (see ``parse_config`` for the schema)."""
    L: float
    x_left: float
    J: int
    tau: float
    T: float
    params: ModelParams
    tol: float = 1e-6
    max_iter: int = 50
    wave: Optional[TravelingWave] = None
    initial_file: Optional[str] = None
    diagnostics_path: str = "diagnostics.csv"
    errors_path: str = "errors.csv"
    sample_every: int = 1

    def grid(self):
        return Grid(self.J, self.L)

    def solver_config(self):
        return SolverConfig(tau=self.tau, T=self.T, tol=self.tol,
                            max_iter=self.max_iter)

    def initial_state(self):
        g = self.grid()
        if self.wave is not None:
            return self.wave.initial_state(g, self.x_left)
        data = np.load(self.initial_file)
        for key in ("u", "v"):
            if key not in data or not np.all(np.isfinite(data[key])):
                raise ConfigError(f"'initial.file' {self.initial_file}: array "
                                  f"'{key}' is missing or not finite")
        return State(0.0, ComplexGridFn(g, data["u"]), RealGridFn(g, data["v"]))


def _require(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"missing required key '{path}{key}'")
    return mapping[key]


def _check_known(mapping, known, path):
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown key '{path}{key}'")


def _mapping(mapping, key, path, default=None):
    """The sub-mapping at ``key``; a required one when no default is given."""
    value = (_require(mapping, key, path) if default is None
             else mapping.get(key, default))
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}{key}' must be a mapping, got {value!r}")
    return value


def _integer(value, path, minimum):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"'{path}' must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def _number(value, path, positive=False):
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{path}' must be a number, got {value!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"'{path}' must be finite, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"'{path}' must be positive, got {value}")
    return value


def parse_config(doc):
    """Build a RunConfig from a YAML string or an already-parsed mapping.

    Schema (defaults in parentheses)::

        domain: [a, b]          # or  L: <length>  for (0, L)
        J: <int >= 6>
        tau: <float>
        T: <float>
        params: {alpha, beta, gamma, lambda (1.0)}
        truncation: off         # (off)  or  {M: <level>}
        solver: {tol (1e-6), max_iter (50)}
        initial:
          traveling_wave: {alpha, omega (0.0), x0 (0.0)}
          # or  file: <.npz with arrays u, v>
        outputs: {diagnostics (diagnostics.csv), errors (errors.csv),
                  sample_every (1)}
    """
    if isinstance(doc, str):
        try:
            doc = yaml.safe_load(doc)
        except yaml.YAMLError as exc:
            raise ConfigError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _check_known(doc, {"domain", "L", "J", "tau", "T", "params", "truncation",
                       "solver", "initial", "outputs"}, "")

    if "domain" in doc and "L" in doc:
        raise ConfigError("give either 'domain' or 'L', not both")
    if "domain" in doc:
        dom = doc["domain"]
        if not (isinstance(dom, (list, tuple)) and len(dom) == 2):
            raise ConfigError("'domain' must be a two-element list [a, b]")
        a, b = (_number(x, "domain") for x in dom)
        if not 0 < b - a < np.inf:
            raise ConfigError(f"'domain' must satisfy a < b with b - a finite, "
                              f"got [{a}, {b}]")
        L, x_left = b - a, a
    else:
        L, x_left = _number(_require(doc, "L", ""), "L", positive=True), 0.0

    J = _integer(_require(doc, "J", ""), "J", 6)
    tau = _number(_require(doc, "tau", ""), "tau", positive=True)
    T = _number(_require(doc, "T", ""), "T", positive=True)

    p = _mapping(doc, "params", "")
    _check_known(p, {"alpha", "beta", "gamma", "lambda"}, "params.")
    trunc_doc = doc.get("truncation", "off")
    if trunc_doc == "off" or trunc_doc is None or trunc_doc is False:
        trunc = TruncationFamily.off()
    elif isinstance(trunc_doc, dict) and set(trunc_doc) == {"M"}:
        M = _number(trunc_doc["M"], "truncation.M")
        try:
            trunc = TruncationFamily.active(M)
        except ValueError as exc:
            raise ConfigError(f"truncation.M: {exc}") from exc
    else:
        raise ConfigError("'truncation' must be 'off' or a mapping {M: level}")
    coef = {key: _number(_require(p, key, "params."), f"params.{key}")
            for key in ("alpha", "beta", "gamma")}
    params = ModelParams(**coef, trunc=trunc,
                         lam=_number(p.get("lambda", 1.0), "params.lambda"))

    s = _mapping(doc, "solver", "", {})
    _check_known(s, {"tol", "max_iter"}, "solver.")
    tol = _number(s.get("tol", 1e-6), "solver.tol", positive=True)
    max_iter = _integer(s.get("max_iter", 50), "solver.max_iter", 1)

    init = _mapping(doc, "initial", "")
    _check_known(init, {"traveling_wave", "file"}, "initial.")
    wave = initial_file = None
    if "traveling_wave" in init:
        path = "initial.traveling_wave."
        tw = _mapping(init, "traveling_wave", "initial.")
        _check_known(tw, {"alpha", "omega", "x0"}, path)
        alpha = _number(_require(tw, "alpha", path), path + "alpha")
        omega, x0 = (_number(tw.get(key, 0.0), path + key)
                     for key in ("omega", "x0"))
        try:
            wave = TravelingWave(alpha=alpha, omega=omega, x0=x0)
        except ValueError as exc:
            raise ConfigError(f"initial.traveling_wave: {exc}") from exc
    elif "file" in init:
        initial_file = str(init["file"])
    else:
        raise ConfigError("'initial' needs 'traveling_wave' or 'file'")

    out = _mapping(doc, "outputs", "", {})
    _check_known(out, {"diagnostics", "errors", "sample_every"}, "outputs.")
    sample_every = _integer(out.get("sample_every", 1), "outputs.sample_every",
                            1)

    return RunConfig(L=L, x_left=x_left, J=J, tau=tau, T=T, params=params,
                     tol=tol, max_iter=max_iter, wave=wave,
                     initial_file=initial_file,
                     diagnostics_path=str(out.get("diagnostics",
                                                  "diagnostics.csv")),
                     errors_path=str(out.get("errors", "errors.csv")),
                     sample_every=sample_every)


def load_config(path):
    return parse_config(Path(path).read_text())


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path, header, rows, trailer=None):
    lines = [header]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    if trailer is not None:
        lines.append(trailer)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def _diag_rows(diags):
    return list(zip(diags.times, diags.mass, diags.q_invariant, diags.energy,
                    diags.v_sup, diags.inner_iters_u, diags.inner_iters_v))


def cmd_run(config, output_dir="."):
    """Single fully discrete run; writes diagnostics and (when an exact
    wave is configured) per-sample error CSVs.

    Returns the list of files written.  On a solver failure the partial
    diagnostics CSV is flushed with a trailing status row and the error is
    re-raised.
    """
    out = Path(output_dir)
    diag_path = out / config.diagnostics_path
    err_rows = []

    def sample_error(state):
        e = config.wave.relative_l2_error(state, config.x_left)
        err_rows.append((state.t, e["err_u"], e["err_v"]))

    try:
        _, diags = run(config.initial_state(), config.params,
                       config.solver_config(), config.sample_every,
                       observe=None if config.wave is None else sample_error)
    except SolverFailure as exc:
        _write_csv(diag_path, DIAGNOSTICS_HEADER, _diag_rows(exc.diagnostics),
                   trailer=f"# status: failed at step {exc.step_index}: {exc}")
        raise
    _write_csv(diag_path, DIAGNOSTICS_HEADER, _diag_rows(diags))
    written = [diag_path]
    if config.wave is not None:
        err_path = out / config.errors_path
        _write_csv(err_path, ERRORS_HEADER, err_rows)
        written.append(err_path)
    return written


def cmd_converge(config, mesh_list, output_dir=".", csv_name="convergence.csv"):
    """Run the configured problem once per mesh size; emit the report.

    A failing mesh is marked in its status column and the sweep continues.
    Requires an exact wave in the config (errors are measured against it)
    and at least two mesh sizes.
    """
    if len(mesh_list) < 2:
        raise ValueError("need at least two mesh sizes")
    if config.wave is None:
        raise ValueError("convergence study needs a traveling_wave initial")
    rows = []
    for J in sorted(mesh_list):
        grid = Grid(J, config.L)
        t0 = time.perf_counter()
        try:
            initial = config.wave.initial_state(grid, config.x_left)
            final, diags = run(initial, config.params, config.solver_config(),
                               sample_every=10**9)
            err = config.wave.relative_l2_error(final, config.x_left)
            wall = time.perf_counter() - t0
            rows.append((J, grid.h, config.tau, config.T, err["err_u"],
                         err["err_v"],
                         max(max(diags.inner_iters_u), max(diags.inner_iters_v)),
                         wall, "ok"))
        except SolverFailure as exc:
            wall = time.perf_counter() - t0
            rows.append((J, grid.h, config.tau, config.T, np.nan, np.nan, 0,
                         wall, f"failed: {type(exc).__name__}"))
    rows.sort(key=lambda r: -r[1])  # h descending
    path = Path(output_dir) / csv_name
    _write_csv(path, CONVERGENCE_HEADER, rows)
    return path, rows


def cmd_conserve(config, output_dir="."):
    """Semi-discrete RK4 and the fully discrete solver on the same data.

    Emits ``conserve_semidiscrete.csv`` and ``conserve_fullydiscrete.csv``
    (diagnostics schema).  Raises ValueError when tau exceeds the RK4
    stability budget of the grid.
    """
    initial = config.initial_state()
    _, semi = integrate_semidiscrete(initial, config.params, config.tau,
                                     config.T, sample_every=config.sample_every)
    _, full = run(initial, config.params, config.solver_config(),
                  sample_every=config.sample_every)
    out = Path(output_dir)
    paths = (out / "conserve_semidiscrete.csv", out / "conserve_fullydiscrete.csv")
    _write_csv(paths[0], DIAGNOSTICS_HEADER, _diag_rows(semi))
    _write_csv(paths[1], DIAGNOSTICS_HEADER, _diag_rows(full))
    return paths


def cmd_truncate(config, levels, output_dir=".", csv_name="truncate.csv"):
    """Compare truncated runs against the untruncated one.

    Runs the untruncated system once, then once per level M, and reports
    whether the long-wave sup norm stayed below M together with the max
    state difference against the untruncated run.
    """
    if not levels:
        raise ValueError("need at least one truncation level")
    initial = config.initial_state()

    def run_with(trunc):
        return run(initial, replace(config.params, trunc=trunc),
                   config.solver_config(), sample_every=config.sample_every)

    base_final, _ = run_with(TruncationFamily.off())
    rows = []
    for M in levels:
        final, diags = run_with(TruncationFamily.active(M))
        v_sup_max = max(diags.v_sup)
        diff = max(np.max(np.abs(final.u.values - base_final.u.values)),
                   np.max(np.abs(final.v.values - base_final.v.values)))
        rows.append((M, v_sup_max, int(v_sup_max >= M), diff))
    path = Path(output_dir) / csv_name
    _write_csv(path, TRUNCATE_HEADER, rows)
    return path, rows

"""Seeded workload generator, independent exact-wave reference and the
correctness gate.

Every workload propagates the canonical sech/sech^2 traveling wave
(alpha = -1/12, omega = 0, crest x0 = 15, window [-20, 50], tol = 1e-8,
max_iter = 50).  The seed jitters alpha and x0 a little: alpha stays deep
inside [-1/6, 0] and the crest stays at least 34 length units from either
window edge, so the tails are as decayed as in the canonical setup and
the inner-iteration counts do not change.

This module imports nothing from ``swlw``: the reference wave below is
written out from the closed form so that a defect in ``swlw.oracle``
cannot hide itself from the gate.
"""

import csv
import io
import math
import random
from dataclasses import dataclass

CANON_ALPHA = -1.0 / 12.0
CANON_X0 = 15.0
ALPHA_JITTER = 0.01
X0_JITTER = 0.5
DOMAIN = (-20.0, 50.0)
TOL = 1e-8
MAX_ITER = 50

#: truncation levels as multiples of the crest value of v; two below the
#: crest (the blend region is hit) and two above it (bitwise reduction)
LEVEL_MULTIPLES = (0.35, 0.7, 1.4, 3.5)
#: the paper profile is T = 5 at tau = 1e-4
PAPER_STEPS = 50_000
PAPER_MESH = 1000

#: final relative L2 error every workload must stay below
ERR_BOUND = 1e-3
#: program-reported and reference errors must agree to this relative tolerance
ERR_AGREEMENT = 1e-9
#: allowed relative mass drift over a whole run, as a multiple of tol
MASS_DRIFT_TOLS = 10.0

WORKLOADS = ("paper_sweep", "wave_dense", "truncate_sweep")


@dataclass(frozen=True)
class ReferenceWave:
    """Closed-form traveling wave (same formulas as the paper)."""
    alpha: float
    x0: float
    omega: float = 0.0

    @property
    def c(self):
        return 0.5 * (1.0 + math.sqrt(
            1.0 + (self.alpha / 3.0) * (1.0 + 6.0 * self.alpha)))

    @property
    def c_star(self):
        return self.c**2 / 4.0 + self.omega**2

    @property
    def amplitude_v(self):
        return 12.0 * self.c_star

    def fields(self, x, t):
        """Exact (u, v) lists at the physical nodes x and time t."""
        k = math.sqrt(self.c_star)
        amp_u = math.sqrt(2.0 * self.c_star * (1.0 + 6.0 * self.alpha))
        us, vs = [], []
        for xi in x:
            X = xi - self.x0
            sech = 1.0 / math.cosh(k * (X - self.c * t))
            phase = self.omega * t + 0.5 * self.c * X
            us.append(complex(math.cos(phase), math.sin(phase)) * amp_u * sech)
            vs.append(self.amplitude_v * sech * sech)
        return us, vs

    def relative_errors(self, u, v, t, x_left, h):
        """Relative discrete L2 errors of grid arrays u, v (length J+2,
        ghost-padded) over the active range j = 2..J-1."""
        J = len(v) - 2
        x = [x_left + j * h for j in range(2, J)]
        ue, ve = self.fields(x, t)
        du = sum(abs(complex(u[j]) - e)**2 for j, e in zip(range(2, J), ue))
        dv = sum((float(v[j]) - e)**2 for j, e in zip(range(2, J), ve))
        nu = sum(abs(e)**2 for e in ue)
        nv = sum(e * e for e in ve)
        return math.sqrt(du / nu), math.sqrt(dv / nv)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    command: str                 # "converge", "run" or "truncate"
    config: dict                 # YAML mapping handed to swlw.harness
    steps: int                   # time steps per mesh / member
    meshes: tuple = ()
    levels: tuple = ()
    reference: ReferenceWave = None

    @property
    def total_steps(self):
        if self.command == "converge":
            return self.steps * len(self.meshes)
        if self.command == "truncate":
            return self.steps * (len(self.levels) + 1)
        return self.steps


def _config(alpha, x0, J, tau, steps, sample_every=1):
    return {
        "domain": list(DOMAIN),
        "J": J,
        "tau": tau,
        "T": steps * tau,
        "params": {"alpha": alpha, "beta": -1.0, "gamma": alpha / 2.0,
                   "lambda": 0.5},
        "truncation": "off",
        "solver": {"tol": TOL, "max_iter": MAX_ITER},
        "initial": {"traveling_wave": {"alpha": alpha, "omega": 0.0,
                                       "x0": x0}},
        "outputs": {"diagnostics": "diagnostics.csv", "errors": "errors.csv",
                    "sample_every": sample_every},
    }


def make(name, seed):
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    alpha = CANON_ALPHA + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)
    x0 = CANON_X0 + rng.uniform(-X0_JITTER, X0_JITTER)
    ref = ReferenceWave(alpha, x0)
    if name == "paper_sweep":
        # the paper's own tau: 2 CN iterations per step, against 3 at 1e-3
        steps = 20
        return Workload(name, seed, "converge",
                        _config(alpha, x0, PAPER_MESH, 1e-4, steps), steps,
                        meshes=(250, PAPER_MESH, 4000), reference=ref)
    if name == "wave_dense":
        # the README example config, shortened to 100 steps
        steps = 100
        return Workload(name, seed, "run",
                        _config(alpha, x0, 500, 1e-3, steps), steps,
                        reference=ref)
    if name == "truncate_sweep":
        steps = 80
        levels = tuple(max(1.0, m * ref.amplitude_v) for m in LEVEL_MULTIPLES)
        return Workload(name, seed, "truncate",
                        _config(alpha, x0, 250, 1e-3, steps), steps,
                        levels=levels, reference=ref)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# -- correctness gate ----------------------------------------------------

def _check_errors(failures, what, reported, reference):
    for field_name, rep, ref in zip(("err_u", "err_v"), reported, reference):
        if not ref < ERR_BOUND:
            failures.append(f"{what}: {field_name} = {ref:.3e} against the "
                            f"reference wave, bound {ERR_BOUND:g}")
        if rep is not None and not abs(rep - ref) <= ERR_AGREEMENT * ref:
            failures.append(f"{what}: reported {field_name} = {rep!r} but the "
                            f"reference wave gives {ref!r}")


def _check_mass(failures, what, masses):
    m0 = masses[0]
    drift = max(abs(m - m0) for m in masses) / m0
    if not drift <= MASS_DRIFT_TOLS * TOL:
        failures.append(f"{what}: relative mass drift {drift:.3e} exceeds "
                        f"{MASS_DRIFT_TOLS:g} x tol")


def _final_errors(wl, state):
    g = state.grid
    return wl.reference.relative_errors(state.u.values, state.v.values,
                                        state.t, DOMAIN[0], g.h)


def check(wl, out):
    """Correctness checks of one command run.

    ``out`` carries what the run produced: ``rows`` (the command's return
    rows), ``runs`` ((final, diagnostics) of every solver.run call, in
    order), ``last_state`` (the last state solver.step returned), ``steps``
    (solver.step calls) and ``csv`` (file name -> text of every CSV
    written).  Returns the list of failed checks and the (err_u, err_v)
    pair the workload reports.
    """
    failures = []
    if out["steps"] != wl.total_steps:
        failures.append(f"{out['steps']} steps executed, expected "
                        f"{wl.total_steps}")
    if wl.command == "converge":
        errs = _check_converge(wl, out, failures)
    elif wl.command == "run":
        errs = _check_run(wl, out, failures)
    else:
        errs = _check_truncate(wl, out, failures)
    return failures, errs


def _check_converge(wl, out, failures):
    rows = sorted(out["rows"], key=lambda r: r[0])
    if [r[0] for r in rows] != sorted(wl.meshes):
        failures.append(f"converge rows cover meshes {[r[0] for r in rows]}")
        return None
    runs = {final.grid.J: (final, diags) for final, diags in out["runs"]}
    errs = {}
    for row in rows:
        J = row[0]
        if row[8] != "ok":
            failures.append(f"J={J}: status {row[8]!r}")
            continue
        final, diags = runs[J]
        ref = _final_errors(wl, final)
        _check_errors(failures, f"J={J}", (row[4], row[5]), ref)
        _check_mass(failures, f"J={J}", diags.mass)
        errs[J] = ref
    # the paper's convergence property: refining the mesh lowers both errors
    if len(errs) == len(rows):
        for coarse, fine in zip(rows, rows[1:]):
            if not all(f < c for f, c in zip(errs[fine[0]], errs[coarse[0]])):
                failures.append(f"errors do not drop from J={coarse[0]} "
                                f"to J={fine[0]}")
    return errs.get(PAPER_MESH)


def _check_run(wl, out, failures):
    diag = list(csv.DictReader(io.StringIO(out["csv"]["diagnostics.csv"])))
    if len(diag) != wl.steps + 1:
        failures.append(f"diagnostics.csv has {len(diag)} rows, expected "
                        f"{wl.steps + 1}")
    _check_mass(failures, "run", [float(r["mass"]) for r in diag])
    err_rows = list(csv.DictReader(io.StringIO(out["csv"]["errors.csv"])))
    last = err_rows[-1]
    state = out["last_state"]
    ref = _final_errors(wl, state)
    if not abs(float(last["t"]) - wl.steps * wl.config["tau"]) <= 1e-9:
        failures.append(f"errors.csv ends at t={last['t']}")
    _check_errors(failures, "run", (float(last["err_u"]),
                                    float(last["err_v"])), ref)
    return ref


def _check_truncate(wl, out, failures):
    ref = _final_errors(wl, out["runs"][0][0])
    _check_errors(failures, "untruncated run", (None, None), ref)
    for final, diags in out["runs"]:
        _check_mass(failures, "truncate member", diags.mass)
    crest = wl.reference.amplitude_v
    for M, v_sup_max, active, diff in out["rows"]:
        if M > crest:
            if not (active == 0 and diff == 0.0):
                failures.append(f"M={M:.4g} above the crest: active={active}, "
                                f"max_state_diff={diff!r}, expected 0 and 0.0")
        elif active != 1:
            failures.append(f"M={M:.4g} below the crest: active={active}, "
                            f"expected 1")
    return ref


def deterministic_csv(wl, texts):
    """The CSV texts with run-dependent columns removed; two runs of one
    config must give equal results."""
    if wl.command != "converge":
        return texts
    # wall_time_s is a measurement; every other column must repeat
    out = {}
    for name, text in texts.items():
        lines = text.splitlines()
        col = lines[0].split(",").index("wall_time_s")
        out[name] = "\n".join(",".join(c for i, c in enumerate(ln.split(","))
                                       if i != col) for ln in lines)
    return out

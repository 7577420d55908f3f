"""Outside-in instrumentation of ``swlw``.

Nothing under ``src/`` is edited: the benchmark replaces names in the
modules where the callers look them up, and puts the originals back on
exit.  Two instruments use this:

* ``Probe`` is installed on every run, traced or not.  It wraps only
  ``swlw.solver.step`` (to time the first step, count steps, keep the
  last state and take the speed samples of calibration.py) and
  ``swlw.harness.run`` (to keep each run's final state and diagnostics
  for the correctness gate).
* ``Tracer`` is installed on traced command runs only.  It records one
  span (name, start, end, parent) per call into each layer, plus work
  counts computed from the call arguments.  Spans stay in memory until
  ``write``; each traced command run gets a tracer of its own.
"""

import json
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Patches:
    """Set attributes on modules or classes; ``restore`` undoes them."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Probe:
    """First-step time, step count, the states the gate checks, and the
    speed samples taken between steps."""

    def __init__(self, meter):
        self.meter = meter
        self.first_step_ns = self.first_mark = None
        self.steps = 0
        self.last_state = None
        self.runs = []
        self.run_marks = []

    def install(self, swlw_modules):
        solver, harness = swlw_modules["solver"], swlw_modules["harness"]
        patches = Patches()

        def wrap_step(step):
            def probed_step(*args, **kwargs):
                if self.first_step_ns is None:
                    self.first_step_ns = _now()
                    self.first_mark = self.meter.mark()
                self.meter.tick()
                result = step(*args, **kwargs)
                self.steps += 1
                self.last_state = result[0]
                return result
            return probed_step

        def wrap_run(run):
            def probed_run(*args, **kwargs):
                start = self.meter.mark()
                result = run(*args, **kwargs)
                self.runs.append(result)
                self.run_marks.append((start, self.meter.mark()))
                return result
            return probed_run

        # cmd_run imports step from swlw.solver when called, and
        # solver.run looks it up in its module globals
        patches.wrap(solver, "step", wrap_step)
        # harness imported run at import time
        patches.wrap(harness, "run", wrap_run)
        return patches


# -- spans -----------------------------------------------------------------

def _rows_tridiag(args, result):
    return {"solver.solve_tridiag.rows": len(args[1])}


def _rows_pentadiag(args, result):
    return {"solver.pentadiag_solve.rows": args[0].n}


def _points_sample(args, result):
    return {"grid.sample.points": args[1].J - 2}


def _cn_iters(args, result):
    return {"solver.cn_iters": result[1]}


def _newton_iters(args, result):
    return {"solver.newton_iters": result[1]}


TRUNCATION_EVALUATORS = ("flux", "flux_prime", "flux_antiderivative",
                         "coupling", "coupling_prime", "coupling_second")


def traced_names(swlw_modules):
    """(owner, attribute, span name, counter) for every patched name,
    each patched where its callers look it up."""
    solver = swlw_modules["solver"]
    harness = swlw_modules["harness"]
    oracle = swlw_modules["oracle"]
    dynamics = swlw_modules["dynamics"]
    truncation = swlw_modules["truncation"]
    names = [
        (solver, "step", "solver.step", None),
        (solver, "schrodinger_update", "solver.schrodinger_update", _cn_iters),
        (solver, "kdv_update", "solver.kdv_update", _newton_iters),
        (solver, "kdv_jacobian", "solver.kdv_jacobian", None),
        (solver, "solve_tridiag", "solver.solve_tridiag", _rows_tridiag),
        (solver.Pentadiag, "solve", "solver.pentadiag_solve", _rows_pentadiag),
        (harness, "run", "solver.run", None),
        (harness, "parse_config", "harness.parse_config", None),
        (dynamics.RunDiagnostics, "record", "dynamics.record", None),
        (oracle.TravelingWave, "relative_l2_error",
         "oracle.relative_l2_error", None),
        (oracle.TravelingWave, "initial_state", "oracle.initial_state", None),
        (oracle, "sample", "grid.sample", _points_sample),
    ]
    names += [(truncation.TruncationFamily, attr, "truncation.eval", None)
              for attr in TRUNCATION_EVALUATORS]
    return names


class Tracer:
    """In-memory spans with parent links, and work counters."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(int)
        self._stack = [-1]

    def span(self, name, fn, args=(), kwargs=None):
        """Call fn(*args, **kwargs) inside a span called name."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        t0 = _now()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = _now()
            self._stack.pop()
            self.starts[idx] = t0
            self.ends[idx] = t1

    def install(self, swlw_modules):
        patches = Patches()
        for owner, attr, name, counter in traced_names(swlw_modules):
            patches.wrap(owner, attr, self._wrapper(name, counter))
        return patches

    def _wrapper(self, name, counter):
        def make(fn):
            def traced(*args, **kwargs):
                result = self.span(name, fn, args, kwargs)
                if counter is not None:
                    for key, n in counter(args, result).items():
                        self.counts[key] += n
                return result
            return traced
        return make

    def totals(self):
        """Per span name: total ns, self ns and calls.  Self time is the
        span's duration minus the time its child spans cover (children of
        one span never overlap: the program is single-threaded)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: {"ns": 0, "self_ns": 0, "calls": 0})
        for i, name in enumerate(self.names):
            t = out[name]
            t["ns"] += dur[i]
            t["self_ns"] += dur[i] - child[i]
            t["calls"] += 1
        return out

    def write(self, f, run):
        """One JSON line per span to the text file f: command run index,
        span id, name, start/end (ns) and parent id (-1 for a root)."""
        for i, name in enumerate(self.names):
            f.write(json.dumps({"run": run, "id": i, "name": name,
                                "start_ns": self.starts[i],
                                "end_ns": self.ends[i],
                                "parent": self.parents[i]}) + "\n")

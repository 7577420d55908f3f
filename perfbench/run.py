"""swlw benchmark: one workload, one process, end-to-end or per-layer.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``, nothing is installed.  The workload (see ``workloads.py``) is run
through the public API of ``swlw.harness`` again and again until
``--seconds`` have passed (at least twice, so two runs of one config can be
compared byte for byte); every run is checked, and the figures reported are
medians over the runs, with times scaled to a reference machine speed (see
``calibration.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics from the traced
ones, together with the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A fuller record with the machine
details goes to ``.perfbench_out/`` in the checkout, next to the spans of a
traced run.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_RUNS = 2
PRE_SAMPLES = 5
SWLW_MODULES = ("harness", "solver", "oracle", "dynamics", "truncation")

END_TO_END_UNITS = {
    "setup_s": "s", "ms_per_step": "ms", "projected_50k_steps_s": "s",
    "peak_rss_mb": "MB", "err_u": "ratio", "err_v": "ratio",
}

_now = time.perf_counter_ns


def import_swlw():
    """Import swlw from the checkout's src/; exit non-zero when it is
    missing."""
    if not (SRC / "swlw" / "__init__.py").is_file():
        sys.exit(f"error: no swlw sources under {SRC}; run from the root "
                 f"of a swlw checkout")
    # one thread of numerics: set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"swlw.{name}")
            for name in SWLW_MODULES}
    if Path(mods["harness"].__file__).resolve().parent != SRC / "swlw":
        sys.exit(f"error: swlw was imported from {mods['harness'].__file__}, "
                 f"not from {SRC}")
    return mods


def run_once(wl, mods, config_path, run_dir, meter, tracer=None):
    """One command run.  Returns the timings and everything the gate
    checks; the spans go to ``tracer`` when one is given.

    Each timing comes twice: as measured with the sampling time taken out
    (``wall``) and at reference speed (``scaled``, see calibration.py).
    """
    harness = mods["harness"]
    pre = meter.mark()
    for _ in range(PRE_SAMPLES):
        meter.sample()
    pre = (pre, meter.mark())
    probe = tr.Probe(meter)
    patches = []
    try:
        if tracer is not None:
            patches.append(tracer.install(mods))
            meter.tracer = tracer
        # installed last, so its wrappers are outermost and the speed
        # samples fall outside the spans of the layers
        patches.append(probe.install(mods))
        t0 = _now()
        config = harness.load_config(config_path)
        if wl.command == "converge":
            fn, args = harness.cmd_converge, (config, list(wl.meshes), run_dir)
        elif wl.command == "truncate":
            fn, args = harness.cmd_truncate, (config, list(wl.levels), run_dir)
        else:
            fn, args = harness.cmd_run, (config, run_dir)
        if tracer is None:
            result = fn(*args)
        else:
            result = tracer.span("harness.command", fn, args)
        t1 = _now()
        end = meter.mark()
    finally:
        for p in reversed(patches):
            p.restore()
        meter.tracer = None
    texts = {p.name: p.read_text() for p in sorted(run_dir.glob("*.csv"))}
    out = {"rows": result[1] if wl.command != "run" else None,
           "runs": probe.runs, "last_state": probe.last_state,
           "steps": probe.steps, "csv": texts}

    setup_ns = probe.first_step_ns - t0
    loop_ns = t1 - probe.first_step_ns - meter.excluded(probe.first_mark, end)
    loop_scale = meter.scale(probe.first_mark, end)
    wall = {"setup_s": setup_ns / 1e9,
            "ms_per_step": loop_ns / 1e6 / probe.steps}
    # the set-up is too short for samples of its own: it takes the scale of
    # the samples just before it
    scaled = {"setup_s": wall["setup_s"] * meter.scale(*pre),
              "ms_per_step": wall["ms_per_step"] * loop_scale}
    if wl.command == "converge":
        # the J = 1000 row's wall_time_s, less the samples taken in its run
        i = [final.grid.J for final, _ in probe.runs].index(wls.PAPER_MESH)
        marks = probe.run_marks[i]
        mesh_ns = ({row[0]: row[7] for row in out["rows"]}[wls.PAPER_MESH]
                   * 1e9 - meter.excluded(*marks))
        wall["projected_50k_steps_s"] = wls.PAPER_STEPS * mesh_ns / 1e9 / wl.steps
        scaled["projected_50k_steps_s"] = (wall["projected_50k_steps_s"]
                                           * meter.scale(*marks))
    else:
        for t in (wall, scaled):
            t["projected_50k_steps_s"] = wls.PAPER_STEPS * t["ms_per_step"] / 1e3
    timing = {"steps": probe.steps, "wall": wall, "scaled": scaled,
              "loop_scale": loop_scale,
              "csv_bytes": sum(len(t.encode()) for t in texts.values())}
    return timing, out


def measure(wl, mods, seconds, trace, work_dir):
    """Run the workload until ``seconds`` have passed; returns the per-run
    records and the failures.  With ``trace``, every second run is traced,
    each by a tracer of its own."""
    import yaml

    config_path = work_dir / "config.yaml"
    config_path.write_text(yaml.safe_dump(wl.config))
    meter = calibration.Meter()
    records, failures = [], []
    first_csv = None
    start = _now()
    durations = []
    k = 0
    while True:
        tracer = tr.Tracer() if trace and k % 2 == 1 else None
        run_dir = work_dir / f"run{k}"
        run_dir.mkdir()
        gc.collect()
        t0 = _now()
        try:
            timing, out = run_once(wl, mods, config_path, run_dir, meter,
                                   tracer)
            problems, errs = wls.check(wl, out)
            csv_now = wls.deterministic_csv(wl, out["csv"])
            if first_csv is None:
                first_csv = csv_now
            elif csv_now != first_csv:
                problems.append("CSV output differs from the first run of "
                                "the same config")
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
            timing = errs = None
        shutil.rmtree(run_dir)
        durations.append((_now() - t0) / 1e9)
        records.append({"traced": tracer is not None, "tracer": tracer,
                        "timing": timing, "errs": errs, "problems": problems})
        failures += [f"run {k}: {p}" for p in problems]
        k += 1
        elapsed = (_now() - start) / 1e9
        if k >= MIN_RUNS and elapsed + statistics.median(durations) > seconds:
            return records, failures


def median_time(records, key, kind="scaled"):
    return statistics.median(r["timing"][kind][key] for r in records)


def times(records, import_s, kind="scaled"):
    """The end-to-end timings: medians over the passing untraced runs.

    The import ran once, before any speed sample.  It is scaled by the
    first command run's factor, which averages the samples of a second or
    more: the five samples just before that run follow the import's speed
    too loosely.
    """
    ok = [r for r in records if not r["problems"] and not r["traced"]]
    if kind == "scaled":
        import_s *= ok[0]["timing"]["loop_scale"]
    values = {"setup_s": import_s + median_time(ok, "setup_s", kind)}
    for key in ("ms_per_step", "projected_50k_steps_s"):
        values[key] = median_time(ok, key, kind)
    return values


def end_to_end(records, import_s):
    ok = [r for r in records if not r["problems"] and not r["traced"]]
    err_u, err_v = ok[0]["errs"]
    values = dict(times(records, import_s), peak_rss_mb=peak_rss_mb(),
                  err_u=err_u, err_v=err_v)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer(records):
    """Per-layer metrics from the passing traced runs.  Loop layers are per
    time step; set-up layers (parse_config, initial_state) are per command
    run.  Span times are scaled to the reference speed by their run's
    factor, like the end-to-end timings.  ``computed_ns_per_row`` divides
    that time by row counts computed from the argument sizes."""
    traced = [r for r in records if r["traced"] and not r["problems"]]
    plain = [r for r in records if not r["traced"] and not r["problems"]]
    tot = defaultdict(lambda: {"ns": 0.0, "self_ns": 0.0, "calls": 0})
    counts = defaultdict(int)
    for r in traced:
        scale = r["timing"]["loop_scale"]
        for name, v in r["tracer"].totals().items():
            tot[name]["ns"] += v["ns"] * scale
            tot[name]["self_ns"] += v["self_ns"] * scale
            tot[name]["calls"] += v["calls"]
        for name, n in r["tracer"].counts.items():
            counts[name] += n
    steps = tot["solver.step"]["calls"]
    runs = len(traced)

    def ms(name, key="ns"):
        return tot[name][key] / 1e6 / steps

    def calls(name):
        return tot[name]["calls"] / steps

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("solver.step.ms", ms("solver.step"), "ms/step")
    for kind in ("solve_tridiag", "pentadiag_solve"):
        name = f"solver.{kind}"
        rows = counts[f"{name}.rows"]
        put(f"{name}.ms", ms(name), "ms/step")
        put(f"{name}.calls", calls(name), "calls/step")
        put(f"{name}.rows", rows / steps, "rows/step")
        put(f"{name}.computed_ns_per_row", tot[name]["ns"] / rows, "ns/row")
    put("solver.kdv_jacobian.ms", ms("solver.kdv_jacobian"), "ms/step")
    put("solver.schrodinger_update.self_ms",
        ms("solver.schrodinger_update", "self_ns"), "ms/step")
    put("solver.kdv_update.self_ms", ms("solver.kdv_update", "self_ns"),
        "ms/step")
    put("solver.cn_iters", counts["solver.cn_iters"] / steps, "iters/step")
    put("solver.newton_iters", counts["solver.newton_iters"] / steps,
        "iters/step")
    put("oracle.ms", ms("oracle.relative_l2_error") + ms("oracle.initial_state"),
        "ms/step")
    put("oracle.relative_l2_error.calls", calls("oracle.relative_l2_error"),
        "calls/step")
    put("oracle.initial_state.ms",
        tot["oracle.initial_state"]["ns"] / 1e6 / runs, "ms/run")
    put("grid.sample.ms", ms("grid.sample"), "ms/step")
    put("grid.sample.points", counts["grid.sample.points"] / steps,
        "points/step")
    put("dynamics.record.ms", ms("dynamics.record"), "ms/step")
    put("dynamics.record.calls", calls("dynamics.record"), "calls/step")
    put("truncation.eval.ms", ms("truncation.eval"), "ms/step")
    put("truncation.eval.calls", calls("truncation.eval"), "calls/step")
    put("harness.parse_config.ms",
        tot["harness.parse_config"]["ns"] / 1e6 / runs, "ms/run")
    put("harness.self_ms", ms("harness.command", "self_ns"), "ms/step")
    put("harness.csv_bytes",
        statistics.median(r["timing"]["csv_bytes"] for r in traced), "B/run")
    traced_ms = median_time(traced, "ms_per_step")
    plain_ms = median_time(plain, "ms_per_step")
    put("trace.overhead_frac", (traced_ms - plain_ms) / plain_ms, "ratio")
    return m


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """The checkout's commit read from .git without running git, or
    'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl, trace, import_s):
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": wl.name, "seed": wl.seed, "trace": trace,
            "git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy_version,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg": list(os.getloadavg()), "src_lines": src_lines,
            "import_s": import_s,
            "inputs": {"alpha": wl.reference.alpha, "x0": wl.reference.x0,
                       "steps": wl.steps, "meshes": list(wl.meshes),
                       "levels": list(wl.levels)}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wls.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least two command runs are made")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    mods = import_swlw()
    import_s = time.perf_counter() - _T_START
    # the [-20, 50] window leaves a ~1e-8 short-wave tail by design
    warnings.filterwarnings("ignore", "traveling wave not decayed")
    wl = wls.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        records, failures = measure(wl, mods, args.seconds, args.trace == 1,
                                    work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    ok = [r for r in records if not r["problems"]]
    if not any(not r["traced"] for r in ok) or (
            args.trace and not any(r["traced"] for r in ok)):
        print("error: no run passed its checks; nothing to report",
              file=sys.stderr)
        return 1
    unscaled = {}
    if args.trace:
        metrics = per_layer(records)
        with gzip.open(OUT / f"spans_{wl.name}_seed{wl.seed}.jsonl.gz",
                       "wt") as f:
            for k, r in enumerate(records):
                if r["tracer"] is not None:
                    r["tracer"].write(f, run=k)
    else:
        metrics = end_to_end(records, import_s)
        unscaled = times(records, import_s, kind="wall")
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    env = environment(wl, args.trace, import_s)
    record = dict(env, result=result, unscaled_metrics=unscaled,
                  runs=[{k: r[k] for k in ("traced", "timing", "problems")}
                        for r in records])
    (OUT / f"BENCH_{wl.name}_seed{wl.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in unscaled.items():
        print(f"{name + ' (unscaled)':40s} {value:.6g} {END_TO_END_UNITS[name]}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

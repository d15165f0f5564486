"""Timed half of the benchmark: runs one workload's items in a fresh process.

Reads {"workload", "seed", "seconds", "trace"} as JSON on stdin and writes one
JSON object on stdout.  It runs whole passes, one item after another (a
closed loop with one client), for about `seconds`, and reports each
item's inputs, latency and output; checking them is left to run.py, which
runs in another process so that the reference computation neither competes
for the CPU nor counts in this process's peak memory.

With "trace": true it then replays the items of the last pass with spans
around every layer boundary (see tracing.py), writes the spans to
perfbench/out/, runs the layer probes and returns the per-layer metrics.
"""

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
# a 60-point curvature-z sweep (boson, D=2, q=1.15), timed in process by the cli.* probes
CLI_BASELINE_ARGV = ["curvature-z", "--stat", "boson", "--dim", "2", "--q", "1.15",
                     "--z", "0.05:0.97", "--points", "60"]


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _error(exc):
    return {"error": type(exc).__name__, "message": str(exc)}


class LibraryRunner:
    """Runs one item: a curvature point, a sign-boundary search or a virial threshold."""

    def __init__(self):
        import qgasgeo
        from qgasgeo import geometry, virial

        self.qgasgeo = qgasgeo
        self.geometry = geometry
        self.virial = virial

    def __call__(self, item):
        spec_of = self.qgasgeo.GasSpec
        try:
            # module attribute lookups, so that traced wrappers are seen
            if item["kind"] == "point":
                spec = spec_of(item["stat"], item["q"], item["D"])
                return {"value": self.geometry.curvature_closed_form(spec, item["z"]).R_reduced}
            if item["kind"] == "search":
                spec = spec_of(item["stat"], 1.0, item["D"])
                return {"value": self.geometry.curvature_sign_boundary(
                    spec, item["z"], item["q_lo"], item["q_hi"])}
            return {"value": self.virial.virial_threshold(item["name"])}
        except Exception as exc:  # recorded per item; the sweep goes on
            return _error(exc)

    def warm_up(self):
        spec = self.qgasgeo.GasSpec("boson", 1.15, 2)
        self.geometry.curvature_closed_form(spec, 0.5)
        self.geometry.curvature_closed_form(self.qgasgeo.GasSpec("fermion", 2.0, 3), 0.5)


def run_passes(workload, seed, seconds, runner):
    """Whole passes while the next one, taking as long as the last, ends within
    `seconds`, and at least two cycles of the inputs (workloads.CYCLE, so that
    run.py has two blocks); returns (records, elapsed).

    Each record carries its raw time "s" and its time scaled to the
    calibration speed, "scaled" (calibration.py).
    """
    records = []
    clock = calibration.Calibrated()
    t0 = time.perf_counter()
    p = 0
    while True:
        t_pass = time.perf_counter()
        for item in workloads.make_pass(workload, seed, p):
            t = time.perf_counter()
            res = runner(item)
            dt = time.perf_counter() - t
            clock.add(dt)
            records.append({"pass": p, "item": item, "s": dt, **res})
        p += 1
        now = time.perf_counter()
        if p >= 2 * workloads.CYCLE[workload] and now - t0 + (now - t_pass) > seconds:
            clock.flush()
            for rec, scaled in zip(records, clock.scaled):
                rec["scaled"] = scaled
            return records, time.perf_counter() - t0


def replay_traced(records, runner, tracer):
    """Run the same items again with spans; returns (traced records, per-item spans)."""
    out = []
    item_spans = []
    clock = calibration.Calibrated()
    for i, rec in enumerate(records):
        before = len(tracer.spans)
        t = time.perf_counter()
        res = tracer.run_item(i, runner, rec["item"])
        dt = time.perf_counter() - t
        clock.add(dt)
        item_spans.append(tracer.spans[before:])
        out.append({"item": rec["item"], "s": dt, **res})
    clock.flush()
    for rec, scaled in zip(out, clock.scaled):
        rec["scaled"] = scaled
    return out, item_spans


# --- per-layer metrics --------------------------------------------------------------

def _p50(xs):
    return statistics.median(xs)


def _dur(span):
    return span[4] - span[3]


def _import_times(module, launches=3):
    """Median cumulative -X importtime (ms) of each module of interest."""
    names = ["qgasgeo", "qgasgeo.geometry", "qgasgeo.quadrature", "qgasgeo.cli", "scipy.optimize"]
    samples = {n: [] for n in names}
    for _ in range(launches):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                              capture_output=True, text=True, env=env_with_src(), timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import {module} failed: {proc.stderr[-500:]}")
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1000.0
        for n in names:
            # scipy.optimize not imported costs nothing; a qgasgeo module that
            # is not imported is a removed boundary and stays missing
            if n in seen:
                samples[n].append(seen[n])
            elif n == "scipy.optimize":
                samples[n].append(0.0)
    return {f"{n}.import_ms": _p50(v) for n, v in samples.items() if v}


def _time_per_call(fn, calls, repeats=5):
    runs = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        runs.append((time.perf_counter() - t) / calls)
    return _p50(runs)


def _integrand_us(grid, stat, q, z):
    """Time of one integrand evaluation (us), the median of three sweeps over grid."""
    from qgasgeo import distributions

    if stat == "boson":
        series = distributions.BosonThetaSeries(z, q)

        def sweep():
            for x in grid:
                series.excess_sums(x)
    else:
        def sweep():
            for x in grid:
                distributions.fermion_h_sums(x, z, q)
    return 1e6 * _time_per_call(sweep, 1, 3) / len(grid)


def layer_metrics(untraced, traced, item_spans, tracer):
    """Per-layer metrics from the traced items, plus probes for layers they do not reach.

    untraced and traced are the records of the same items without and with spans.
    """
    import numpy as np

    from qgasgeo import GasSpec, cli, core, geometry, virial

    flat = [s for spans in item_spans for s in spans]
    m, src = {}, {}

    def put(name, value, source="workload"):
        m[name] = float(value)
        src[name] = source

    def named(pool, name):
        return [s for s in pool if s[2] == name]

    series = [s for s in named(flat, "distributions.series_build") if "terms" in s[5]]
    quads = [s for s in named(flat, "quadrature.quad_vec") if "neval" in s[5]]
    if series:
        terms = [s[5]["terms"] for s in series]
        put("distributions.series_terms_p50", _p50(terms))
        put("distributions.series_terms_max", max(terms))
        put("distributions.series_build_ms", 1e3 * _p50([_dur(s) for s in series]))
    if quads:
        put("quadrature.integrand_calls_p50", _p50([s[5]["neval"] for s in quads]))
        put("quadrature.integrand_calls_max", max(s[5]["neval"] for s in quads))
        put("quadrature.intervals_p50", _p50([s[5]["intervals"] for s in quads]))
    selfmap = {}
    for spans in item_spans:
        selfmap.update(tracing.self_times(spans))
    curv = named(flat, "geometry.curvature")
    if curv:
        put("geometry.curvature_ms", 1e3 * _p50([_dur(s) for s in curv]))
        put("geometry.self_ms", 1e3 * _p50([selfmap[s[0]] for s in curv]))

    # layers the workload may not call are timed on a fixed probe instead
    def probe_search():
        geometry.curvature_sign_boundary(GasSpec("boson", 1.0, 3), 0.05, 1.1, 1.5)

    def probe_oracle():
        for _ in range(3):
            geometry.determinant_curvature_oracle(GasSpec("boson", 1.15, 2), 1.0, 0.5)

    def probe_threshold():
        for _ in range(25):
            for kind in workloads.THRESHOLD_KINDS:
                virial.virial_threshold(kind)

    for name, probe in (("geometry.search", probe_search), ("geometry.oracle", probe_oracle),
                        ("virial.threshold", probe_threshold)):
        pool, source = flat, "workload"
        if not named(flat, name):
            start = len(tracer.spans)
            probe()
            pool, source = tracer.spans[start:], "probe"
        spans = named(pool, name)
        if not spans:
            continue
        if name == "geometry.search":
            put("geometry.search_ms", 1e3 * _p50([_dur(s) for s in spans]), source)
            evals = [sum(1 for c in pool if c[1] == s[0] and c[2] == "geometry.curvature")
                     for s in spans]
            put("geometry.search_evals", _p50(evals), source)
        elif name == "geometry.oracle":
            put("geometry.oracle_ms", 1e3 * _p50([_dur(s) for s in spans]), source)
        else:
            put("virial.threshold_us", 1e6 * _p50([_dur(s) for s in spans]), source)
    tracer.uninstall()

    # integrand time on a fixed abscissa grid, at the (statistics, q, z) of every
    # traced moment integral
    grid = [float(x) for x in np.geomspace(1e-6, 50.0, 64)]
    moments = [s for s in named(flat, "quadrature.moments") if "z" in s[5]]
    per_point = {key: _integrand_us(grid, *key)
                 for key in {(s[5]["stat"], s[5]["q"], s[5]["z"]) for s in moments}}
    if moments:
        us = {s[0]: per_point[(s[5]["stat"], s[5]["q"], s[5]["z"])] for s in moments}
        put("distributions.integrand_us", _p50(list(us.values())), "probe")
        put("quadrature.moment_ms", 1e3 * _p50([_dur(s) for s in moments]))
        # self time: the moment call minus its integrand calls x probed time per call
        calls = {s[1]: s[5]["neval"] for s in named(flat, "quadrature.quad_vec") if "neval" in s[5]}
        selfs = [_dur(s) - calls[s[0]] * us[s[0]] * 1e-6 for s in moments if s[0] in calls]
        if selfs:
            put("quadrature.self_ms", 1e3 * _p50(selfs))
    if series:
        arr = np.arange(int(m["distributions.series_terms_p50"]), dtype=float)
        put("core.q_bracket_us", 1e6 * _time_per_call(lambda: core.q_bracket(arr, 1.15), 50),
            "probe")

    # the CLI layer, in process and untraced: the sweep above against a plain
    # loop over the same grid, and selfcheck
    with redirect_stdout(io.StringIO()) as buf:
        t = time.perf_counter()
        cli.main(CLI_BASELINE_ARGV)
        t_cli = time.perf_counter() - t
    rows = sum(1 for line in buf.getvalue().splitlines()[1:] if line)
    spec = GasSpec("boson", 1.15, 2)
    t = time.perf_counter()
    for z in np.linspace(0.05, 0.97, 60):
        geometry.curvature_closed_form(spec, float(z))
    t_loop = time.perf_counter() - t
    put("cli.rows_per_s", rows / t_cli, "probe")
    put("cli.overhead_frac", (t_cli - t_loop) / t_loop, "probe")
    with redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        cli.main(["selfcheck"])
        put("cli.selfcheck_s", time.perf_counter() - t, "probe")

    for name, value in _import_times("qgasgeo.cli").items():
        put(name, value, "probe")

    put("trace.overhead_frac",
        sum(r["scaled"] for r in traced) / sum(r["scaled"] for r in untraced) - 1.0)
    # reconciliation: the self times of an item's spans, scaled like its traced
    # time, against the same item's latency without tracing
    put("trace.self_sum_frac", _p50([
        sum(tracing.self_times(spans).values()) * t["scaled"] / t["s"] / u["scaled"]
        for spans, t, u in zip(item_spans, traced, untraced)]))
    return m, src


def main():
    cfg = json.load(sys.stdin)
    workload, seed, seconds = cfg["workload"], cfg["seed"], cfg["seconds"]
    runner = LibraryRunner()
    runner.warm_up()
    records, elapsed = run_passes(workload, seed, seconds, runner)
    result = {"records": records, "elapsed": elapsed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
        # the last pass is replayed: it holds every kind of item, it ran
        # warm and closest in time to the replay, and one pass keeps a traced
        # run within the benchmark's time limit
        last = [r for r in records if r["pass"] == records[-1]["pass"]]
        traced, item_spans = replay_traced(last, runner, tracer)
        result["traced"] = [{k: v for k, v in r.items() if k not in ("s", "scaled")}
                            for r in traced]
        result["missing"] = tracer.missing
        layers, sources = layer_metrics(last, traced, item_spans, tracer)
        result["layers"], result["sources"] = layers, sources
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "items": [r["item"] for r in traced],
                       "spans": item_spans, "columns": ["id", "parent", "name", "start", "end",
                                                        "attrs"]}, fh)
        result["trace_file"] = os.path.relpath(path)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()

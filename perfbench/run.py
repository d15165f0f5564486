"""Layered benchmark of qgasgeo: edge-sweep and dilute-search.

    python3 perfbench/run.py --workload edge-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a readable report, and every failed item with its inputs
and exception class, go to standard error.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:

* items_per_s, item_ms_p50, item_ms_p90: a closed loop with one client runs
  whole passes of the workload (worker.py) for about --seconds.  Consecutive
  passes are grouped into blocks of one cycle of the workload's inputs
  (workloads.CYCLE: one edge-sweep pass of 110 items, fourteen dilute-search
  passes of 210), so every block holds the same costly items whatever the
  seed.  Each metric is the median over the blocks of the block's figure
  (throughput: items over the summed item times; percentiles: Harrell-Davis
  estimates), so a slow spell of the host moves one block, not the run.
  Item times are scaled to a fixed host speed measured between items
  (calibration.py); the report also gives the unscaled figures.
* setup_s: median wall time of seven fresh interpreters running
  `import qgasgeo`, after one warm-up; not scaled.
* min_correct_digits: -log10 of the worst relative deviation of any returned
  R from the reference (reference.py).
* pass_frac: items that neither raised nor missed the reference by more than
  the requested rel_tol (1e-10), over items attempted; 1 - pass_frac is the
  failure fraction.  The known small-z loss makes dilute-search miss.
* peak_rss_mb: peak resident memory of the process that runs the items.

With --trace 1 the items of the last pass run again with spans around each
layer and the metrics are the per-layer ones (worker.layer_metrics).

`correct` is false when an output is wrong rather than imprecise (R beyond
1e-5 of the reference, the loosest tolerance the library's own selfcheck
puts on R; a sign boundary or threshold outside its bisection tolerance),
when a traced item returns something else than its untraced run, or when
the span self times of the traced items do not account for their untraced
latencies (trace.self_sum_frac outside [1/3, 3]).  A metric
that cannot be measured stops the run with exit code 3 and no result line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REL_TOL = 1e-10       # the rel_tol every timed call requests (the library default)
WRONG_TOL = 1e-5      # beyond this an R is wrong, not merely imprecise
ROOT_TOL = 1e-4       # bisection xtol of curvature_sign_boundary
THRESHOLD_TOL = 1e-9  # virial_threshold bisects to 1e-10
SETUP_LAUNCHES = 7
SELF_SUM_RANGE = (1 / 3, 3.0)


class BenchError(Exception):
    """The benchmark cannot produce a result; reported and exit code 3."""


def env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def setup_seconds(module):
    """Median wall time of `python -c "import <module>"` over a few launches, after one."""
    cmd = [sys.executable, "-c", f"import {module}"]
    subprocess.run(cmd, env=env_with_src(), check=True, capture_output=True, timeout=120)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t = time.perf_counter()
        subprocess.run(cmd, env=env_with_src(), check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace):
    cfg = json.dumps({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=cfg,
                          capture_output=True, text=True, env=env_with_src(), cwd=ROOT,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


# --- checking outputs against the reference -------------------------------------------

class Checker:
    """Compares outputs with reference.py; collects deviations and wrong outputs."""

    def __init__(self):
        import reference

        self.ref = reference
        table = reference.load_table()
        self.table_r = table["R"]
        self.table_roots = table["roots"]
        self.cache = {}
        self.worst = None      # largest relative deviation of any R
        self.n_r = 0
        self.wrong = []

    def reference_r(self, stat, D, q, z):
        k = self.ref.key(stat, D, q, z)
        if k in self.table_r:
            return float(self.table_r[k])
        if k not in self.cache:
            if q != 1.0 and z > self.ref.CLUSTER_Z_MAX:
                raise BenchError(f"no committed reference for {k}; rebuild the table")
            self.cache[k] = float(self.ref.curvature(stat, D, q, z)[0])
        return self.cache[k]

    def check_r(self, stat, D, q, z, value):
        """'ok', or 'miss' (beyond rel_tol), or 'wrong' (beyond WRONG_TOL)."""
        want = self.reference_r(stat, D, q, z)
        dev = abs(value - want) / abs(want)
        self.n_r += 1
        self.worst = dev if self.worst is None else max(self.worst, dev)
        if not dev <= WRONG_TOL:
            self.wrong.append(f"R({stat}, D={D}, q={q!r}, z={z!r}) = {value!r}, "
                              f"reference {want!r}, rel dev {dev:.3e}")
            return "wrong", dev
        return ("ok" if dev <= REL_TOL else "miss"), dev

    def check_record(self, rec):
        """(status, detail) with status 'ok', 'error', 'miss' or 'wrong'."""
        item = rec["item"]
        kind = item["kind"]
        if "error" in rec:
            return "error", f"{rec['error']}: {rec['message']}"
        if kind == "point":
            status, dev = self.check_r(item["stat"], item["D"], item["q"], item["z"], rec["value"])
            return status, f"rel dev {dev:.3e}"
        if kind == "search":
            k = self.ref.search_key(item["stat"], item["D"], item["z"], item["q_lo"], item["q_hi"])
            if k not in self.table_roots:
                raise BenchError(f"no committed reference sign boundary for {k}")
            want, got = self.table_roots[k], rec["value"]
            if not same_root(want, got, ROOT_TOL + 1e-9):
                self.wrong.append(f"sign boundary {k}: got {got!r}, reference {want!r}")
                return "wrong", f"got {got!r}, reference {want!r}"
            return "ok", ""
        if kind == "threshold":
            stat, D = workloads.THRESHOLD_KINDS[item["name"]]
            key = ("threshold", stat, D)
            if key not in self.cache:
                self.cache[key] = self.ref.cluster_a2_root(stat, D)
            want, got = self.cache[key], rec["value"]
            if not same_root(want, got, THRESHOLD_TOL):
                self.wrong.append(f"virial_threshold({item['name']!r}) = {got!r}, reference {want!r}")
                return "wrong", f"got {got!r}, reference {want!r}"
        return "ok", ""


def same_root(want, got, tol):
    """Both None (no sign change), or both numbers within tol."""
    return (want is None) == (got is None) and (want is None or abs(got - want) <= tol)


def comparable(rec):
    """What must agree between the untraced and the traced run of an item."""
    return rec.get("value"), rec.get("error")


def describe(item):
    return ", ".join(f"{k}={v!r}" for k, v in item.items() if k != "kind") or item["kind"]


# --- metrics --------------------------------------------------------------------------

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def blocks(records, passes):
    """Scaled item times in blocks of `passes` whole consecutive passes; passes
    left over at the end join the last block."""
    out = {}
    for rec in records:
        out.setdefault(rec["pass"] // passes, []).append(rec["scaled"])
    out = list(out.values())
    if len(out) > 1 and (records[-1]["pass"] + 1) % passes:
        out[-2].extend(out.pop())
    return out


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all order
    statistics.  The item costs of a pass have gaps of up to 1.5x between
    neighbours, so a single order statistic jumps with the noise of one or two
    items; this weights the few around the quantile and moved half as much
    from run to run on recorded edge-sweep passes."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(xs)
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def end_to_end(workload, result, setup_s, checker, n_failed):
    bs = blocks(result["records"], workloads.CYCLE[workload])
    n = len(result["records"])
    m = {
        # one client in a closed loop: throughput is the inverse mean latency
        "items_per_s": statistics.median(len(b) / sum(b) for b in bs),
        "item_ms_p50": 1e3 * statistics.median(quantile(b, 0.5) for b in bs),
        "item_ms_p90": 1e3 * statistics.median(quantile(b, 0.9) for b in bs),
        "setup_s": setup_s,
        "pass_frac": (n - n_failed) / n,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if checker.worst is not None:
        m["min_correct_digits"] = -math.log10(max(checker.worst, 1e-300))
    return m


def raw_summary(result):
    raw = [r["s"] for r in result["records"]]
    return f"items_per_s {len(raw) / sum(raw):.6g}, item_ms_p50 {1e3 * statistics.median(raw):.6g}"


def finish(values, specs):
    """The metrics object of the result line; a missing or non-finite metric is fatal."""
    out = {}
    for spec in specs:
        v = values.get(spec["name"])
        if v is None or not math.isfinite(v):
            raise BenchError(f"metric {spec['name']} was not measured ({v!r})")
        out[spec["name"]] = {"value": v, "unit": spec["unit"]}
    return out


def report(title, metrics, sources=None, extra=()):
    print(f"== {title}", file=sys.stderr)
    for name, mv in metrics.items():
        src = f"  [{sources[name]}]" if sources and name in sources else ""
        print(f"  {name:34s} {mv['value']:>14.6g} {mv['unit']}{src}", file=sys.stderr)
    for line in extra:
        print(f"  {line}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Layered benchmark of qgasgeo.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qgasgeo", "__init__.py")):
        print(f"no qgasgeo sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        setup_s = None
        if not args.trace:
            setup_s = setup_seconds("qgasgeo")
        result = run_worker(args.workload, args.seed, args.seconds, bool(args.trace))

        checker = Checker()
        failures = []
        n_failed = 0
        n_errors = 0
        for rec in result["records"]:
            status, detail = checker.check_record(rec)
            if status != "ok":
                n_failed += 1
                n_errors += status == "error"
                failures.append(f"{status:5s} {rec['item']['kind']}({describe(rec['item'])}): {detail}")
        problems = list(checker.wrong)

        if args.trace:
            if result["missing"]:
                raise BenchError("layer boundaries no longer present, their metrics are missing: "
                                 + ", ".join(result["missing"]))
            last = [r for r in result["records"] if r["pass"] == result["records"][-1]["pass"]]
            for rec, traced in zip(last, result["traced"]):
                if comparable(rec) != comparable(traced):
                    problems.append(f"traced run differs for {describe(rec['item'])}")
            metrics = finish(result["layers"], spec["per_layer"])
            frac = metrics["trace.self_sum_frac"]["value"]
            if not SELF_SUM_RANGE[0] <= frac <= SELF_SUM_RANGE[1]:
                problems.append(f"span self times add up to {frac:.4g} of the untraced item "
                                f"times (median over items)")
            report(f"{args.workload} seed {args.seed}, traced, {len(result['records'])} items; "
                   f"spans in {result['trace_file']}", metrics, result["sources"])
        else:
            values = end_to_end(args.workload, result, setup_s, checker, n_failed)
            metrics = finish(values, spec["end_to_end"])
            report(f"{args.workload} seed {args.seed}: {len(result['records'])} items in "
                   f"{result['elapsed']:.2f} s ({result['records'][-1]['pass'] + 1} passes), "
                   f"{checker.n_r} R values checked", metrics,
                   extra=["unscaled: " + raw_summary(result)])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    for line in failures:
        print(f"  failed {line}", file=sys.stderr)
    for line in problems:
        print(f"  WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(result["records"]),
                      "failed": n_errors, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

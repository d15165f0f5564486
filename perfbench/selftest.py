"""Self-tests of the benchmark itself (not of qgasgeo).

    python3 perfbench/selftest.py

Checks that inputs depend on the seed alone, that blocks hold whole passes,
that a missing metric or layer boundary fails loudly, that span self times
are computed as documented, that the reference methods agree with each
other and with the committed table, that short runs of every workload pass their reference checks
(traced and untraced, on seeds other than the usual ones; a traced run also
checks that it returns exactly what the untraced run returned), and that
the benchmark refuses to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_inputs_depend_on_seed_only():
    for name in workloads.WORKLOADS:
        a = [workloads.make_pass(name, 11, p) for p in range(6)]
        b = [workloads.make_pass(name, 11, p) for p in range(6)]
        c = [workloads.make_pass(name, 12, p) for p in range(6)]
        assert a == b, name
        assert a != c, name


def test_missing_metric_fails_loudly():
    specs = run.load_spec()["end_to_end"]
    values = {s["name"]: 1.0 for s in specs}
    assert set(run.finish(values, specs)) == {s["name"] for s in specs}
    for bad in (None, float("nan")):
        broken = dict(values, item_ms_p90=bad)
        if bad is None:
            del broken["item_ms_p90"]
        try:
            run.finish(broken, specs)
        except run.BenchError as exc:
            assert "item_ms_p90" in str(exc)
        else:
            raise AssertionError("a missing metric was accepted")


def test_removed_boundary_is_reported_missing():
    from qgasgeo import quadrature

    saved = quadrature.quad_vec
    del quadrature.quad_vec
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        quadrature.quad_vec = saved
    assert tracer.missing == ["qgasgeo.quadrature.quad_vec"], tracer.missing


def test_self_times():
    # item [0, 10] with children [1, 4] and [3, 6] (overlapping intervals count
    # once) and [7, 8]; the first child has a grandchild [2, 3]
    spans = [[1, None, "item", 0.0, 10.0, {}], [2, 1, "a", 1.0, 4.0, {}],
             [3, 1, "b", 3.0, 6.0, {}], [4, 1, "c", 7.0, 8.0, {}], [5, 2, "d", 2.0, 3.0, {}]]
    st = tracing.self_times(spans)
    assert st == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}, st


def test_blocks_are_whole_passes():
    # blocks of two passes: {0, 1}, {2, 3} and the leftover pass 4 joins the last
    recs = [{"pass": p, "scaled": float(p)} for p in range(5) for _ in range(3)]
    assert run.blocks(recs, 2) == [[0.0] * 3 + [1.0] * 3, [2.0] * 3 + [3.0] * 3 + [4.0] * 3]
    assert run.blocks(recs[:12], 2) == [[0.0] * 3 + [1.0] * 3, [2.0] * 3 + [3.0] * 3]
    assert run.blocks(recs[:3], 2) == [[0.0] * 3]


def test_reference_methods_agree():
    import reference

    assert reference.check() == 0


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=900)
    return proc


def test_short_runs_pass_reference_checks():
    specs = run.load_spec()
    for workload in workloads.WORKLOADS:
        for trace, seed in ((0, 9001), (1, 9002)):
            proc = _run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace)])
            assert proc.returncode == 0, proc.stderr[-3000:]
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert out["correct"], proc.stderr[-3000:]
            want = specs["per_layer" if trace else "end_to_end"]
            assert set(out["metrics"]) == {s["name"] for s in want}, workload


def test_refuses_to_run_without_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(["--workload", "edge-sweep", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}", flush=True)
            except Exception:
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    print("OK" if not failed else f"FAILED: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

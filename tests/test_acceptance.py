"""Acceptance criteria: one test per criterion, one printed verdict line each.

The verdict lines are echoed in a terminal summary section by conftest.py so
they are visible in a default (captured) pytest run.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mp_oracle
import numpy as np

from qgasgeo import GasSpec, curvature_closed_form, curvature_sign_boundary, virial_threshold
from qgasgeo import checks

RESULTS = []


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_01_closed_form_vs_determinant_oracle():
    t0 = time.perf_counter()
    ok, detail = checks.oracle_agreement()
    dt = time.perf_counter() - t0
    _report(1, ok and dt < 30.0,
            f"closed form vs determinant oracle: {detail}; {dt:.2f} s (budget 30 s)")


def test_criterion_02_polylog_oracle_at_q1():
    t0 = time.perf_counter()
    ok, detail = checks.polylog_moments()
    dt = time.perf_counter() - t0
    _report(2, ok and dt < 5.0,
            f"q=1 moments vs polylogarithms at 3 fugacities each: {detail}; "
            f"{dt:.2f} s (budget 5 s)")


def test_criterion_03_sign_tables():
    expected = [
        ("boson", 3, {0.5: 1, 1.0: 1, 1.2: 1, 1.35: -1, 2.0: -1}),
        ("fermion", 3, {0.5: -1, 1.0: -1, 1.9: -1, 2.5: 1}),
        ("boson", 2, {0.5: 1, 1.0: 1, 1.3: 1, 1.5: -1, 2.0: -1}),
        ("fermion", 2, {0.5: -1, 1.0: -1, 2.0: -1, 10.0: -1}),
    ]
    mismatches = []
    total = 0
    for stat, dim, signs in expected:
        for q, want in signs.items():
            total += 1
            r = curvature_closed_form(GasSpec(stat, q, dim), 0.05).R_reduced
            if math.copysign(1.0, r) != want:
                mismatches.append(f"{stat} D={dim} q={q}: R = {r:+.3e}")
    _report(3, not mismatches,
            f"sign of R at z = 0.05 matches at {total - len(mismatches)}/{total} entries"
            + (f"; wrong: {'; '.join(mismatches)}" if mismatches else ""))


def test_criterion_04_virial_thresholds_and_values():
    ok, detail = checks.virial_thresholds()
    _report(4, ok, f"bisection vs closed-form thresholds and q=1 values: {detail}")


def test_criterion_05_curvature_virial_consistency():
    cases = [
        ("boson", 3, 1.0, 1.6, virial_threshold("delta")),
        ("boson", 2, 1.0, 2.0, virial_threshold("eta")),
        ("fermion", 3, 1.0, 3.0, virial_threshold("alpha")),
    ]
    devs = []
    for stat, dim, lo, hi, q_ref in cases:
        q_star = curvature_sign_boundary(GasSpec(stat, 1.0, dim), 0.01, lo, hi)
        devs.append(math.inf if q_star is None else abs(q_star - q_ref))
    none_ok = curvature_sign_boundary(GasSpec("fermion", 1.0, 2), 0.01, 0.3, 8.0) is None
    ok = max(devs) < 0.1 and none_ok
    _report(5, ok,
            f"sign boundaries at z = 0.01 within {max(devs):.3f} of virial thresholds "
            f"(tol 0.1); fermion D=2 has none over [0.3, 8]: {none_ok}")


def test_criterion_06_anyonic_double_crossing():
    # Sign pattern of the planar boson at q = 1.15 along the z-grid.  The
    # expected signs, count and crossing come from the mpmath oracle in
    # tests/mp_oracle.py, which shares no code with qgasgeo; the name keeps
    # the double crossing the criterion was first written for (README,
    # "Tests and acceptance").  The oracle's committed table holds R at every
    # grid point; the ends and the two points around each oracle crossing are
    # recomputed live and must match it.
    spec = GasSpec("boson", 1.15, 2)
    zs = [float(z) for z in np.linspace(0.05, 0.97, 60)]
    rs = [curvature_closed_form(spec, z).R_reduced for z in zs]
    signs = [math.copysign(1.0, r) for r in rs]
    crossings = [i for i, (s1, s2) in enumerate(zip(signs, signs[1:])) if s1 != s2]
    changes = len(crossings)

    table = mp_oracle.load_criterion06()
    want = mp_oracle.sign_changes(table["R"])
    roots = [float(c["z"]) for c in table["crossings"]]
    live = {i: mp_oracle.curvature("boson", 2, 1.15, zs[i])
            for i in sorted({0, len(zs) - 1, *want, *(i + 1 for i in want)})}
    table_dev = max(float(abs(r - table["R"][i]) / abs(r)) for i, r in live.items())
    table_ok = (table["z"] == zs and [c["index"] for c in table["crossings"]] == want
                and table_dev <= 1e-18)
    r_lo, r_hi = float(live[0]), float(live[len(zs) - 1])
    end_dev = max(abs(rs[0] - r_lo) / abs(r_lo), abs(rs[-1] - r_hi) / abs(r_hi))
    inside = len(crossings) == len(roots) and all(
        zs[i] < z_star < zs[i + 1] for i, z_star in zip(crossings, roots))
    ok = (table_ok and changes == len(want) and inside and end_dev <= 1e-8
          and (rs[0] > 0.0) == (r_lo > 0.0) and (rs[-1] > 0.0) == (r_hi > 0.0))
    found = ", ".join(f"({zs[i]:.4f}, {zs[i + 1]:.4f})" for i in crossings) or "none"
    _report(6, ok,
            f"boson D=2 q=1.15 over [0.05, 0.97]: {changes} sign change(s) in {found} "
            f"(oracle: {len(want)} at z* = {', '.join(f'{z:.7f}' for z in roots)}), "
            f"R(0.05) = {rs[0]:+.4f} (oracle {r_lo:+.4f}), R(0.97) = {rs[-1]:+.4f} "
            f"(oracle {r_hi:+.4f}), max rel dev {end_dev:.1e} (tol 1e-08); "
            f"oracle table matches live recomputation: {table_ok}")


def test_criterion_07_fermion_large_q_profile():
    spec = GasSpec("fermion", 10.0, 3)
    r_small = curvature_closed_form(spec, 0.1).R_reduced
    r_large = curvature_closed_form(spec, 10.0).R_reduced
    r30 = curvature_closed_form(spec, 30.0).R_reduced
    r40 = curvature_closed_form(spec, 40.0).R_reduced
    plateau = abs(r30 - r40) / abs(r40)
    ok = r_small > 0.0 and r_large < 0.0 and plateau <= 0.1
    _report(7, ok,
            f"fermion D=3 q=10: R(0.1) = {r_small:+.3e} (need > 0), "
            f"R(10) = {r_large:+.3e} (need < 0), plateau dev "
            f"|R(30)-R(40)|/|R(40)| = {plateau:.3f} (tol 0.1)")


def test_criterion_08_metric_validity():
    ok, detail = checks.metric_positivity()
    _report(8, ok, detail)


def test_criterion_09_beta_independence():
    ok, detail = checks.beta_independence()
    _report(9, ok, f"reduced R at beta = 1 vs beta = 2: {detail}")


def test_criterion_10_selfcheck_command():
    exe = shutil.which("qgasgeo")
    cmd = [exe, "selfcheck"] if exe else [sys.executable, "-m", "qgasgeo.cli", "selfcheck"]
    # the library from this checkout, also when pytest alone puts src on sys.path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, env=env)
    dt = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "(no output)"
    _report(10, proc.returncode == 0 and dt < 60.0,
            f"`{' '.join(cmd)}` exited {proc.returncode} in {dt:.1f} s "
            f"(budget 60 s); last line: {tail}")

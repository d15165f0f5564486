"""Command-line front end: curvature sweeps, virial curves, sign tables, self-check.

Subcommands
-----------
curvature-z   R as a function of fugacity z at fixed deformation values
curvature-q   R as a function of deformation q at fixed fugacities
virial        second-order virial coefficients alpha, delta, eta, zeta vs q
signtable     sign of R for the standard q values at small fugacity
selfcheck     run the cross-checks of `qgasgeo.checks`; exit 0 iff all pass
              (--format json: one object with each check's result and time)

Exit codes: 0 success, 1 usage error (also an --out that cannot be opened, or
stdout closed by its reader), 2 domain error on every grid point, 3 self-check
failure.  Sweep output is CSV (default) or JSON with one row per grid point;
per-point failures land in the `error` column instead of aborting the sweep.
"""

import argparse
import csv
import json
import os
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import __version__, checks
from .core import BOSON, FERMION, DomainError, GasSpec
from .distributions import ConvergenceError
from .geometry import DegenerateMetricError, curvature_closed_form
from .quadrature import REL_TOL, ToleranceError
from .virial import alpha, delta, eta, zeta_fermion_d2

__all__ = ["main"]

_POINT_ERRORS = (DomainError, ConvergenceError, ToleranceError, DegenerateMetricError)
# the one curvature normalization (twice the plain scalar curvature of g)
_NORMALIZATION = "paper"

# standard sign-table rows: R > 0 boson-like, R < 0 fermion-like
_SIGNTABLE_QS = {
    (3, BOSON): (0.5, 1.0, 1.2, 1.35, 2.0),
    (3, FERMION): (0.5, 1.0, 1.9, 2.5),
    (2, BOSON): (0.5, 1.0, 1.3, 1.5, 2.0),
    (2, FERMION): (0.5, 1.0, 2.0, 10.0),
}

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value):
    """17 significant digits: full float round-trip precision."""
    return format(value, ".17g")


def _parse_values(parser, text, points, what):
    """Parse 'a,b,c' into a list or 'lo:hi' into a linspace of `points`."""
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":")
            lo, hi = float(lo_s), float(hi_s)
            if points < 2:
                parser.error(f"--points must be >= 2 for a {what} range, got {points}")
            return [float(v) for v in np.linspace(lo, hi, points)]
        values = [float(v) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError("empty list")
        return values
    except ValueError:
        parser.error(f"cannot parse {what} specification {text!r}; "
                     f"use 'v1,v2,...' or 'lo:hi' with --points")


def _open_out(args, parser):
    """--out opened for writing, or stdout; an --out that cannot be opened exits 1."""
    if args.out in (None, "-"):
        return nullcontext(sys.stdout)
    try:
        return open(args.out, "w", newline="")
    except OSError as exc:
        parser.exit(1, f"{parser.prog}: error: cannot write --out {args.out}: {exc.strerror}\n")


def _emit(args, parser, rows, fieldnames):
    """Write rows as CSV, or as JSON after the run's metadata, to --out or stdout."""
    with _open_out(args, parser) as fh:
        if args.format == "json":
            metadata = {"generator": "qgasgeo", "version": __version__, "mode": args.command,
                        "normalization": _NORMALIZATION, "rel_tol": REL_TOL}
            json.dump({"metadata": metadata, "rows": rows}, fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            for row in rows:
                writer.writerow(
                    [_fmt(row[k]) if isinstance(row[k], float) else row[k]
                     for k in fieldnames])


def _exit_status(rows):
    """2 when every row failed, else 0."""
    return 2 if rows and all(r["error"] for r in rows) else 0


def _curvature_row(stat, dim, q, z):
    row = {"statistics": stat, "D": dim, "q": q, "z": z,
           "R_reduced": "", "normalization": _NORMALIZATION, "error": ""}
    try:
        spec = GasSpec(stat, q, dim)
        row["R_reduced"] = curvature_closed_form(spec, z).R_reduced
    except _POINT_ERRORS as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _run_curvature_sweep(args, parser):
    zs = _parse_values(parser, args.z, args.points, "z")
    qs = _parse_values(parser, args.q, args.points, "q")
    # curvature-z runs over z at each q, curvature-q over q at each z
    if args.command == "curvature-z":
        grid = [(q, z) for q in qs for z in zs]
    else:
        grid = [(q, z) for z in zs for q in qs]
    rows = [_curvature_row(args.stat, args.dim, q, z) for q, z in grid]
    _emit(args, parser, rows, ["statistics", "D", "q", "z", "R_reduced", "normalization", "error"])
    return _exit_status(rows)


def _run_virial(args, parser):
    qs = _parse_values(parser, args.q, args.points, "q")
    try:
        rows = [{"q": q, "alpha": alpha(q), "delta": delta(q),
                 "eta": eta(q), "zeta": zeta_fermion_d2(q)} for q in qs]
    except DomainError as exc:
        parser.error(f"--q: {exc}")
    _emit(args, parser, rows, ["q", "alpha", "delta", "eta", "zeta"])
    return 0


def _run_signtable(args, parser):
    rows = [_curvature_row(stat, dim, q, args.z)
            for (dim, stat), qs in _SIGNTABLE_QS.items() for q in qs]
    for row in rows:
        row["sign"] = "" if row["error"] else ("+" if row["R_reduced"] > 0 else "-")
    if args.format == "table":
        with _open_out(args, parser) as fh:
            fh.write(f"sign of R at z = {args.z:g} ({_NORMALIZATION} normalization)\n")
            for (dim, stat), qs in _SIGNTABLE_QS.items():
                signs = [r["sign"] or "?" for r in rows
                         if r["D"] == dim and r["statistics"] == stat]
                qcells = "".join(f"{q:>8g}" for q in qs)
                scells = "".join(f"{s:>8}" for s in signs)
                fh.write(f"\nD={dim} {stat:<8} q: {qcells}\n")
                fh.write(f"   {'':<8} R: {scells}\n")
    else:
        _emit(args, parser, rows,
              ["statistics", "D", "q", "z", "R_reduced", "normalization", "sign", "error"])
    return _exit_status(rows)


def _run_selfcheck(args, parser):
    t0 = time.perf_counter()
    results = []
    for name, check in checks.CHECKS:
        t = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check reports and counts as failed
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(ok), "detail": detail,
                        "seconds": time.perf_counter() - t})
        if args.format == "text":
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    passed = sum(r["passed"] for r in results)
    total = len(results)
    elapsed = time.perf_counter() - t0
    if args.format == "json":
        json.dump({"checks": results, "passed": passed, "total": total,
                   "ok": passed == total, "seconds": elapsed}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"{'OK' if passed == total else 'FAILED'}: {passed}/{total} checks passed "
              f"in {elapsed:.1f} s")
    return 0 if passed == total else 3


def _add_common(sub, *, stat=None, dim=None, q=None, z=None, points=49):
    if stat is not None:
        sub.add_argument("--stat", choices=[BOSON, FERMION], default=stat,
                         help="statistics (default %(default)s)")
    if dim is not None:
        sub.add_argument("--dim", type=int, choices=[2, 3], default=dim,
                         help="spatial dimension (default %(default)s)")
    if q is not None:
        sub.add_argument("--q", default=q, metavar="LIST|LO:HI",
                         help="deformation values (default %(default)s)")
    if z is not None:
        sub.add_argument("--z", default=z, metavar="LIST|LO:HI",
                         help="fugacity values (default %(default)s)")
    sub.add_argument("--points", type=int, default=points,
                     help="grid size for LO:HI ranges (default %(default)s)")
    sub.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="output format (default %(default)s)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="output path (default stdout)")


def _build_parser():
    parser = _Parser(
        prog="qgasgeo",
        description="Thermodynamic-geometry curvature and virial coefficients "
                    "of deformed ideal Bose and Fermi gases in two and three dimensions.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("curvature-z", help="R(z) sweep at fixed deformation values")
    _add_common(p, stat=BOSON, dim=3, q="0.5,1,1.15,2", z="0.02:0.98")
    p.set_defaults(run=_run_curvature_sweep)

    p = sub.add_parser("curvature-q", help="R(q) sweep at fixed fugacities")
    _add_common(p, stat=FERMION, dim=3, q="0.2:5", z="0.1,0.5,2,10")
    p.set_defaults(run=_run_curvature_sweep)

    p = sub.add_parser("virial", help="virial coefficients alpha, delta, eta, zeta vs q")
    _add_common(p, q="0.2:3", points=57)
    p.set_defaults(run=_run_virial)

    p = sub.add_parser("signtable", help="sign of R at small fugacity, standard q values")
    p.add_argument("--z", type=float, default=0.05,
                   help="fugacity at which signs are evaluated (default %(default)s)")
    p.add_argument("--format", choices=["csv", "json", "table"], default="table",
                   help="output format (default %(default)s)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output path (default stdout)")
    p.set_defaults(run=_run_signtable)

    p = sub.add_parser("selfcheck", help="run oracle cross-validations; exit 0 iff all pass")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="one line per check, or one JSON object with each check's "
                        "name, pass flag, detail and seconds (default %(default)s)")
    p.set_defaults(run=_run_selfcheck)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.run(args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does): point stdout at devnull so
        # the flush at interpreter exit cannot raise again, and end without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""The public names of the package and what importing it loads."""

import os
import subprocess
import sys

import pytest

import qgasgeo


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qgasgeo import *", namespace)
    assert [name for name in qgasgeo.__all__ if name not in namespace] == []


def test_two_public_exception_classes():
    # DomainError: the input lies outside what the function answers for;
    # ToleranceError: a route cannot reach its accuracy inside the domain
    errors = {name for name in qgasgeo.__all__ if name.endswith("Error")}
    assert errors == {"DomainError", "ToleranceError"}
    assert issubclass(qgasgeo.DomainError, ValueError)
    assert issubclass(qgasgeo.ToleranceError, RuntimeError)


def _run_fresh(code):
    """stdout and exit code of code in a fresh interpreter that imports from src."""
    src = os.path.dirname(os.path.dirname(qgasgeo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.stdout, proc.returncode


@pytest.mark.parametrize("module", ["qgasgeo", "qgasgeo.cli", "qgasgeo.checks", "qgasgeo._polylog"])
def test_import_loads_neither_mpmath_nor_scipy(module):
    # numpy is the only runtime dependency; mpmath serves the test oracles
    # and scipy parity tests
    out, code = _run_fresh(f"import sys, {module}; "
                           "print(sorted(m for m in ('mpmath', 'scipy') if m in sys.modules))")
    assert code == 0 and out.strip() == "[]"


def test_selfcheck_runs_without_mpmath():
    # None in sys.modules makes every import of mpmath raise ImportError
    out, code = _run_fresh("import sys; sys.modules['mpmath'] = None; "
                           "from qgasgeo import cli; sys.exit(cli.main(['selfcheck']))")
    assert code == 0
    assert sum(line.startswith("PASS ") for line in out.splitlines()) == 5

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


@pytest.mark.parametrize("module", ["qgasgeo", "qgasgeo.cli"])
def test_import_loads_neither_mpmath_nor_scipy(module):
    # mpmath serves only the selfcheck references and scipy only parity tests;
    # a fresh interpreter shows what the import itself pulls in
    src = os.path.dirname(os.path.dirname(qgasgeo.__file__))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in ('mpmath', 'scipy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "[]"

"""The public names of the package."""

import qgasgeo


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qgasgeo import *", namespace)
    assert [name for name in qgasgeo.__all__ if name not in namespace] == []

"""Every name a public module lists in __all__ resolves on it, so `import *` cannot break."""

import importlib

import pytest


@pytest.mark.parametrize("modname", ["parwhit", "parwhit.asympt", "parwhit.gammafns",
                                     "parwhit.logcomplex", "parwhit.mbquad", "parwhit.residues",
                                     "parwhit.spectral", "parwhit.gz", "parwhit.gz.arrays",
                                     "parwhit.gz.combin", "parwhit.gz.identity",
                                     "parwhit.gz.operators", "parwhit.gz.whittaker"])
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

"""scipy's compiled CSR kernels, without the ``scipy.sparse`` package.

Importing the package adds ~21 MB of RSS and ~0.12 s (on a 2-vCPU
x86-64 host); the program calls only two loops of its compiled
``_sparsetools`` extension:

- ``csr_matvec(rows, cols, indptr, indices, data, x, y)`` adds A @ x to y
- ``csr_matvecs(rows, cols, nvecs, indptr, indices, data, x, y)`` adds
  A @ X to Y, for row-major X and Y flattened

This module loads that extension alone, from the file scipy ships it in,
under its full name; ``importlib.util.find_spec`` finds scipy's directory
without importing scipy.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.sparse._sparsetools"


def _load():
    loaded = sys.modules.get(_NAME)
    if loaded is not None:  # scipy.sparse loaded it first
        return loaded
    where = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "sparse")
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [where])
    if spec is None:
        raise ImportError(f"no {_NAME} extension in {where}", name=_NAME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # A single-phase extension enters itself in sys.modules, where a later
    # import of scipy.sparse would find it without making it the package's
    # attribute; out of sys.modules, that import loads it as its own.
    sys.modules.pop(_NAME, None)
    return module


_sparsetools = _load()
csr_matvec = _sparsetools.csr_matvec
csr_matvecs = _sparsetools.csr_matvecs

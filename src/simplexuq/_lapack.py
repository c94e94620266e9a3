"""The LAPACK and BLAS routines the package calls, without ``scipy.linalg``.

Each routine is an f2py wrapper in one of scipy's extension modules
``scipy/linalg/_flapack`` and ``_fblas``. Importing ``scipy.linalg`` to
reach them runs its ``__init__``, which (scipy 1.17) also builds an
array-API namespace and with it imports ``numpy.f2py``, ``numpy.testing``,
``numpy.ma`` and more: 0.10 s and 27 MB of peak RSS in a process that has
imported numpy, against 8 ms and 4.5 MB for ``scipy`` and the two
extension modules (2 vCPUs, BENCH_20.json). So the two modules are loaded
from scipy's ``linalg`` directory under their real names, and are private
to scipy: the names were checked with scipy 1.17.1 only, and scipy's own
``linalg/lapack.py`` and ``linalg/blas.py`` import them by these names. A
later ``import scipy.linalg`` finds them in ``sys.modules``, and a module
that one already loaded is reused, so ``scipy.linalg.lapack.dpotrf is
dpotrf`` in either order: the same object, calling the same library.
``scipy`` itself is imported first because a wheel may set up, in its
``__init__``, where the bundled BLAS is found (on Windows).
"""

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load(name):
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        path = [os.path.join(scipy.__path__[0], "linalg")]
        spec = importlib.machinery.PathFinder.find_spec(full, path)
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no extension module {full}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


_flapack = _load("_flapack")
_fblas = _load("_fblas")
dpotrf, dpotri, dpotrs, dtrtri = _flapack.dpotrf, _flapack.dpotri, _flapack.dpotrs, _flapack.dtrtri
dsymv, dtrmm = _fblas.dsymv, _fblas.dtrmm

import os
import subprocess
import sys

import pytest

import simplexuq

SRC = os.path.dirname(os.path.dirname(os.path.abspath(simplexuq.__file__)))

DIRAC_PIPELINE = """
import os, sys, tempfile
import numpy as np
import simplexuq.cli
from simplexuq import io as sio
from simplexuq.prior import KernelSpec, PriorSpec, build_gram
from simplexuq.sampler import Observations, PosteriorModel, SamplerConfig, mirror_langevin
from simplexuq.synth import builtin_endmembers, synth_generate
from simplexuq.uq import euclidean_mean, geodesic_mean, hdr, summarize_image

grid = sio.make_grid(2, 2)
S, _ = builtin_endmembers(16, 3)
spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind="dirac"))
scene = synth_generate(S, grid, spec, snr_db=20.0, rng=0)
gram = build_gram(grid, spec.kernel)
model = PosteriorModel(S, Observations(scene.X, scene.sigma2), spec, gram)
chain = mirror_langevin(model, SamplerConfig(step_size=1e-3, n_steps=200, seed=1))
summarize_image(chain, shape=(2, 2))
samples = chain.abundances[:, :, 0]
region = hdr(samples, 0.32, estimator="barycentric-histogram", bins=8)
with tempfile.TemporaryDirectory() as d:
    sio.export_ternary(os.path.join(d, "t"), samples, geodesic_mean(samples), euclidean_mean(samples), hdr=region)
unloaded = ("concurrent.futures", "numpy.ma", "queue", "scipy", "scipy.linalg._flapack", "scipy.spatial", "scipy.stats")
print(sorted(m for m in unloaded if m in sys.modules))
"""

EXPONENTIAL_PIPELINE = """
import sys
import numpy as np
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.io import make_grid
from simplexuq.prior import KernelSpec, PriorSpec, build_gram
from simplexuq.sampler import Observations, PosteriorModel, SamplerConfig, mirror_langevin
from simplexuq.synth import builtin_endmembers, synth_generate

grid = make_grid(4, 3)
S, _ = builtin_endmembers(16, 3)
spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=2.0))
scene = synth_generate(S, grid, spec, snr_db=20.0, rng=0)
gram = build_gram(grid, spec.kernel)
model = PosteriorModel(S, Observations(scene.X, scene.sigma2), spec, gram)
mirror_langevin(model, SamplerConfig(step_size=1e-3, n_steps=50, seed=1))
observed = np.arange(0, len(grid), 3)
interpolate(PartialObservation(observed, scene.A[:, observed]), spec, grid)
loaded = ("concurrent.futures", "numpy.ma", "queue", "scipy.linalg", "scipy.linalg._fblas",
          "scipy.linalg._flapack", "scipy.sparse", "scipy.spatial")
print(sorted(m for m in loaded if m in sys.modules))
"""

EXPONENTIAL_GRAM = """
import sys
from simplexuq.io import make_grid
from simplexuq.prior import KernelSpec, build_gram

before = "scipy.linalg._flapack" in sys.modules
gram = build_gram(make_grid(24, 20), KernelSpec(length_scale=2.0))
after = all(m in sys.modules for m in ("scipy.linalg._fblas", "scipy.linalg._flapack"))
print(before, after, gram._chol is None and gram._precision is None, "scipy.linalg" in sys.modules)
"""

# {first} and {second} are the two imports, in the order under test. The
# latent-KDE HDR and the .mat loader are the package's other scipy users.
WRAPPERS_AND_SCIPY_LINALG = """
import os, tempfile
import numpy as np
{first}
{second}
from scipy.io import savemat
from scipy.linalg import blas, lapack
from simplexuq import io as sio
from simplexuq.uq import hdr

same = [getattr(lapack, f) is getattr(_lapack, f) for f in ("dpotrf", "dpotri", "dpotrs", "dtrtri")]
same += [getattr(blas, f) is getattr(_lapack, f) for f in ("dsymv", "dtrmm")]
same += [lapack._flapack is _lapack._flapack, blas._fblas is _lapack._fblas]
samples = np.random.default_rng(3).dirichlet(np.ones(4), size=200)
region = hdr(samples, 0.32, estimator="latent-kde")
with tempfile.TemporaryDirectory() as d:
    path = os.path.join(d, "samson.mat")
    savemat(path, {{"V": np.ones((5, 6)), "nRow": 2, "nCol": 3}})
    X, width, height, _ = sio.load_samson_cube(path)
print(all(same), len(same), region.coverage >= 0.68 - 1 / 200, X.shape, width, height)
"""


def run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_every_exported_name_resolves():
    assert len(set(simplexuq.__all__)) == len(simplexuq.__all__)
    missing = [name for name in simplexuq.__all__ if not hasattr(simplexuq, name)]
    assert missing == []


def test_dirac_pipeline_leaves_scipy_unloaded():
    # scipy serves only LAPACK (exponential Gram matrices, interpolation), the
    # latent-KDE HDR and the .mat loaders; importing it costs most of the package's
    # start-up, so the CLI import and a whole dirac run must not load it.
    # Nor may they load numpy.ma (about 6 ms), which np.unique imports on its
    # first call, or queue and concurrent.futures (3.8 ms, through logging).
    assert run_fresh(DIRAC_PIPELINE) == "[]"


def test_exponential_pipeline_loads_lapack_but_not_scipy_spatial():
    # The exponential kernel is evaluated with numpy: scipy.spatial, and the
    # scipy.sparse it imports, cost about 0.1 s and 9 MB, and no LAPACK call
    # needs them. The LAPACK and BLAS wrappers come from scipy's extension
    # modules alone: scipy.linalg's __init__ costs about 0.1 s and 27 MB more.
    # Nor may interpolate's index check load numpy.ma, which scipy.linalg
    # used to load in set-up and np.unique would load in the first call.
    want = "['scipy.linalg._fblas', 'scipy.linalg._flapack']"
    assert run_fresh(EXPONENTIAL_PIPELINE) == want


def test_exponential_gram_loads_lapack_before_first_solve():
    # the wrappers load in set-up, not inside the first timed Langevin step,
    # though set-up factors nothing on a lattice of 480 pixels or more
    assert run_fresh(EXPONENTIAL_GRAM) == "False True True False"


@pytest.mark.parametrize(
    "first, second",
    [
        ("from simplexuq import _lapack", "import scipy.linalg"),
        ("import scipy.linalg", "from simplexuq import _lapack"),
    ],
    ids=["wrappers-first", "scipy-linalg-first"],
)
def test_wrappers_are_scipy_linalg_own_in_either_import_order(first, second):
    # Either way there is one copy of each extension module, so scipy.linalg
    # and the package hold the same module and wrapper objects. When the
    # wrappers load
    # first, scipy.linalg gets no `_flapack` or `_fblas` attribute, because
    # the import system binds a submodule to its parent only when it loads
    # it. scipy's own code reaches them with `from scipy.linalg import
    # _flapack`, which falls back to sys.modules, and `scipy.linalg.lapack`
    # and `.blas` hold every routine, so only code reading those private
    # attributes of scipy.linalg itself would notice.
    code = WRAPPERS_AND_SCIPY_LINALG.format(first=first, second=second)
    assert run_fresh(code) == "True 8 True (5, 6) 3 2"

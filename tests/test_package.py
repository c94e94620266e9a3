import os
import subprocess
import sys

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
print(sorted(m for m in ("numpy.ma", "scipy.linalg", "scipy.spatial", "scipy.stats") if m in sys.modules))
"""

EXPONENTIAL_GRAM = """
import sys
from simplexuq.io import make_grid
from simplexuq.prior import KernelSpec, build_gram

before = "scipy.linalg" in sys.modules
gram = build_gram(make_grid(3, 2), KernelSpec(length_scale=2.0))
print(before, "scipy.linalg" in sys.modules, "_precision" in vars(gram))
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
    # scipy serves only the exponential kernel, interpolation, the latent-KDE
    # HDR and the .mat loaders; importing it costs most of the package's
    # start-up, so the CLI import and a whole dirac run must not load it.
    # Nor may they load numpy.ma (about 10 ms), which np.unique(axis=0) does.
    assert run_fresh(DIRAC_PIPELINE) == "[]"


def test_exponential_gram_loads_lapack_before_first_solve():
    # the import lands in set-up, not inside the first timed Langevin step
    assert run_fresh(EXPONENTIAL_GRAM) == "False True False"

"""One round of one benchmark workload, in a process of its own.

    python perfbench/workload.py WORKLOAD SEED ROUND T0 OUT_DIR TRACE

T0 is the `time.monotonic()` reading taken by the parent just before it
started this process, so set-up and wall times include interpreter start-up
and imports. The round runs the workload, records the end of its last
output write, then checks the outputs against `oracles` and, when TRACE is
1, replays the pieces of one sampler step. It prints one JSON object as its
last line of standard output. A program error that the package raises for
bad numerics (a diverged chain, an unfactorizable kernel) is reported as a
failed operation; anything else ends the process with a traceback.
"""

import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

from simplexuq import geometry
from simplexuq import io as sio
from simplexuq.errors import DivergenceError, IllConditionedKernelError
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.prior import KernelSpec, PriorSpec, build_gram
from simplexuq.sampler import (
    Observations,
    PosteriorModel,
    SamplerConfig,
    latent_gradient,
    latent_neg_log_posterior,
    mirror_langevin,
)
from simplexuq.synth import builtin_endmembers, synth_generate
from simplexuq.uq import euclidean_mean, geodesic_mean, hdr, summarize_image

import oracles
from ess import ess
from spans import Tracer

T_IMPORTED = time.monotonic()

# image-*: the samson-synthetic scene. The ground truth is the scene's own
# draw (seed 5) so that every run unmixes the same abundances; the noise and
# the chain come from the run's seed.
IMAGE_SHAPE = (32, 32)
IMAGE_BANDS = 64
IMAGE_SNR_DB = 15.0
IMAGE_TRUTH_SEED = 5
IMAGE_TRUTH_SIGMA_A2 = 4.0
IMAGE_SIGMA_A2 = 0.25
IMAGE_LENGTH_SCALE = 10.0
IMAGE_STEP = 5e-3
IMAGE_STEPS = 300
IMAGE_BURN_IN = 100

# pixel-multimodal: the fig2 experiment as scripted, seeds included.
FIG2_TRUTH = (0.59, 0.01, 0.4)
FIG2_SNR_DB = 8.0
FIG2_SIGMA_A2 = 5.0
FIG2_SEED = 2
FIG2_STEP = 3e-3
FIG2_BURN_IN = 5000
FIG2_THINNING = 2
FIG2_KEPT = 10_000
FIG2_ALPHA = 0.32
FIG2_BINS = 32

# gap-fill: a 96x96 grid with a tenth of its pixels observed.
GAP_SHAPE = (96, 96)
GAP_OBSERVED_SHARE = 10
GAP_SIGMA_A2 = 1.0
GAP_LENGTH_SCALE = 10.0
GAP_NUGGETS = (0.0, 0.05)
GAP_CHECKED = 512


class Round:
    """What one round measured: marks on the shared clock, counts, outputs."""

    def __init__(self, out_dir, tracer):
        self.out = out_dir
        self.tr = tracer
        self.setup_end = None
        self.wall_end = None
        self.sample_s = None
        self.layers = {}
        self.checks = []
        self.ess = None

    def path(self, name):
        return os.path.join(self.out, name)

    def outputs_done(self):
        self.wall_end = time.monotonic()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seeds(seed, rnd, n):
    return [int(s) for s in np.random.SeedSequence([seed, rnd]).generate_state(n)]


def _ilr(A):
    """ilr coordinates (..., N, P-1) of images (..., P, N), by the oracle's charts."""
    return oracles.clr(np.swapaxes(A, -1, -2)) @ oracles.helmert(A.shape[-2])


def _run_chain(rd, model, cfg):
    rd.setup_end = time.monotonic()
    with rd.tr.span("sampler.mirror_langevin"):
        t = time.monotonic()
        chain = mirror_langevin(model, cfg)
        rd.sample_s = time.monotonic() - t
    return chain


def _write_maps(rd, name, img):
    with rd.tr.span("io.write_pgm16"):
        sio.write_pgm16(rd.path(name + ".pgm"), img, rd.path(name + "_scale.json"))
    with rd.tr.span("io.write_float_csv"):
        sio.write_float_csv(rd.path(name + ".csv"), img)


def image(rd, kind, seed, rnd):
    h, w = IMAGE_SHAPE
    noise_seed, chain_seed = _seeds(seed, rnd, 2)
    grid = sio.make_grid(w, h)
    S, names = builtin_endmembers(IMAGE_BANDS, 3)
    truth_spec = PriorSpec(P=3, sigma_a2=IMAGE_TRUTH_SIGMA_A2, kernel=KernelSpec(length_scale=IMAGE_LENGTH_SCALE))
    with rd.tr.span("synth.generate"):
        truth = synth_generate(S, grid, truth_spec, snr_db=None, rng=IMAGE_TRUTH_SEED).A
        scene = synth_generate(S, grid, truth_spec, snr_db=IMAGE_SNR_DB, rng=noise_seed, abundances=truth)
    if kind == "spatial":
        kernel = KernelSpec(length_scale=IMAGE_LENGTH_SCALE)
    else:
        kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=3, sigma_a2=IMAGE_SIGMA_A2, kernel=kernel)
    with rd.tr.span("prior.build_gram"):
        gram = build_gram(grid, kernel)
    model = PosteriorModel(S, Observations(scene.X, scene.sigma2), spec, gram)
    cfg = SamplerConfig(
        step_size=IMAGE_STEP, n_steps=IMAGE_STEPS, burn_in=IMAGE_BURN_IN, init="uniform-image", seed=chain_seed
    )
    chain = _run_chain(rd, model, cfg)
    with rd.tr.span("uq.summarize_image"):
        summary = summarize_image(chain, shape=(h, w))
    for k in range(3):
        _write_maps(rd, f"geodesic_mean_{names[k]}", summary.as_map(summary.geodesic_mean[k]))
    _write_maps(rd, "geodesic_std", summary.as_map(summary.geodesic_std))
    _write_maps(rd, "euclidean_std", summary.as_map(summary.euclidean_std))
    with rd.tr.span("io.write_abundance_stack"):
        sio.write_abundance_stack(rd.path("chain.stack"), chain.abundances, w, h)
    rd.outputs_done()

    A = chain.abundances
    rd.ess = ess(_ilr(A).reshape(len(A), -1))
    Z = _ilr(A[-1]).T
    if kind == "spatial":
        U = oracles.pixel_coords(w, h)
        K = oracles.exp_kernel(U, U, IMAGE_LENGTH_SCALE) + gram.applied_jitter * np.eye(h * w)
    else:
        K = np.eye(h * w)
    rng = np.random.default_rng([seed, rnd, 7])
    rd.checks += oracles.check_samples(A)
    rd.checks += oracles.check_potential_and_gradient(
        Z,
        K,
        S,
        scene.X,
        scene.sigma2,
        IMAGE_SIGMA_A2,
        lambda Y: latent_neg_log_posterior(Y, model),
        lambda Y: latent_gradient(Y, model),
        rng,
    )
    rd.checks += oracles.check_summary(A, summary)
    rd.checks += oracles.check_closer_than_uniform(summary.geodesic_mean, truth)
    rd.layers.update(_chain_layers(rd, model, chain, gram, Z))


def pixel_multimodal(rd, seed, rnd):
    S, _ = builtin_endmembers(64, 3)
    grid = np.array([[0.0, 0.0]])
    spec = PriorSpec(P=3, sigma_a2=FIG2_SIGMA_A2, kernel=KernelSpec(kind="dirac"))
    with rd.tr.span("synth.generate"):
        scene = synth_generate(
            S, grid, spec, snr_db=FIG2_SNR_DB, rng=FIG2_SEED, abundances=np.array(FIG2_TRUTH)[:, None]
        )
    with rd.tr.span("prior.build_gram"):
        gram = build_gram(grid, spec.kernel)
    model = PosteriorModel(S, Observations(scene.X, scene.sigma2), spec, gram)
    cfg = SamplerConfig(
        step_size=FIG2_STEP,
        n_steps=FIG2_BURN_IN + FIG2_THINNING * FIG2_KEPT,
        burn_in=FIG2_BURN_IN,
        thinning=FIG2_THINNING,
        seed=FIG2_SEED + 1,
    )
    chain = _run_chain(rd, model, cfg)
    samples = chain.abundances[:, :, 0]
    with rd.tr.span("uq.summarize_means"):
        gmean = geodesic_mean(samples)
        emean = euclidean_mean(samples)
    with rd.tr.span("uq.hdr"):
        region = hdr(samples, FIG2_ALPHA, estimator="barycentric-histogram", bins=FIG2_BINS)
    with rd.tr.span("io.export_ternary"):
        sio.export_ternary(rd.path("fig2"), samples, gmean, emean, hdr=region)
    with rd.tr.span("io.write_abundance_stack"):
        sio.write_abundance_stack(rd.path("fig2_chain.stack"), chain.abundances, 1, 1)
    rd.outputs_done()

    rd.ess = ess(_ilr(chain.abundances).reshape(len(samples), -1))
    rd.checks += oracles.check_samples(chain.abundances)
    rd.checks += oracles.check_pixel_posterior(
        samples, ess(samples), region, FIG2_ALPHA, S, scene.X[:, 0], scene.sigma2, FIG2_SIGMA_A2
    )
    rd.layers.update(_chain_layers(rd, model, chain, gram, _ilr(chain.abundances[-1]).T))


def gap_fill(rd, seed, rnd):
    h, w = GAP_SHAPE
    N = h * w
    obs_seed, truth_seed, check_seed = _seeds(seed, rnd, 3)
    grid = sio.make_grid(w, h)
    S, _ = builtin_endmembers(IMAGE_BANDS, 3)
    idx = np.sort(np.random.default_rng(obs_seed).choice(N, N // GAP_OBSERVED_SHARE, replace=False))
    spec = PriorSpec(P=3, sigma_a2=GAP_SIGMA_A2, kernel=KernelSpec(length_scale=GAP_LENGTH_SCALE))
    with rd.tr.span("synth.generate"):
        observed = synth_generate(S, grid[idx], spec, snr_db=None, rng=truth_seed).A
    rd.setup_end = time.monotonic()
    results = []
    interp_s = 0.0
    for nugget in GAP_NUGGETS:
        with rd.tr.span("interp.interpolate"):
            t = time.monotonic()
            results.append(interpolate(PartialObservation(idx, observed, nugget), spec, grid))
            interp_s += time.monotonic() - t
    for nugget, (A, var) in zip(GAP_NUGGETS, results):
        with rd.tr.span("io.write_abundance_stack"):
            sio.write_abundance_stack(rd.path(f"gap_fill_nugget{nugget:g}.stack"), A, w, h)
        with rd.tr.span("io.write_float_csv"):
            sio.write_float_csv(rd.path(f"gap_fill_nugget{nugget:g}_variance.csv"), var.reshape(h, w))
    rd.outputs_done()
    rd.sample_s = interp_s

    check_idx = np.sort(np.random.default_rng(check_seed).choice(N, GAP_CHECKED, replace=False))
    coords = oracles.pixel_coords(w, h)
    for nugget, (A, var) in zip(GAP_NUGGETS, results):
        rd.checks += oracles.check_gap_fill(
            observed, coords, idx, check_idx, GAP_SIGMA_A2, GAP_LENGTH_SCALE, nugget, A, var
        )
    rd.layers.update(
        {"interp.interpolate_s": interp_s, "interp.observed": len(idx), "interp.predicted": N}
    )


def _median_call(fn, budget=0.25, max_calls=5000):
    """Median seconds of repeated calls, for about ``budget`` seconds."""
    times = []
    stop = time.monotonic() + budget
    while len(times) < 5 or (time.monotonic() < stop and len(times) < max_calls):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def _chain_layers(rd, model, chain, gram, Z):
    """Counts and, in a traced round, the split of one step at the final state."""
    P, N = model.P, model.n_pixels
    steps = chain.config.n_steps
    layers = {
        "prior.gram_bytes": gram.matrix.nbytes + gram.chol.nbytes,
        "prior.solve_flops": 2 * N * N * (P - 1),
        "sampler.steps": steps,
        "sampler.kept": chain.n_samples,
        "sampler.chain_bytes": chain.abundances.nbytes,
        "sampler.ess_median": float(np.median(rd.ess)),
        "sampler.ess_min": float(np.min(rd.ess)),
        "sampler.sample_s": rd.sample_s,
        "sampler.step_us": 1e6 * rd.sample_s / steps,
    }
    if not rd.tr.enabled:
        return layers
    H = model.prior.H
    solve = _median_call(lambda: gram.solve(Z.T))
    softmax = _median_call(lambda: geometry.softmax((H @ Z).T))
    state = _median_call(lambda: latent_gradient(Z, model))
    keep = _median_call(lambda: geometry.interior_softmax((H @ Z).T).T)
    layers.update(
        {
            "prior.solve_ms": 1e3 * solve,
            "geometry.softmax_ms": 1e3 * softmax,
            "sampler.state_ms": 1e3 * state,
            "sampler.misfit_ms": 1e3 * (state - solve - softmax),
            "sampler.loop_us": layers["sampler.step_us"] - 1e6 * state,
            "sampler.keep_ms": 1e3 * keep,
        }
    )
    return layers


def environment():
    cfg = np.__config__.CONFIG.get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: cfg.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: cfg.get("lapack", {}).get(k) for k in ("name", "version")},
        "machine": platform.machine(),
    }


WORKLOADS = {
    "image-spatial": lambda rd, s, r: image(rd, "spatial", s, r),
    "image-dirac": lambda rd, s, r: image(rd, "dirac", s, r),
    "pixel-multimodal": pixel_multimodal,
    "gap-fill": gap_fill,
}


def main(argv):
    name, seed, rnd, t0, out_dir, traced = argv
    seed, rnd, t0, traced = int(seed), int(rnd), float(t0), traced == "1"
    tr = Tracer(traced, t0)
    tr.record("run.import", t0, T_IMPORTED)
    rd = Round(out_dir, tr)
    result = {"failed": 0, "checks": [], "environment": environment()}
    try:
        WORKLOADS[name](rd, seed, rnd)
    except (DivergenceError, IllConditionedKernelError) as exc:
        result.update(failed=1, error=f"{type(exc).__name__}: {exc}")
        print(json.dumps(result))
        return
    tr.close(rd.wall_end)
    files = [os.path.join(rd.out, f) for f in sorted(os.listdir(rd.out))]
    if rd.ess is not None:
        ess_per_s = float(np.median(rd.ess)) / rd.sample_s
    else:
        # Closed-form conditioning: each call yields the exact posterior
        # marginals, one effective draw per latent coordinate.
        ess_per_s = len(GAP_NUGGETS) / rd.sample_s
    layers = dict(rd.layers)
    layers.update(
        {
            "run.import_s": T_IMPORTED - t0,
            "io.bytes_written": sum(os.path.getsize(f) for f in files),
            "io.files_written": len(files),
        }
    )
    if traced:
        layers.update(
            {
                "synth.generate_s": tr.total("synth."),
                "prior.build_gram_s": tr.total("prior.build_gram"),
                "uq.summarize_s": tr.total("uq.summarize"),
                "uq.hdr_s": tr.total("uq.hdr"),
                "io.write_s": tr.total("io."),
            }
        )
    result.update(
        checks=rd.checks,
        end_to_end={
            "setup_s": rd.setup_end - t0,
            "wall_s": rd.wall_end - t0,
            "ess_per_s": ess_per_s,
            "peak_rss_mb": rd.peak_rss_mb,
        },
        layers=layers,
        spans=tr.spans,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

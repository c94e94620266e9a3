"""Scripted experiment analogues, fully seeded and file-reproducible.

`fig2` unmixes a single pixel whose posterior is deliberately multimodal:
ground truth [0.59, 0.01, 0.4], SNR 8 dB, a wide multimodal prior
(sigma_a2 = 5) and 10000 kept samples; outputs are a ternary sample cloud
with both means and the HDR overlay. `samson_synthetic` is the image-scale
study at desk scale: a 32x32 synthetic scene with near-pure and mixed
regions, 15 dB noise, and paired spatial-vs-dirac prior runs (length
scale 10 px, sigma_a2 = 0.25, 1000 kept samples each) compared through
their mean and standard-deviation maps.

Running any of these twice with the same seed produces byte-identical
output files.
"""

import os

import numpy as np

from . import io as sio
from .prior import KernelSpec, PriorSpec, build_gram
from .sampler import Observations, PosteriorModel, SamplerConfig, mirror_langevin
from .synth import builtin_endmembers, synth_generate
from .uq import euclidean_mean, geodesic_mean, hdr, map_total_variation, summarize_image

FIG2_GT = (0.59, 0.01, 0.4)
FIG2_SNR_DB = 8.0
FIG2_SIGMA_A2 = 5.0
FIG2_N_KEPT = 10_000
FIG2_STEP = 3e-3
FIG2_THINNING = 2
FIG2_BURN_IN = 5000
FIG2_ALPHA = 0.32
FIG2_BINS = 32
FIG2_SEED = 2

SAMSON_SHAPE = (32, 32)
SAMSON_L = 64
SAMSON_SNR_DB = 15.0
SAMSON_SIGMA_A2 = 0.25
SAMSON_LENGTH_SCALE = 10.0
SAMSON_GT_SIGMA_A2 = 4.0
SAMSON_N_KEPT = 1000
SAMSON_N_STEPS = 3000
SAMSON_STEP = 5e-3
SAMSON_SEED = 5
PURE_THRESHOLD = 0.8
MIXED_THRESHOLD = 0.55


def fig2(output_dir, seed=FIG2_SEED):
    """Single-pixel multimodal unmixing study; returns a result dict."""
    os.makedirs(output_dir, exist_ok=True)
    S, names = builtin_endmembers(64, 3)
    grid = np.array([[0.0, 0.0]])
    spec = PriorSpec(P=3, sigma_a2=FIG2_SIGMA_A2, kernel=KernelSpec(kind="dirac"))
    gt = np.array(FIG2_GT)[:, None]
    synth = synth_generate(S, grid, spec, snr_db=FIG2_SNR_DB, rng=seed, abundances=gt)
    gram = build_gram(grid, spec.kernel)
    model = PosteriorModel(S, Observations(synth.X, synth.sigma2), spec, gram)
    cfg = SamplerConfig(
        step_size=FIG2_STEP,
        n_steps=FIG2_BURN_IN + FIG2_THINNING * FIG2_N_KEPT,
        burn_in=FIG2_BURN_IN,
        thinning=FIG2_THINNING,
        seed=seed + 1,
    )
    chain = mirror_langevin(model, cfg)
    samples = chain.abundances[:, :, 0]
    gmean = geodesic_mean(samples)
    emean = euclidean_mean(samples)
    region = hdr(samples, FIG2_ALPHA, estimator="barycentric-histogram", bins=FIG2_BINS)

    prefix = os.path.join(output_dir, "fig2")
    sio.export_ternary(prefix, samples, gmean, emean, hdr=region)
    sio.write_abundance_stack(os.path.join(output_dir, "fig2_chain.stack"), chain.abundances, 1, 1)
    sio.write_json_sidecar(
        os.path.join(output_dir, "fig2_summary.json"),
        {
            "ground_truth": list(FIG2_GT),
            "snr_db": FIG2_SNR_DB,
            "sigma2": synth.sigma2,
            "sigma_a2": FIG2_SIGMA_A2,
            "n_samples": int(samples.shape[0]),
            "step_size": FIG2_STEP,
            "thinning": FIG2_THINNING,
            "seed": seed,
            "alpha": FIG2_ALPHA,
            "hdr_bins": FIG2_BINS,
            "hdr_components": int(region.n_components),
            "hdr_coverage": region.coverage,
            "geodesic_mean": [float(v) for v in gmean],
            "euclidean_mean": [float(v) for v in emean],
            "endmember_names": names,
        },
    )
    return {
        "samples": samples,
        "geodesic_mean": gmean,
        "euclidean_mean": emean,
        "hdr": region,
        "chain": chain,
    }


def _std_maps(chain, shape):
    summary = summarize_image(chain, shape=shape)
    return summary, {
        "euclidean_std": summary.as_map(summary.euclidean_std),
        "geodesic_std": summary.as_map(summary.geodesic_std),
    }


def samson_synthetic(output_dir, seed=SAMSON_SEED):
    """Image-scale spatial-vs-dirac prior comparison; returns a result dict."""
    os.makedirs(output_dir, exist_ok=True)
    h, w = SAMSON_SHAPE
    grid = sio.make_grid(w, h)
    S, names = builtin_endmembers(SAMSON_L, 3)

    # ground truth drawn with a larger latent variance so the scene has
    # near-pure patches as well as mixed ones
    gt_spec = PriorSpec(
        P=3, sigma_a2=SAMSON_GT_SIGMA_A2, kernel=KernelSpec(length_scale=SAMSON_LENGTH_SCALE)
    )
    synth = synth_generate(S, grid, gt_spec, snr_db=SAMSON_SNR_DB, rng=seed)
    obs = Observations(synth.X, synth.sigma2)
    max_comp = synth.A.max(axis=0)
    pure = max_comp >= PURE_THRESHOLD
    mixed = max_comp <= MIXED_THRESHOLD

    runs = {
        "spatial": PriorSpec(
            P=3, sigma_a2=SAMSON_SIGMA_A2, kernel=KernelSpec(length_scale=SAMSON_LENGTH_SCALE)
        ),
        "dirac": PriorSpec(P=3, sigma_a2=SAMSON_SIGMA_A2, kernel=KernelSpec(kind="dirac")),
    }
    burn = SAMSON_N_STEPS - SAMSON_N_KEPT
    results = {}
    for i, (name, spec) in enumerate(runs.items()):
        gram = build_gram(grid, spec.kernel)
        model = PosteriorModel(S, obs, spec, gram)
        cfg = SamplerConfig(
            step_size=SAMSON_STEP, n_steps=SAMSON_N_STEPS, burn_in=burn, seed=seed + 1 + i
        )
        chain = mirror_langevin(model, cfg)
        summary, maps = _std_maps(chain, (h, w))
        results[name] = {"summary": summary, "maps": maps, "chain": chain}

    # exports: observation cube, ground truth, mean maps for the spatial
    # run, std maps and their sidecars for both runs
    sio.write_cube(os.path.join(output_dir, "observations.cube"), synth.X, w, h)
    sio.write_abundance_stack(os.path.join(output_dir, "ground_truth.stack"), synth.A, w, h)
    sio.write_endmembers(os.path.join(output_dir, "endmembers.csv"), S, names)
    spatial_summary = results["spatial"]["summary"]
    for k in range(3):
        m = spatial_summary.as_map(spatial_summary.geodesic_mean[k])
        sio.write_map(os.path.join(output_dir, f"geodesic_mean_{names[k]}"), m)
    tv = {}
    for name, res in results.items():
        for stat, m in res["maps"].items():
            sio.write_map(os.path.join(output_dir, f"{stat}_{name}"), m)
            tv[f"{stat}_{name}"] = map_total_variation(m)

    stats = {}
    for name, res in results.items():
        s = res["summary"]
        stats[name] = {
            "geodesic_std_pure": float(s.geodesic_std[pure].mean()),
            "geodesic_std_mixed": float(s.geodesic_std[mixed].mean()),
            "euclidean_std_pure": float(s.euclidean_std[pure].mean()),
            "euclidean_std_mixed": float(s.euclidean_std[mixed].mean()),
        }
    sio.write_json_sidecar(
        os.path.join(output_dir, "samson_synthetic_summary.json"),
        {
            "shape": [h, w],
            "snr_db": SAMSON_SNR_DB,
            "sigma2": synth.sigma2,
            "sigma_a2": SAMSON_SIGMA_A2,
            "length_scale": SAMSON_LENGTH_SCALE,
            "gt_sigma_a2": SAMSON_GT_SIGMA_A2,
            "n_samples": SAMSON_N_KEPT,
            "step_size": SAMSON_STEP,
            "seed": seed,
            "n_pure": int(pure.sum()),
            "n_mixed": int(mixed.sum()),
            "pure_threshold": PURE_THRESHOLD,
            "mixed_threshold": MIXED_THRESHOLD,
            "map_total_variation": tv,
            "region_stats": stats,
        },
    )
    return {
        "ground_truth": synth.A,
        "pure": pure,
        "mixed": mixed,
        "results": results,
        "map_total_variation": tv,
        "region_stats": stats,
    }

"""Command-line interface.

Subcommands cover the full pipeline: `transform` (log-ratio transforms on
CSV vectors), `synth` (generate observation cubes), `sample-prior`,
`interpolate` (partial abundance maps), `unmix` (posterior sampling),
`uq` (summaries, variance maps, HDR) and `repro` (scripted experiment
analogues). Exit codes: 0 success, 1 validation error, 2 numerical
failure. With --error-json, failures also emit a machine-readable JSON
object on stderr. All randomness is seeded from the run configuration.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import geometry
from . import io as sio
from . import repro
from .errors import ConfigError, DivergenceError, IllConditionedKernelError
from .interp import PartialObservation, interpolate
from .prior import build_gram, gp_prior_sample
from .sampler import Observations, PosteriorModel, mirror_langevin, projected_ula
from .synth import SynthResult, builtin_endmembers, sigma2_from_snr, synth_generate
from .uq import euclidean_mean, geodesic_mean, hdr, summarize_image

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _grid_from_cfg(cfg):
    g = cfg.get("grid")
    if not g or "width" not in g or "height" not in g:
        raise ConfigError("this subcommand needs grid.width and grid.height")
    return sio.make_grid(g["width"], g["height"]), g["width"], g["height"]


def _endmembers_from_cfg(cfg):
    path = cfg.get("paths", {}).get("endmembers")
    if path:
        S, names = sio.load_endmembers(path)
    else:
        S, names = builtin_endmembers(64, cfg["n_parts"])
    if S.shape[1] != cfg["n_parts"]:
        raise ConfigError(
            f"endmember file has {S.shape[1]} materials but n_parts = {cfg['n_parts']}"
        )
    return S, names


def _outdir(args, cfg):
    out = args.output_dir or cfg.get("paths", {}).get("output_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_transform(args):
    vecs = sio.read_float_csv(args.input)
    op = args.op
    if op == "ilr":
        out = geometry.ilr(vecs)
    elif op == "clr":
        out = geometry.clr(vecs)
    elif op == "alr":
        out = geometry.alr(vecs)
    elif op == "softmax":
        out = geometry.ilr_inv(vecs)
    sio.write_float_csv(args.output, out)
    return EXIT_OK


def cmd_synth(args):
    cfg = sio.load_run_config(args.config)
    grid, w, h = _grid_from_cfg(cfg)
    S, names = _endmembers_from_cfg(cfg)
    spec = sio.config_to_prior_spec(cfg)
    noise = cfg.get("noise", {})
    seed = cfg["sampler"]["seed"]
    # validate_config admits at most one of noise.snr_db and noise.sigma2.
    result = synth_generate(S, grid, spec, snr_db=noise.get("snr_db"), rng=seed)
    if noise.get("sigma2", 0.0) > 0:
        rng = np.random.default_rng(seed + 1)
        X = result.clean + np.sqrt(noise["sigma2"]) * rng.standard_normal(result.clean.shape)
        result = SynthResult(X, result.clean, result.A, result.S, noise["sigma2"], None)
    out = _outdir(args, cfg)
    sio.write_cube(os.path.join(out, "observations.cube"), result.X, w, h)
    sio.write_abundance_stack(os.path.join(out, "ground_truth.stack"), result.A, w, h)
    sio.write_endmembers(os.path.join(out, "endmembers.csv"), S, names)
    sio.write_json_sidecar(
        os.path.join(out, "synth.json"),
        {"sigma2": result.sigma2, "snr_db": result.snr_db, "seed": seed, "width": w, "height": h},
    )
    return EXIT_OK


def cmd_sample_prior(args):
    cfg = sio.load_run_config(args.config)
    grid, w, h = _grid_from_cfg(cfg)
    spec = sio.config_to_prior_spec(cfg)
    gram = build_gram(grid, spec.kernel)
    A = gp_prior_sample(spec, gram, args.n_samples, cfg["sampler"]["seed"])
    out = _outdir(args, cfg)
    sio.write_abundance_stack(os.path.join(out, "prior_samples.stack"), A, w, h)
    return EXIT_OK


def cmd_interpolate(args):
    cfg = sio.load_run_config(args.config)
    grid, w, h = _grid_from_cfg(cfg)
    spec = sio.config_to_prior_spec(cfg)
    paths = cfg.get("paths", {})
    if "stack" not in paths or "mask" not in paths:
        raise ConfigError("interpolate needs paths.stack and paths.mask")
    stack, header = sio.read_abundance_stack(paths["stack"])
    if (header["width"], header["height"]) != (w, h):
        raise ValueError(
            f"stack is {header['width']}x{header['height']} pixels but grid is {w}x{h}"
        )
    idx = sio.load_mask(paths["mask"])
    n_pixels = stack.shape[2]
    past = idx[idx >= n_pixels]
    if past.size:
        raise ValueError(f"mask index {past[0]} is past the stack's {n_pixels} pixels")
    values = geometry.closure(stack[0][:, idx].T).T
    obs = PartialObservation(idx, values, **cfg.get("interp", {}))
    A, var = interpolate(obs, spec, grid)
    out = _outdir(args, cfg)
    sio.write_abundance_stack(os.path.join(out, "interpolated.stack"), A, w, h)
    sio.write_float_csv(os.path.join(out, "latent_variance.csv"), var.reshape(h, w))
    return EXIT_OK


def cmd_unmix(args):
    cfg = sio.load_run_config(args.config)
    paths = cfg.get("paths", {})
    if "cube" not in paths:
        raise ConfigError("unmix needs paths.cube")
    X, header = sio.read_cube(paths["cube"])
    w, h = header["width"], header["height"]
    grid = sio.make_grid(w, h)
    S, _ = _endmembers_from_cfg(cfg)
    spec = sio.config_to_prior_spec(cfg)
    noise = cfg.get("noise", {})
    if "sigma2" in noise:
        sigma2 = noise["sigma2"]
    elif "snr_db" in noise:
        sigma2 = sigma2_from_snr(X, noise["snr_db"])
    else:
        raise ConfigError("unmix needs noise.sigma2 or noise.snr_db")
    gram = build_gram(grid, spec.kernel)
    model = PosteriorModel(S, Observations(X, sigma2), spec, gram)
    scfg = sio.config_to_sampler_config(cfg)
    algorithm = cfg["sampler"].get("algorithm", "mirror-langevin")
    if algorithm == "mirror-langevin":
        chain = mirror_langevin(model, scfg)
    elif algorithm == "projected-ula":
        chain = projected_ula(model, scfg)
    else:
        raise ConfigError(f"unknown sampler.algorithm {algorithm!r}")
    out = _outdir(args, cfg)
    sio.write_abundance_stack(os.path.join(out, "chain.stack"), chain.abundances, w, h)
    sio.write_json_sidecar(
        os.path.join(out, "chain.json"),
        {
            "algorithm": chain.algorithm,
            "sigma2": sigma2,
            "config": {
                "step_size": scfg.step_size,
                "n_steps": scfg.n_steps,
                "burn_in": scfg.burn_in,
                "thinning": scfg.thinning,
                "seed": scfg.seed,
            },
            "energy_trace": [float(v) for v in chain.energy_trace],
        },
    )
    return EXIT_OK


def cmd_uq(args):
    cfg = sio.load_run_config(args.config)
    paths = cfg.get("paths", {})
    if "stack" not in paths:
        raise ConfigError("uq needs paths.stack (a sampled chain)")
    stack, header = sio.read_abundance_stack(paths["stack"])
    w, h = header["width"], header["height"]
    stack = np.swapaxes(geometry.closure(np.swapaxes(stack, 1, 2)), 1, 2)
    summary = summarize_image(stack, shape=(h, w))
    out = _outdir(args, cfg)
    sio.write_abundance_stack(os.path.join(out, "geodesic_mean.stack"), summary.geodesic_mean, w, h)
    sio.write_abundance_stack(os.path.join(out, "euclidean_mean.stack"), summary.euclidean_mean, w, h)
    for stat in ("geodesic_std", "euclidean_std"):
        sio.write_map(os.path.join(out, stat), summary.as_map(getattr(summary, stat)))
    sio.write_float_csv(
        os.path.join(out, "ilr_variances.csv"), summary.ilr_variances.T, header=None
    )
    uq_cfg = cfg.get("uq", {})
    payload = {
        "n_samples": int(stack.shape[0]),
        "width": w,
        "height": h,
    }
    if stack.shape[2] == 1:  # single pixel: HDR and ternary exports
        samples = stack[:, :, 0]
        alpha = uq_cfg.get("alpha", 0.1)
        options = {k: uq_cfg[k] for k in ("estimator", "bins", "bandwidth") if k in uq_cfg}
        region = hdr(samples, alpha, **options)
        if samples.shape[1] in (3, 4):
            sio.export_ternary(
                os.path.join(out, "pixel"),
                samples,
                geodesic_mean(samples),
                euclidean_mean(samples),
                hdr=region if region.grid is not None else None,
            )
        payload["hdr"] = {
            "alpha": alpha,
            "estimator": region.estimator,
            "threshold": region.threshold,
            "n_components": int(region.n_components),
            "coverage": region.coverage,
        }
    sio.write_json_sidecar(os.path.join(out, "uq_summary.json"), payload)
    return EXIT_OK


def cmd_repro(args):
    out = args.output_dir or "."
    if args.experiment == "fig2":
        result = repro.fig2(out, seed=args.seed if args.seed is not None else repro.FIG2_SEED)
        print(f"fig2: {result['hdr'].n_components} HDR components at alpha={repro.FIG2_ALPHA}")
    else:
        result = repro.samson_synthetic(
            out, seed=args.seed if args.seed is not None else repro.SAMSON_SEED
        )
        tv = result["map_total_variation"]
        print(
            "samson-synthetic: TV(geodesic std) spatial/dirac = "
            f"{tv['geodesic_std_spatial']:.2f}/{tv['geodesic_std_dirac']:.2f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and error mapping
# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="simplexuq",
        description="Simplex-constrained Bayesian unmixing with log-ratio geometry.",
    )
    p.add_argument(
        "--error-json",
        action="store_true",
        help="emit a machine-readable JSON object on stderr when a command fails",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="apply a log-ratio transform to CSV row vectors")
    t.add_argument("--op", required=True, choices=["ilr", "clr", "alr", "softmax"])
    t.add_argument("--input", required=True)
    t.add_argument("--output", required=True)
    t.set_defaults(func=cmd_transform)

    for name, fn, extra in (
        ("synth", cmd_synth, ()),
        ("sample-prior", cmd_sample_prior, ("n_samples",)),
        ("interpolate", cmd_interpolate, ()),
        ("unmix", cmd_unmix, ()),
        ("uq", cmd_uq, ()),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="run-configuration JSON")
        sp.add_argument("--output-dir", default=None)
        if "n_samples" in extra:
            sp.add_argument("--n-samples", dest="n_samples", type=int, default=1)
        sp.set_defaults(func=fn)

    r = sub.add_parser("repro", help="run a scripted experiment analogue")
    r.add_argument("experiment", choices=["fig2", "samson-synthetic"])
    r.add_argument("--output-dir", default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=cmd_repro)
    return p


_NUMERICAL_ERRORS = (DivergenceError, IllConditionedKernelError, np.linalg.LinAlgError, FloatingPointError)
_VALIDATION_ERRORS = (ConfigError, ValueError, OSError, KeyError)


def _fail(exc, code, error_json):
    print(f"error: {exc}", file=sys.stderr)
    if error_json:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
            file=sys.stderr,
        )
    return code


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        return _fail(exc, EXIT_NUMERICAL, args.error_json)
    except _VALIDATION_ERRORS as exc:
        return _fail(exc, EXIT_VALIDATION, args.error_json)


if __name__ == "__main__":
    sys.exit(main())

"""Bayesian simplex-constrained spectral unmixing with log-ratio geometry.

Module map: `geometry` (log-ratio charts and geodesics), `prior`
(pixelwise and pushforward-GP priors), `interp` (closed-form abundance-map
interpolation), `sampler` (mirror Langevin and projected ULA), `uq`
(geodesic statistics and highest-density regions), `io`/`synth`/`repro`
(file formats, synthetic data, scripted experiments) and `cli`.
"""

from .geometry import (
    EPS_SIMPLEX,
    alr,
    closure,
    clr,
    entropy,
    geodesic_distance,
    geodesic_path,
    helmert_basis,
    ilr,
    ilr_inv,
)
from .interp import PartialObservation, interpolate
from .prior import (
    GramMatrix,
    KernelSpec,
    PriorSpec,
    build_gram,
    gp_prior_logpdf,
    gp_prior_sample,
    pixel_prior_logpdf,
    pixel_prior_sample,
)
from .sampler import (
    Observations,
    PosteriorModel,
    SampleChain,
    SamplerConfig,
    latent_gradient,
    latent_neg_log_posterior,
    mirror_langevin,
    project_simplex,
    projected_ula,
)
from .synth import builtin_endmembers, measure_snr, sigma2_from_snr, synth_generate
from .uq import (
    HdrResult,
    ImageSummary,
    euclidean_mean,
    euclidean_total_variance,
    geodesic_mean,
    geodesic_total_variance,
    hdr,
    ilr_componentwise_variances,
    summarize_image,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_SIMPLEX",
    "GramMatrix",
    "HdrResult",
    "ImageSummary",
    "KernelSpec",
    "Observations",
    "PartialObservation",
    "PosteriorModel",
    "PriorSpec",
    "SampleChain",
    "SamplerConfig",
    "alr",
    "builtin_endmembers",
    "build_gram",
    "closure",
    "clr",
    "entropy",
    "euclidean_mean",
    "euclidean_total_variance",
    "geodesic_distance",
    "geodesic_mean",
    "geodesic_path",
    "geodesic_total_variance",
    "gp_prior_logpdf",
    "gp_prior_sample",
    "hdr",
    "helmert_basis",
    "ilr",
    "ilr_componentwise_variances",
    "ilr_inv",
    "interpolate",
    "latent_gradient",
    "latent_neg_log_posterior",
    "measure_snr",
    "mirror_langevin",
    "pixel_prior_logpdf",
    "pixel_prior_sample",
    "project_simplex",
    "projected_ula",
    "sigma2_from_snr",
    "summarize_image",
    "synth_generate",
]

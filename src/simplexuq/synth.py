"""Synthetic data generation and SNR bookkeeping.

The builtin endmembers are smooth, overlapping reflectance-like profiles
(Gaussian bumps on a gentle sloping background) so that self-contained
experiments need no external spectral library. SNR follows the standard
convention: signal power ||S A||_F^2 / (L N) over noise variance, in
decibels.
"""

from dataclasses import dataclass

import numpy as np

from .prior import _as_count, _as_pixels, build_gram, gp_prior_sample
from .sampler import check_endmembers


def builtin_endmembers(n_bands=64, n_materials=3):
    """Smooth synthetic endmember matrix (n_bands x n_materials).

    The first n_materials - 1 profiles are bright, strongly overlapping
    Gaussian bumps (pairwise correlation above 0.9, like soil/vegetation
    signatures); the last is a dark, nearly flat profile (water-like).
    This keeps unmixing posteriors realistically correlated and, at low
    SNR, genuinely ambiguous.

    Returns (S, names).
    """
    n_bands, n_materials = _as_count(n_bands, "n_bands", 2), _as_count(n_materials, "n_materials", 2)
    lam = np.linspace(0.0, 1.0, n_bands)
    S = np.empty((n_bands, n_materials))
    n_bright = n_materials - 1
    centers = 0.45 + 0.08 * np.arange(n_bright)
    slopes = 0.08 - 0.08 * np.arange(n_bright)
    for k in range(n_bright):
        S[:, k] = 0.20 + 0.55 * np.exp(-0.5 * ((lam - centers[k]) / 0.28) ** 2) + slopes[k] * lam
    S[:, -1] = 0.04 + 0.04 * np.exp(-0.5 * ((lam - 0.30) / 0.40) ** 2)
    names = [f"material_{k + 1}" for k in range(n_materials)]
    return S, names


def sigma2_from_snr(clean, snr_db):
    """Noise variance matching a target SNR for the clean mixture S A."""
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite (use synth_generate(..., snr_db=None) for no noise)")
    power = np.mean(np.asarray(clean) ** 2)
    return power / (10.0 ** (snr_db / 10.0))


@dataclass(frozen=True, eq=False)
class SynthResult:
    """Output of `synth_generate`: observations, ground truth and noise level.

    Instances compare and hash by identity.
    """

    X: np.ndarray  # (L, N) noisy observations
    clean: np.ndarray  # (L, N) noiseless mixture
    A: np.ndarray  # (P, N) ground-truth abundances
    S: np.ndarray  # (L, P) endmembers used
    sigma2: float
    snr_db: float | None


def synth_generate(S, grid, spec, snr_db, rng, abundances=None):
    """Simulate an observation cube from the pushforward GP prior.

    Parameters
    ----------
    S : ndarray (L, P)
        Endmember matrix.
    grid : ndarray (N, 2)
        Pixel coordinates, each a finite integer. An exponential prior's
        truth draw evaluates its kernel on them (see `build_gram`), from
        an offset table of fewer than 4 w h entries for pixels of one
        w x h image.
    spec : PriorSpec
        Prior used to draw the ground truth (a dirac kernel gives i.i.d.
        pixels) and recorded for downstream runs.
    snr_db : float or None
        Target SNR; None means no noise is added (X equals S A).
    rng : seed or Generator
    abundances : ndarray (P, N), optional
        Use this ground truth instead of drawing one from the prior.

    Returns
    -------
    SynthResult
    """
    S = check_endmembers(S)
    rng = np.random.default_rng(rng)
    grid = _as_pixels(grid)
    if abundances is None:
        gram = build_gram(grid, spec.kernel)
        A = gp_prior_sample(spec, gram, 1, rng)[0]
    else:
        A = np.asarray(abundances, dtype=float)
        if A.shape != (S.shape[1], len(grid)):
            raise ValueError(
                f"abundances shape {A.shape} inconsistent with "
                f"{S.shape[1]} materials x {len(grid)} pixels"
            )
    clean = S @ A
    if snr_db is None:
        return SynthResult(clean.copy(), clean, A, S, 0.0, None)
    sigma2 = sigma2_from_snr(clean, snr_db)
    X = clean + np.sqrt(sigma2) * rng.standard_normal(clean.shape)
    return SynthResult(X, clean, A, S, sigma2, float(snr_db))

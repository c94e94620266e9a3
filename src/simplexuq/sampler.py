"""Posterior model for linear unmixing and constrained Langevin samplers.

The observation model is Gaussian, ``X ~ N(S A, sigma2 I)``, with the
pushforward GP prior on the abundance image A. Because the ilr chart is a
global diffeomorphism, the posterior pushed forward to latent coordinates
is a plain (non-Gaussian-likelihood) density on R^{(P-1) x N}: the chart
Jacobian of the prior cancels exactly against the change of variables, so
the latent potential is just the matrix-normal quadratic plus the data
misfit evaluated through the softmax.

Two samplers are provided. `mirror_langevin` runs unadjusted Langevin in
the mirror (ilr) dual space, so every emitted image is strictly interior by
construction. `projected_ula` is the Euclidean baseline: Langevin steps on
the abundances themselves followed by an exact projection onto the
simplex.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DivergenceError
from .prior import DiagonalGram, GramMatrix, PriorSpec, sample_latent_field

INIT_MODES = ("prior-draw", "uniform-image")


def check_endmembers(S, warn=True):
    """Validate an endmember matrix (L bands x P materials)."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("endmember matrix must be 2-D (bands x materials)")
    if not np.all(np.isfinite(S)):
        raise ValueError("endmember matrix must be finite")
    L, P = S.shape
    if P < 2:
        raise ValueError("need at least 2 endmembers")
    for i in range(P):
        for j in range(i + 1, P):
            if np.array_equal(S[:, i], S[:, j]):
                raise ValueError(f"endmember columns {i} and {j} are identical")
    if warn and L < P:
        warnings.warn(
            f"fewer bands ({L}) than endmembers ({P}); the mixing matrix is "
            "underdetermined",
            stacklevel=2,
        )
    return S


@dataclass(frozen=True)
class Observations:
    """Observed spectra X (L x N) with the likelihood noise variance.

    ``sigma2 = inf`` disables the likelihood entirely (prior-only model).
    """

    X: np.ndarray
    sigma2: float

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or not np.all(np.isfinite(X)):
            raise ValueError("observations must be a finite 2-D array")
        object.__setattr__(self, "X", X)
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be positive (use inf for prior-only)")

    @property
    def prior_only(self):
        return np.isinf(self.sigma2)


@dataclass(frozen=True)
class PosteriorModel:
    """Everything needed to evaluate the unmixing posterior in latent space."""

    S: np.ndarray
    obs: Observations
    prior: PriorSpec
    gram: GramMatrix | DiagonalGram

    def __post_init__(self):
        S = check_endmembers(self.S, warn=False)
        object.__setattr__(self, "S", S)
        L, P = S.shape
        if P != self.prior.P:
            raise ValueError(f"endmember count {P} != prior parts {self.prior.P}")
        if self.obs.X.shape != (L, self.gram.n_pixels):
            raise ValueError(
                f"observations shape {self.obs.X.shape} inconsistent with "
                f"{L} bands x {self.gram.n_pixels} pixels"
            )

    @property
    def n_pixels(self):
        return self.gram.n_pixels

    @property
    def P(self):
        return self.prior.P

    def potential(self, Z):
        return latent_neg_log_posterior(Z, self)

    def gradient(self, Z):
        return latent_gradient(Z, self)


def _check_latent(Z, model):
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (model.P - 1, model.n_pixels):
        raise ValueError(
            f"latent matrix shape {Z.shape}, expected {(model.P - 1, model.n_pixels)}"
        )
    return Z


def _latent_state(Z, model):
    """Fused potential, gradient and softmax image at Z (single K_U solve).

    Overflow to inf is deliberate here: a diverging chain must produce a
    non-finite energy for the caller to report, not a warning.
    """
    spec = model.prior
    with np.errstate(over="ignore", invalid="ignore"):
        Zc = Z - spec.latent_mean[:, None] if spec.mean is not None else Z
        KinvZt = model.gram.solve(Zc.T)  # (N, P-1)
        U = np.sum(Zc.T * KinvZt) / (2.0 * spec.sigma_a2)
        G = KinvZt.T / spec.sigma_a2
        A = None
        if not model.obs.prior_only:
            A = geometry.softmax((spec.H @ Z).T).T  # (P, N)
            R = model.S @ A - model.obs.X
            U += np.sum(R * R) / (2.0 * model.obs.sigma2)
            Ga = model.S.T @ R / model.obs.sigma2
            T = A * Ga - A * np.sum(A * Ga, axis=0, keepdims=True)
            G = G + spec.H.T @ T
    return float(U), G, A


def latent_neg_log_posterior(Z, model):
    """Potential U(Z): prior quadratic plus data misfit, no constants.

    U(Z) = tr(Z K_U^{-1} Z^T) / (2 sigma_a2)
         + ||X - S softmax(H Z)||_F^2 / (2 sigma2)

    The prior's 1/prod(a) Jacobian factor does not appear: it cancels
    against the ilr change of variables when the posterior is pushed to
    latent space.
    """
    Z = _check_latent(Z, model)
    return _latent_state(Z, model)[0]


def latent_gradient(Z, model):
    """Gradient of the latent potential.

    Prior part: K_U^{-1}-solve against the Cholesky factor. Likelihood
    part, per pixel: H^T (diag(a) - a a^T) S^T (S a - x) / sigma2 with
    a = softmax(H z).
    """
    Z = _check_latent(Z, model)
    return _latent_state(Z, model)[1]


@dataclass(frozen=True)
class SamplerConfig:
    """Chain settings. ``burn_in`` defaults to 20% of ``n_steps``."""

    step_size: float
    n_steps: int
    burn_in: int | None = None
    thinning: int = 1
    init: object = "prior-draw"  # mode name or explicit array
    seed: int = 0

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError("step_size must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n_steps // 5)
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < n_steps")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if isinstance(self.init, str) and self.init not in INIT_MODES:
            raise ValueError(f"init must be an array or one of {INIT_MODES}")

    @property
    def n_kept(self):
        return (self.n_steps - self.burn_in + self.thinning - 1) // self.thinning


@dataclass(frozen=True)
class SampleChain:
    """Posterior samples (M, P, N) plus the energy trace.

    ``energy_trace[0]`` is the potential of the initial state and
    ``energy_trace[t]`` the potential after the t-th update (length
    ``n_steps + 1``); it is finite everywhere for a successful run.
    """

    abundances: np.ndarray
    energy_trace: np.ndarray
    algorithm: str
    config: SamplerConfig = field(repr=False, default=None)

    @property
    def n_samples(self):
        return self.abundances.shape[0]

    def latents(self, basis=None):
        """ilr coordinates of every sample, shape (M, N, P-1)."""
        return geometry.ilr(np.swapaxes(self.abundances, 1, 2), basis)


def _initial_latent(model, cfg, rng):
    spec = model.prior
    if isinstance(cfg.init, np.ndarray):
        arr = np.asarray(cfg.init, dtype=float)
        if arr.shape == (spec.P, model.n_pixels):
            return geometry.ilr(arr.T, spec.H).T
        if arr.shape == (spec.P - 1, model.n_pixels):
            return arr.copy()
        raise ValueError(f"initial state shape {arr.shape} matches neither image nor latent")
    if cfg.init == "prior-draw":
        return sample_latent_field(spec, model.gram, 1, rng)[0]
    # uniform-image: ilr_inv(0) is the uniform composition at every pixel
    return np.zeros((spec.P - 1, model.n_pixels))


def mirror_langevin(model, cfg, inject_noise=True):
    """Unadjusted Langevin in the mirror (ilr) dual space.

    Update: Z <- Z - step * grad U(Z) + sqrt(2 step) * noise. Samples are
    mapped back through the softmax, so every emitted image is strictly
    interior. Deterministic for a given seed. ``inject_noise=False`` is a
    test hook that turns the update into plain gradient descent.

    Raises
    ------
    DivergenceError
        If the energy becomes non-finite; the error records the step index.
    """
    rng = np.random.default_rng(cfg.seed)
    Z = _initial_latent(model, cfg, rng)
    gamma = cfg.step_size
    noise_scale = np.sqrt(2.0 * gamma)
    kept = []
    energy = np.empty(cfg.n_steps + 1)
    for t in range(cfg.n_steps):
        U, G, _ = _latent_state(Z, model)
        energy[t] = U
        if not np.isfinite(U):
            raise DivergenceError(t)
        Z = Z - gamma * G
        if inject_noise:
            Z = Z + noise_scale * rng.standard_normal(Z.shape)
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
            kept.append(geometry.interior_softmax((model.prior.H @ Z).T).T)
    energy[-1] = latent_neg_log_posterior(Z, model)
    if not np.isfinite(energy[-1]):
        raise DivergenceError(cfg.n_steps)
    return SampleChain(np.array(kept), energy, "mirror-langevin", cfg)


def project_simplex(v):
    """Euclidean projection of a real vector onto the closed unit simplex.

    Exact O(P log P) sort-and-threshold rule: with u the descending sort of
    v, find the largest j such that u_j + (1 - sum_{i<=j} u_i)/j > 0 and
    shift-clip by the corresponding multiplier.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    return _project_columns(v[:, None])[:, 0]


def _project_columns(V):
    """Column-wise simplex projection, vectorized over pixels."""
    P, N = V.shape
    u = -np.sort(-V, axis=0)
    css = np.cumsum(u, axis=0)
    j = np.arange(1, P + 1)[:, None]
    ok = u + (1.0 - css) / j > 0.0
    rho = P - np.argmax(ok[::-1], axis=0)  # last True index + 1
    lam = (1.0 - css[rho - 1, np.arange(N)]) / rho
    return np.maximum(V + lam, 0.0)


def _euclidean_potential_and_gradient(A, model):
    """Negative log posterior in abundance space and its gradient.

    V(A) = sum log a  +  prior quadratic in ilr(A)  +  data misfit. The
    sum log a term comes from the prior's chart Jacobian and tends to -inf
    at the boundary, so on its own it pulls gradient descent toward the
    boundary. What pushes iterates back is the prior quadratic, whose
    log^2 growth in ilr coordinates dominates near the boundary.
    """
    spec = model.prior
    Z = geometry.ilr(A.T, spec.H).T
    Zc = Z - spec.latent_mean[:, None] if spec.mean is not None else Z
    KinvZt = model.gram.solve(Zc.T)
    V = np.sum(np.log(A)) + np.sum(Zc.T * KinvZt) / (2.0 * spec.sigma_a2)
    G_Z = KinvZt.T / spec.sigma_a2
    # d z / d a = H^T diag(1/a) on the tangent space, so the pullback of the
    # latent gradient is (H G_Z) / A; the Jacobian term contributes 1/A.
    G = (1.0 + spec.H @ G_Z) / A
    if not model.obs.prior_only:
        R = model.S @ A - model.obs.X
        V += np.sum(R * R) / (2.0 * model.obs.sigma2)
        G = G + model.S.T @ R / model.obs.sigma2
    return float(V), G


def projected_ula(model, cfg, inject_noise=True):
    """Euclidean Langevin on the abundances with exact simplex projection.

    Baseline for comparison with `mirror_langevin`: after every Langevin
    step each pixel is projected onto the simplex and clamped into the
    interior (closure) so log-ratio operations stay defined downstream.
    """
    rng = np.random.default_rng(cfg.seed)
    Z0 = _initial_latent(model, cfg, rng)
    A = geometry.ilr_inv(Z0.T, model.prior.H).T
    gamma = cfg.step_size
    noise_scale = np.sqrt(2.0 * gamma)
    kept = []
    energy = np.empty(cfg.n_steps + 1)
    for t in range(cfg.n_steps):
        V, G = _euclidean_potential_and_gradient(A, model)
        energy[t] = V
        if not np.isfinite(V):
            raise DivergenceError(t)
        A = A - gamma * G
        if inject_noise:
            A = A + noise_scale * rng.standard_normal(A.shape)
        A = geometry.closure(_project_columns(A).T).T
        if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
            kept.append(A.copy())
    energy[-1], _ = _euclidean_potential_and_gradient(A, model)
    if not np.isfinite(energy[-1]):
        raise DivergenceError(cfg.n_steps)
    return SampleChain(np.array(kept), energy, "projected-ula", cfg)

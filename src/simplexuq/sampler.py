"""Posterior model for linear unmixing and constrained Langevin samplers.

The observation model is Gaussian, ``X ~ N(S A, sigma2 I)``, with the
pushforward GP prior on the abundance image A. Because the ilr chart is a
global diffeomorphism, the posterior pushed forward to latent coordinates
is a plain (non-Gaussian-likelihood) density on R^{(P-1) x N}: the chart
Jacobian of the prior cancels exactly against the change of variables, so
the latent potential is just the matrix-normal quadratic plus the data
misfit evaluated through the softmax.

The misfit ||S A - X||^2 / (2 sigma2) sees X only through its least-squares
coefficients Xs on S and the residual norm c = ||X - S Xs||^2, because
X - S Xs is orthogonal to range(S). Both are computed once per model, so a
Langevin step pays O(P^2 N) for the likelihood whatever the band count L.

Two samplers are provided. `mirror_langevin` runs unadjusted Langevin in
the mirror (ilr) dual space, so every emitted image is strictly interior by
construction. `projected_ula` is the Euclidean baseline: Langevin steps on
the abundances themselves followed by an exact projection onto the
simplex.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DivergenceError
from .prior import GramMatrix, PriorSpec, prior_quadratic, sample_latent_field

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


@dataclass(frozen=True, eq=False)
class Observations:
    """Observed spectra X (L x N) with the likelihood noise variance.

    ``sigma2 = inf`` disables the likelihood entirely (prior-only model).
    Instances compare and hash by identity.
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


@dataclass(frozen=True, eq=False)
class PosteriorModel:
    """Everything needed to evaluate the unmixing posterior in latent space.

    The misfit's sufficient statistics are derived once here: ``_StS`` is
    S^T S (P x P), ``_Xs`` the least-squares coefficients of X on S (P x N)
    and ``_c`` the squared norm of the residual X - S Xs. So are the
    per-step constants ``_H`` (the ilr basis) and ``_prior_only``.
    Instances compare and hash by identity.
    """

    S: np.ndarray
    obs: Observations
    prior: PriorSpec
    gram: GramMatrix
    _StS: np.ndarray = field(init=False, repr=False)
    _Xs: np.ndarray = field(init=False, repr=False)
    _c: float = field(init=False, repr=False)
    _H: np.ndarray = field(init=False, repr=False)
    _prior_only: bool = field(init=False, repr=False)

    def __post_init__(self):
        S = check_endmembers(self.S, warn=False)
        object.__setattr__(self, "S", S)
        L, P = S.shape
        if P != self.prior.P:
            raise ValueError(f"endmember count {P} != prior parts {self.prior.P}")
        X = self.obs.X
        if X.shape != (L, self.gram.n_pixels):
            raise ValueError(
                f"observations shape {X.shape} inconsistent with "
                f"{L} bands x {self.gram.n_pixels} pixels"
            )
        Xs = np.linalg.lstsq(S, X, rcond=None)[0]
        # One refinement step: lstsq alone leaves Xs off by about cond(S) eps,
        # a visible share of A - Xs when the data fit A almost exactly.
        Xs += np.linalg.lstsq(S, X - S @ Xs, rcond=None)[0]
        # c from the explicit residual: ||X||^2 - ||S Xs||^2 would cancel.
        R = X - S @ Xs
        object.__setattr__(self, "_StS", S.T @ S)
        object.__setattr__(self, "_Xs", Xs)
        object.__setattr__(self, "_c", float(np.vdot(R, R)))
        object.__setattr__(self, "_H", self.prior.H)
        object.__setattr__(self, "_prior_only", bool(self.obs.prior_only))

    @property
    def n_pixels(self):
        return self.gram.n_pixels

    @property
    def P(self):
        return self.prior.P


def _check_latent(Z, model):
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (model.P - 1, model.n_pixels):
        raise ValueError(
            f"latent matrix shape {Z.shape}, expected {(model.P - 1, model.n_pixels)}"
        )
    return Z


def _misfit(A, model):
    """Data misfit ||S A - X||^2 / (2 sigma2) and its gradient in A.

    With D = A - Xs, S A - X splits into S D, which lies in range(S), and
    S Xs - X, which is orthogonal to it; so the misfit is
    (<D, S^T S D> + c) / (2 sigma2) and the gradient S^T S D / sigma2.
    """
    D = A - model._Xs
    G = model._StS @ D
    return (np.vdot(D, G) + model._c) / (2.0 * model.obs.sigma2), G / model.obs.sigma2


def _latent_state(Z, model):
    """Fused potential and gradient at Z (one product with K_U^{-1}).

    The one evaluation behind the chain, `latent_neg_log_posterior` and
    `latent_gradient`. Overflow to inf is deliberate: a diverging chain must
    produce a non-finite energy for the caller to report, so callers run it
    under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    U, G = prior_quadratic(Z, model.prior, model.gram)
    if not model._prior_only:
        A = geometry.softmax((model._H @ Z).T).T  # (P, N)
        misfit, Ga = _misfit(A, model)
        U += misfit
        AGa = A * Ga
        T = AGa - A * np.add.reduce(AGa, axis=0, keepdims=True)
        G = G + model._H.T @ T
    return float(U), G


def latent_neg_log_posterior(Z, model):
    """Potential U(Z): prior quadratic plus data misfit, no constants.

    U(Z) = tr(Z K_U^{-1} Z^T) / (2 sigma_a2)
         + ||X - S softmax(H Z)||_F^2 / (2 sigma2)

    The prior's 1/prod(a) Jacobian factor does not appear: it cancels
    against the ilr change of variables when the posterior is pushed to
    latent space.
    """
    Z = _check_latent(Z, model)
    with np.errstate(over="ignore", invalid="ignore"):
        return _latent_state(Z, model)[0]


def latent_gradient(Z, model):
    """Gradient of the latent potential.

    Prior part: Z K_U^{-1} / sigma_a2, one product with the Gram operator's
    precision.
    Likelihood part, per pixel: H^T (diag(a) - a a^T) S^T (S a - x) / sigma2
    with a = softmax(H z). S^T (S a - x) is evaluated as S^T S (a - xs), with
    xs the least-squares coefficients of x on S, at O(P^2) cost per pixel
    whatever the band count.
    """
    Z = _check_latent(Z, model)
    with np.errstate(over="ignore", invalid="ignore"):
        return _latent_state(Z, model)[1]


@dataclass(frozen=True, eq=False)
class SamplerConfig:
    """Chain settings. ``burn_in`` defaults to 20% of ``n_steps``.

    Instances compare and hash by identity.
    """

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
        if isinstance(self.init, str):
            if self.init not in INIT_MODES:
                raise ValueError(f"init must be an array or one of {INIT_MODES}")
        else:
            object.__setattr__(self, "init", np.asarray(self.init, dtype=float))

    @property
    def n_kept(self):
        return (self.n_steps - self.burn_in + self.thinning - 1) // self.thinning


@dataclass(frozen=True, eq=False)
class SampleChain:
    """Posterior samples (M, P, N) plus the energy trace.

    ``energy_trace[0]`` is the potential of the initial state and
    ``energy_trace[t]`` the potential after the t-th update (length
    ``n_steps + 1``); it is finite everywhere for a successful run.
    Instances compare and hash by identity.
    """

    abundances: np.ndarray
    energy_trace: np.ndarray
    algorithm: str
    config: SamplerConfig = field(repr=False, default=None)

    @property
    def n_samples(self):
        return self.abundances.shape[0]

    def latents(self):
        """ilr coordinates (Helmert basis) of every sample, shape (M, N, P-1)."""
        return geometry.ilr(np.swapaxes(self.abundances, 1, 2))


def _initial_latent(model, cfg, rng):
    spec = model.prior
    if isinstance(cfg.init, np.ndarray):
        if cfg.init.shape == (spec.P, model.n_pixels):
            return geometry.ilr(cfg.init.T, spec.H).T
        if cfg.init.shape == (spec.P - 1, model.n_pixels):
            return cfg.init.copy()
        raise ValueError(f"initial state shape {cfg.init.shape} matches neither image nor latent")
    if cfg.init == "prior-draw":
        return sample_latent_field(spec, model.gram, 1, rng)[0]
    # uniform-image: ilr_inv(0) is the uniform composition at every pixel
    return np.zeros((spec.P - 1, model.n_pixels))


# Noise is drawn and kept states are buffered a block of steps at a time;
# a block holds at most this many steps and this many doubles per buffer.
_BLOCK_STEPS = 1024
_BLOCK_DOUBLES = 1 << 13


def _langevin(state, x, cfg, rng, inject_noise, images, project=None):
    """Unadjusted Langevin from ``x``: the loop both samplers share.

    Update: x <- x - step * grad U(x) + sqrt(2 step) * noise, then
    ``project`` when given. ``state(x)`` returns U(x) and its gradient.
    Kept states are buffered a block at a time and ``images`` maps each
    buffer, a stack of states, to a stack of abundance images. The noise of
    a block is drawn at once, which gives the same numbers as one draw per
    step. Returns the kept images and the energy trace.
    """
    gamma = cfg.step_size
    noise_scale = math.sqrt(2.0 * gamma)
    n_steps, burn_in, thinning = cfg.n_steps, cfg.burn_in, cfg.thinning
    block = max(1, min(_BLOCK_STEPS, _BLOCK_DOUBLES // x.size))
    noise = np.empty((block,) + x.shape) if inject_noise else None
    states = np.empty((block,) + x.shape)
    kept = None
    n_kept = 0
    energy = np.empty(n_steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            if inject_noise:
                eps = noise[: stop - start]
                rng.standard_normal(out=eps)
                eps *= noise_scale
            n_buf = 0
            for t in range(start, stop):
                U, G = state(x)
                energy[t] = U
                if not math.isfinite(U):
                    raise DivergenceError(t)
                x = x - gamma * G
                if inject_noise:
                    x += eps[t - start]
                if project is not None:
                    x = project(x)
                if t >= burn_in and (t - burn_in) % thinning == 0:
                    states[n_buf] = x
                    n_buf += 1
            if n_buf:
                imgs = images(states[:n_buf])
                if kept is None:
                    kept = np.empty((cfg.n_kept,) + imgs.shape[1:])
                kept[n_kept : n_kept + n_buf] = imgs
                n_kept += n_buf
        energy[-1] = state(x)[0]
    if not math.isfinite(energy[-1]):
        raise DivergenceError(n_steps)
    return kept, energy


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
    H = model._H

    def images(Zs):  # (M, P-1, N) -> (M, P, N), softmax over the parts
        return np.swapaxes(geometry.interior_softmax(np.swapaxes(H @ Zs, 1, 2)), 1, 2)

    kept, energy = _langevin(
        lambda Z: _latent_state(Z, model), Z, cfg, rng, inject_noise, images
    )
    return SampleChain(kept, energy, "mirror-langevin", cfg)


def _project_columns(V):
    """Euclidean projection of each column of V onto the closed unit simplex.

    Exact O(P log P) sort-and-threshold rule per column: with u the
    descending sort of v, find the largest j such that
    u_j + (1 - sum_{i<=j} u_i)/j > 0 and shift-clip by the corresponding
    multiplier. Vectorized over columns (pixels).
    """
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

    The gradient ``(1 + H G_Z) / A`` is of order 1e12 at an entry held at
    `closure`'s 1e-12 floor, and `projected_ula` leaves many entries
    there, so a last-bit change in ``G_Z`` can move the next iterate a
    long way.
    """
    H = model._H
    Z = geometry.ilr(A.T, H).T
    quad, G_Z = prior_quadratic(Z, model.prior, model.gram)
    V = np.add.reduce(np.log(A), axis=None) + quad
    # d z / d a = H^T diag(1/a) on the tangent space, so the pullback of the
    # latent gradient is (H G_Z) / A; the Jacobian term contributes 1/A.
    G = (1.0 + H @ G_Z) / A
    if not model._prior_only:
        misfit, Ga = _misfit(A, model)
        V += misfit
        G = G + Ga
    return float(V), G


def projected_ula(model, cfg, inject_noise=True):
    """Euclidean Langevin on the abundances with exact simplex projection.

    Baseline for comparison with `mirror_langevin`: after every Langevin
    step each pixel is projected onto the simplex and clamped into the
    interior (closure) so log-ratio operations stay defined downstream.

    The projection sets entries to zero, so many kept entries sit at
    closure's 1e-12 floor (6-15 % of them in 300-step chains on 22x22 and
    32x32 exponential scenes), where the gradient of
    `_euclidean_potential_and_gradient` is of order 1e12. The chain
    therefore amplifies last-bit differences in floating point: its output
    is byte-reproducible on one BLAS build, not across builds. Mirror
    Langevin stays interior and is not affected.
    """
    rng = np.random.default_rng(cfg.seed)
    Z0 = _initial_latent(model, cfg, rng)
    A = geometry.ilr_inv(Z0.T, model.prior.H).T
    kept, energy = _langevin(
        lambda A: _euclidean_potential_and_gradient(A, model),
        A,
        cfg,
        rng,
        inject_noise,
        images=lambda As: As,
        project=lambda A: geometry.closure(_project_columns(A).T).T,
    )
    return SampleChain(kept, energy, "projected-ula", cfg)

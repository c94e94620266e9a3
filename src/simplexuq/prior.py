"""Simplex-valued priors: pixelwise isotropic and spatialized pushforward GP.

A latent Gaussian in ilr coordinates, mapped through the softmax, yields a
permutation-invariant prior on single compositions. Spatializing the latent
field with a separable covariance (isotropic across latent dimensions,
a spatial Gram matrix across pixels) yields a matrix-normal latent prior
whose pushforward is a simplex-valued random field. Log-densities include
their normalizing constants: the latent-space Gaussian normalizer plus the
exact chart Jacobian, so they integrate to 1 with respect to Lebesgue
measure on the first P-1 components of each pixel.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from . import geometry
from .errors import IllConditionedKernelError

KERNEL_KINDS = ("exponential", "dirac")

# Jitter escalation policy, as multiples of the kernel amplitude sigma_k2.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class KernelSpec:
    """Spatial kernel configuration.

    ``exponential`` is ``sigma_k2 * exp(-||u - u'|| / length_scale)``;
    ``dirac`` is ``sigma_k2`` at zero distance and 0 elsewhere (the
    non-spatialized prior). ``jitter`` is an initial diagonal boost applied
    before the escalation policy kicks in.
    """

    kind: str = "exponential"
    length_scale: float = 1.0
    sigma_k2: float = 1.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")
        if not self.sigma_k2 > 0:
            raise ValueError("sigma_k2 must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")

    def __call__(self, U1, U2):
        """Cross-covariance matrix between two coordinate sets (n1, 2), (n2, 2)."""
        U1 = np.atleast_2d(np.asarray(U1, dtype=float))
        U2 = np.atleast_2d(np.asarray(U2, dtype=float))
        d = cdist(U1, U2)
        if self.kind == "dirac":
            return self.sigma_k2 * (d == 0.0).astype(float)
        # Built in place: each temporary would be as large as the result
        # (65 MB for a 9216 x 921 cross-covariance).
        np.divide(d, self.length_scale, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        d *= self.sigma_k2
        return d


@dataclass(frozen=True)
class GramMatrix:
    """Positive-definite spatial Gram matrix with its Cholesky factor.

    ``matrix`` includes the kernel amplitude sigma_k2 on its diagonal;
    ``applied_jitter`` records the diagonal boost that made the Cholesky
    succeed (0.0 when none was needed). Instances are immutable and safe to
    share across threads.

    ``chol`` is stored column-major, the layout LAPACK reads, and checked
    for finiteness once here; the solves then pass it to LAPACK without a
    copy or a rescan and check only the right-hand side.

    This is the operator of the exponential kernel. The dirac kernel's Gram
    matrix is diagonal and is held by :class:`DiagonalGram`, which stores
    only the diagonal: O(N) memory and O(N) time per solve.
    """

    matrix: np.ndarray
    chol: np.ndarray
    applied_jitter: float = 0.0

    def __post_init__(self):
        chol = np.asfortranarray(self.chol, dtype=float)
        if not np.all(np.isfinite(chol)):
            raise ValueError("Cholesky factor must be finite")
        object.__setattr__(self, "chol", chol)
        for arr in (self.matrix, self.chol):
            arr.setflags(write=False)

    @property
    def n_pixels(self):
        return self.matrix.shape[0]

    def solve(self, B):
        """K_U^{-1} B via the Cholesky factor; raises ValueError on a non-finite B."""
        return cho_solve((self.chol, True), np.asarray_chkfinite(B), check_finite=False)

    def half_solve(self, B):
        """L^{-1} B, so that ||L^{-1} Z^T||_F^2 = tr(Z K_U^{-1} Z^T)."""
        return solve_triangular(
            self.chol, np.asarray_chkfinite(B), lower=True, check_finite=False
        )

    @property
    def log_det(self):
        return 2.0 * np.sum(np.log(np.diag(self.chol)))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        return E @ self.chol.T


@dataclass(frozen=True)
class DiagonalGram:
    """Diagonal Gram matrix of the dirac kernel, stored as its diagonal.

    ``matrix`` holds diag(K_U) = sigma_k2 per pixel and ``chol`` its square
    root, both of shape (N,), so memory and the time of each solve are O(N).
    It offers the same operations as :class:`GramMatrix`. ``solve`` divides
    by ``chol`` twice, mirroring the two triangular solves of the dense
    factor, so a unit diagonal returns the right-hand side unchanged.
    """

    matrix: np.ndarray
    chol: np.ndarray
    applied_jitter: float = 0.0

    def __post_init__(self):
        chol = np.asarray(self.chol, dtype=float)
        if chol.ndim != 1 or not np.all(np.isfinite(chol)):
            raise ValueError("diagonal Cholesky factor must be a finite vector")
        object.__setattr__(self, "chol", chol)
        for arr in (self.matrix, self.chol):
            arr.setflags(write=False)

    @property
    def n_pixels(self):
        return self.matrix.shape[0]

    def _rows(self, B):
        """The finite right-hand side B and ``chol`` shaped to scale its rows."""
        B = np.asarray_chkfinite(B)
        return B, self.chol.reshape((-1,) + (1,) * (B.ndim - 1))

    def solve(self, B):
        """K_U^{-1} B; raises ValueError on a non-finite B."""
        B, d = self._rows(B)
        return B / d / d

    def half_solve(self, B):
        """L^{-1} B, so that ||L^{-1} Z^T||_F^2 = tr(Z K_U^{-1} Z^T)."""
        B, d = self._rows(B)
        return B / d

    @property
    def log_det(self):
        return 2.0 * np.sum(np.log(self.chol))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        return E * self.chol


def _cholesky_with_jitter(K, scale, initial_jitter=0.0):
    """Factor K, escalating diagonal jitter from 1e-10*scale to 1e-4*scale."""
    n = K.shape[0]
    jitters = [initial_jitter] if initial_jitter > 0 else [0.0]
    j = _JITTER_START * scale
    while j <= _JITTER_MAX * scale * (1 + 1e-9):
        jitters.append(j)
        j *= 10.0
    for jit in jitters:
        try:
            L = np.linalg.cholesky(K + jit * np.eye(n) if jit > 0 else K)
            return L, jit
        except np.linalg.LinAlgError:
            continue
    raise IllConditionedKernelError(
        f"Cholesky failed for a {n}x{n} Gram matrix even with jitter {_JITTER_MAX * scale:g}"
    )


def build_gram(grid, kernel):
    """Discretize a spatial kernel on pixel coordinates.

    Parameters
    ----------
    grid : ndarray, shape (N, 2)
        Distinct pixel coordinates in pixel units.
    kernel : KernelSpec

    Returns
    -------
    GramMatrix or DiagonalGram
        A :class:`DiagonalGram` for the dirac kernel, whose Gram matrix is
        ``sigma_k2`` times the identity.

    Raises
    ------
    IllConditionedKernelError
        If the factorization fails after the maximum jitter.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("grid must contain at least one pixel")
    if len(np.unique(grid, axis=0)) != len(grid):
        raise ValueError("grid coordinates must be distinct")
    if kernel.kind == "dirac":
        d = np.full(len(grid), kernel.sigma_k2)
        return DiagonalGram(d, np.sqrt(d))
    K = kernel(grid, grid)
    K = 0.5 * (K + K.T)
    L, jit = _cholesky_with_jitter(K, kernel.sigma_k2, kernel.jitter)
    if jit > 0:
        K = K + jit * np.eye(len(grid))
    return GramMatrix(K, L, jit)


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the latent prior.

    ``sigma_a2`` is the isotropic latent variance per ilr dimension,
    ``kernel`` the spatial covariance, ``basis`` the orthonormal ilr basis
    and ``mean`` an optional latent mean vector (length P-1, defaults to
    zero; a nonzero mean biases the prior toward a vertex or edge).
    """

    P: int
    sigma_a2: float
    kernel: KernelSpec = field(default_factory=KernelSpec)
    basis: np.ndarray | None = None
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.P < 2:
            raise ValueError("need at least 2 parts")
        if not self.sigma_a2 > 0:
            raise ValueError("sigma_a2 must be positive")
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=float)
            if b.shape != (self.P, self.P - 1):
                raise ValueError(f"basis shape {b.shape} inconsistent with P={self.P}")
            object.__setattr__(self, "basis", b)
        if self.mean is not None:
            m = np.asarray(self.mean, dtype=float)
            if m.shape != (self.P - 1,):
                raise ValueError(f"mean shape {m.shape} inconsistent with P={self.P}")
            object.__setattr__(self, "mean", m)

    @property
    def H(self):
        return self.basis if self.basis is not None else geometry.helmert_basis(self.P)

    @property
    def latent_mean(self):
        return self.mean if self.mean is not None else np.zeros(self.P - 1)


def pixel_prior_logpdf(a, spec):
    """Log-density of the pushforward Gaussian prior at composition(s) ``a``.

    Normalized with respect to Lebesgue measure on the first P-1 components
    (the chart Jacobian contributes ``-sum_k log a_k - log(P)/2``), so
    ``exp`` of the result integrates to 1 over the simplex. Broadcasts over
    leading axes.
    """
    a = geometry.check_interior(a)
    z = geometry.ilr(a, spec.H) - spec.latent_mean
    P = spec.P
    quad = np.sum(z * z, axis=-1) / (2.0 * spec.sigma_a2)
    norm = -0.5 * (P - 1) * np.log(2.0 * np.pi * spec.sigma_a2) - 0.5 * np.log(P)
    return -np.sum(np.log(a), axis=-1) - quad + norm


def pixel_prior_sample(spec, n_samples, rng):
    """Draw compositions by pushing latent Gaussians through ilr_inv.

    Deterministic for a given seed; ``rng`` may be an integer seed or a
    ``numpy.random.Generator``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng)
    z = spec.latent_mean + np.sqrt(spec.sigma_a2) * rng.standard_normal((n_samples, spec.P - 1))
    return geometry.ilr_inv(z, spec.H)


def sample_latent_field(spec, gram, n_samples, rng):
    """Matrix-normal latent draws Z ~ MN(mean, sigma_a2 I, K_U), shape (M, P-1, N)."""
    rng = np.random.default_rng(rng)
    N = gram.n_pixels
    E = rng.standard_normal((n_samples, spec.P - 1, N))
    Z = np.sqrt(spec.sigma_a2) * gram.sqrt_matvec(E)
    if spec.mean is not None:
        Z = Z + spec.mean[:, None]
    return Z


def gp_prior_sample(spec, gram, n_samples, rng):
    """Draw abundance images from the pushforward GP prior.

    Returns an array of shape (M, P, N): each draw is the columnwise
    ``ilr_inv`` of a matrix-normal latent field.
    """
    Z = sample_latent_field(spec, gram, n_samples, rng)
    # (M, P-1, N) -> columnwise softmax: move latent axis last
    A = geometry.ilr_inv(np.swapaxes(Z, -1, -2), spec.H)
    return np.swapaxes(A, -1, -2)


def latent_quadratic(Z, spec, gram):
    """Prior quadratic form tr(Z K_U^{-1} Z^T) / (2 sigma_a2) via triangular solves."""
    Zc = Z - spec.latent_mean[:, None] if spec.mean is not None else Z
    W = gram.half_solve(Zc.T)
    return float(np.sum(W * W) / (2.0 * spec.sigma_a2))


def gp_prior_logpdf(A, spec, gram):
    """Normalized log-density of the pushforward GP prior at an image.

    Parameters
    ----------
    A : ndarray, shape (P, N)
        Abundance image, strictly interior columns.
    spec : PriorSpec
    gram : GramMatrix or DiagonalGram

    The result reduces exactly to :func:`pixel_prior_logpdf` for a single
    pixel with unit kernel amplitude.
    """
    A = geometry.check_interior(A)
    P, N = A.shape
    if N != gram.n_pixels:
        raise ValueError(f"image has {N} pixels but Gram matrix has {gram.n_pixels}")
    Z = geometry.ilr(A.T, spec.H).T
    quad = latent_quadratic(Z, spec, gram)
    norm = (
        -0.5 * (P - 1) * N * np.log(2.0 * np.pi)
        - 0.5 * (P - 1) * N * np.log(spec.sigma_a2)
        - 0.5 * (P - 1) * gram.log_det
        - 0.5 * N * np.log(P)
    )
    return float(-np.sum(np.log(A)) - quad + norm)

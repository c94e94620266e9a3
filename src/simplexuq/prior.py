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
from functools import cached_property

import numpy as np

from . import geometry
from .errors import IllConditionedKernelError

KERNEL_KINDS = ("exponential", "dirac")

# Jitter escalation policy, as multiples of the kernel amplitude sigma_k2.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# GramMatrix multiplies by its precision with one symmetric dsymv per row,
# instead of a matmul, from this many pixels on (see the GramMatrix
# docstring). Measured on a 2-core Xeon, 2 MiB L2 per core, OpenBLAS, one
# BLAS thread; not checked with multi-threaded BLAS or other cache sizes.
_SYMV_MIN_PIXELS = 480


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
        # Chained comparisons reject NaN as well as infinity.
        if not 0 < self.length_scale < np.inf:
            raise ValueError("length_scale must be positive and finite")
        if not 0 < self.sigma_k2 < np.inf:
            raise ValueError("sigma_k2 must be positive and finite")
        if not 0 <= self.jitter < np.inf:
            raise ValueError("jitter must be nonnegative and finite")

    def __call__(self, U1, U2):
        """Cross-covariance matrix between two coordinate sets (n1, 2), (n2, 2)."""
        U1 = np.atleast_2d(np.asarray(U1, dtype=float))
        U2 = np.atleast_2d(np.asarray(U2, dtype=float))
        if self.kind == "dirac":
            # Exact coordinate equality, as build_gram's distinctness check:
            # a distance of 1e-200 squares to zero.
            same = np.all(U1[:, None, :] == U2[None, :, :], axis=-1)
            return self.sigma_k2 * same.astype(float)
        # scipy is imported by the exponential kernel only, so a dirac-only
        # run never loads it.
        from scipy.spatial.distance import cdist

        d = cdist(U1, U2)
        # Built in place: each temporary would be as large as the result
        # (65 MB for a 9216 x 921 cross-covariance).
        np.divide(d, self.length_scale, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        d *= self.sigma_k2
        return d


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Positive-definite spatial Gram matrix K_U, held as its Cholesky factor.

    ``chol`` is one of two kinds of factor:

    - for a dense kernel (exponential), the lower factor, an (N, N) array
      stored column-major; the one ``build_gram`` returns is the kernel
      matrix itself, factored in place, and is kept without a copy;
    - for a diagonal kernel (dirac), the (N,) vector of square roots of the
      diagonal, so memory and the time of each solve are O(N).

    ``chol`` serves prior draws, initial states and ``log_det``. A diagonal
    solve divides the right-hand side by ``chol`` twice, so a unit diagonal
    returns it unchanged. A dense solve multiplies by the precision
    K_U^{-1} instead of running two triangular solves. The precision is
    formed from ``chol`` by LAPACK ``dpotri`` on the first solve, so an
    operator used only for prior draws never pays for it, and is then kept
    full, symmetric, C-ordered and read-only. ``matrix``, the Gram matrix
    itself (with the kernel amplitude sigma_k2 on its diagonal), is not
    stored: each access recomputes it as ``chol @ chol.T``, so memory stays
    at two N x N arrays, or as the (N,) diagonal ``chol * chol``.
    ``applied_jitter`` records the diagonal boost that made the Cholesky
    succeed (0.0 when none was needed). Instances are immutable and safe to
    share across threads (two threads that solve first may both form the
    same precision); they compare and hash by identity.

    A product with the precision reads the whole matrix for a few flops per
    entry, so its cost is memory traffic. From ``_SYMV_MIN_PIXELS`` pixels
    on, where the matrix outgrows a core's L2 cache, each row is multiplied
    by BLAS ``dsymv``, which reads one triangle: half the traffic, and half
    the time at N = 1024. Below that the matrix stays in cache, and one
    ``matmul`` beats a ``dsymv`` call per row, with its call overhead and
    slower kernel.
    """

    chol: np.ndarray
    applied_jitter: float = 0.0

    def __post_init__(self):
        chol = np.asfortranarray(self.chol, dtype=float)
        if chol.ndim not in (1, 2) or chol.shape != (len(chol),) * chol.ndim or not np.all(np.isfinite(chol)):
            raise ValueError("Cholesky factor must be a finite square matrix or vector")
        if not np.all((chol if chol.ndim == 1 else np.diag(chol)) != 0.0):
            raise ValueError("Cholesky factor must have a nonzero diagonal")
        object.__setattr__(self, "chol", chol)
        chol.setflags(write=False)
        if chol.ndim == 2:
            # Load LAPACK here, in set-up, so that the first solve, inside a
            # timed chain, does not pay for the import.
            import scipy.linalg  # noqa: F401

    @cached_property
    def _precision(self):
        """Dense K_U^{-1}, full, symmetric and C-ordered."""
        from scipy.linalg import lapack

        inv = lapack.dpotri(self.chol, lower=1)[0]
        # dpotri fills the lower triangle; mirror it into the upper one, in
        # place. The symmetric F-ordered array, transposed, is C-ordered.
        for j in range(len(inv) - 1):
            inv[j, j + 1 :] = inv[j + 1 :, j]
        inv.setflags(write=False)
        return inv.T

    @property
    def matrix(self):
        """K_U, recomputed from the factor on each access; the (N,) diagonal
        for a diagonal factor."""
        if self.chol.ndim == 1:
            return self.chol * self.chol
        return self.chol @ self.chol.T

    @property
    def n_pixels(self):
        return self.chol.shape[0]

    def _rsolve(self, Zc):
        """Zc K_U^{-1} over the last axis of Zc."""
        chol = self.chol
        n = Zc.shape[-1]
        # A row of the wrong length would broadcast against a diagonal factor,
        # and dsymv would silently use only the first n_pixels entries of a
        # longer row.
        if n != len(chol):
            raise ValueError(f"right-hand side of shape {Zc.shape} for {len(chol)} pixels")
        if chol.ndim == 1:
            return Zc / chol / chol
        if n < _SYMV_MIN_PIXELS:
            return Zc @ self._precision
        from scipy.linalg.blas import dsymv

        # dpotri's own F-ordered array, whose lower triangle dsymv reads
        # without a copy; each call writes its row of out in place.
        inv = self._precision.T
        out = np.zeros(Zc.shape)
        for z, y in zip(Zc.reshape(-1, n), out.reshape(-1, n)):
            dsymv(1.0, inv, z, y=y, overwrite_y=1, lower=1)
        return out

    def solve(self, B):
        """K_U^{-1} B over the first axis of B; raises ValueError on a non-finite B."""
        return self._rsolve(np.asarray_chkfinite(B).T).T

    @property
    def log_det(self):
        diag = self.chol if self.chol.ndim == 1 else np.diag(self.chol)
        return 2.0 * np.sum(np.log(diag))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        if self.chol.ndim == 1:
            return E * self.chol
        return E @ self.chol.T


def _cholesky_with_jitter(make_K, scale, initial_jitter=0.0):
    """Factor make_K() in place, escalating diagonal jitter from
    1e-10*scale to 1e-4*scale.

    ``make_K`` returns a new, exactly symmetric, C-ordered matrix on each
    call. LAPACK ``dpotrf`` factors its transpose, which equals it and is
    F-ordered as LAPACK reads it, so the lower factor returned is the
    matrix's own memory. A failed attempt has overwritten its matrix, and
    ``clean`` has zeroed the untouched triangle, so the next attempt asks
    for a new one after dropping it: one N x N array at a time.

    The initial jitter is tried first, then only the escalation steps above
    it: a smaller jitter cannot succeed where a larger one failed.
    """
    from scipy.linalg.lapack import dpotrf

    jitters = [initial_jitter]
    j = _JITTER_START * scale
    while j <= _JITTER_MAX * scale * (1 + 1e-9):
        if j > initial_jitter * (1 + 1e-9):
            jitters.append(j)
        j *= 10.0
    for jit in jitters:
        K = make_K()
        n = len(K)
        K.reshape(-1)[:: n + 1] += jit
        L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jit
        del K, L
    raise IllConditionedKernelError(
        f"Cholesky failed for a {n}x{n} Gram matrix even with jitter {_JITTER_MAX * scale:g}"
    )


def _as_grid(grid):
    """Pixel coordinates as a float (N, 2) array; ValueError on a
    non-finite coordinate, before any kernel is evaluated."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid coordinates must be finite")
    return grid


def build_gram(grid, kernel):
    """Discretize a spatial kernel on pixel coordinates.

    The exponential kernel matrix is evaluated once and factored in place
    (LAPACK ``dpotrf``), and the factor is kept without a copy: set-up
    holds one N x N array. A failed factorization evaluates the kernel
    again for the next jitter.

    Parameters
    ----------
    grid : ndarray, shape (N, 2)
        Distinct, finite pixel coordinates in pixel units.
    kernel : KernelSpec

    Returns
    -------
    GramMatrix
        For the dirac kernel, whose Gram matrix is ``sigma_k2`` times the
        identity, a diagonal factor: the (N,) vector sqrt(sigma_k2).

    Raises
    ------
    ValueError
        If the grid is empty or holds a repeated or non-finite coordinate.
    IllConditionedKernelError
        If the factorization fails after the maximum jitter.
    """
    grid = _as_grid(grid)
    if grid.size == 0:
        raise ValueError("grid must contain at least one pixel")
    # Sorted rows, then adjacent rows compared exactly (0.0 equals -0.0):
    # np.unique(grid, axis=0) gives the same verdict but imports numpy.ma.
    s = grid[np.lexsort(grid.T[::-1])]
    if np.any(np.all(s[1:] == s[:-1], axis=1)):
        raise ValueError("grid coordinates must be distinct")
    if kernel.kind == "dirac":
        return GramMatrix(np.full(len(grid), np.sqrt(kernel.sigma_k2)))
    # kernel(grid, grid) is exactly symmetric: cdist squares exact negations
    return GramMatrix(*_cholesky_with_jitter(lambda: kernel(grid, grid), kernel.sigma_k2, kernel.jitter))


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Hyperparameters of the latent prior.

    ``sigma_a2`` is the isotropic latent variance per ilr dimension,
    ``kernel`` the spatial covariance and ``mean`` an optional latent mean
    vector (length P-1, defaults to zero; a nonzero mean biases the prior
    toward a vertex or edge). Latent coordinates are taken in the Helmert
    basis ``H``. Instances compare and hash by identity.
    """

    P: int
    sigma_a2: float
    kernel: KernelSpec = field(default_factory=KernelSpec)
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.P < 2:
            raise ValueError("need at least 2 parts")
        if not self.sigma_a2 > 0:
            raise ValueError("sigma_a2 must be positive")
        if self.mean is not None:
            m = np.asarray(self.mean, dtype=float)
            if m.shape != (self.P - 1,):
                raise ValueError(f"mean shape {m.shape} inconsistent with P={self.P}")
            object.__setattr__(self, "mean", m)

    @property
    def H(self):
        return geometry.helmert_basis(self.P)

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


def prior_quadratic(Z, spec, gram):
    """Latent prior quadratic and its gradient from one product with K_U^{-1}.

    With Zc = Z - mean, returns tr(Zc K_U^{-1} Zc^T) / (2 sigma_a2) and its
    gradient Zc K_U^{-1} / sigma_a2 with respect to Z, shape (P-1, N).
    """
    Zc = Z - spec.mean[:, None] if spec.mean is not None else Z
    ZcKinv = gram._rsolve(Zc)
    return np.add.reduce(Zc * ZcKinv, axis=None) / (2.0 * spec.sigma_a2), ZcKinv / spec.sigma_a2


def gp_prior_logpdf(A, spec, gram):
    """Normalized log-density of the pushforward GP prior at an image.

    Parameters
    ----------
    A : ndarray, shape (P, N)
        Abundance image, strictly interior columns.
    spec : PriorSpec
    gram : GramMatrix

    The result reduces exactly to :func:`pixel_prior_logpdf` for a single
    pixel with unit kernel amplitude.
    """
    A = geometry.check_interior(A)
    P, N = A.shape
    if N != gram.n_pixels:
        raise ValueError(f"image has {N} pixels but Gram matrix has {gram.n_pixels}")
    Z = geometry.ilr(A.T, spec.H).T
    quad, _ = prior_quadratic(Z, spec, gram)
    norm = (
        -0.5 * (P - 1) * N * np.log(2.0 * np.pi)
        - 0.5 * (P - 1) * N * np.log(spec.sigma_a2)
        - 0.5 * (P - 1) * gram.log_det
        - 0.5 * N * np.log(P)
    )
    return float(-np.sum(np.log(A)) - quad + norm)

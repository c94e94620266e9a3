"""Closed-form interpolation of partially observed abundance maps.

Moving observed compositions to ilr coordinates turns the problem into
independent scalar GP regressions (one per latent dimension, all sharing
the same spatial kernel and hence the same predictive variance); the
posterior mean field is mapped back to the simplex with the softmax.
Observation noise, when present, is a latent-space nugget added to the
diagonal of the observed-block covariance.

The predictive variance needs ||L^{-1} c_n||^2 for every pixel n, where L
is the Cholesky factor of the observed block (K x K) and c_n a pixel's
cross-covariance with it: K^2 N flops, most of an interpolation's time.
They are spent in a triangular product with the explicit inverse L^{-1}
(LAPACK ``dtrtri``, then BLAS ``dtrmm``), not in a triangular solve
(``dtrsm``): OpenBLAS runs the product near GEMM speed and the solve at a
fraction of it, and the inverse is as accurate as the solve for this use
(Du Croz & Higham 1992, IMA J. Numer. Anal. 12:1).

The N x K cross-covariance is never held whole. After the observed block
is factored and inverted, one loop runs over blocks of ``_BLOCK_PIXELS``
grid pixels: it evaluates the block's rows of the kernel, adds their
share of the mean and overwrites them with L^{-1} c_n for the variance,
so each kernel pass works on a piece that stays in cache (Goto & van de
Geijn 2008, ACM TOMS 34:12). Peak memory is O(K^2 + block K + N P), not
O(N K). On a 96 x 96 grid with 921 observed pixels (one BLAS thread, 2
vCPUs) a call takes about 210 ms and peaks at 11 MB under ``tracemalloc``,
against 290 ms and 76 MB with the whole cross-covariance (BENCH_14.json).
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import IllConditionedKernelError
from .prior import _as_grid

# Grid pixels per block of the cross-covariance. Block sizes from 128 to
# 768 took the same time with K = 921 observed pixels (BENCH_14.json).
_BLOCK_PIXELS = 512


@dataclass(frozen=True, eq=False)
class PartialObservation:
    """Compositions observed at a subset of pixels.

    ``indices`` are row-major pixel indices into the grid, ``values`` is
    the (P, K) matrix of observed compositions (strictly interior) and
    ``nugget`` the latent observation-noise variance (0 for exact
    interpolation). Instances compare and hash by identity.
    """

    indices: np.ndarray
    values: np.ndarray
    nugget: float = 0.0

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("need at least one observed pixel")
        # a boolean mask or float indices would cast silently to other pixels
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"observed indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(int, copy=False)
        if len(np.unique(idx)) != len(idx):
            raise ValueError("observed indices must be unique")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != idx.size:
            raise ValueError(
                f"values must have shape (P, {idx.size}), got {vals.shape}"
            )
        geometry.check_interior(vals, name="observed abundances")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if not 0 <= self.nugget < np.inf:
            raise ValueError("nugget must be nonnegative and finite")


def interpolate(obs, spec, grid):
    """Condition the pushforward GP prior on observed pixels.

    Parameters
    ----------
    obs : PartialObservation
    spec : PriorSpec
        Prior hyperparameters; `spec.kernel` supplies the spatial
        covariance, scaled by `spec.sigma_a2` in latent space.
    grid : ndarray, shape (N, 2)
        Finite coordinates of every pixel to predict (the observed pixels
        are indexed into this grid).

    Returns
    -------
    (ndarray, ndarray)
        The interpolated abundance image, shape (P, N), strictly interior;
        and the per-pixel latent predictive variance, shape (N,), shared by
        all P-1 latent dimensions.
    """
    grid = _as_grid(grid)
    N = len(grid)
    if np.any(obs.indices < 0) or np.any(obs.indices >= N):
        raise ValueError("observed indices outside the grid")
    if obs.values.shape[0] != spec.P:
        raise ValueError(
            f"observed compositions have {obs.values.shape[0]} parts, prior has {spec.P}"
        )

    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dtrtri

    U_obs = grid[obs.indices]
    # latent covariance = sigma_a2 * spatial kernel (kernel carries sigma_k2),
    # given its nugget in place: no K x K identity or sums. The kernel of a
    # coordinate set with itself is exactly symmetric already.
    K = len(U_obs)
    C_oo = spec.kernel(U_obs, U_obs)
    C_oo *= spec.sigma_a2
    C_oo.reshape(-1)[:: K + 1] += obs.nugget
    c_ss = spec.sigma_a2 * spec.kernel.sigma_k2

    try:
        # C_oo is exactly symmetric, so its transpose, F-ordered as LAPACK
        # reads it, is factored in place: no K x K copy
        F = cho_factor(C_oo.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        raise IllConditionedKernelError(
            "observed-block covariance is singular; add a nugget or drop "
            "near-duplicate observation pixels"
        ) from None

    mu = spec.latent_mean
    Z_obs = geometry.ilr(obs.values.T, spec.H) - mu  # (K, P-1), centered
    alpha = cho_solve(F, Z_obs)
    # The factor is inverted in place (cho_solve is done with it, and its
    # diagonal is positive, so dtrtri cannot fail).
    L_inv, _ = dtrtri(F[0], lower=1, overwrite_c=1)

    mean = np.empty((N, len(mu)))
    var = np.empty(N)
    for s in range(0, N, _BLOCK_PIXELS):
        e = min(s + _BLOCK_PIXELS, N)
        C = spec.kernel(grid[s:e], U_obs)  # (e - s, K) rows of C_so
        C *= spec.sigma_a2
        mean[s:e] = mu + C @ alpha
        # c_ss - diag(C_so C_oo^{-1} C_os) = c_ss - ||L^{-1} C_os||^2 per
        # column, with W = L^{-1} C_os written over the F-ordered view C.T.
        W = dtrmm(1.0, L_inv, C.T, lower=1, overwrite_b=1)
        var[s:e] = c_ss - np.einsum("kn,kn->n", W, W)
        del C, W  # or the next block's kernel is built while this one lives
    np.maximum(var, 0.0, out=var)

    A = geometry.ilr_inv(mean, spec.H).T
    return A, var

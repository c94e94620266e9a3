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
"""

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import IllConditionedKernelError


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
        idx = np.asarray(self.indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("need at least one observed pixel")
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
        Coordinates of every pixel to predict (the observed pixels are
        indexed into this grid).

    Returns
    -------
    (ndarray, ndarray)
        The interpolated abundance image, shape (P, N), strictly interior;
        and the per-pixel latent predictive variance, shape (N,), shared by
        all P-1 latent dimensions.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
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
    C_so = spec.kernel(grid, U_obs)
    C_so *= spec.sigma_a2
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
    mean = mu + C_so @ cho_solve(F, Z_obs)  # (N, P-1)
    # c_ss - diag(C_so C_oo^{-1} C_os) = c_ss - ||L^{-1} C_os||^2 per column.
    # L^{-1} C_os is a triangular product with L inverted in place (the mean
    # is done with it, and its diagonal is positive, so dtrtri cannot fail):
    # BLAS dtrmm runs near GEMM speed, where the triangular solve dtrsm
    # doing the same K^2 N flops does not. W, (K, N), is written over the
    # F-ordered view C_so.T, which is not used again.
    L_inv, _ = dtrtri(F[0], lower=1, overwrite_c=1)
    W = dtrmm(1.0, L_inv, C_so.T, lower=1, overwrite_b=1)
    var = c_ss - np.einsum("kn,kn->n", W, W)
    var = np.maximum(var, 0.0)

    A = geometry.ilr_inv(mean, spec.H).T
    return A, var

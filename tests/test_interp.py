import tracemalloc

import numpy as np
import pytest

from simplexuq import geometry, interp
from simplexuq import io as sio
from simplexuq.errors import IllConditionedKernelError
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.prior import KernelSpec, PriorSpec, build_gram, gp_prior_sample


def dense_gp_oracle(grid, obs_idx, z_obs, kernel, sigma_a2, nugget):
    """Textbook GP regression per latent dimension with explicit solves."""
    U = grid[obs_idx]
    C_oo = sigma_a2 * kernel(U, U) + nugget * np.eye(len(obs_idx))
    C_so = sigma_a2 * kernel(grid, U)
    mean = C_so @ np.linalg.solve(C_oo, z_obs)
    var = sigma_a2 * kernel.sigma_k2 - np.einsum("nk,kn->n", C_so, np.linalg.solve(C_oo, C_so.T))
    return mean, var


def solve_triangular_variance(obs, spec, grid):
    """Latent predictive variance by the textbook triangular solve
    (Rasmussen & Williams 2006, Algorithm 2.1): c_ss - ||L^{-1} c_n||^2."""
    from scipy.linalg import solve_triangular

    U = grid[obs.indices]
    C_oo = spec.sigma_a2 * spec.kernel(U, U) + obs.nugget * np.eye(len(U))
    C_so = spec.sigma_a2 * spec.kernel(grid, U)
    W = solve_triangular(np.linalg.cholesky(C_oo), C_so.T, lower=True)
    return np.maximum(spec.sigma_a2 * spec.kernel.sigma_k2 - np.einsum("kn,kn->n", W, W), 0.0)


def three_temporary_interpolate(obs, spec, grid):
    """Mean and variance with C_oo built as 0.5 * (C + C.T) + nugget * I,
    from the whole N x K cross-covariance at once."""
    from scipy.linalg import cho_factor, cho_solve
    from scipy.linalg.blas import dtrmm
    from scipy.linalg.lapack import dtrtri

    U = grid[obs.indices]
    C_oo = spec.sigma_a2 * spec.kernel(U, U)
    C_oo = 0.5 * (C_oo + C_oo.T) + obs.nugget * np.eye(len(U))
    C_so = spec.kernel(grid, U)
    C_so *= spec.sigma_a2
    F = cho_factor(C_oo, lower=True)
    mean = spec.latent_mean + C_so @ cho_solve(F, geometry.ilr(obs.values.T, spec.H) - spec.latent_mean)
    W = dtrmm(1.0, dtrtri(F[0], lower=1)[0], C_so.T, lower=1)
    var = np.maximum(spec.sigma_a2 * spec.kernel.sigma_k2 - np.einsum("kn,kn->n", W, W), 0.0)
    return geometry.ilr_inv(mean, spec.H).T, var


def test_noiseless_interpolation_reproduces_observations():
    rng = np.random.default_rng(0)
    grid = sio.make_grid(6, 6)
    kernel = KernelSpec(length_scale=3.0)
    spec = PriorSpec(P=3, sigma_a2=0.5, kernel=kernel)
    obs_idx = np.array([0, 7, 14, 21, 28, 35])
    values = rng.dirichlet(np.ones(3), size=len(obs_idx)).T
    obs = PartialObservation(obs_idx, values)
    A, var = interpolate(obs, spec, grid)
    assert np.max(np.abs(A[:, obs_idx] - values)) < 1e-8
    assert np.max(var[obs_idx]) < 1e-10


def test_far_pixel_reverts_to_prior_mean():
    grid = np.array([[0.0, 0.0], [500.0, 0.0]])
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    obs = PartialObservation(np.array([0]), np.array([[0.7], [0.2], [0.1]]))
    A, var = interpolate(obs, spec, grid)
    assert np.max(np.abs(A[:, 1] - 1.0 / 3.0)) < 1e-10
    assert abs(var[1] - spec.sigma_a2) < 1e-10


def test_far_pixel_with_nonzero_mean():
    grid = np.array([[0.0, 0.0], [500.0, 0.0]])
    mean = np.array([0.8, -0.3])
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=2.0), mean=mean)
    obs = PartialObservation(np.array([0]), np.array([[0.7], [0.2], [0.1]]))
    A, _ = interpolate(obs, spec, grid)
    assert np.max(np.abs(A[:, 1] - geometry.ilr_inv(mean))) < 1e-10


def test_full_observation_round_trip():
    grid = sio.make_grid(6, 6)
    kernel = KernelSpec(length_scale=2.5)
    spec = PriorSpec(P=3, sigma_a2=0.7, kernel=kernel)
    gram = build_gram(grid, kernel)
    draw = gp_prior_sample(spec, gram, 1, rng=4)[0]
    obs = PartialObservation(np.arange(36), draw)
    A, var = interpolate(obs, spec, grid)
    assert np.max(np.abs(A - draw)) < 1e-8
    assert np.max(var) < 1e-8


def test_matches_dense_gp_oracle():
    rng = np.random.default_rng(5)
    grid = sio.make_grid(5, 5)
    kernel = KernelSpec(length_scale=2.0, sigma_k2=1.3)
    spec = PriorSpec(P=4, sigma_a2=0.9, kernel=kernel)
    obs_idx = np.array([2, 6, 11, 17, 23])
    values = rng.dirichlet(np.ones(4), size=len(obs_idx)).T
    nugget = 0.05
    obs = PartialObservation(obs_idx, values, nugget=nugget)
    A, var = interpolate(obs, spec, grid)

    z_obs = geometry.ilr(values.T)
    mean_oracle, var_oracle = dense_gp_oracle(grid, obs_idx, z_obs, kernel, spec.sigma_a2, nugget)
    assert np.max(np.abs(geometry.ilr(A.T) - mean_oracle)) < 1e-10
    assert np.max(np.abs(var - var_oracle)) < 1e-10


def test_predictive_variance_nonnegative_and_interior_output():
    rng = np.random.default_rng(6)
    grid = sio.make_grid(8, 8)
    spec = PriorSpec(P=3, sigma_a2=1.2, kernel=KernelSpec(length_scale=4.0))
    obs_idx = rng.choice(64, size=10, replace=False)
    values = rng.dirichlet(np.ones(3), size=10).T
    A, var = interpolate(PartialObservation(obs_idx, values), spec, grid)
    assert np.all(var >= 0.0)
    assert np.all(A > 0.0)
    assert np.max(np.abs(A.sum(axis=0) - 1.0)) < 1e-12


def test_nugget_smooths_observations():
    grid = sio.make_grid(4, 1)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=2.0))
    obs_idx = np.array([0, 1, 2, 3])
    values = np.array(
        [[0.8, 0.1, 0.8, 0.1], [0.1, 0.8, 0.1, 0.8], [0.1, 0.1, 0.1, 0.1]]
    )
    exact, var0 = interpolate(PartialObservation(obs_idx, values), spec, grid)
    noisy, var1 = interpolate(PartialObservation(obs_idx, values, nugget=0.5), spec, grid)
    assert np.max(np.abs(exact - values)) < 1e-8
    assert np.max(np.abs(noisy - values)) > 0.01  # no longer interpolating
    assert np.all(var1[obs_idx] > var0[obs_idx] + 1e-6)


def test_observation_validation():
    with pytest.raises(ValueError):
        PartialObservation(np.array([], dtype=int), np.zeros((3, 0)))
    # an empty list is float64 to numpy: the emptiness check answers first
    with pytest.raises(ValueError, match="observation lists no pixels"):
        PartialObservation([], np.zeros((3, 0)))
    # a boolean mask would become indices [1, 0], floats would truncate
    for bad in ([True, False], np.array([0.9, 2.7]), np.array([0.0, 2.0])):
        with pytest.raises(ValueError, match="must be integer pixel indices"):
            PartialObservation(bad, np.full((3, 2), 1.0 / 3.0))
    with pytest.raises(ValueError):
        PartialObservation(np.array([0, 0]), np.full((3, 2), 1.0 / 3.0))
    with pytest.raises(geometry.SimplexBoundaryError):
        PartialObservation(np.array([0]), np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(ValueError):
        PartialObservation(np.array([0]), np.full((3, 1), 1.0 / 3.0), nugget=-1.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="nugget"):
            PartialObservation(np.array([0]), np.full((3, 1), 1.0 / 3.0), nugget=bad)


def test_index_and_part_count_checks():
    grid = sio.make_grid(2, 2)
    spec = PriorSpec(P=3, sigma_a2=1.0)
    obs = PartialObservation(np.array([7]), np.full((3, 1), 1.0 / 3.0))
    with pytest.raises(ValueError):
        interpolate(obs, spec, grid)
    obs4 = PartialObservation(np.array([1]), np.full((4, 1), 0.25))
    with pytest.raises(ValueError):
        interpolate(obs4, spec, grid)


def test_nonfinite_grid_coordinate_rejected():
    grid = sio.make_grid(3, 3)
    grid[4, 0] = np.nan
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=2.0))
    obs = PartialObservation(np.array([0, 8]), np.full((3, 2), 1.0 / 3.0))
    with pytest.raises(ValueError):
        interpolate(obs, spec, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5])
@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_nonfinite_grid_coordinate_rejected_before_the_kernel(kind, bad, monkeypatch):
    def never(self, U1, U2):
        raise AssertionError("kernel evaluated on a non-finite or fractional grid")

    grid = sio.make_grid(3, 3)
    grid[4, 1] = bad
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind=kind, length_scale=2.0))
    obs = PartialObservation(np.array([0, 8]), np.full((3, 2), 1.0 / 3.0))
    monkeypatch.setattr(KernelSpec, "__call__", never)
    with pytest.raises(ValueError, match="grid coordinates must be finite"):
        interpolate(obs, spec, grid)


def test_nonfinite_observed_covariance_rejected():
    # sigma_a2 * sigma_k2 = 1e600 overflows, so the observed block is
    # infinite although every input is finite
    grid = sio.make_grid(3, 1)
    spec = PriorSpec(P=3, sigma_a2=1e300, kernel=KernelSpec(length_scale=2.0, sigma_k2=1e300))
    obs = PartialObservation(np.array([0, 2]), np.full((3, 2), 1.0 / 3.0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        interpolate(obs, spec, grid)


@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_singular_observed_covariance_rejected(kind):
    # two observed pixels at one coordinate: a rank-one block, and no nugget
    grid = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind=kind, length_scale=2.0))
    obs = PartialObservation(np.array([0, 1]), np.array([[0.6, 0.5], [0.3, 0.2], [0.1, 0.3]]))
    with pytest.raises(IllConditionedKernelError, match="observed-block covariance is singular"):
        interpolate(obs, spec, grid)


@pytest.mark.parametrize("nugget", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_in_place_observed_covariance_matches_three_temporary_formula(nugget, kind):
    rng = np.random.default_rng(17)
    grid = sio.make_grid(12, 10)
    spec = PriorSpec(P=3, sigma_a2=0.7, kernel=KernelSpec(kind=kind, length_scale=4.0, sigma_k2=1.3),
                     mean=np.array([0.2, -0.4]))
    obs_idx = np.sort(rng.choice(len(grid), 15, replace=False))
    obs = PartialObservation(obs_idx, rng.dirichlet(np.ones(3), size=15).T, nugget)
    A, var = interpolate(obs, spec, grid)
    A_ref, var_ref = three_temporary_interpolate(obs, spec, grid)
    assert np.array_equal(A, A_ref)
    assert np.array_equal(var, var_ref)


@pytest.mark.parametrize(
    "width, length_scale, nugget, step",
    [
        (30, 6.0, 0.0, None),  # 300 observed pixels, cond(C_oo) about 5e2
        (30, 6.0, 0.05, None),
        (40, 1000.0, 0.0, 3),  # every third of 1600 pixels, cond(C_oo) about 7e5
    ],
)
def test_variance_matches_triangular_solve_and_dense_oracle(width, length_scale, nugget, step):
    rng = np.random.default_rng(11)
    grid = sio.make_grid(width, width)
    N = len(grid)
    obs_idx = np.arange(0, N, step) if step else np.sort(rng.choice(N, 300, replace=False))
    spec = PriorSpec(P=3, sigma_a2=0.8, kernel=KernelSpec(length_scale=length_scale, sigma_k2=1.2))
    obs = PartialObservation(obs_idx, rng.dirichlet(np.ones(3), size=len(obs_idx)).T, nugget)
    _, var = interpolate(obs, spec, grid)
    _, var_oracle = dense_gp_oracle(
        grid, obs_idx, geometry.ilr(obs.values.T), spec.kernel, spec.sigma_a2, nugget
    )
    assert np.max(np.abs(var - solve_triangular_variance(obs, spec, grid))) < 1e-13
    assert np.max(np.abs(var - var_oracle)) < 1e-13


def test_interpolation_peak_memory_is_the_cross_covariance():
    # Everything else interpolate holds is K x K or smaller. An N x K copy,
    # such as f2py makes silently of an argument in the wrong memory order,
    # would double the peak.
    rng = np.random.default_rng(2)
    grid = sio.make_grid(64, 48)
    N, K = len(grid), 300
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=10.0))
    obs = PartialObservation(np.sort(rng.choice(N, K, replace=False)), rng.dirichlet(np.ones(3), size=K).T)
    interpolate(obs, spec, grid)  # imports and lazy set-up outside the trace
    tracemalloc.start()
    try:
        interpolate(obs, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * N * K * 8


@pytest.mark.parametrize("nugget", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_blocked_interpolation_matches_unblocked_and_dense_oracle(nugget, kind):
    # 37 x 30 = 1110 pixels: two whole blocks and a partial last one
    rng = np.random.default_rng(23)
    grid = sio.make_grid(37, 30)
    N, K = len(grid), 111
    assert N > 2 * interp._BLOCK_PIXELS and N % interp._BLOCK_PIXELS
    spec = PriorSpec(P=3, sigma_a2=0.7, kernel=KernelSpec(kind=kind, length_scale=4.0, sigma_k2=1.3),
                     mean=np.array([0.2, -0.4]))
    obs_idx = np.sort(rng.choice(N, K, replace=False))
    obs = PartialObservation(obs_idx, rng.dirichlet(np.ones(3), size=K).T, nugget)
    A, var = interpolate(obs, spec, grid)

    A_ref, var_ref = three_temporary_interpolate(obs, spec, grid)
    assert np.max(np.abs(A - A_ref)) < 1e-13
    assert np.max(np.abs(var - var_ref)) < 1e-13

    mu = spec.latent_mean
    mean_oracle, var_oracle = dense_gp_oracle(
        grid, obs_idx, geometry.ilr(obs.values.T, spec.H) - mu, spec.kernel, spec.sigma_a2, nugget
    )
    assert np.max(np.abs(A - geometry.ilr_inv(mu + mean_oracle, spec.H).T)) < 1e-13
    assert np.max(np.abs(var - np.maximum(var_oracle, 0.0))) < 1e-13


@pytest.mark.parametrize("width, height", [(64, 48), (128, 96)])
def test_interpolation_peak_memory_follows_the_block_not_the_grid(width, height):
    # The observed block is K x K and one block of the cross-covariance
    # block x K; the rest is O(N P). A whole N x K cross-covariance, or a
    # second block kept alive while the next is built, breaks the bound.
    rng = np.random.default_rng(2)
    grid = sio.make_grid(width, height)
    N, K = len(grid), 300
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=10.0))
    obs = PartialObservation(np.sort(rng.choice(N, K, replace=False)), rng.dirichlet(np.ones(3), size=K).T)
    interpolate(obs, spec, grid)  # imports and lazy set-up outside the trace
    tracemalloc.start()
    try:
        interpolate(obs, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1.25 * (K * K + interp._BLOCK_PIXELS * K) + 2 * spec.P * N)
    assert peak < 0.5 * N * K * 8

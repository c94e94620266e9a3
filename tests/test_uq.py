import tracemalloc

import numpy as np
import pytest

from simplexuq import geometry, uq
from simplexuq.prior import PriorSpec, pixel_prior_sample
from simplexuq.uq import (
    BarycentricGrid,
    euclidean_mean,
    geodesic_mean,
    hdr,
    map_total_variation,
    summarize_image,
)


def dirichlet_samples(seed, n, P, conc=1.0):
    return np.random.default_rng(seed).dirichlet(np.full(P, conc), size=n)


def one_pixel_summary(samples):
    """`summarize_image` of (M, P) samples taken as a one-pixel chain."""
    return summarize_image(samples[:, :, None])


def cell_centroids(grid, cells):
    return np.array([grid.cell_vertices(c).mean(axis=0) for c in cells])


# ---------------------------------------------------------------------------
# means
# ---------------------------------------------------------------------------


def test_geodesic_mean_of_identical_samples():
    a = np.array([0.5, 0.2, 0.3])
    samples = np.tile(a, (10, 1))
    assert np.max(np.abs(geodesic_mean(samples) - a)) < 1e-12


def test_geodesic_mean_of_symmetric_pair_is_uniform():
    z = np.array([1.3, -0.4])
    samples = np.vstack([geometry.ilr_inv(z), geometry.ilr_inv(-z)])
    assert np.max(np.abs(geodesic_mean(samples) - 1.0 / 3.0)) < 1e-12


def test_geodesic_mean_matches_grid_search_oracle():
    samples = dirichlet_samples(0, 40, 3, conc=2.0)
    grid = BarycentricGrid(3, 160)
    centers = cell_centroids(grid, range(grid.n_cells))
    z_c = geometry.ilr(centers)
    z_s = geometry.ilr(samples)
    cost = ((z_c[:, None, :] - z_s[None, :, :]) ** 2).sum(axis=(1, 2))
    best = centers[np.argmin(cost)]
    gm = geodesic_mean(samples)
    # agreement within the grid resolution
    assert geometry.geodesic_distance(gm, best) < geometry.geodesic_distance(
        best, grid.cell_vertices(grid.cell_of(best[None, :])[0]).mean(axis=0)
    ) + 0.1


def test_geodesic_mean_permutation_equivariance():
    samples = dirichlet_samples(1, 100, 4)
    perm = [2, 0, 3, 1]
    gm = geodesic_mean(samples)
    gm_p = geodesic_mean(samples[:, perm])
    assert np.max(np.abs(gm[perm] - gm_p)) < 1e-10


def test_euclidean_mean_basic():
    one = np.array([[0.1, 0.6, 0.3]])
    assert np.array_equal(euclidean_mean(one), one[0])
    pair = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.allclose(euclidean_mean(pair), [0.5, 0.5, 0.0], atol=1e-15)
    samples = dirichlet_samples(2, 500, 5)
    assert abs(euclidean_mean(samples).sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        euclidean_mean(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# variances
# ---------------------------------------------------------------------------


def test_variances_of_identical_samples_are_zero():
    s = one_pixel_summary(np.tile([0.4, 0.4, 0.2], (8, 1)))
    assert s.geodesic_total_variance[0] < 1e-28
    assert s.euclidean_total_variance[0] < 1e-28
    assert np.max(s.ilr_variances) < 1e-28


def test_geodesic_tv_matches_definition_and_trace():
    samples = dirichlet_samples(3, 200, 4)
    z = geometry.ilr(samples)
    zbar = z.mean(axis=0)
    direct = np.sum((z - zbar) ** 2) / (len(z) - 1)
    s = one_pixel_summary(samples)
    tv = s.geodesic_total_variance[0]
    assert abs(tv - direct) < 1e-10
    assert abs(s.ilr_variances[:, 0].sum() - tv) < 1e-10


def test_geodesic_tv_of_prior_samples():
    spec = PriorSpec(P=3, sigma_a2=0.6)
    M = 100_000
    samples = pixel_prior_sample(spec, M, rng=4)
    tv = one_pixel_summary(samples).geodesic_total_variance[0]
    # TV estimates (P-1) sigma_a2; chi^2 standard error
    se = (spec.P - 1) * spec.sigma_a2 * np.sqrt(2.0 / (M - 1))
    assert abs(tv - (spec.P - 1) * spec.sigma_a2) < 3.0 * se


def test_ilr_variances_isotropy():
    spec = PriorSpec(P=4, sigma_a2=1.1)
    samples = pixel_prior_sample(spec, 100_000, rng=5)
    v = one_pixel_summary(samples).ilr_variances[:, 0]
    se = spec.sigma_a2 * np.sqrt(2.0 / 100_000)
    assert np.max(np.abs(v - spec.sigma_a2)) < 4.0 * se


def test_geodesic_tv_permutation_invariance():
    samples = dirichlet_samples(6, 300, 4)
    perm = [3, 1, 0, 2]
    tv = one_pixel_summary(samples).geodesic_total_variance[0]
    assert abs(tv - one_pixel_summary(samples[:, perm]).geodesic_total_variance[0]) < 1e-10


def test_euclidean_tv_two_point_oracle():
    # direct two-point covariance: each of the two varying components has
    # sample variance 2 * 0.125^2 = 0.03125 (ddof=1), the third is constant
    pair = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]])
    assert abs(one_pixel_summary(pair).euclidean_total_variance[0] - 0.0625) < 1e-15


def test_euclidean_tv_bounded_by_simplex_diameter():
    samples = dirichlet_samples(9, 2000, 3, conc=0.2)
    assert one_pixel_summary(samples).euclidean_total_variance[0] <= 2.0


# ---------------------------------------------------------------------------
# barycentric grid
# ---------------------------------------------------------------------------


def test_grid_tiling_counts():
    g = BarycentricGrid(3, 8)
    assert g.n_cells == 64
    assert g.n_up == 36
    assert abs(g.n_cells * g.cell_measure - 0.5) < 1e-15


def test_grid_cell_centers_round_trip():
    g = BarycentricGrid(3, 12)
    cells = np.arange(g.n_cells)
    centers = cell_centroids(g, cells)
    assert np.allclose(centers.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(g.cell_of(centers), cells)


def test_grid_vertices_on_simplex():
    g = BarycentricGrid(3, 5)
    for cell in (0, 7, g.n_up, g.n_cells - 1):
        v = g.cell_vertices(cell)
        assert v.shape == (3, 3)
        assert np.allclose(v.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(v >= -1e-12)


def test_grid_component_counting():
    g = BarycentricGrid(3, 4)
    active = np.zeros(g.n_cells, dtype=bool)
    assert g.n_components(active) == 0
    active[0] = True  # up (0,0)
    active[g.n_up] = True  # down (0,0), adjacent to up (1,0), (0,1), (0,0)
    assert g.n_components(active) == 1
    active[9] = True  # up (3,0): far corner cell
    assert g.n_components(active) == 2


def test_grid_p2():
    g = BarycentricGrid(2, 10)
    a = np.array([[0.05, 0.95], [0.55, 0.45], [0.999, 0.001]])
    assert np.array_equal(g.cell_of(a), [0, 5, 9])
    active = np.array([True, True, False, True, False, False, True, True, True, False])
    assert g.n_components(active) == 3


def test_grid_rejects_bad_dimension():
    with pytest.raises(ValueError):
        BarycentricGrid(5, 4)


# ---------------------------------------------------------------------------
# HDR
# ---------------------------------------------------------------------------


def test_hdr_point_mass_single_cell():
    a = geometry.closure([0.41, 0.35, 0.24])
    samples = np.tile(a, (50, 1))
    for alpha in (0.05, 0.3, 0.8):
        r = hdr(samples, alpha, bins=16)
        assert len(r.region_cells) == 1
        assert r.n_components == 1
        assert r.coverage == 1.0


def test_hdr_in_sample_coverage_invariant():
    samples = dirichlet_samples(10, 5000, 3, conc=3.0)
    M = len(samples)
    for alpha in (0.05, 0.1, 0.32):
        r = hdr(samples, alpha, bins=32)
        assert r.coverage >= 1.0 - alpha - 1.0 / M


def test_hdr_monotone_regions():
    samples = dirichlet_samples(11, 20000, 3, conc=2.0)
    r_wide = hdr(samples, 0.05, bins=24)
    r_narrow = hdr(samples, 0.4, bins=24)
    assert set(r_narrow.region_cells).issubset(set(r_wide.region_cells))
    assert r_wide.threshold <= r_narrow.threshold


def test_hdr_detects_two_clusters():
    rng = np.random.default_rng(12)
    z1 = rng.normal([2.5, 0.0], 0.3, size=(4000, 2))
    z2 = rng.normal([-2.5, 0.0], 0.3, size=(4000, 2))
    samples = geometry.ilr_inv(np.vstack([z1, z2]))
    r_hist = hdr(samples, 0.2, bins=16)
    assert r_hist.n_components == 2
    r_kde = hdr(samples, 0.2, estimator="latent-kde")
    assert r_kde.n_components == 2


def test_hdr_split_sample_coverage():
    spec = PriorSpec(P=3, sigma_a2=0.25)
    samples = pixel_prior_sample(spec, 40_000, rng=13)
    train, test = samples[:20_000], samples[20_000:]
    for alpha in (0.1, 0.32):
        r = hdr(train, alpha, bins=64)
        covered = r.contains(test).mean()
        assert abs(covered - (1.0 - alpha)) < 0.03


def test_hdr_kde_p4():
    spec = PriorSpec(P=4, sigma_a2=0.4)
    samples = pixel_prior_sample(spec, 6000, rng=14)
    r = hdr(samples, 0.1)
    assert r.estimator == "latent-kde"
    assert r.n_components >= 1
    assert r.coverage >= 0.9 - 1.0 / len(samples)
    held = pixel_prior_sample(spec, 6000, rng=15)
    assert abs(r.contains(held).mean() - 0.9) < 0.05


def test_hdr_ties_are_conservative():
    # two cells with identical counts at the threshold: both stay in
    a = geometry.closure([0.9, 0.05, 0.05])
    b = geometry.closure([0.05, 0.9, 0.05])
    c = geometry.closure([1.0 / 3] * 3)
    samples = np.vstack([np.tile(a, (10, 1)), np.tile(b, (10, 1)), np.tile(c, (30, 1))])
    r = hdr(samples, 0.25, bins=8)  # floor(0.25*50)=12th smallest is a tie at 10-count cells
    assert len(r.region_cells) == 3
    assert r.coverage == 1.0


def test_hdr_validation():
    samples = dirichlet_samples(16, 100, 3)
    with pytest.raises(ValueError):
        hdr(samples, 0.0)
    with pytest.raises(ValueError):
        hdr(samples, 1.0)
    with pytest.raises(ValueError):
        hdr(samples[:5], 0.1)  # fewer than 1/alpha samples
    with pytest.raises(ValueError):
        hdr(samples, 0.1, estimator="spline")
    with pytest.raises(ValueError):
        hdr(dirichlet_samples(17, 100, 5), 0.1)  # P > 4


# ---------------------------------------------------------------------------
# image summaries
# ---------------------------------------------------------------------------


def test_summarize_identical_images():
    img = dirichlet_samples(18, 6, 3).T  # (P=3, N=6)
    chain = np.tile(img, (5, 1, 1))
    s = summarize_image(chain, shape=(2, 3))
    assert np.max(s.geodesic_total_variance) < 1e-28
    assert np.max(s.euclidean_total_variance) < 1e-28
    assert np.max(np.abs(s.geodesic_mean - img)) < 1e-12
    assert np.max(np.abs(s.euclidean_mean - img)) < 1e-15
    assert s.as_map(s.geodesic_std).shape == (2, 3)


def test_summarize_shapes_and_pixel_accessor():
    rng = np.random.default_rng(19)
    chain = rng.dirichlet(np.ones(3), size=(64, 8)).transpose(0, 2, 1)
    s = summarize_image(chain, shape=(2, 4))
    assert s.euclidean_mean.shape == (3, 8)
    assert s.ilr_variances.shape == (2, 8)
    assert s.as_map(s.euclidean_std).shape == (2, 4)
    # every pixel's statistics equal the estimators applied to its samples
    for n in range(8):
        px = chain[:, :, n]
        ilr_var = np.var(geometry.ilr(px), axis=0, ddof=1)
        assert np.max(np.abs(s.euclidean_mean[:, n] - euclidean_mean(px))) < 1e-12
        assert np.max(np.abs(s.geodesic_mean[:, n] - geodesic_mean(px))) < 1e-12
        assert np.max(np.abs(s.ilr_variances[:, n] - ilr_var)) < 1e-12
        assert abs(s.euclidean_total_variance[n] - np.var(px, axis=0, ddof=1).sum()) < 1e-12
        assert abs(s.geodesic_total_variance[n] - ilr_var.sum()) < 1e-12


def test_summarize_requires_nonempty_chain():
    with pytest.raises(ValueError):
        summarize_image(np.zeros((0, 3, 4)))


def whole_chain_moments(samples):
    """The moments of (M, ..., P) samples by numpy's mean and var over the
    whole stack at once: the bits a blocked summary must reproduce."""
    eu_var = samples.var(axis=0, ddof=1).sum(axis=-1) if len(samples) > 1 else np.zeros(samples.shape[1:-1])
    z = geometry.ilr(samples)
    ilr_var = z.var(axis=0, ddof=1) if len(samples) > 1 else np.zeros(z.shape[1:])
    return samples.mean(axis=0), geometry.ilr_inv(z.mean(axis=0)), eu_var, ilr_var.sum(axis=-1), ilr_var


@pytest.mark.parametrize("P, N", [(3, 64), (2, 5), (4, 1000), (2, 1), (3, 1)])
def test_blocked_summary_has_the_bits_of_whole_chain_moments(P, N):
    # Chains of 1, block - 1, block, block + 1 and 1000 samples, where a
    # block is what summarize_image reads at a time.
    block = max(1, uq._MOMENT_BLOCK_DOUBLES // (P * N))
    rng = np.random.default_rng(32)
    for M in sorted({1, max(block - 1, 1), block, block + 1, 1000}):
        chain = rng.dirichlet(np.full(P, 0.7), size=(M, N)).transpose(0, 2, 1)
        s = summarize_image(chain)
        fields = (s.euclidean_mean.T, s.geodesic_mean.T, s.euclidean_total_variance,
                  s.geodesic_total_variance, s.ilr_variances.T)
        for got, want in zip(fields, whole_chain_moments(np.swapaxes(chain, 1, 2)), strict=True):
            assert np.array_equal(got, want), (M, P, N)


def test_summary_peak_memory_is_a_fraction_of_the_chain():
    chain = np.random.default_rng(33).dirichlet(np.ones(3), size=(200, 1024)).transpose(0, 2, 1).copy()
    tracemalloc.start()
    try:
        summarize_image(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * chain.nbytes


def test_map_total_variation_hand_value():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert map_total_variation(img) == 6.0
    assert map_total_variation(np.full((4, 4), 2.5)) == 0.0
    with pytest.raises(ValueError):
        map_total_variation(np.zeros(5))


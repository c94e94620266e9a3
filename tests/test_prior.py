import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from simplexuq import geometry
from simplexuq import io as sio
from simplexuq.errors import IllConditionedKernelError
from simplexuq.interp import PartialObservation
from simplexuq.prior import (
    _SYMV_MIN_PIXELS,
    GramMatrix,
    KernelSpec,
    PriorSpec,
    _cholesky_with_jitter,
    _lattice_offsets,
    build_gram,
    gp_prior_logpdf,
    gp_prior_sample,
    pixel_prior_logpdf,
    pixel_prior_sample,
    prior_quadratic,
    sample_latent_field,
)
from simplexuq.sampler import Observations, SamplerConfig


def simplex_quadrature_nodes(bins):
    """Centroid-rule nodes over the triangular tiling of the 2-simplex.

    Upward cells (i+j <= B-1) and downward cells (i+j <= B-2) exactly tile
    the triangle {a1, a2 > 0, a1 + a2 < 1}; every cell has area 1/(2 B^2)
    in the (a1, a2) plane. Used as an integration oracle independent of the
    density implementation.
    """
    ii, jj = np.meshgrid(np.arange(bins), np.arange(bins), indexing="ij")
    up = ii + jj <= bins - 1
    dn = ii + jj <= bins - 2
    c = np.vstack(
        [
            np.stack([(ii[up] + 1.0 / 3.0) / bins, (jj[up] + 1.0 / 3.0) / bins], axis=1),
            np.stack([(ii[dn] + 2.0 / 3.0) / bins, (jj[dn] + 2.0 / 3.0) / bins], axis=1),
        ]
    )
    nodes = np.column_stack([c, 1.0 - c.sum(axis=1)])
    return nodes, 1.0 / (2.0 * bins * bins)


# ---------------------------------------------------------------------------
# pixel prior
# ---------------------------------------------------------------------------


def test_pixel_logpdf_permutation_invariant():
    rng = np.random.default_rng(0)
    spec = PriorSpec(P=4, sigma_a2=0.7)
    a = rng.dirichlet(np.ones(4), size=100)
    base = pixel_prior_logpdf(a, spec)
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]):
        assert np.max(np.abs(pixel_prior_logpdf(a[:, perm], spec) - base)) < 1e-10


def test_pixel_logpdf_integrates_to_one():
    spec = PriorSpec(P=3, sigma_a2=0.25)
    nodes, dA = simplex_quadrature_nodes(512)
    integral = np.exp(pixel_prior_logpdf(nodes, spec)).sum() * dA
    assert abs(integral - 1.0) < 1e-3


def test_pixel_logpdf_integrates_to_one_nonzero_mean():
    spec = PriorSpec(P=3, sigma_a2=0.4, mean=np.array([0.3, -0.2]))
    nodes, dA = simplex_quadrature_nodes(512)
    integral = np.exp(pixel_prior_logpdf(nodes, spec)).sum() * dA
    assert abs(integral - 1.0) < 1e-3


def test_pixel_logpdf_diverges_at_vertex():
    spec = PriorSpec(P=3, sigma_a2=0.25)
    eps = np.array([1e-3, 1e-6, 1e-9, 1e-12])
    vals = np.array(
        [pixel_prior_logpdf(geometry.closure([1.0, e, e]), spec) for e in eps]
    )
    assert np.all(np.diff(vals) < 0.0)
    assert vals[-1] < -500.0


def test_pixel_logpdf_rejects_boundary():
    spec = PriorSpec(P=3, sigma_a2=1.0)
    with pytest.raises(geometry.SimplexBoundaryError):
        pixel_prior_logpdf(np.array([0.5, 0.5, 0.0]), spec)


def test_pixel_sample_latent_moments():
    spec = PriorSpec(P=3, sigma_a2=0.8)
    M = 100_000
    a = pixel_prior_sample(spec, M, rng=42)
    z = geometry.ilr(a)
    sd = np.sqrt(spec.sigma_a2)
    assert np.max(np.abs(z.mean(axis=0))) < 4.0 * sd / np.sqrt(M)
    cov = np.cov(z.T)
    # covariance entries have standard error ~ sigma_a2 * sqrt(2/M)
    tol = 5.0 * spec.sigma_a2 * np.sqrt(2.0 / M)
    assert np.max(np.abs(cov - spec.sigma_a2 * np.eye(2))) < tol


def test_pixel_sample_deterministic_and_interior():
    spec = PriorSpec(P=4, sigma_a2=2.0)
    a1 = pixel_prior_sample(spec, 64, rng=7)
    a2 = pixel_prior_sample(spec, 64, rng=7)
    assert np.array_equal(a1, a2)
    assert np.all(a1 > 0.0)
    assert np.max(np.abs(a1.sum(axis=-1) - 1.0)) < 1e-12


def test_pixel_sample_fig1_shape():
    # sigma_a2 = 0.25 gives a unimodal isotropic cloud centered at the
    # uniform composition: modal histogram cell near the centroid and
    # counts nearly invariant under permuting the parts.
    spec = PriorSpec(P=3, sigma_a2=0.25)
    M = 100_000
    a = pixel_prior_sample(spec, M, rng=3)
    bins = 16
    hist, _, _ = np.histogram2d(a[:, 0], a[:, 1], bins=bins, range=[[0, 1], [0, 1]])
    i, j = np.unravel_index(np.argmax(hist), hist.shape)
    mode = np.array([(i + 0.5) / bins, (j + 0.5) / bins])
    assert np.max(np.abs(mode - 1.0 / 3.0)) < 0.2
    hist_perm, _, _ = np.histogram2d(a[:, 1], a[:, 0], bins=bins, range=[[0, 1], [0, 1]])
    assert np.abs(hist - hist_perm).sum() / M < 0.1


def test_pixel_prior_multimodal_scan_large_variance():
    # For a large latent variance the prior density along a geodesic
    # between two near-vertex compositions shows two interior maxima.
    spec = PriorSpec(P=3, sigma_a2=5.0)
    e = 1e-9
    p = geometry.closure([1.0, e, e])
    q = geometry.closure([e, 1.0, e])
    t = np.linspace(0.0, 1.0, 2001)
    lp = pixel_prior_logpdf(geometry.geodesic_path(p, q, t), spec)
    n_max = int(np.sum((lp[1:-1] > lp[:-2]) & (lp[1:-1] > lp[2:])))
    assert n_max >= 2


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec(P=3, sigma_a2=0.0)
    with pytest.raises(ValueError):
        PriorSpec(P=1, sigma_a2=1.0)
    with pytest.raises(ValueError):
        PriorSpec(P=3, sigma_a2=1.0, mean=np.zeros(3))
    # an infinite latent variance is a flat prior, which nothing downstream
    # can synthesise from, draw from or evaluate
    with pytest.raises(ValueError, match="sigma_a2"):
        PriorSpec(P=3, sigma_a2=np.inf)
    # a non-finite mean is an input mistake, not a divergent chain, which
    # is what the sampler would report at its first step
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mean must be finite"):
            PriorSpec(P=3, sigma_a2=1.0, mean=[bad, 0.0])


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


def test_gram_diagonal_is_amplitude():
    grid = sio.make_grid(4, 3)
    gram = build_gram(grid, KernelSpec(kind="exponential", length_scale=2.0, sigma_k2=1.7))
    assert np.allclose(np.diag(gram.matrix), 1.7, atol=1e-12)


def test_gram_off_diagonal_at_length_scale():
    grid = np.array([[0.0, 0.0], [3.0, 0.0]])
    gram = build_gram(grid, KernelSpec(length_scale=3.0, sigma_k2=2.0))
    assert abs(gram.matrix[0, 1] - 2.0 * np.exp(-1.0)) < 1e-12


def test_gram_dirac_is_identity():
    grid = sio.make_grid(3, 3)
    gram = build_gram(grid, KernelSpec(kind="dirac"))
    assert isinstance(gram, GramMatrix)
    assert gram.matrix.shape == gram.chol.shape == (9,)
    assert np.array_equal(gram.matrix, np.ones(9))
    assert np.array_equal(gram.chol, np.ones(9))
    B = np.random.default_rng(31).standard_normal((9, 2))
    assert np.array_equal(gram.solve(B), B)


def test_dirac_kernel_separates_underflowing_distances():
    # The Euclidean distance between these points squares to zero; build_gram
    # already treats them as distinct pixels, and so must the kernel.
    assert np.array_equal(KernelSpec(kind="dirac")([[0, 0]], [[1e-200, 0]]), [[0.0]])
    assert np.array_equal(KernelSpec(kind="dirac", sigma_k2=2.0)([[1e-200, 0]], [[1e-200, 0]]), [[2.0]])


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (9, 7)])
def test_dirac_kernel_matches_zero_distance_rule_on_grids(shape):
    grid = sio.make_grid(*shape)
    other = np.vstack([grid[::2], grid[::3] + 0.5])
    for U1, U2 in ((grid, grid), (grid, other), (other, grid)):
        expected = 1.7 * (cdist(U1, U2) == 0.0).astype(float)
        assert np.array_equal(KernelSpec(kind="dirac", sigma_k2=1.7)(U1, U2), expected)


@pytest.mark.parametrize("kind", ["exponential", "dirac"])
@pytest.mark.parametrize("length_scale, sigma_k2", [(10.0, 1.0), (2.0, 0.8), (0.37, 1.0)])
def test_kernel_of_a_coordinate_set_is_exactly_symmetric(kind, length_scale, sigma_k2):
    # build_gram and interpolate factor kernel(U, U) as it comes, without
    # averaging it with its transpose, so the symmetry must be exact
    rng = np.random.default_rng(11)
    U = np.vstack([rng.uniform(-30.0, 30.0, size=(300, 2)), sio.make_grid(9, 7) * 0.1 + 1.0 / 3.0])
    K = KernelSpec(kind=kind, length_scale=length_scale, sigma_k2=sigma_k2)(U, U)
    assert np.array_equal(K, K.T)


def cdist_kernel(kernel, U1, U2):
    """The exponential kernel from scipy's Euclidean distances."""
    return kernel.sigma_k2 * np.exp(-(cdist(U1, U2) / kernel.length_scale))


# A lattice far from the origin still has small offsets, although
# 2^40 + 11 squared is not a double.
_OFFSETS = [0.0, -3.0, -17.0, 2.0**40, -(2.0**40)]


@st.composite
def kernel_specs(draw):
    return KernelSpec(
        length_scale=draw(st.floats(0.05, 50.0)), sigma_k2=draw(st.floats(1e-3, 1e3))
    )


@st.composite
def lattice_subsets(draw):
    """Two random subsets of one w x h lattice, shifted by one offset."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shift = np.array([draw(st.sampled_from(_OFFSETS)), draw(st.sampled_from(_OFFSETS))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = sio.make_grid(w, h) + shift
    return tuple(grid[rng.random(len(grid)) < rng.uniform(0.1, 1.0)] for _ in range(2))


@given(lattice_subsets(), kernel_specs())
def test_exponential_kernel_has_the_bits_of_cdist_on_lattices(sets, kernel):
    U1, U2 = sets
    assert np.array_equal(kernel(U1, U2), cdist_kernel(kernel, U1, U2))
    K = kernel(U1, U1)
    assert np.array_equal(K, cdist_kernel(kernel, U1, U1)) and np.array_equal(K, K.T)


@given(st.integers(1, 3), st.integers(0, 2**32 - 1), kernel_specs())
def test_exponential_kernel_has_the_bits_of_cdist_on_lattices_of_any_dimension(dim, seed, kernel):
    rng = np.random.default_rng(seed)
    U1, U2 = (rng.integers(-1, 2, size=(rng.integers(1, 40), dim)).astype(float) for _ in range(2))
    assert np.array_equal(kernel(U1, U2), cdist_kernel(kernel, U1, U2))
    K = kernel(U1, U1)
    assert np.array_equal(K, cdist_kernel(kernel, U1, U1)) and np.array_equal(K, K.T)


def test_lattice_beyond_the_integer_range_keeps_its_offsets():
    # 2^64 does not fit an intp: offsets are taken from the lower corner
    # before any cast.
    U = np.column_stack([np.full(24, 2.0**64), np.arange(24.0)])
    kernel = KernelSpec(length_scale=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _lattice_offsets(U, U, len(U) ** 2) is not None
        assert np.array_equal(kernel(U, U), cdist_kernel(kernel, U, U))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 2.0**40]), kernel_specs())
def test_exponential_kernel_has_the_bits_of_cdist_off_lattices(seed, scale, kernel):
    rng = np.random.default_rng(seed)
    U1 = scale * rng.uniform(-1.0, 1.0, size=(rng.integers(1, 40), 2))
    U2 = np.vstack([U1[: rng.integers(0, len(U1) + 1)], sio.make_grid(3, 2) + 0.5])
    assert _lattice_offsets(U1, U2, len(U1) * len(U2)) is None
    assert np.array_equal(kernel(U1, U2), cdist_kernel(kernel, U1, U2))
    K = kernel(U1, U1)
    assert np.array_equal(K, cdist_kernel(kernel, U1, U1)) and np.array_equal(K, K.T)


@given(st.integers(12, 2**45), kernel_specs())
def test_far_apart_lattices_use_the_general_path(gap, kernel):
    # Integer coordinates whose offsets would need a table too large for the
    # result fall back to summing squared differences.
    U1, U2 = sio.make_grid(3, 4), sio.make_grid(2, 2) + [float(gap), 1.0]
    assert _lattice_offsets(U1, U2, len(U1) * len(U2)) is None
    assert np.array_equal(kernel(U1, U2), cdist_kernel(kernel, U1, U2))


def test_lattice_path_serves_gram_matrices_and_interpolation_blocks():
    grid = sio.make_grid(32, 32)
    assert len(_lattice_offsets(grid, grid, len(grid) ** 2)[0]) == 63**2
    big = sio.make_grid(96, 96)
    observed = big[np.random.default_rng(3).choice(len(big), 921, replace=False)]
    assert _lattice_offsets(big[:512], observed, 512 * 921) is not None
    kernel = KernelSpec(length_scale=4.0, sigma_k2=0.7)
    assert np.array_equal(kernel(grid, grid), cdist_kernel(kernel, grid, grid))
    assert np.array_equal(kernel(big[:512], observed), cdist_kernel(kernel, big[:512], observed))


def test_lattice_table_is_at_most_an_eighth_of_the_result():
    # 63 x 63 offsets of a 32 x 32 grid: too many for 20 x 1024 entries, few
    # enough for 40 x 1024
    grid = sio.make_grid(32, 32)
    assert _lattice_offsets(grid[:20], grid, 20 * 1024) is None
    table, _, _ = _lattice_offsets(grid[:40], grid, 40 * 1024)
    assert 8 * table.size <= 40 * 1024


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_exponential_kernel_peak_memory_is_its_result(shift):
    # Lattice (shift 0) and general path alike fill the result in row blocks
    # with no full-size temporary.
    grid = sio.make_grid(32, 32) + shift
    tracemalloc.start()
    try:
        K = KernelSpec(length_scale=4.0)(grid, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * K.nbytes


@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_kernel_rejects_mismatched_coordinate_dimensions(kind):
    kernel = KernelSpec(kind=kind)
    pairs = [
        ([[1.0, 1.0], [0.0, 0.0]], [[1.0], [2.0]]),
        ([[1.0], [2.0]], [[1.0, 1.0]]),
        (np.zeros((2, 2, 2)), np.zeros((2, 2))),
        (np.zeros((2, 0)), np.zeros((3, 0))),
    ]
    for U1, U2 in pairs:
        with pytest.raises(ValueError, match="coordinate sets"):
            kernel(U1, U2)
    # a single coordinate may be given as a vector
    assert kernel([0.0, 0.0], [[0.0, 0.0], [3.0, 4.0]]).shape == (1, 2)


def test_gram_symmetry_and_cholesky():
    grid = sio.make_grid(5, 4)
    gram = build_gram(grid, KernelSpec(length_scale=4.0))
    assert np.max(np.abs(gram.matrix - gram.matrix.T)) < 1e-12
    assert np.max(np.abs(gram.chol @ gram.chol.T - gram.matrix)) < 1e-10


def test_gram_rejects_duplicate_coordinates():
    # The verdict of np.unique(grid, axis=0): exact row equality, with 0.0
    # equal to -0.0 and a one-ulp difference distinct.
    ulp = np.nextafter(1.0, 2.0)
    grids = {
        "repeated row": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        "repeated after sort": [[2.0, 1.0], [1.0, 2.0], [0.0, 5.0], [2.0, 1.0]],
        "signed zero": [[0.0, 1.0], [3.0, 1.0], [-0.0, 1.0]],
        "one ulp in x": [[1.0, 2.0], [ulp, 2.0]],
        "one ulp in y": [[3.0, 1.0], [3.0, ulp], [1.0, 1.0]],
        "single pixel": [[0.0, 0.0]],
    }
    for name, rows in grids.items():
        grid = np.array(rows)
        distinct = len(np.unique(grid, axis=0)) == len(grid)
        assert distinct == name.startswith(("one ulp", "single")), name
        if distinct:
            assert build_gram(grid, KernelSpec(kind="dirac")).n_pixels == len(grid)
        else:
            with pytest.raises(ValueError, match="distinct"):
                build_gram(grid, KernelSpec(kind="dirac"))


def test_cholesky_jitter_escalation_and_failure():
    # A barely indefinite matrix is rescued by the escalating jitter...
    K = np.eye(3)
    K[0, 0] = -1e-7
    L, jit = _cholesky_with_jitter(K.copy, scale=1.0)
    assert jit > 1e-7
    # ...but a strongly indefinite one exhausts the policy.
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditionedKernelError):
        _cholesky_with_jitter(bad.copy, scale=1.0)


def test_jittered_matrix_and_gram_factor_match_the_identity_formula(monkeypatch):
    # The jitter goes on the diagonal of the matrix itself; every matrix
    # handed to the factorization, and the factor build_gram keeps, must be
    # exactly what K + jit * I gives, for an exactly symmetric K.
    grid = sio.make_grid(6, 5)
    Q, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((4, 4)))
    indefinite = Q @ np.diag([1.0, 0.5, 0.2, -5e-7]) @ Q.T
    indefinite = 0.5 * (indefinite + indefinite.T)
    dpotrf = lapack.dpotrf
    calls = []

    def recording(a, **kwargs):
        calls.append(a.copy())
        return dpotrf(a, **kwargs)

    def factor(K):
        return dpotrf(K, lower=1, clean=1)[0]

    monkeypatch.setattr(lapack, "dpotrf", recording)
    L, jit = _cholesky_with_jitter(indefinite.copy, 1.0)
    assert jit > 0 and len(calls) >= 2
    assert np.array_equal(calls[-1], indefinite + jit * np.eye(len(indefinite)))
    assert np.array_equal(L, factor(indefinite + jit * np.eye(len(indefinite))))
    # A length scale of 1e15 makes the kernel matrix numerically all ones,
    # which only the first rung of the ladder, 1e-10 * sigma_k2, rescues.
    for kernel, want_jitter, attempts in (
        (KernelSpec(length_scale=3.0), 0.0, 1),
        (KernelSpec(length_scale=1e15), 1e-10, 2),
    ):
        calls.clear()
        gram = build_gram(grid, kernel)
        K = kernel(grid, grid)
        if want_jitter > 0:
            K = K + want_jitter * np.eye(len(grid))
        assert gram.applied_jitter == want_jitter
        assert len(calls) == attempts and np.array_equal(calls[-1], K)
        assert np.array_equal(gram.chol, factor(K))


def test_exponential_gram_factors_the_kernel_matrix_in_place(monkeypatch):
    # The factor build_gram keeps is the kernel matrix's own memory, and a
    # build holds one N x N array at a time under tracemalloc, failed
    # attempts of the jitter ladder included.
    grid = sio.make_grid(24, 24)
    nbytes = len(grid) ** 2 * 8
    kernels = []
    call = KernelSpec.__call__

    def recording(self, U1, U2):
        # the address only: holding a failed attempt's matrix would add it
        # to the peak
        K = call(self, U1, U2)
        kernels.append(K.ctypes.data)
        return K

    monkeypatch.setattr(KernelSpec, "__call__", recording)
    # The second kernel fails once without jitter, and succeeds with 1e-10.
    for kernel, attempts in ((KernelSpec(length_scale=5.0), 1), (KernelSpec(length_scale=1e15), 2)):
        kernels.clear()
        tracemalloc.start()
        try:
            gram = build_gram(grid, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(kernels) == attempts and gram.chol.ctypes.data == kernels[-1]
        assert peak <= 1.2 * nbytes
        del gram
    # Eigenvalue -5e-7 at the grid's size: five attempts fail before 1e-6.
    Q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((len(grid), len(grid))))
    K = (Q * np.linspace(-5e-7, 1.0, len(grid))) @ Q.T
    K = 0.5 * (K + K.T)
    del Q
    tracemalloc.start()
    try:
        L, jit = _cholesky_with_jitter(K.copy, scale=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jit == 1e-6 and L.shape == K.shape
    assert peak <= 1.2 * nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_gram_rejects_nonfinite_grid_before_the_kernel(kind, bad, monkeypatch):
    def never(self, U1, U2):
        raise AssertionError("kernel evaluated on a non-finite grid")

    monkeypatch.setattr(KernelSpec, "__call__", never)
    with pytest.raises(ValueError, match="grid coordinates must be finite"):
        build_gram(np.array([[0.0, 0.0], [bad, 1.0]]), KernelSpec(kind=kind))


def test_gram_stores_factor_and_precision_only():
    grid = sio.make_grid(8, 6)
    n = len(grid)
    gram = build_gram(grid, KernelSpec(length_scale=3.0))

    def stored():
        return [v for v in vars(gram).values() if isinstance(v, np.ndarray)]

    # the factor only, until the first solve forms the precision
    assert len(stored()) == 1 and stored()[0] is gram.chol
    Zc = np.random.default_rng(17).standard_normal((2, n))
    ZcKinv = gram._rsolve(Zc)
    assert len(stored()) == 2 and all(v.shape == (n, n) for v in stored())
    P = gram._precision
    assert P.flags.c_contiguous and not P.flags.writeable
    assert np.array_equal(P, P.T)
    K = gram.matrix
    assert np.array_equal(K, gram.chol @ gram.chol.T)
    assert np.max(np.abs(P @ K - np.eye(n))) < 1e-10
    assert np.max(np.abs(ZcKinv - np.linalg.solve(K, Zc.T).T)) < 1e-10
    assert np.array_equal(gram.solve(Zc.T), gram._rsolve(Zc).T)
    with pytest.raises(ValueError):
        GramMatrix(np.diag([1.0, 0.0, 2.0]))


def test_gram_peak_memory_is_three_matrices():
    # Under tracemalloc (which sees numpy's buffers, not LAPACK's work
    # space) a build peaks at three N x N arrays at most and keeps the
    # factor; the first solve adds the precision and peaks at those two
    # arrays. The in-place test below holds a build to one array.
    grid = sio.make_grid(24, 24)
    nbytes = len(grid) ** 2 * 8
    Zc = np.ones((2, len(grid)))
    # the second kernel needs one failed attempt before its 1e-10 jitter
    for kernel in (KernelSpec(length_scale=5.0), KernelSpec(length_scale=1e15)):
        tracemalloc.start()
        try:
            gram = build_gram(grid, kernel)
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            gram._rsolve(Zc)
            solved, solve_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert build_peak <= 3.05 * nbytes and built <= 1.05 * nbytes
        assert solve_peak <= 2.05 * nbytes and solved <= 2.05 * nbytes
        del gram


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian")
    with pytest.raises(ValueError):
        KernelSpec(length_scale=0.0)
    # Non-finite hyperparameters: with sigma_k2=inf the jitter escalation
    # never ends and length_scale=inf gives a constant kernel.
    for bad in (np.inf, -np.inf, np.nan):
        for name in ("length_scale", "sigma_k2"):
            with pytest.raises(ValueError, match=name):
                KernelSpec(**{name: bad})


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda x: PriorSpec(P=3, sigma_a2=x), "sigma_a2"),
        (lambda x: KernelSpec(sigma_k2=x), "sigma_k2"),
        (lambda x: KernelSpec(length_scale=x), "length_scale"),
        (lambda x: PartialObservation(np.array([0]), np.full((3, 1), 1.0 / 3.0), nugget=x), "nugget"),
        (lambda x: SamplerConfig(step_size=x, n_steps=10), "step_size"),
        (lambda x: Observations(np.ones((4, 1)), x), "sigma2"),
    ],
    ids=["sigma_a2", "sigma_k2", "length_scale", "nugget", "step_size", "sigma2"],
)
def test_hyperparameters_are_stored_as_floats(make, name):
    # An int too large for a float passes a chained range check, and then
    # fails later with TypeError or OverflowError; one that fits is stored
    # as the float the computations use.
    with pytest.raises(ValueError, match=f"{name} is too large for a float"):
        make(10**400)
    value = getattr(make(2), name)
    assert type(value) is float and value == 2.0


# ---------------------------------------------------------------------------
# GP prior sampling
# ---------------------------------------------------------------------------


def test_gp_sample_kronecker_covariance():
    grid = sio.make_grid(3, 3)
    kernel = KernelSpec(length_scale=2.0)
    gram = build_gram(grid, kernel)
    spec = PriorSpec(P=3, sigma_a2=0.5, kernel=kernel)
    M = 50_000
    Z = sample_latent_field(spec, gram, M, rng=11)
    V = Z.reshape(M, -1)  # vec by latent dimension then pixel
    emp = np.cov(V.T)
    target = np.kron(spec.sigma_a2 * np.eye(2), gram.matrix)
    # 5 Monte Carlo standard errors per entry
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / M)
    assert np.all(np.abs(emp - target) <= 5.0 * se)


def test_gp_sample_dirac_columns_independent():
    grid = sio.make_grid(3, 1)
    gram = build_gram(grid, KernelSpec(kind="dirac"))
    spec = PriorSpec(P=3, sigma_a2=1.0)
    Z = sample_latent_field(spec, gram, 50_000, rng=12)
    c01 = np.mean(Z[:, 0, 0] * Z[:, 0, 1])
    assert abs(c01) < 5.0 / np.sqrt(50_000)


def test_gp_kernel_long_length_scale_correlates_neighbors():
    grid = sio.make_grid(2, 1)
    gram = build_gram(grid, KernelSpec(length_scale=1e6))
    corr = gram.matrix[0, 1] / gram.matrix[0, 0]
    assert corr > 1.0 - 1e-5


def test_gp_sample_shapes_interior_and_seeded():
    grid = sio.make_grid(4, 2)
    gram = build_gram(grid, KernelSpec(length_scale=3.0))
    spec = PriorSpec(P=4, sigma_a2=1.5)
    A = gp_prior_sample(spec, gram, 6, rng=5)
    assert A.shape == (6, 4, 8)
    assert np.all(A > 0.0)
    assert np.max(np.abs(A.sum(axis=1) - 1.0)) < 1e-12
    assert np.array_equal(A, gp_prior_sample(spec, gram, 6, rng=5))


def test_gp_sample_nonzero_mean():
    grid = sio.make_grid(2, 2)
    gram = build_gram(grid, KernelSpec(length_scale=1.0))
    mean = np.array([2.0, -1.0])
    spec = PriorSpec(P=3, sigma_a2=0.01, mean=mean)
    Z = sample_latent_field(spec, gram, 4000, rng=8)
    assert np.max(np.abs(Z.mean(axis=0) - mean[:, None])) < 0.05


# ---------------------------------------------------------------------------
# GP prior log-density
# ---------------------------------------------------------------------------


def test_gp_logpdf_single_pixel_reduces_to_pixel_prior():
    grid = np.array([[0.0, 0.0]])
    gram = build_gram(grid, KernelSpec(kind="dirac", sigma_k2=1.0))
    spec = PriorSpec(P=3, sigma_a2=0.6)
    rng = np.random.default_rng(9)
    a = rng.dirichlet(np.ones(3), size=20)
    for row in a:
        got = gp_prior_logpdf(row[:, None], spec, gram)
        want = pixel_prior_logpdf(row, spec)
        assert abs(got - want) < 1e-12


def test_gram_factor_is_column_major_and_solve_matches_dense():
    gram = build_gram(sio.make_grid(8, 8), KernelSpec(length_scale=3.0))
    assert gram.chol.flags.f_contiguous
    B = np.random.default_rng(30).standard_normal((64, 2))
    assert np.max(np.abs(gram.solve(B) - np.linalg.solve(gram.matrix, B))) < 1e-10


@pytest.mark.parametrize("n", [_SYMV_MIN_PIXELS - 1, _SYMV_MIN_PIXELS])
def test_gram_solve_on_both_sides_of_the_symv_crossover(n, monkeypatch):
    # Below the crossover the product is the matmul, bit for bit; from it on,
    # one dsymv per row reads the precision in place, never copying it.
    from scipy.linalg import blas

    side = int(np.ceil(np.sqrt(n)))
    gram = build_gram(sio.make_grid(side, side)[:n], KernelSpec(length_scale=3.0))
    K, P = gram.matrix, gram._precision
    rng = np.random.default_rng(34)
    B = rng.standard_normal((n, 2))
    Zcs = (
        rng.standard_normal(n),
        rng.standard_normal((2, n)),
        B.T,
        rng.standard_normal((2, 2, n)),
    )
    calls = []
    dsymv = blas.dsymv

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(blas, "dsymv", counting)
    for Zc in Zcs:
        calls.clear()
        tracemalloc.start()
        try:
            got = gram._rsolve(Zc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == Zc.shape
        want = np.linalg.solve(K, Zc.reshape(-1, n).T).T.reshape(Zc.shape)
        assert np.max(np.abs(got - want)) < 1e-10
        if n < _SYMV_MIN_PIXELS:
            assert calls == [] and np.array_equal(got, Zc @ P)
        else:
            assert calls == [(n,)] * (Zc.size // n)
            assert peak < 0.05 * K.nbytes
    assert np.max(np.abs(gram.solve(B) - np.linalg.solve(K, B))) < 1e-10
    assert np.max(np.abs(gram.solve(B[:, 0]) - np.linalg.solve(K, B[:, 0]))) < 1e-10
    B[7, 1] = np.nan
    with pytest.raises(ValueError):
        gram.solve(B)
    with pytest.raises(ValueError):
        gram.solve(np.ones(2 * n))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_solves_reject_nonfinite_rhs(bad):
    gram = build_gram(sio.make_grid(8, 8), KernelSpec(length_scale=3.0))
    B = np.ones((64, 2))
    B[5, 1] = bad
    with pytest.raises(ValueError):
        gram.solve(B)


def _diagonal_and_dense(n, sigma_k2):
    d = np.full(n, sigma_k2)
    return GramMatrix(np.sqrt(d)), GramMatrix(np.diag(np.sqrt(d)))


def test_diagonal_gram_matches_dense_diagonal():
    diag, dense = _diagonal_and_dense(6, 1.7)
    assert diag.n_pixels == dense.n_pixels == 6
    rng = np.random.default_rng(32)
    B = rng.standard_normal((6, 2))
    assert np.max(np.abs(diag.solve(B) - dense.solve(B))) < 1e-12
    assert abs(diag.log_det - dense.log_det) < 1e-12
    spec = PriorSpec(P=3, sigma_a2=0.6, mean=np.array([0.3, -0.2]))
    A = rng.dirichlet(np.ones(3), size=6).T
    assert abs(gp_prior_logpdf(A, spec, diag) - gp_prior_logpdf(A, spec, dense)) < 1e-12
    Zd = sample_latent_field(spec, diag, 4, rng=33)
    Zs = sample_latent_field(spec, dense, 4, rng=33)
    assert np.max(np.abs(Zd - Zs)) < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diagonal_gram_solves_reject_nonfinite_rhs(bad):
    diag, dense = _diagonal_and_dense(6, 1.7)
    B = np.ones((6, 2))
    B[4, 0] = bad
    for gram in (diag, dense):
        with pytest.raises(ValueError):
            gram.solve(B)
        # A right-hand side of the wrong length must not broadcast.
        with pytest.raises(ValueError):
            gram.solve(np.ones((1, 2)))


def test_gram_rejects_entries_above_the_diagonal():
    # matrix would read the 0.5, while solves and log_det read the lower
    # triangle only and would use the identity
    upper = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="lower triangular"):
        GramMatrix(upper)
    lower = GramMatrix(upper.T)
    B = np.array([[1.0], [2.0]])
    assert np.allclose(lower.solve(B), np.linalg.solve(lower.matrix, B), rtol=0, atol=1e-14)


def test_gram_rejects_nonfinite_factor():
    K = build_gram(sio.make_grid(8, 8), KernelSpec(length_scale=3.0)).matrix
    L = np.linalg.cholesky(K)
    L[3, 1] = np.nan
    with pytest.raises(ValueError):
        GramMatrix(L)
    d = np.ones(4)
    d[2] = np.nan
    with pytest.raises(ValueError):
        GramMatrix(d)


def test_gp_logpdf_pixel_relabeling_invariance():
    grid = sio.make_grid(3, 2)
    gram = build_gram(grid, KernelSpec(length_scale=2.0))
    spec = PriorSpec(P=3, sigma_a2=0.9)
    rng = np.random.default_rng(10)
    A = rng.dirichlet(np.ones(3), size=6).T
    perm = rng.permutation(6)
    Kp = gram.matrix[np.ix_(perm, perm)]
    gram_p = GramMatrix(np.linalg.cholesky(Kp))
    assert abs(gp_prior_logpdf(A, spec, gram) - gp_prior_logpdf(A[:, perm], spec, gram_p)) < 1e-10


def test_gp_logpdf_dense_inverse_oracle():
    # Independent evaluation with an explicit matrix inverse and slogdet.
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    kernel = KernelSpec(length_scale=1.5, sigma_k2=0.8)
    gram = build_gram(grid, kernel)
    spec = PriorSpec(P=3, sigma_a2=0.5)
    rng = np.random.default_rng(13)
    A = rng.dirichlet(np.ones(3), size=4).T

    P, N = A.shape
    H = geometry.helmert_basis(P)
    logA = np.log(A)
    Z = H.T @ (logA - logA.mean(axis=0, keepdims=True))
    Kinv = np.linalg.inv(gram.matrix)
    quad = np.trace(Z @ Kinv @ Z.T) / (2.0 * spec.sigma_a2)
    sign, logdet = np.linalg.slogdet(gram.matrix)
    assert sign > 0
    expected = (
        -logA.sum()
        - quad
        - 0.5 * (P - 1) * N * np.log(2.0 * np.pi)
        - 0.5 * (P - 1) * N * np.log(spec.sigma_a2)
        - 0.5 * (P - 1) * logdet
        - 0.5 * N * np.log(P)
    )
    assert abs(gp_prior_logpdf(A, spec, gram) - expected) < 1e-10


def test_latent_quadratic_matches_trace_form():
    grid = sio.make_grid(3, 3)
    gram = build_gram(grid, KernelSpec(length_scale=2.0))
    spec = PriorSpec(P=4, sigma_a2=1.3, mean=np.array([0.4, -0.1, 0.2]))
    rng = np.random.default_rng(14)
    Z = rng.standard_normal((3, 9))
    quad, grad = prior_quadratic(Z, spec, gram)
    Zc = Z - spec.mean[:, None]
    Kinv = np.linalg.inv(gram.matrix)
    assert abs(quad - np.trace(Zc @ Kinv @ Zc.T) / (2.0 * spec.sigma_a2)) < 1e-10
    assert np.max(np.abs(grad - Zc @ Kinv / spec.sigma_a2)) < 1e-10


def test_gp_logpdf_dimension_mismatch():
    grid = sio.make_grid(2, 2)
    gram = build_gram(grid, KernelSpec())
    spec = PriorSpec(P=3, sigma_a2=1.0)
    with pytest.raises(ValueError):
        gp_prior_logpdf(np.full((3, 5), 1.0 / 3.0), spec, gram)


def test_sampling_density_consistency():
    # The mean log-density under the prior's own samples must match the
    # negative differential entropy computed through the latent
    # change-of-variables identity.
    spec = PriorSpec(P=3, sigma_a2=0.7)
    M = 200_000
    a = pixel_prior_sample(spec, M, rng=21)
    mean_logpdf = pixel_prior_logpdf(a, spec).mean()
    # entropy of the pushforward = latent Gaussian entropy + E[log |det da/dz|]
    mean_logjac = (np.sum(np.log(a), axis=-1) + 0.5 * np.log(3.0)).mean()
    neg_entropy = (
        -0.5 * (spec.P - 1) * np.log(2.0 * np.pi * np.e * spec.sigma_a2) - mean_logjac
    )
    se = np.sqrt((spec.P - 1) / (2.0 * M))
    assert abs(mean_logpdf - neg_entropy) < 3.0 * se

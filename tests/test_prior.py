import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from simplexuq import _lapack, geometry, prior
from simplexuq import io as sio
from simplexuq.errors import IllConditionedKernelError
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.prior import (
    _SYMV_MIN_PIXELS,
    GramMatrix,
    KernelSpec,
    PriorSpec,
    _factor_with_jitter,
    build_gram,
    gp_prior_logpdf,
    gp_prior_sample,
    pixel_prior_logpdf,
    pixel_prior_sample,
    prior_quadratic,
    sample_latent_field,
)
from simplexuq.sampler import Observations, PosteriorModel, SamplerConfig, mirror_langevin
from simplexuq.synth import builtin_endmembers, synth_generate


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


def test_dirac_kernel_rejects_underflowing_distances():
    # The Euclidean distance between these points squares to zero, but 1e-200
    # is no pixel coordinate: the kernel and build_gram refuse it.
    for kernel in (KernelSpec(kind="dirac"), KernelSpec(kind="dirac", sigma_k2=2.0)):
        with pytest.raises(ValueError, match="finite integers"):
            kernel([[0, 0]], [[1e-200, 0]])
        with pytest.raises(ValueError, match="finite integers"):
            build_gram([[0, 0], [1e-200, 0]], kernel)


@pytest.mark.parametrize("shape", [(1, 1), (4, 3), (9, 7)])
def test_dirac_kernel_matches_zero_distance_rule_on_grids(shape):
    grid = sio.make_grid(*shape)
    other = np.vstack([grid[::2], grid[::3] + [5.0, -2.0]])
    for U1, U2 in ((grid, grid), (grid, other), (other, grid)):
        expected = 1.7 * (cdist(U1, U2) == 0.0).astype(float)
        assert np.array_equal(KernelSpec(kind="dirac", sigma_k2=1.7)(U1, U2), expected)


@pytest.mark.parametrize("kind", ["exponential", "dirac"])
@pytest.mark.parametrize("length_scale, sigma_k2", [(10.0, 1.0), (2.0, 0.8), (0.37, 1.0)])
def test_kernel_of_a_coordinate_set_is_exactly_symmetric(kind, length_scale, sigma_k2):
    # build_gram and interpolate factor kernel(U, U) as it comes, without
    # averaging it with its transpose, so the symmetry must be exact
    rng = np.random.default_rng(11)
    U = np.vstack([rng.integers(-30, 31, size=(300, 2)), sio.make_grid(9, 7) + [40.0, -7.0]])
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
    """Two random subsets of one w x h lattice, shifted by one offset; the
    second is moved by a further offset, which may part their boxes."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shift = np.array([draw(st.sampled_from(_OFFSETS)), draw(st.sampled_from(_OFFSETS))])
    apart = np.array([draw(st.sampled_from([0.0, 13.0, -(2.0**30)])), draw(st.sampled_from([0.0, -5.0]))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = sio.make_grid(w, h) + shift
    U1, U2 = (grid[rng.random(len(grid)) < rng.uniform(0.1, 1.0)] for _ in range(2))
    return U1, U2 + apart


@given(lattice_subsets(), kernel_specs())
def test_exponential_kernel_has_the_bits_of_cdist_on_lattices(sets, kernel):
    U1, U2 = sets
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
        assert np.array_equal(kernel(U, U), cdist_kernel(kernel, U, U))


def test_lattice_path_serves_gram_matrices_and_interpolation_blocks():
    grid = sio.make_grid(32, 32)
    big = sio.make_grid(96, 96)
    observed = big[np.random.default_rng(3).choice(len(big), 921, replace=False)]
    kernel = KernelSpec(length_scale=4.0, sigma_k2=0.7)
    assert np.array_equal(kernel(grid, grid), cdist_kernel(kernel, grid, grid))
    assert np.array_equal(kernel(big[:512], observed), cdist_kernel(kernel, big[:512], observed))


@pytest.mark.parametrize("kind", ["exponential", "dirac"])
def test_exponential_kernel_peak_memory_is_its_result(kind):
    # Both kinds fill the result in row blocks from one offset table, with no
    # full-size temporary.
    grid = sio.make_grid(32, 32)
    tracemalloc.start()
    try:
        K = KernelSpec(kind=kind, length_scale=4.0)(grid, grid)
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
    # a single coordinate may be given as a vector, and an empty set gives an
    # empty matrix
    assert kernel([0.0, 0.0], [[0.0, 0.0], [3.0, 4.0]]).shape == (1, 2)
    assert kernel(np.zeros((0, 2)), sio.make_grid(3, 2)).shape == (0, 6)
    assert kernel(sio.make_grid(3, 2), np.zeros((0, 2))).shape == (6, 0)


def test_gram_symmetry_and_cholesky():
    grid = sio.make_grid(5, 4)
    gram = build_gram(grid, KernelSpec(length_scale=4.0))
    assert np.max(np.abs(gram.matrix - gram.matrix.T)) < 1e-12
    assert np.max(np.abs(gram.chol @ gram.chol.T - gram.matrix)) < 1e-10


def test_gram_rejects_duplicate_coordinates():
    # The verdict of np.unique(grid, axis=0): exact row equality, with 0.0
    # equal to -0.0 and a one-ulp difference distinct; but 1 + ulp is no
    # pixel coordinate, so those grids are refused as fractional.
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
        if name.startswith("one ulp"):
            with pytest.raises(ValueError, match="finite integers"):
                build_gram(grid, KernelSpec(kind="dirac"))
        elif distinct:
            assert build_gram(grid, KernelSpec(kind="dirac")).n_pixels == len(grid)
        else:
            with pytest.raises(ValueError, match="distinct"):
                build_gram(grid, KernelSpec(kind="dirac"))


def jittered(K):
    """make_blocks for `_factor_with_jitter`: a new F-ordered copy of the
    symmetric K with jit added to its diagonal, on each call."""

    def make(jit):
        B = np.array(K, order="F")
        B[np.diag_indices_from(B)] += jit
        return [B]

    return make


def test_cholesky_jitter_escalation_and_failure():
    # A barely indefinite matrix is rescued by the escalating jitter...
    K = np.eye(3)
    K[0, 0] = -1e-7
    (L,), jit = _factor_with_jitter(jittered(K), scale=1.0)
    assert jit > 1e-7
    # ...but a strongly indefinite one exhausts the policy.
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditionedKernelError):
        _factor_with_jitter(jittered(bad), scale=1.0)


def test_jittered_matrix_and_gram_factor_match_the_identity_formula(monkeypatch):
    # The jitter goes on the diagonal of the matrix itself; every matrix
    # handed to the factorization, and the factor build_gram keeps, must be
    # exactly what K + jit * I gives, for an exactly symmetric K.
    grid = sio.make_grid(6, 5)
    Q, _ = np.linalg.qr(np.random.default_rng(16).standard_normal((4, 4)))
    indefinite = Q @ np.diag([1.0, 0.5, 0.2, -5e-7]) @ Q.T
    indefinite = 0.5 * (indefinite + indefinite.T)
    dpotrf = _lapack.dpotrf
    calls = []

    def recording(a, **kwargs):
        calls.append(a.copy())
        return dpotrf(a, **kwargs)

    def factor(K):
        return dpotrf(K, lower=1, clean=1)[0]

    monkeypatch.setattr(_lapack, "dpotrf", recording)
    (L,), jit = _factor_with_jitter(jittered(indefinite), 1.0)
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
    # The factor an exponential operator keeps is the kernel matrix's own
    # memory, and forming it holds one N x N array at a time under
    # tracemalloc, failed attempts of the jitter ladder included. On the
    # lattice the factor forms at its first use, here a read of `chol`,
    # from the kernel's first row, once, at the jitter the parity blocks
    # settle on first (their store is freed before the fill); off it (the
    # lattice's pixels in reverse order), in build_gram from the kernel
    # matrix.
    grid = sio.make_grid(24, 24)
    nbytes = len(grid) ** 2 * 8
    factored = []
    dpotrf = _lapack.dpotrf

    def recording(a, **kwargs):
        # the address of each N x N matrix only: holding a failed attempt's
        # matrix would add it to the peak
        if a.shape == (len(grid), len(grid)):
            factored.append(a.ctypes.data)
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(_lapack, "dpotrf", recording)
    # The second kernel fails once without jitter, and succeeds with 1e-10.
    for kernel, attempts in ((KernelSpec(length_scale=5.0), 1), (KernelSpec(length_scale=1e15), 2)):
        for pixels in (grid, grid[::-1]):
            factored.clear()
            tracemalloc.start()
            try:
                gram = build_gram(pixels, kernel)
                L = gram.chol
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (gram._lattice is None) == (pixels is not grid)
            assert len(factored) == (1 if pixels is grid else attempts) and L.ctypes.data == factored[-1]
            assert gram.applied_jitter == (attempts - 1) * 1e-10
            assert peak <= 1.2 * nbytes
            del gram, L
    # Eigenvalue -5e-7 at the grid's size: five attempts fail before 1e-6.
    Q, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((len(grid), len(grid))))
    K = (Q * np.linspace(-5e-7, 1.0, len(grid))) @ Q.T
    K = 0.5 * (K + K.T)
    del Q
    tracemalloc.start()
    try:
        (L,), jit = _factor_with_jitter(jittered(K), scale=1.0)
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


# a coordinate that is not a finite integer
_BAD_COORDINATES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(-1e6, 1e6).filter(lambda v: v != np.floor(v)),
)


@given(
    pixels=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=6, unique=True),
    bad=_BAD_COORDINATES,
    where=st.integers(0, 11),
)
def test_every_pixel_entry_point_refuses_coordinates_that_are_not_finite_integers(pixels, bad, where):
    grid = np.array(pixels, dtype=float)
    grid.flat[where % grid.size] = bad
    good = sio.make_grid(2, 2)
    spec = PriorSpec(P=3, sigma_a2=1.0)
    obs = PartialObservation(np.array([0]), np.full((3, 1), 1.0 / 3.0))
    S, _ = builtin_endmembers(8, 3)
    for call in (
        lambda: KernelSpec()(grid, good),
        lambda: KernelSpec(kind="dirac")(good, grid),
        lambda: build_gram(grid, KernelSpec()),
        lambda: build_gram(grid, KernelSpec(kind="dirac")),
        lambda: interpolate(obs, spec, grid),
        lambda: synth_generate(S, grid, spec, snr_db=15.0, rng=0),
    ):
        with pytest.raises(ValueError, match="finite integers"):
            call()


def test_gram_stores_factor_and_precision_only():
    # Below the crossover a lattice gets the dense operator: build_gram keeps
    # its factor, and the precision is one dense block (V = I). From the
    # crossover on, the operator keeps the kernel's first row until the
    # first solve forms four parity blocks holding a quarter of the
    # precision's entries, and no factor.
    kernel = KernelSpec(length_scale=3.0)
    for w, h, n_blocks in ((8, 6, 1), (24, 20, 4)):
        n = w * h
        grid = sio.make_grid(w, h)
        gram = build_gram(grid, kernel)
        assert gram._precision is None
        if n_blocks == 1:
            assert gram._lattice is None and gram._row is None and gram._jitter == 0.0
            assert gram._chol.shape == (n, n)
        else:
            assert gram._chol is None and gram._jitter is None
            assert gram._lattice == (w, h) and gram._row.shape == (n,)
        Zc = np.random.default_rng(17).standard_normal((2, n))
        ZcKinv = gram._rsolve(Zc)
        assert gram._precision is not None and (gram._chol is None) == (n_blocks == 4)
        blocks = gram._blocks
        assert len(blocks) == n_blocks and sum(B.size for B in blocks) == n * n // n_blocks
        for B in blocks:
            assert B.flags.c_contiguous and not B.flags.writeable
            assert np.array_equal(B, B.T)
        # with no jitter, the dense operator's K is its factor's product and
        # a lattice operator's the kernel matrix itself
        K = gram.matrix
        assert np.array_equal(K, gram.chol @ gram.chol.T if n_blocks == 1 else kernel(grid, grid))
        # K^-1 row by row
        assert np.max(np.abs(gram._rsolve(np.eye(n)) @ K - np.eye(n))) < 1e-10
        assert np.max(np.abs(ZcKinv - np.linalg.solve(K, Zc.T).T)) < 1e-10
        assert np.array_equal(gram.solve(Zc.T), gram._rsolve(Zc).T)
    with pytest.raises(ValueError):
        GramMatrix(np.diag([1.0, 0.0, 2.0]))


def test_gram_peak_memory_is_three_matrices():
    # Under tracemalloc (which sees numpy's buffers, not LAPACK's work
    # space) a build peaks at three N x N arrays at most; on this lattice
    # it keeps the kernel's first row alone. The first solve, above the
    # crossover, forms the five blocks of the square's precision, an eighth
    # of N x N, from panels of rows of K_U that with their folds add about
    # a quarter of N x N. The in-place test above holds forming the factor
    # to one array.
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
        assert gram._lattice == (24, 24) and len(gram._blocks) == 5
        assert build_peak <= 3.05 * nbytes and built <= 1.05 * nbytes
        assert solve_peak - built <= 0.42 * nbytes and solved - built <= 0.26 * nbytes
        del gram


def test_first_lattice_solve_allocates_no_full_size_array():
    # At 32 x 32 the dense factor or precision would be one 8 MB array; the
    # build keeps the kernel's first row, 8 KiB, the blocks are one 1 MB
    # array and each panel of 32 rows of K_U, with its folds, under 1 MB.
    # At length scale 1e15 the first block fails without jitter and all
    # five factor with 1e-10: the failed set is freed before the next is
    # filled.
    nbytes = (32 * 32) ** 2 * 8
    for length_scale, jitter in ((10.0, 0.0), (1e15, 1e-10)):
        tracemalloc.start()
        try:
            gram = build_gram(sio.make_grid(32, 32), KernelSpec(length_scale=length_scale))
            gram._rsolve(np.ones((2, 32 * 32)))
            solved, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gram._chol is None and gram.applied_jitter == jitter
        assert peak < 0.3 * nbytes and solved <= 0.26 * nbytes
        del gram


@pytest.mark.parametrize("sigma_k2", [1.0, 0.37])
@pytest.mark.parametrize("first", ["blocks", "factor"])
def test_lattice_factor_and_blocks_formed_from_the_row_keep_the_bits(first, sigma_k2):
    # In either order, the factor a draw forms is dpotrf of the kernel
    # matrix, byte for byte, and the blocks are those formed from the
    # factor's first row: byte for byte when sigma_k2 = 1 and no jitter,
    # since L[0, 0] = 1; else to within rounding of that row.
    grid = sio.make_grid(32, 32)
    kernel = KernelSpec(length_scale=10.0, sigma_k2=sigma_k2)
    gram = build_gram(grid, kernel)
    if first == "blocks":
        gram._rsolve(np.ones(len(grid)))
    L = gram.chol
    blocks = gram._blocks
    assert gram.applied_jitter == 0.0 and gram._lattice == (32, 32)
    assert np.array_equal(L, _lapack.dpotrf(kernel(grid, grid), lower=1, clean=1)[0])
    want = GramMatrix._from_row(L[0, 0] * L[:, 0], gram._lattice)._blocks
    for B, W in zip(blocks, want):
        if sigma_k2 == 1.0:
            assert np.array_equal(B, W)
        else:
            assert np.max(np.abs(B - W)) <= 1e-13 * np.max(np.abs(W))


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
    # one dsymv per row reads the precision in place, never copying it. A
    # lattice less its last pixels keeps the one dense block.
    side = int(np.ceil(np.sqrt(n)))
    gram = build_gram(sio.make_grid(side, side)[:n], KernelSpec(length_scale=3.0))
    K = gram.matrix
    (P,) = gram._blocks
    assert gram._lattice is None
    rng = np.random.default_rng(34)
    B = rng.standard_normal((n, 2))
    Zcs = (
        rng.standard_normal(n),
        rng.standard_normal((2, n)),
        B.T,
        rng.standard_normal((2, 2, n)),
    )
    calls = []
    dsymv = _lapack.dsymv

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(_lapack, "dsymv", counting)
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


@settings(max_examples=30)
@given(w=st.integers(1, 40), h=st.integers(1, 40), length_scale=st.floats(1.0, 10.0))
@example(w=1, h=1, length_scale=10.0)
@example(w=1, h=40, length_scale=10.0)
@example(w=40, h=1, length_scale=10.0)
@example(w=23, h=20, length_scale=10.0)  # 460 pixels, below the crossover
@example(w=24, h=20, length_scale=10.0)  # 480, at it
@example(w=21, h=23, length_scale=10.0)  # odd by odd, above it
@example(w=40, h=40, length_scale=10.0)
def test_lattice_block_product_matches_the_dense_precision(w, h, length_scale):
    # From the crossover on, the parity blocks, formed from the kernel's
    # first row, give the product of the dense dpotri precision of the
    # dense factor, and their own factors its log det. A smaller lattice
    # gets the dense operator, whose every use reads its one factor. The
    # length scales are the pipeline's (10 px in the paper and in repro):
    # both products err by about cond(K_U) eps, which grows with it.
    gram = build_gram(sio.make_grid(w, h), KernelSpec(length_scale=length_scale))
    dense = GramMatrix(gram.chol, gram.applied_jitter)
    lattice = (w, h) if w * h >= _SYMV_MIN_PIXELS else None
    assert gram._lattice == lattice and dense._lattice is None
    rng = np.random.default_rng(41 * w + h)
    Zc = rng.standard_normal((3, w * h))
    got, want = gram._rsolve(Zc), dense._rsolve(Zc)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    L = gram.chol
    K = gram.matrix
    if lattice is None:
        assert np.array_equal(got, want)
        E = rng.standard_normal((2, w * h))
        assert np.array_equal(K, L @ L.T) and np.array_equal(K, dense.matrix)
        assert gram.log_det == dense.log_det == 2.0 * np.sum(np.log(np.diag(L)))
        assert np.array_equal(gram.sqrt_matvec(E), E @ L.T)
    else:
        # K filled from the row: the product of its factor, to rounding
        assert np.max(np.abs(K - L @ L.T)) <= 1e-13
        assert abs(gram.log_det - dense.log_det) <= 1e-12 * abs(dense.log_det)


@pytest.mark.parametrize("side", [22, 23, 24])
def test_square_lattice_precision_is_five_blocks_of_an_eighth(side):
    # A square's kernel also commutes with the transposition: the even/even
    # and odd/odd classes split into its symmetric and antisymmetric parts,
    # and the two mixed classes share one block. The five blocks hold at
    # most N^2/8 + N entries, on even and odd sides alike, and give the
    # product of the dense precision.
    n = side * side
    gram = build_gram(sio.make_grid(side, side), KernelSpec(length_scale=10.0))
    Zc = np.random.default_rng(side).standard_normal((3, n))
    got, want = gram._rsolve(Zc), GramMatrix(gram.chol, gram.applied_jitter)._rsolve(Zc)
    assert gram._lattice == (side, side) and len(gram._blocks) == 5
    assert sum(B.size for B in gram._blocks) <= n * n / 8 + n
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_rectangular_lattice_keeps_the_four_parity_blocks():
    # The transposition is no symmetry of a rectangle: 24 x 20 keeps the
    # four parity classes of 12 x 10 representatives each.
    gram = build_gram(sio.make_grid(24, 20), KernelSpec(length_scale=10.0))
    Zc = np.random.default_rng(24).standard_normal((3, 480))
    got, want = gram._rsolve(Zc), GramMatrix(gram.chol, gram.applied_jitter)._rsolve(Zc)
    assert gram._lattice == (24, 20) and [len(B) for B in gram._blocks] == [120] * 4
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lattice_blocks_from_the_crossover_on_multiply_with_dsymv(monkeypatch):
    # A 1 x n strip splits into two y-parity classes of n/2 pixels, each
    # past the crossover: one dsymv per row of each class.
    n = 2 * _SYMV_MIN_PIXELS + 20
    gram = build_gram(sio.make_grid(1, n), KernelSpec(length_scale=10.0))
    Zc = np.random.default_rng(35).standard_normal((2, 3, n))
    want = GramMatrix(gram.chol)._rsolve(Zc)
    blocks = gram._blocks
    assert gram._lattice == (1, n) and [len(B) for B in blocks] == [n // 2, n // 2, 0, 0]
    calls = []
    dsymv = _lapack.dsymv

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return dsymv(*args, **kwargs)

    monkeypatch.setattr(_lapack, "dsymv", counting)
    got = gram._rsolve(Zc)
    assert calls == [(n // 2,)] * 12
    assert got.shape == Zc.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lattice_block_that_is_not_positive_definite_is_ill_conditioned(monkeypatch):
    # The kernel of this 1 x 600 strip factors with no jitter, but its even
    # parity block, 2 (K_U V_c)[representatives], has an eigenvalue near
    # -5e-13. The blocks run the jitter ladder and factor with 1e-10, and
    # the solve passes the backward-error gate of the test below. A draw,
    # before or after a solve, factors the same blocks at the same jitter,
    # so its covariance is the K_U the solve inverts, and the dense factor
    # follows that jitter. Blocks that no jitter rescues raise at first use.
    grid = sio.make_grid(1, 600)
    kernel = KernelSpec(length_scale=1e15)
    Zc = np.random.default_rng(600).standard_normal((3, 600))
    gram = build_gram(grid, kernel)
    X = gram._rsolve(Zc)
    assert gram.applied_jitter == 1e-10 and gram._lattice == (1, 600)
    K = kernel(grid, grid) + 1e-10 * np.eye(600)
    assert np.linalg.norm(X @ K - Zc) <= 1e-15 * np.linalg.norm(K, 2) * np.linalg.norm(X)
    for first_solve in (True, False):
        drawn = build_gram(grid, kernel)
        if first_solve:
            drawn._rsolve(Zc)
        D = drawn.sqrt_matvec(np.eye(600))
        assert drawn.applied_jitter == 1e-10 and drawn._chol is None
        assert np.max(np.abs(D.T @ D - K)) <= 1e-12
        assert np.array_equal(drawn._rsolve(Zc), X) and np.array_equal(drawn.matrix, K)
        assert np.array_equal(drawn.chol, _lapack.dpotrf(K, lower=1, clean=1)[0])
    monkeypatch.setattr(_lapack, "dpotrf", lambda a, **kwargs: (a, 1))
    for use in (GramMatrix.sqrt_matvec, GramMatrix._rsolve):
        with pytest.raises(IllConditionedKernelError, match="K_U of 600 pixels is not positive definite"):
            use(build_gram(grid, kernel), Zc)


def test_every_operator_that_no_jitter_rescues_raises_one_error(monkeypatch):
    # Scattered pixels and a lattice under 480 pixels raise in build_gram,
    # a 24 x 20 lattice at first use; all after the same ladder of eight
    # attempts (none, then 1e-10 up to 1e-4), with the same message.
    attempts = []

    def failing(a, **kwargs):
        attempts.append(a.shape)
        return a, 1

    monkeypatch.setattr(_lapack, "dpotrf", failing)
    scattered = np.array([[0, 0], [3, 1], [7, 5], [2, 9], [11, 4]])
    for pixels in (scattered, sio.make_grid(6, 5), sio.make_grid(24, 20)):
        attempts.clear()
        with pytest.raises(IllConditionedKernelError) as err:
            build_gram(pixels, KernelSpec(length_scale=3.0)).log_det
        assert str(err.value) == f"K_U of {len(pixels)} pixels is not positive definite even with jitter 0.0001"
        assert len(attempts) == 8


def never_form_the_dense_factor(self):
    raise AssertionError("the dense factor formed")


@pytest.mark.parametrize("w, h", [(24, 20), (31, 17), (32, 32), (1, 600)])
def test_lattice_draws_and_log_det_come_from_the_parity_blocks(w, h, monkeypatch):
    # L = sum_c V_c diag(|orbit|)^-1 L_c, from the blocks' own factors L_c,
    # has L L^T = K_U, and log det K_U = sum_c log det B_c - sum log |orbit|
    # over the representatives; neither forms the dense factor. The 1 x 600
    # strip has two empty classes.
    monkeypatch.setattr(GramMatrix, "_form_factor", never_form_the_dense_factor)
    gram = build_gram(sio.make_grid(w, h), KernelSpec(length_scale=10.0))
    assert gram._lattice == (w, h)
    K = gram.matrix
    # E L^T for E = I is L^T
    L = gram.sqrt_matvec(np.eye(w * h)).T
    assert np.max(np.abs(L @ L.T - K)) <= 1e-12 * np.max(np.abs(K))
    sign, want = np.linalg.slogdet(K)
    assert sign == 1.0 and abs(gram.log_det - want) <= 1e-12 * abs(want)
    assert gram._chol is None


def parity_factor(K, w, h):
    """L = [V_c diag(|orbit|)^-1 L_c] over the four parity classes c of a
    (w, h) lattice, in the classes' order x-even/y-even, x-even/y-odd,
    x-odd/y-even, x-odd/y-odd, each over its representatives x-major; V_c
    holds the +-1 folds of mirrored pixels and B_c = V_c^T K V_c = L_c L_c^T."""
    columns = []
    for px in (0, 1):
        for py in (0, 1):
            reps = [(x, y) for x in range((w + 1 - px) // 2) for y in range((h + 1 - py) // 2)]
            V = np.zeros((w * h, len(reps)))
            for r, (x, y) in enumerate(reps):
                for mx in (0, 1):
                    for my in (0, 1):
                        u, v = (w - 1 - x if mx else x), (h - 1 - y if my else y)
                        V[v * w + u, r] = (-1.0) ** (px * mx + py * my)
            columns.append(V / np.sum(V * V, axis=0) @ np.linalg.cholesky(V.T @ K @ V))
    return np.hstack(columns)


def test_square_lattice_draws_keep_the_parity_factors():
    # The precision of a square is held in its D4 classes, but draws still
    # map white noise through the four parity classes' factors, class by
    # class: each seeded draw keeps its realization.
    spec = PriorSpec(P=3, sigma_a2=0.25, kernel=KernelSpec(length_scale=10.0))
    gram = build_gram(sio.make_grid(32, 32), spec.kernel)
    gram._rsolve(np.ones((2, 1024)))
    L = parity_factor(gram.matrix, 32, 32)
    E = np.random.default_rng(32).standard_normal((2, 1024))
    assert np.max(np.abs(gram.sqrt_matvec(E) - E @ L.T)) <= 1e-13
    Z = np.sqrt(spec.sigma_a2) * np.random.default_rng(5).standard_normal((4, 2, 1024)) @ L.T
    want = np.swapaxes(geometry.ilr_inv(np.swapaxes(Z, -1, -2), spec.H), -1, -2)
    assert np.max(np.abs(gp_prior_sample(spec, gram, 4, rng=5) - want)) <= 1e-13


def test_prior_draw_init_at_64x64_forms_no_full_size_array(monkeypatch):
    # A chain from prior-draw init draws through the blocks' factors, a
    # quarter of N x N freed after the draw, and its first step forms the
    # precision's blocks, another quarter: the dense factor, one 128 MB
    # N x N array here, never forms.
    monkeypatch.setattr(GramMatrix, "_form_factor", never_form_the_dense_factor)
    grid = sio.make_grid(64, 64)
    nbytes = len(grid) ** 2 * 8
    spec = PriorSpec(P=3, sigma_a2=0.25, kernel=KernelSpec(length_scale=10.0))
    S, _ = builtin_endmembers(16, 3)
    cfg = SamplerConfig(step_size=5e-3, n_steps=2, burn_in=0, init="prior-draw", seed=1)
    tracemalloc.start()
    try:
        gram = build_gram(grid, spec.kernel)
        model = PosteriorModel(S, Observations(np.zeros((16, len(grid))), np.inf), spec, gram)
        chain = mirror_langevin(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.n_samples == 2 and gram._chol is None
    assert peak < 0.5 * nbytes


def test_racing_threads_form_each_representation_once_with_one_jitter(monkeypatch):
    # On the strip above the blocks need jitter 1e-10 and the dense factor
    # alone none. Threads that draw, solve and read the factor at once must
    # all take the blocks' jitter: the ladder runs once, from no jitter,
    # the precision forms once (one dpotri per non-empty block) and the
    # factor once, at 1e-10.
    grid = sio.make_grid(1, 600)
    kernel = KernelSpec(length_scale=1e15)
    jittered = kernel(grid, grid) + 1e-10 * np.eye(600)
    dpotrf, dpotri, parity_blocks = _lapack.dpotrf, _lapack.dpotri, prior._parity_blocks
    ladders, dense, inverted = [], [], []

    def counting_blocks(row, jit, lattice):
        if jit == 0.0:
            ladders.append(jit)
        return parity_blocks(row, jit, lattice)

    def counting(a, **kwargs):
        if a.shape == (600, 600):
            dense.append(a.shape)
        return dpotrf(a, **kwargs)

    def counting_inverse(a, **kwargs):
        inverted.append(a.shape)
        return dpotri(a, **kwargs)

    monkeypatch.setattr(prior, "_parity_blocks", counting_blocks)
    monkeypatch.setattr(_lapack, "dpotrf", counting)
    monkeypatch.setattr(_lapack, "dpotri", counting_inverse)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            gram = build_gram(grid, kernel)
            for log in (ladders, dense, inverted):
                log.clear()
            barrier = threading.Barrier(6)
            draws, solves = [], []

            def draw():
                barrier.wait()
                draws.append(gram.sqrt_matvec(np.ones(600)))

            def solve():
                barrier.wait()
                solves.append(gram._rsolve(np.ones(600)))

            def factor():
                barrier.wait()
                gram.chol

            threads = [threading.Thread(target=f) for f in (draw, solve, factor) * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert ladders == [0.0] and len(dense) == 1 and inverted == [(300, 300)] * 2
            assert gram.applied_jitter == 1e-10
            assert len(draws) == len(solves) == 2
            assert np.array_equal(*draws) and np.array_equal(*solves)
            assert np.array_equal(gram.chol, dpotrf(jittered, lower=1, clean=1)[0])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("side", [24, 32])
def test_lattice_blocks_carry_the_jitter_of_the_factor(side):
    # These kernels factor only with jitter 1e-10, which each block carries
    # times its orbit sizes. K_U then has a condition number near 1e13, so
    # any two solves differ by about cond(K_U) eps (here ~1e-4 relative,
    # for this route and for the factor route it replaced): the gate is each
    # solve's normwise backward error against L L^T, which is about eps.
    gram = build_gram(sio.make_grid(side, side), KernelSpec(length_scale=1e15))
    assert gram.applied_jitter == 1e-10
    K = gram.matrix
    Zc = np.random.default_rng(side).standard_normal((3, side * side))
    got, want = gram._rsolve(Zc), GramMatrix(gram.chol, gram.applied_jitter)._rsolve(Zc)
    assert gram._lattice == (side, side) and len(gram._blocks) == 5
    for X in (got, want):
        assert np.linalg.norm(X @ K - Zc) <= 1e-15 * np.linalg.norm(K, 2) * np.linalg.norm(X)
    assert np.max(np.abs(got - want)) <= 1e-3 * np.max(np.abs(want))


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

import numpy as np
import pytest

from simplexuq import geometry
from simplexuq.errors import IllConditionedKernelError
from simplexuq.prior import (
    DiagonalGram,
    GramMatrix,
    KernelSpec,
    PriorSpec,
    _cholesky_with_jitter,
    build_gram,
    gp_prior_logpdf,
    gp_prior_sample,
    pixel_prior_logpdf,
    pixel_prior_sample,
    prior_quadratic,
    sample_latent_field,
)


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


def square_grid(w, h):
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return np.column_stack([xs.ravel(), ys.ravel()])


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


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


def test_gram_diagonal_is_amplitude():
    grid = square_grid(4, 3)
    gram = build_gram(grid, KernelSpec(kind="exponential", length_scale=2.0, sigma_k2=1.7))
    assert np.allclose(np.diag(gram.matrix), 1.7, atol=1e-12)


def test_gram_off_diagonal_at_length_scale():
    grid = np.array([[0.0, 0.0], [3.0, 0.0]])
    gram = build_gram(grid, KernelSpec(length_scale=3.0, sigma_k2=2.0))
    assert abs(gram.matrix[0, 1] - 2.0 * np.exp(-1.0)) < 1e-12


def test_gram_dirac_is_identity():
    grid = square_grid(3, 3)
    gram = build_gram(grid, KernelSpec(kind="dirac"))
    assert gram.matrix.shape == gram.chol.shape == (9,)
    assert np.array_equal(gram.matrix, np.ones(9))
    assert np.array_equal(gram.chol, np.ones(9))
    B = np.random.default_rng(31).standard_normal((9, 2))
    assert np.array_equal(gram.solve(B), B)


def test_gram_symmetry_and_cholesky():
    grid = square_grid(5, 4)
    gram = build_gram(grid, KernelSpec(length_scale=4.0))
    assert np.max(np.abs(gram.matrix - gram.matrix.T)) < 1e-12
    assert np.max(np.abs(gram.chol @ gram.chol.T - gram.matrix)) < 1e-10


def test_gram_rejects_duplicate_coordinates():
    grid = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        build_gram(grid, KernelSpec())


def test_cholesky_jitter_escalation_and_failure():
    # A barely indefinite matrix is rescued by the escalating jitter...
    K = np.eye(3)
    K[0, 0] = -1e-7
    L, jit = _cholesky_with_jitter(K, scale=1.0)
    assert jit > 1e-7
    # ...but a strongly indefinite one exhausts the policy.
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(IllConditionedKernelError):
        _cholesky_with_jitter(bad, scale=1.0)


def test_cholesky_jitter_ladder_starts_above_initial_jitter(monkeypatch):
    # Eigenvalue -5e-7: an initial jitter of 1e-7 fails, and so would every
    # escalation step at or below it; only 1e-6 can succeed.
    Q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((3, 3)))
    K = Q @ np.diag([1.0, 0.5, -5e-7]) @ Q.T
    K = 0.5 * (K + K.T)
    _, jit_from_zero = _cholesky_with_jitter(K, scale=1.0)
    calls = []
    cholesky = np.linalg.cholesky

    def counting(M):
        calls.append(M)
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    _, jit = _cholesky_with_jitter(K, scale=1.0, initial_jitter=1e-7)
    assert len(calls) == 2
    assert jit == jit_from_zero


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="gaussian")
    with pytest.raises(ValueError):
        KernelSpec(length_scale=0.0)
    with pytest.raises(ValueError):
        KernelSpec(jitter=-1.0)


# ---------------------------------------------------------------------------
# GP prior sampling
# ---------------------------------------------------------------------------


def test_gp_sample_kronecker_covariance():
    grid = square_grid(3, 3)
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
    grid = square_grid(3, 1)
    gram = build_gram(grid, KernelSpec(kind="dirac"))
    spec = PriorSpec(P=3, sigma_a2=1.0)
    Z = sample_latent_field(spec, gram, 50_000, rng=12)
    c01 = np.mean(Z[:, 0, 0] * Z[:, 0, 1])
    assert abs(c01) < 5.0 / np.sqrt(50_000)


def test_gp_kernel_long_length_scale_correlates_neighbors():
    grid = square_grid(2, 1)
    gram = build_gram(grid, KernelSpec(length_scale=1e6))
    corr = gram.matrix[0, 1] / gram.matrix[0, 0]
    assert corr > 1.0 - 1e-5


def test_gp_sample_shapes_interior_and_seeded():
    grid = square_grid(4, 2)
    gram = build_gram(grid, KernelSpec(length_scale=3.0))
    spec = PriorSpec(P=4, sigma_a2=1.5)
    A = gp_prior_sample(spec, gram, 6, rng=5)
    assert A.shape == (6, 4, 8)
    assert np.all(A > 0.0)
    assert np.max(np.abs(A.sum(axis=1) - 1.0)) < 1e-12
    assert np.array_equal(A, gp_prior_sample(spec, gram, 6, rng=5))


def test_gp_sample_nonzero_mean():
    grid = square_grid(2, 2)
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
    gram = build_gram(square_grid(8, 8), KernelSpec(length_scale=3.0))
    assert gram.chol.flags.f_contiguous
    B = np.random.default_rng(30).standard_normal((64, 2))
    assert np.max(np.abs(gram.solve(B) - np.linalg.solve(gram.matrix, B))) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gram_solves_reject_nonfinite_rhs(bad):
    gram = build_gram(square_grid(8, 8), KernelSpec(length_scale=3.0))
    B = np.ones((64, 2))
    B[5, 1] = bad
    with pytest.raises(ValueError):
        gram.solve(B)


def _diagonal_and_dense(n, sigma_k2):
    d = np.full(n, sigma_k2)
    return DiagonalGram(d, np.sqrt(d)), GramMatrix(np.diag(d), np.diag(np.sqrt(d)))


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


def test_gram_rejects_nonfinite_factor():
    K = build_gram(square_grid(8, 8), KernelSpec(length_scale=3.0)).matrix
    L = np.linalg.cholesky(K)
    L[3, 1] = np.nan
    with pytest.raises(ValueError):
        GramMatrix(K.copy(), L)
    d = np.ones(4)
    d[2] = np.nan
    with pytest.raises(ValueError):
        DiagonalGram(np.ones(4), d)


def test_gp_logpdf_pixel_relabeling_invariance():
    grid = square_grid(3, 2)
    gram = build_gram(grid, KernelSpec(length_scale=2.0))
    spec = PriorSpec(P=3, sigma_a2=0.9)
    rng = np.random.default_rng(10)
    A = rng.dirichlet(np.ones(3), size=6).T
    perm = rng.permutation(6)
    Kp = gram.matrix[np.ix_(perm, perm)]
    gram_p = GramMatrix(Kp.copy(), np.linalg.cholesky(Kp))
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
    grid = square_grid(3, 3)
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
    grid = square_grid(2, 2)
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

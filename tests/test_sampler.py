import itertools

import numpy as np
import pytest

from simplexuq import geometry
from simplexuq.errors import DivergenceError
from simplexuq.prior import GramMatrix, KernelSpec, PriorSpec, build_gram, gp_prior_logpdf
from simplexuq.sampler import (
    Observations,
    PosteriorModel,
    SamplerConfig,
    _euclidean_potential_and_gradient,
    check_endmembers,
    latent_gradient,
    latent_neg_log_posterior,
    mirror_langevin,
    project_simplex,
    projected_ula,
)
from simplexuq.synth import builtin_endmembers, synth_generate


def square_grid(w, h):
    xs, ys = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    return np.column_stack([xs.ravel(), ys.ravel()])


def make_model(P=3, w=2, h=2, snr_db=20.0, sigma_a2=1.0, length_scale=2.0,
               data_seed=1, kind="exponential", prior_only=False, L=32):
    grid = square_grid(w, h)
    kernel = KernelSpec(kind=kind, length_scale=length_scale)
    spec = PriorSpec(P=P, sigma_a2=sigma_a2, kernel=kernel)
    S, _ = builtin_endmembers(L, P)
    res = synth_generate(S, grid, spec, snr_db=snr_db, rng=data_seed)
    gram = build_gram(grid, kernel)
    sigma2 = np.inf if prior_only else res.sigma2
    return PosteriorModel(S, Observations(res.X, sigma2), spec, gram), res


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def test_potential_zero_at_perfect_fit():
    grid = square_grid(2, 1)
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    S, _ = builtin_endmembers(16, 3)
    Z = np.zeros((2, 2))
    A = geometry.ilr_inv(Z.T).T
    X = S @ A
    model = PosteriorModel(S, Observations(X, 0.01), spec, build_gram(grid, kernel))
    assert abs(latent_neg_log_posterior(Z, model)) < 1e-12


def test_potential_prior_only_is_matrix_normal_quadratic():
    model, _ = make_model(prior_only=True)
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((2, 4))
    expected = np.trace(Z @ np.linalg.inv(model.gram.matrix) @ Z.T) / (2.0 * model.prior.sigma_a2)
    assert abs(latent_neg_log_posterior(Z, model) - expected) < 1e-10


def test_potential_matches_composed_log_densities():
    # oracle: compose gp_prior_logpdf and the Gaussian log-likelihood through
    # ilr_inv; they differ from U only by an analytically known constant.
    model, _ = make_model(P=3, w=2, h=2, snr_db=18.0, data_seed=5)
    spec, gram, obs, S = model.prior, model.gram, model.obs, model.S
    P, N = 3, 4
    L = S.shape[0]
    rng = np.random.default_rng(6)
    const_mn = (
        -0.5 * (P - 1) * N * np.log(2.0 * np.pi)
        - 0.5 * (P - 1) * N * np.log(spec.sigma_a2)
        - 0.5 * (P - 1) * gram.log_det
        - 0.5 * N * np.log(P)
    )
    const = const_mn - 0.5 * L * N * np.log(2.0 * np.pi * obs.sigma2)
    for _ in range(10):
        Z = rng.standard_normal((P - 1, N)) * 1.5
        A = geometry.ilr_inv(Z.T, spec.H).T
        loglik = -np.sum((obs.X - S @ A) ** 2) / (2.0 * obs.sigma2) - 0.5 * L * N * np.log(
            2.0 * np.pi * obs.sigma2
        )
        oracle = -gp_prior_logpdf(A, spec, gram) - loglik - np.sum(np.log(A)) + const
        assert abs(latent_neg_log_posterior(Z, model) - oracle) < 1e-8


def test_potential_shape_mismatch():
    model, _ = make_model()
    with pytest.raises(ValueError):
        latent_neg_log_posterior(np.zeros((2, 5)), model)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def finite_difference_gradient(Z, model, h=1e-5):
    G = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        for j in range(Z.shape[1]):
            Zp = Z.copy()
            Zp[i, j] += h
            Zm = Z.copy()
            Zm[i, j] -= h
            G[i, j] = (
                latent_neg_log_posterior(Zp, model) - latent_neg_log_posterior(Zm, model)
            ) / (2.0 * h)
    return G


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        model, _ = make_model(
            P=3, w=2, h=2, snr_db=float(rng.uniform(10, 30)), sigma_a2=float(rng.uniform(0.3, 3)),
            data_seed=trial,
        )
        Z = rng.standard_normal((2, 4)) * 2.0
        if trial % 3 == 0:
            Z[:, 0] = np.array([9.0, 7.0])  # push one pixel near the boundary
        G = latent_gradient(Z, model)
        G_fd = finite_difference_gradient(Z, model)
        rel = np.linalg.norm(G - G_fd) / np.linalg.norm(G_fd)
        worst = max(worst, rel)
    assert worst < 1e-5


def test_gradient_zero_at_prior_mode():
    model, _ = make_model(prior_only=True)
    G = latent_gradient(np.zeros((2, 4)), model)
    assert np.max(np.abs(G)) < 1e-12


def test_gradient_likelihood_term_vanishes_on_exact_fit():
    grid = square_grid(2, 1)
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    S, _ = builtin_endmembers(16, 3)
    rng = np.random.default_rng(8)
    Z = rng.standard_normal((2, 2))
    A = geometry.ilr_inv(Z.T).T
    gram = build_gram(grid, kernel)
    exact = PosteriorModel(S, Observations(S @ A, 0.5), spec, gram)
    prior_only = PosteriorModel(S, Observations(S @ A, np.inf), spec, gram)
    assert np.max(np.abs(latent_gradient(Z, exact) - latent_gradient(Z, prior_only))) < 1e-12


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def projection_oracle(v):
    """Exhaustive KKT enumeration: try every support set, keep the feasible
    candidate closest to v."""
    P = len(v)
    best, best_d = None, np.inf
    for r in range(1, P + 1):
        for T in itertools.combinations(range(P), r):
            lam = (1.0 - sum(v[list(T)])) / r
            a = np.zeros(P)
            a[list(T)] = v[list(T)] + lam
            if np.any(a[list(T)] < -1e-15):
                continue
            d = np.sum((a - v) ** 2)
            if d < best_d:
                best, best_d = np.maximum(a, 0.0), d
    return best


def test_project_simplex_trivial_cases():
    assert np.allclose(project_simplex(np.array([0.5, 0.5, 0.5])), 1.0 / 3.0, atol=1e-15)
    assert np.allclose(project_simplex(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-15)
    a = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(a), a, atol=1e-15)


def test_project_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.uniform(-2.0, 2.0, size=5)
        got = project_simplex(v)
        want = projection_oracle(v)
        assert np.max(np.abs(got - want)) < 1e-9
        assert abs(got.sum() - 1.0) < 1e-12
        assert np.all(got >= 0.0)


def test_project_simplex_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_simplex(np.array([np.nan, 0.0]))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_mirror_langevin_seed_determinism_and_constraints():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-3, n_steps=400, burn_in=100, seed=3)
    c1 = mirror_langevin(model, cfg)
    c2 = mirror_langevin(model, cfg)
    assert np.array_equal(c1.abundances, c2.abundances)
    assert np.array_equal(c1.energy_trace, c2.energy_trace)
    assert c1.n_samples == cfg.n_kept == 300
    assert np.all(c1.abundances > 0.0)
    assert np.max(np.abs(c1.abundances.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(np.isfinite(c1.energy_trace))


def test_mirror_langevin_dirac_matches_dense_identity_bytes():
    model, _ = make_model(w=3, h=3, snr_db=15.0, kind="dirac")
    N = model.n_pixels
    dense = PosteriorModel(model.S, model.obs, model.prior, GramMatrix(np.eye(N), np.eye(N)))
    cfg = SamplerConfig(step_size=1e-3, n_steps=300, burn_in=100, init="prior-draw", seed=6)
    c1 = mirror_langevin(model, cfg)
    c2 = mirror_langevin(dense, cfg)
    assert np.array_equal(c1.abundances, c2.abundances)
    assert np.array_equal(c1.energy_trace, c2.energy_trace)


def test_mirror_langevin_gradient_descent_hook():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-4, n_steps=200, burn_in=50, seed=4)
    chain = mirror_langevin(model, cfg, inject_noise=False)
    assert np.all(np.diff(chain.energy_trace) <= 1e-10)


def test_mirror_langevin_divergence_error():
    model, _ = make_model(snr_db=25.0)
    cfg = SamplerConfig(step_size=100.0, n_steps=5000, burn_in=100, seed=5)
    with pytest.raises(DivergenceError) as err:
        mirror_langevin(model, cfg)
    assert err.value.step >= 0
    assert "step_size" in str(err.value)


def test_mirror_langevin_prior_only_moments():
    # single pixel, prior-only target: latent chain variance must approach
    # sigma_a2 (ULA inflates it by 1/(1 - step/(2 sigma_a2)), negligible here)
    grid = np.array([[0.0, 0.0]])
    kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=3, sigma_a2=0.8, kernel=kernel)
    S, _ = builtin_endmembers(16, 3)
    model = PosteriorModel(S, Observations(np.zeros((16, 1)), np.inf), spec, build_gram(grid, kernel))
    cfg = SamplerConfig(step_size=0.02, n_steps=120_000, burn_in=20_000, thinning=50, seed=6)
    chain = mirror_langevin(model, cfg)
    z = chain.latents()[:, 0, :]
    M = len(z)
    assert np.max(np.abs(z.mean(axis=0))) < 4.0 * np.sqrt(spec.sigma_a2 / M)
    cov = np.cov(z.T)
    tol = 5.0 * spec.sigma_a2 * np.sqrt(2.0 / M)
    assert np.max(np.abs(cov - spec.sigma_a2 * np.eye(2))) < tol


def test_euclidean_gradient_jacobian_term_pulls_toward_boundary():
    # With a nearly flat latent prior only the +sum log a Jacobian term is
    # left, and a descent step shrinks the small component; a tight prior's
    # quadratic in ilr coordinates outweighs it and pushes back.
    grid = np.array([[0.0, 0.0]])
    kernel = KernelSpec(kind="dirac")
    S, _ = builtin_endmembers(16, 3)
    A = np.array([[0.02], [0.49], [0.49]])

    def tangent_gradient(sigma_a2):
        spec = PriorSpec(P=3, sigma_a2=sigma_a2, kernel=kernel)
        model = PosteriorModel(
            S, Observations(np.zeros((16, 1)), np.inf), spec, build_gram(grid, kernel)
        )
        _, G = _euclidean_potential_and_gradient(A, model)
        return (G - G.mean(axis=0))[:, 0]

    flat = tangent_gradient(1e8)
    assert np.allclose(flat, [32.0, -16.0, -16.0], atol=0.05)
    assert tangent_gradient(0.1)[0] < 0.0


def test_projected_ula_stays_on_simplex():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=5e-5, n_steps=400, burn_in=100, seed=7)
    chain = projected_ula(model, cfg)
    assert chain.algorithm == "projected-ula"
    assert np.all(chain.abundances >= 0.0)
    assert np.max(np.abs(chain.abundances.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(np.isfinite(chain.energy_trace))


def test_projected_ula_noise_free_converges_to_fixed_point():
    grid = np.array([[0.0, 0.0]])
    kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    S, _ = builtin_endmembers(32, 3)
    res = synth_generate(S, grid, spec, snr_db=30.0, rng=10,
                         abundances=np.array([[0.5], [0.3], [0.2]]))
    model = PosteriorModel(S, Observations(res.X, res.sigma2), spec, build_gram(grid, kernel))
    cfg = SamplerConfig(step_size=2e-5, n_steps=4000, burn_in=3999, seed=8)
    chain = projected_ula(model, cfg, inject_noise=False)
    # one more noise-free step from the final iterate barely moves it
    follow = SamplerConfig(step_size=2e-5, n_steps=1, burn_in=0, seed=9,
                           init=chain.abundances[-1])
    again = projected_ula(model, follow, inject_noise=False)
    assert np.max(np.abs(again.abundances[0] - chain.abundances[-1])) < 1e-6


def test_init_modes():
    model, _ = make_model(snr_db=15.0)
    uni = SamplerConfig(step_size=1e-6, n_steps=2, burn_in=0, seed=0, init="uniform-image")
    chain = mirror_langevin(model, uni, inject_noise=False)
    # two tiny gradient steps from the uniform image stay near it
    assert np.max(np.abs(chain.abundances[0] - 1.0 / 3.0)) < 1e-3

    A0 = chain.abundances[-1]
    user = SamplerConfig(step_size=1e-6, n_steps=1, burn_in=0, seed=0, init=A0)
    c2 = mirror_langevin(model, user, inject_noise=False)
    assert c2.n_samples == 1

    Z0 = geometry.ilr(A0.T).T
    user_latent = SamplerConfig(step_size=1e-6, n_steps=1, burn_in=0, seed=0, init=Z0)
    c3 = mirror_langevin(model, user_latent, inject_noise=False)
    assert np.max(np.abs(c3.abundances[0] - c2.abundances[0])) < 1e-12

    bad = SamplerConfig(step_size=1e-6, n_steps=1, burn_in=0, seed=0, init=np.zeros((7, 4)))
    with pytest.raises(ValueError):
        mirror_langevin(model, bad)


def test_list_init_matches_array_init():
    model, res = make_model(snr_db=15.0)
    for sampler in (mirror_langevin, projected_ula):
        chains = [
            sampler(model, SamplerConfig(step_size=1e-6, n_steps=1, burn_in=0, seed=0, init=init),
                    inject_noise=False)
            for init in (res.A.tolist(), res.A)
        ]
        assert np.array_equal(chains[0].abundances, chains[1].abundances)
        assert np.array_equal(chains[0].energy_trace, chains[1].energy_trace)
        assert np.max(np.abs(chains[0].abundances[0] - res.A)) < 1e-3


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(step_size=0.0, n_steps=10)
    with pytest.raises(ValueError):
        SamplerConfig(step_size=0.1, n_steps=10, burn_in=10)
    with pytest.raises(ValueError):
        SamplerConfig(step_size=0.1, n_steps=10, thinning=0)
    with pytest.raises(ValueError):
        SamplerConfig(step_size=0.1, n_steps=10, init="warm")
    cfg = SamplerConfig(step_size=0.1, n_steps=100)
    assert cfg.burn_in == 20
    assert cfg.n_kept == 80


def test_thinning_sample_count():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-3, n_steps=130, burn_in=30, thinning=10, seed=3)
    chain = mirror_langevin(model, cfg)
    assert chain.n_samples == 10
    assert chain.latents().shape == (10, 4, 2)


def test_model_validation():
    grid = square_grid(2, 1)
    kernel = KernelSpec(length_scale=1.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    gram = build_gram(grid, kernel)
    S, _ = builtin_endmembers(16, 3)
    with pytest.raises(ValueError):
        PosteriorModel(S, Observations(np.zeros((16, 5)), 1.0), spec, gram)
    with pytest.raises(ValueError):
        PosteriorModel(S[:, :2], Observations(np.zeros((16, 2)), 1.0), spec, gram)
    with pytest.raises(ValueError):
        Observations(np.zeros((4, 2)), -1.0)


def test_check_endmembers():
    with pytest.raises(ValueError):
        check_endmembers(np.ones((8, 1)))
    with pytest.raises(ValueError):
        check_endmembers(np.ones((8, 2)))  # identical columns
    with pytest.warns(UserWarning):
        check_endmembers(np.array([[0.2, 0.5, 0.9]]))  # more materials than bands


def test_chain_latents_roundtrip():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-3, n_steps=60, burn_in=10, seed=12)
    chain = mirror_langevin(model, cfg)
    z = chain.latents()
    back = geometry.ilr_inv(z)
    assert np.max(np.abs(np.swapaxes(back, 1, 2) - chain.abundances)) < 1e-10

import itertools
import sys
import threading

import numpy as np
import pytest

from simplexuq import geometry, prior as prior_module, sampler as sampler_module
from simplexuq import io as sio
from simplexuq.errors import DivergenceError
from simplexuq.interp import PartialObservation
from simplexuq.prior import (
    GramMatrix,
    KernelSpec,
    PriorSpec,
    build_gram,
    gp_prior_logpdf,
    prior_quadratic,
)
from simplexuq.sampler import (
    Observations,
    PosteriorModel,
    SamplerConfig,
    _euclidean_potential_and_gradient,
    _initial_latent,
    _latent_state,
    _misfit,
    _project_columns,
    check_endmembers,
    latent_gradient,
    latent_neg_log_posterior,
    mirror_langevin,
    projected_ula,
)
from simplexuq.synth import builtin_endmembers, synth_generate
from simplexuq.uq import hdr, summarize_image


def make_model(P=3, w=2, h=2, snr_db=20.0, sigma_a2=1.0, length_scale=2.0,
               data_seed=1, kind="exponential", prior_only=False, L=32):
    grid = sio.make_grid(w, h)
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
    grid = sio.make_grid(2, 1)
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
    grid = sio.make_grid(2, 1)
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


def direct_misfit(A, model):
    """The misfit and its abundance gradient from the (L, N) residual."""
    R = model.S @ A - model.obs.X
    return np.sum(R * R) / (2.0 * model.obs.sigma2), model.S.T @ R / model.obs.sigma2


def prior_only_twin(model):
    return PosteriorModel(model.S, Observations(model.obs.X, np.inf), model.prior, model.gram)


def model_on_4x4(S, X, sigma2):
    grid = sio.make_grid(4, 4)
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    return PosteriorModel(S, Observations(X, sigma2), spec, build_gram(grid, kernel))


def misfit_case(name):
    """(A, model) for one comparison of the misfit helper with the residual."""
    rng = np.random.default_rng(11)
    A = geometry.ilr_inv(rng.standard_normal((16, 2))).T
    if name == "scene":
        return A, make_model(w=4, h=4, snr_db=15.0)[0]
    if name == "underdetermined":
        with pytest.warns(UserWarning, match="underdetermined"):
            S = check_endmembers(builtin_endmembers(2, 3)[0])
        return A, model_on_4x4(S, S @ A + 0.01 * rng.standard_normal((2, 16)), 1e-4)
    # noise-free data, evaluated a zero-sum 1e-4 perturbation away from the truth
    S = builtin_endmembers(32, 3)[0]
    delta = 1e-4 * rng.standard_normal(A.shape)
    return A + delta - delta.mean(axis=0), model_on_4x4(S, S @ A, 1e-8)


@pytest.mark.parametrize("name", ["scene", "underdetermined", "noise-free-perturbed"])
def test_misfit_matches_direct_residual(name):
    A, model = misfit_case(name)
    U, G = _misfit(A, model)
    U_ref, G_ref = direct_misfit(A, model)
    assert abs(U - U_ref) <= 1e-12 * U_ref
    assert np.max(np.abs(G - G_ref)) <= 1e-12 * np.max(np.abs(G_ref))
    # the Euclidean potential is its prior part plus the same misfit
    V, G_V = _euclidean_potential_and_gradient(A, model)
    V0, G0 = _euclidean_potential_and_gradient(A, prior_only_twin(model))
    assert abs(V - (V0 + U_ref)) <= 1e-12 * (abs(V0) + U_ref)
    assert np.max(np.abs(G_V - (G0 + G_ref))) <= 1e-12 * np.max(np.abs(G0) + np.abs(G_ref))


def test_misfit_at_noise_free_truth():
    # The direct residual is exactly zero at the truth, so the helper is held
    # to 1e-12 of the magnitudes that the residual cancels.
    A = misfit_case("scene")[0]
    S = builtin_endmembers(32, 3)[0]
    model = model_on_4x4(S, S @ A, 1e-8)
    X, sigma2 = model.obs.X, model.obs.sigma2
    U_scale = np.sum(X * X) / (2.0 * sigma2)
    G_scale = np.max(np.abs(model.S.T @ X)) / sigma2
    U, G = _misfit(A, model)
    assert 0.0 <= U <= 1e-12 * U_scale
    assert np.max(np.abs(G)) <= 1e-12 * G_scale
    V, G_V = _euclidean_potential_and_gradient(A, model)
    V0, G0 = _euclidean_potential_and_gradient(A, prior_only_twin(model))
    assert abs(V - V0) <= 1e-12 * (abs(V0) + U_scale)
    assert np.max(np.abs(G_V - G0)) <= 1e-12 * (np.max(np.abs(G0)) + G_scale)


def test_prior_only_chain_ignores_observations():
    # sigma2 = inf: the energy trace is the prior quadratic alone, whatever X is
    model, _ = make_model(w=4, h=4, snr_db=15.0, prior_only=True)
    other = PosteriorModel(model.S, Observations(np.zeros_like(model.obs.X), np.inf),
                           model.prior, model.gram)
    cfg = SamplerConfig(step_size=1e-3, n_steps=200, burn_in=50, seed=2)
    for sampler in (mirror_langevin, projected_ula):
        c1, c2 = sampler(model, cfg), sampler(other, cfg)
        assert np.array_equal(c1.abundances, c2.abundances)
        assert np.array_equal(c1.energy_trace, c2.energy_trace)
    Z0 = _initial_latent(model, cfg, np.random.default_rng(cfg.seed))
    U0 = prior_quadratic(Z0, model.prior, model.gram)[0]
    assert mirror_langevin(model, cfg).energy_trace[0] == U0


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
    V = np.column_stack([[0.5, 0.5, 0.5], [2.0, 0.0, 0.0], [0.2, 0.5, 0.3]])
    got = _project_columns(V)
    assert np.allclose(got[:, 0], 1.0 / 3.0, atol=1e-15)
    assert np.allclose(got[:, 1], [1.0, 0.0, 0.0], atol=1e-15)
    assert np.allclose(got[:, 2], V[:, 2], atol=1e-15)


def test_project_simplex_matches_kkt_oracle():
    rng = np.random.default_rng(9)
    V = rng.uniform(-2.0, 2.0, size=(100, 5)).T
    got = _project_columns(V)
    for n in range(V.shape[1]):
        assert np.max(np.abs(got[:, n] - projection_oracle(V[:, n]))) < 1e-9
    assert np.max(np.abs(got.sum(axis=0) - 1.0)) < 1e-12
    assert np.all(got >= 0.0)


def test_project_simplex_rejects_nonfinite():
    # projected_ula follows the projection with closure, which refuses a
    # non-finite state
    for bad in (np.nan, np.inf):
        V = np.array([[bad, 0.2], [0.0, 0.8]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            geometry.closure(_project_columns(V).T)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def test_mirror_langevin_seed_determinism_and_constraints():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-3, n_steps=400, burn_in=100, seed=3)
    threads = threading.active_count()  # a chain starts no thread
    c1 = mirror_langevin(model, cfg)
    assert threading.active_count() == threads
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
    dense = PosteriorModel(model.S, model.obs, model.prior, GramMatrix(np.eye(N)))
    cfg = SamplerConfig(step_size=1e-3, n_steps=300, burn_in=100, init="prior-draw", seed=6)
    c1 = mirror_langevin(model, cfg)
    c2 = mirror_langevin(dense, cfg)
    assert np.array_equal(c1.abundances, c2.abundances)
    assert np.array_equal(c1.energy_trace, c2.energy_trace)


def test_mirror_langevin_gradient_descent_hook():
    model, _ = make_model(snr_db=15.0)
    cfg = SamplerConfig(step_size=1e-4, n_steps=200, burn_in=50, seed=4)
    _, energy = reference_chain(mirror_langevin, model, cfg, inject_noise=False)
    assert np.all(np.diff(energy) <= 1e-10)


def test_mirror_langevin_divergence_error():
    model, _ = make_model(snr_db=25.0)
    cfg = SamplerConfig(step_size=100.0, n_steps=5000, burn_in=100, seed=5)
    threads = threading.active_count()
    with pytest.raises(DivergenceError) as err:
        mirror_langevin(model, cfg)
    assert threading.active_count() == threads
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
    z = geometry.ilr(np.swapaxes(chain.abundances, 1, 2))[:, 0, :]
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
    kept, _ = reference_chain(projected_ula, model, cfg, inject_noise=False)
    # one more noise-free step from the final iterate barely moves it
    follow = SamplerConfig(step_size=2e-5, n_steps=1, burn_in=0, seed=9, init=kept[-1])
    again, _ = reference_chain(projected_ula, model, follow, inject_noise=False)
    assert np.max(np.abs(again[0] - kept[-1])) < 1e-6


def test_init_modes():
    model, _ = make_model(snr_db=15.0)
    uni = SamplerConfig(step_size=1e-12, n_steps=2, burn_in=0, seed=0, init="uniform-image")
    chain = mirror_langevin(model, uni)
    # two tiny steps from the uniform image stay near it
    assert np.max(np.abs(chain.abundances[0] - 1.0 / 3.0)) < 1e-3

    A0 = chain.abundances[-1]
    user = SamplerConfig(step_size=1e-12, n_steps=1, burn_in=0, seed=0, init=A0)
    c2 = mirror_langevin(model, user)
    assert c2.n_samples == 1

    Z0 = geometry.ilr(A0.T).T
    user_latent = SamplerConfig(step_size=1e-12, n_steps=1, burn_in=0, seed=0, init=Z0)
    c3 = mirror_langevin(model, user_latent)
    assert np.max(np.abs(c3.abundances[0] - c2.abundances[0])) < 1e-12

    bad = SamplerConfig(step_size=1e-6, n_steps=1, burn_in=0, seed=0, init=np.zeros((7, 4)))
    with pytest.raises(ValueError):
        mirror_langevin(model, bad)


def test_list_init_matches_array_init():
    model, res = make_model(snr_db=15.0)
    for sampler in (mirror_langevin, projected_ula):
        chains = [
            sampler(model, SamplerConfig(step_size=1e-12, n_steps=1, burn_in=0, seed=0, init=init))
            for init in (res.A.tolist(), res.A)
        ]
        assert np.array_equal(chains[0].abundances, chains[1].abundances)
        assert np.array_equal(chains[0].energy_trace, chains[1].energy_trace)
        assert np.max(np.abs(chains[0].abundances[0] - res.A)) < 1e-3


@pytest.mark.parametrize("sampler", [mirror_langevin, projected_ula])
@pytest.mark.parametrize("parts", ["image", "latent"])
def test_nonfinite_explicit_init_is_rejected_by_the_config(sampler, parts):
    # A non-finite latent init used to pass the config, and the chain then
    # raised DivergenceError at step 0, which blames the step size.
    model, res = make_model(snr_db=15.0)
    init = res.A.copy() if parts == "image" else geometry.ilr(res.A.T).T
    for bad in (np.nan, np.inf, -np.inf):
        init[0, 1] = bad
        with pytest.raises(ValueError, match="init must be finite"):
            sampler(model, SamplerConfig(step_size=1e-3, n_steps=2, burn_in=0, seed=0, init=init))


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(step_size=0.0, n_steps=10)
    # an infinite step would make the chain diverge at its first update
    with pytest.raises(ValueError, match="step_size must be positive and finite"):
        SamplerConfig(step_size=np.inf, n_steps=10)
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
    assert geometry.ilr(np.swapaxes(chain.abundances, 1, 2)).shape == (10, 4, 2)
    for sampler, step in ((mirror_langevin, 1e-3), (projected_ula, 5e-5)):
        cfg = SamplerConfig(step_size=step, n_steps=23, burn_in=4, thinning=5, seed=3)
        every = SamplerConfig(step_size=step, n_steps=23, burn_in=0, seed=3)
        chain = sampler(model, cfg)
        assert chain.abundances.shape == (cfg.n_kept, 3, 4) == (4, 3, 4)
        # the same noise is drawn on every step, kept or not
        assert np.array_equal(chain.abundances, sampler(model, every).abundances[4::5])


def test_model_validation():
    grid = sio.make_grid(2, 1)
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


# ---------------------------------------------------------------------------
# the block loop against a plain per-step loop
# ---------------------------------------------------------------------------


def reference_chain(sampler, model, cfg, inject_noise=True):
    """Both samplers as a plain loop: one noise draw per step, one
    interior_softmax per kept step, one state evaluation per step."""
    rng = np.random.default_rng(cfg.seed)
    Z = _initial_latent(model, cfg, rng)
    H = model.prior.H
    if sampler is mirror_langevin:
        x = Z

        def state(Z):
            return _latent_state(Z, model)[:2]

        def image(Z):
            return geometry.interior_softmax((H @ Z).T).T

        def project(Z):
            return Z
    else:
        x = geometry.ilr_inv(Z.T, H).T

        def state(A):
            return _euclidean_potential_and_gradient(A, model)

        def image(A):
            return A

        def project(A):
            return geometry.closure(_project_columns(A).T).T

    kept, energy = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.n_steps):
            U, G = state(x)
            energy.append(U)
            if not np.isfinite(U):
                raise DivergenceError(t)
            x = x - cfg.step_size * G
            if inject_noise:
                x = x + np.sqrt(2.0 * cfg.step_size) * rng.standard_normal(x.shape)
            x = project(x)
            if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
                kept.append(image(x))
        energy.append(state(x)[0])
    if not np.isfinite(energy[-1]):
        raise DivergenceError(cfg.n_steps)
    return np.array(kept), np.array(energy)


# (n_steps, burn_in, thinning); with blocks of 7 steps none of the lengths
# is a multiple of the block
BLOCK_CASES = [
    (45, 10, 1),
    (45, 10, 4),
    (30, 0, 3),
    (1, 0, 1),
]


def seven_step_blocks(monkeypatch, sampler, model):
    """Size the loop's buffers to blocks of 7 steps of the sampler's state:
    the (P-1, N) latent matrix or the (P, N) image."""
    rows = model.P - 1 if sampler is mirror_langevin else model.P
    monkeypatch.setattr(sampler_module, "_BLOCK_DOUBLES", 7 * rows * model.n_pixels)


@pytest.mark.parametrize("sampler", [mirror_langevin, projected_ula])
def test_block_loop_matches_reference_loop_dirac(sampler, monkeypatch):
    model, _ = make_model(w=4, h=3, snr_db=15.0, kind="dirac")
    step = 1e-3 if sampler is mirror_langevin else 5e-5
    seven_step_blocks(monkeypatch, sampler, model)
    for n_steps, burn_in, thinning in BLOCK_CASES:
        cfg = SamplerConfig(step_size=step, n_steps=n_steps, burn_in=burn_in,
                            thinning=thinning, seed=n_steps)
        chain = sampler(model, cfg)
        A, E = reference_chain(sampler, model, cfg)
        assert chain.abundances.shape == A.shape == (cfg.n_kept, 3, 12)
        assert np.array_equal(chain.abundances, A)
        assert np.array_equal(chain.energy_trace, E)


def exponential_model_with_mean(w, h, n=None):
    """An exponential-kernel model on the first n pixels of the w x h lattice
    (all of them by default)."""
    grid = sio.make_grid(w, h)[:n]
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=0.7, kernel=kernel, mean=np.array([0.5, -0.4]))
    S, _ = builtin_endmembers(32, 3)
    res = synth_generate(S, grid, spec, snr_db=15.0, rng=3)
    return PosteriorModel(S, Observations(res.X, res.sigma2), spec, build_gram(grid, kernel))


def check_block_loop_against_reference(sampler, model, reference, init="prior-draw"):
    step = 1e-3 if sampler is mirror_langevin else 5e-5
    for n_steps, burn_in, thinning in BLOCK_CASES:
        cfg = SamplerConfig(step_size=step, n_steps=n_steps, burn_in=burn_in,
                            thinning=thinning, init=init, seed=n_steps + 1)
        chain = sampler(model, cfg)
        A, E = reference(sampler, model, cfg)
        assert chain.abundances.shape == A.shape
        assert np.max(np.abs(chain.abundances - A)) <= 1e-12
        assert np.max(np.abs(chain.energy_trace - E) / np.abs(E)) <= 1e-12


@pytest.mark.parametrize("sampler", [mirror_langevin, projected_ula])
def test_block_loop_matches_reference_loop_exponential_with_mean(sampler, monkeypatch):
    model = exponential_model_with_mean(3, 3)
    seven_step_blocks(monkeypatch, sampler, model)
    check_block_loop_against_reference(sampler, model, reference_chain)


def matmul_reference_chain(sampler, model, cfg):
    """`reference_chain` with the model's Gram factor as a dense operator (one
    precision block, V = I), multiplied by matmul whatever the pixel count."""
    gram = GramMatrix(model.gram.chol, model.gram.applied_jitter)
    dense = PosteriorModel(model.S, model.obs, model.prior, gram)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prior_module, "_SYMV_MIN_PIXELS", np.inf)
        return reference_chain(sampler, dense, cfg)


def models_above_symv_crossover():
    # Every other chain test runs below the crossover. On the full lattice
    # the chain multiplies by the four parity blocks of the precision; on
    # the lattice less its last pixels, by the dense precision with dsymv.
    side = int(np.ceil(np.sqrt(prior_module._SYMV_MIN_PIXELS)))
    lattice = exponential_model_with_mean(side, side)
    off_lattice = exponential_model_with_mean(side, side, prior_module._SYMV_MIN_PIXELS)
    assert lattice.gram._lattice is not None and off_lattice.gram._lattice is None
    return lattice, off_lattice


@pytest.mark.parametrize("sampler", [mirror_langevin, projected_ula])
def test_block_loop_matches_matmul_reference_above_symv_crossover(sampler):
    # A lattice operator draws through its parity blocks' factors and the
    # dense reference through its own factor, so a prior-draw init would
    # start the two chains apart: both start from the uniform image.
    for model in models_above_symv_crossover():
        check_block_loop_against_reference(sampler, model, matmul_reference_chain, "uniform-image")


def test_block_loop_diverges_at_the_matmul_reference_step_above_symv_crossover():
    cfg = SamplerConfig(step_size=100.0, n_steps=500, burn_in=100, seed=5)
    threads = threading.active_count()
    for model in models_above_symv_crossover():
        with pytest.raises(DivergenceError) as want:
            matmul_reference_chain(mirror_langevin, model, cfg)
        with pytest.raises(DivergenceError) as got:
            mirror_langevin(model, cfg)
        assert got.value.step == want.value.step
        assert threading.active_count() == threads


def test_block_loop_matches_reference_loop_default_blocks():
    # 2500 steps of a 2 x 16 (3 x 16) state: blocks of 512 (341) steps,
    # the last one partial
    model, _ = make_model(w=4, h=4, snr_db=15.0, kind="dirac")
    for sampler, step in ((mirror_langevin, 1e-3), (projected_ula, 5e-5)):
        cfg = SamplerConfig(step_size=step, n_steps=2500, burn_in=500, thinning=3, seed=4)
        chain = sampler(model, cfg)
        A, E = reference_chain(sampler, model, cfg)
        assert np.array_equal(chain.abundances, A)
        assert np.array_equal(chain.energy_trace, E)


def test_block_loop_keeps_the_per_image_softmax_floor():
    # Langevin on the prior from a huge latent state: the first kept
    # images have a softmax component below the 1e-300 floor, which floors
    # that component; the later ones in the same block do not, and must
    # come out as their plain softmax.
    grid = sio.make_grid(2, 2)
    kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    S, _ = builtin_endmembers(16, 3)
    model = PosteriorModel(S, Observations(np.zeros((16, 4)), np.inf), spec,
                           build_gram(grid, kernel))
    Z0 = np.array([[900.0, 0.3, -0.2, 0.1], [0.0, 0.4, 0.2, -0.3]])
    cfg = SamplerConfig(step_size=0.05, n_steps=30, burn_in=0, init=Z0, seed=1)
    chain = mirror_langevin(model, cfg)
    A, E = reference_chain(mirror_langevin, model, cfg)
    floored = chain.abundances.min(axis=(1, 2)) < 1e-299
    assert floored.any() and not floored.all()
    assert np.array_equal(chain.abundances, A)
    assert np.array_equal(chain.energy_trace, E)


def test_block_loop_diverges_at_the_reference_step():
    model, _ = make_model(snr_db=25.0)
    cfg = SamplerConfig(step_size=100.0, n_steps=5000, burn_in=100, seed=5)
    threads = threading.active_count()
    with pytest.raises(DivergenceError) as want:
        reference_chain(mirror_langevin, model, cfg)
    with pytest.raises(DivergenceError) as got:
        mirror_langevin(model, cfg)
    assert got.value.step == want.value.step
    assert threading.active_count() == threads


def test_exception_drawing_noise_reaches_the_caller(monkeypatch):
    # each block's noise is drawn on the calling thread just before the
    # block runs; what the draw raises reaches the caller, and nothing is
    # drawn after it
    model, _ = make_model(w=4, h=3, snr_db=15.0, kind="dirac")
    seven_step_blocks(monkeypatch, mirror_langevin, model)
    draws = []

    class FailingGenerator(np.random.Generator):
        def standard_normal(self, *args, **kwargs):
            draws.append(threading.current_thread())
            if len(draws) == 2:
                raise RuntimeError("drawing block 1 failed")
            return super().standard_normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingGenerator(np.random.PCG64(seed)))
    cfg = SamplerConfig(step_size=1e-3, n_steps=45, burn_in=10, init="uniform-image", seed=2)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="drawing block 1 failed"):
        mirror_langevin(model, cfg)
    assert threading.active_count() == threads
    # blocks 0 and 1, both on the calling thread, and nothing after
    assert draws == [threading.current_thread()] * 2


def test_mirror_chain_runs_one_softmax_per_state(monkeypatch):
    # each kept image is the state's own softmax, floored: a chain with a
    # likelihood runs one softmax per state evaluation and no other
    model, _ = make_model(w=4, h=3, snr_db=15.0, kind="dirac")
    seven_step_blocks(monkeypatch, mirror_langevin, model)
    calls = {"softmax": 0, "interior_softmax": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(geometry, name, counted(name, getattr(geometry, name)))
    cfg = SamplerConfig(step_size=1e-3, n_steps=45, burn_in=10, thinning=3, init="uniform-image", seed=2)
    chain = mirror_langevin(model, cfg)
    assert calls == {"softmax": cfg.n_steps + 1, "interior_softmax": 0}
    assert chain.n_samples == cfg.n_kept


def test_concurrent_chains_match_sequential_chains(monkeypatch):
    # three callers at once on one model, and so one GramMatrix: more
    # threads than cores, blocks of 7 steps and a short switch interval, so
    # the loops hand over often; each chain must keep the bytes it has alone
    model, _ = make_model(w=4, h=3, snr_db=15.0, kind="dirac")
    seven_step_blocks(monkeypatch, mirror_langevin, model)
    cfgs = [SamplerConfig(step_size=1e-3, n_steps=300, burn_in=50, thinning=2, seed=s)
            for s in (7, 8, 9)]
    want = [mirror_langevin(model, cfg) for cfg in cfgs]
    got = [None] * len(cfgs)
    start = threading.Barrier(len(cfgs))

    def run(i):
        start.wait()
        got[i] = mirror_langevin(model, cfgs[i])

    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(cfgs))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    for a, b in zip(got, want):
        assert np.array_equal(a.abundances, b.abundances)
        assert np.array_equal(a.energy_trace, b.energy_trace)


def test_models_and_chains_compare_and_hash_by_identity():
    model, _ = make_model()
    twin = PosteriorModel(model.S, model.obs, model.prior, model.gram)
    cfg = SamplerConfig(step_size=1e-3, n_steps=5, burn_in=0, seed=1)
    pairs = [
        (Observations(np.zeros((2, 2)), 1.0), Observations(np.zeros((2, 2)), 1.0)),
        (model, twin),
        (mirror_langevin(model, cfg), mirror_langevin(model, cfg)),
        (model.gram, build_gram(sio.make_grid(2, 2), model.prior.kernel)),
        (build_gram(sio.make_grid(2, 2), KernelSpec(kind="dirac")),
         build_gram(sio.make_grid(2, 2), KernelSpec(kind="dirac"))),
    ]
    # the value-holding records compare by identity too, arrays or not
    chain = mirror_langevin(model, cfg)
    samples = chain.abundances[:, :, 0]
    S, _ = builtin_endmembers(8, 3)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind="dirac"))
    for make in (
        lambda: PriorSpec(P=3, sigma_a2=1.0, mean=np.array([0.1, 0.2])),
        lambda: PriorSpec(P=3, sigma_a2=1.0),
        lambda: PartialObservation(np.array([0, 2]), np.full((3, 2), 1.0 / 3.0)),
        lambda: synth_generate(S, sio.make_grid(2, 1), spec, 20.0, rng=0),
        lambda: hdr(samples, 0.5, bins=4),
        lambda: summarize_image(chain.abundances),
        lambda: SamplerConfig(step_size=1e-3, n_steps=2, init=np.zeros((3, 1))),
        lambda: SamplerConfig(step_size=1e-3, n_steps=2),
    ):
        pairs.append((make(), make()))
    for a, b in pairs:
        assert a == a and hash(a) == hash(a)
        assert not a == b and a != b
        assert len({a, b}) == 2 and a in {a} and b not in {a}

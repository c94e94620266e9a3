"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The heavyweight experiment fixtures (the single-pixel
multimodal study and the 32x32 image study) are session-scoped and shared
between the experiment criteria and the byte-reproducibility criterion.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from simplexuq import geometry, repro
from simplexuq import io as sio
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.prior import (
    KernelSpec,
    PriorSpec,
    build_gram,
    gp_prior_logpdf,
    pixel_prior_logpdf,
    pixel_prior_sample,
    sample_latent_field,
)
from simplexuq.sampler import (
    Observations,
    PosteriorModel,
    SamplerConfig,
    latent_gradient,
    latent_neg_log_posterior,
    mirror_langevin,
    projected_ula,
)
from simplexuq.synth import builtin_endmembers, synth_generate
from simplexuq.uq import hdr


def report(criterion, ok, detail=""):
    print(f"criterion {criterion:>3}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def fig2_runs(tmp_path_factory):
    d1 = tmp_path_factory.mktemp("fig2_a")
    d2 = tmp_path_factory.mktemp("fig2_b")
    result = repro.fig2(str(d1))
    repro.fig2(str(d2))
    return result, d1, d2


@pytest.fixture(scope="module")
def samson_runs(tmp_path_factory):
    d1 = tmp_path_factory.mktemp("samson_a")
    d2 = tmp_path_factory.mktemp("samson_b")
    t0 = time.monotonic()
    result = repro.samson_synthetic(str(d1))
    elapsed = time.monotonic() - t0
    repro.samson_synthetic(str(d2))
    return result, d1, d2, elapsed


def test_criterion_01_geometry_suite():
    t0 = time.monotonic()
    worst_rt = 0.0
    for P in (2, 3, 4, 8):
        rng = np.random.default_rng(P)
        a = rng.dirichlet(np.ones(P), size=10_000)
        worst_rt = max(worst_rt, float(np.max(np.abs(geometry.ilr_inv(geometry.ilr(a)) - a))))

    rng = np.random.default_rng(99)
    a4 = rng.dirichlet(np.ones(4), size=2000)
    b4 = rng.dirichlet(np.ones(4), size=2000)
    clr_sum = float(np.max(np.abs(geometry.clr(a4).sum(axis=-1))))
    H = geometry.helmert_basis(4)
    ortho = float(
        max(np.max(np.abs(H.T @ H - np.eye(3))), np.max(np.abs(np.ones(4) @ H)))
    )
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    basis_dev = float(
        np.max(
            np.abs(
                geometry.geodesic_distance(a4, b4)
                - geometry.geodesic_distance(a4, b4, basis=H @ Q)
            )
        )
    )
    elapsed = time.monotonic() - t0
    ok = worst_rt < 1e-10 and clr_sum < 1e-12 and ortho < 1e-12 and basis_dev < 1e-12 and elapsed < 5.0
    report(
        1,
        ok,
        f"round-trip {worst_rt:.2e}, clr-sum {clr_sum:.2e}, ortho {ortho:.2e}, "
        f"basis {basis_dev:.2e}, {elapsed:.1f}s",
    )


def simplex_quadrature_nodes(bins):
    ii, jj = np.meshgrid(np.arange(bins), np.arange(bins), indexing="ij")
    up = ii + jj <= bins - 1
    dn = ii + jj <= bins - 2
    c = np.vstack(
        [
            np.stack([(ii[up] + 1.0 / 3.0) / bins, (jj[up] + 1.0 / 3.0) / bins], axis=1),
            np.stack([(ii[dn] + 2.0 / 3.0) / bins, (jj[dn] + 2.0 / 3.0) / bins], axis=1),
        ]
    )
    return np.column_stack([c, 1.0 - c.sum(axis=1)]), 1.0 / (2.0 * bins * bins)


def test_criterion_02_pixel_prior():
    rng = np.random.default_rng(2)
    spec = PriorSpec(P=3, sigma_a2=0.25)
    a = rng.dirichlet(np.ones(3), size=200)
    perm_dev = 0.0
    base = pixel_prior_logpdf(a, spec)
    for perm in ([1, 0, 2], [2, 0, 1], [0, 2, 1]):
        perm_dev = max(perm_dev, float(np.max(np.abs(pixel_prior_logpdf(a[:, perm], spec) - base))))

    nodes, dA = simplex_quadrature_nodes(512)
    integral = float(np.exp(pixel_prior_logpdf(nodes, spec)).sum() * dA)

    bins = 64
    grid_nodes, _ = simplex_quadrature_nodes(bins)
    argmax = grid_nodes[np.argmax(pixel_prior_logpdf(grid_nodes, spec))]
    centroid_dev = float(np.max(np.abs(argmax - 1.0 / 3.0)))

    spec5 = PriorSpec(P=3, sigma_a2=5.0)
    e = 1e-9
    path = geometry.geodesic_path(
        geometry.closure([1.0, e, e]), geometry.closure([e, 1.0, e]), np.linspace(0, 1, 2001)
    )
    lp = pixel_prior_logpdf(path, spec5)
    n_maxima = int(np.sum((lp[1:-1] > lp[:-2]) & (lp[1:-1] > lp[2:])))

    ok = (
        perm_dev < 1e-10
        and abs(integral - 1.0) < 1e-3
        and centroid_dev <= 1.0 / bins
        and n_maxima >= 2
    )
    report(
        2,
        ok,
        f"perm {perm_dev:.2e}, integral err {abs(integral - 1):.2e}, "
        f"mode offset {centroid_dev:.4f} (cell {1 / bins:.4f}), maxima {n_maxima}",
    )


def test_criterion_03_gp_prior():
    t0 = time.monotonic()
    grid = sio.make_grid(3, 3)
    kernel = KernelSpec(length_scale=2.0)
    gram = build_gram(grid, kernel)
    spec = PriorSpec(P=3, sigma_a2=0.5, kernel=kernel)
    M = 50_000
    Z = sample_latent_field(spec, gram, M, rng=3)
    emp = np.cov(Z.reshape(M, -1).T)
    target = np.kron(spec.sigma_a2 * np.eye(2), gram.matrix)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / M)
    kron_ratio = float(np.max(np.abs(emp - target) / se))

    # dense-inverse oracle on a 4-pixel instance
    g4 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    k4 = KernelSpec(length_scale=1.5, sigma_k2=0.8)
    gram4 = build_gram(g4, k4)
    spec4 = PriorSpec(P=3, sigma_a2=0.7, kernel=k4)
    rng = np.random.default_rng(4)
    A = rng.dirichlet(np.ones(3), size=4).T
    H = geometry.helmert_basis(3)
    logA = np.log(A)
    Zo = H.T @ (logA - logA.mean(axis=0, keepdims=True))
    sign, logdet = np.linalg.slogdet(gram4.matrix)
    oracle = (
        -logA.sum()
        - np.trace(Zo @ np.linalg.inv(gram4.matrix) @ Zo.T) / (2.0 * spec4.sigma_a2)
        - 0.5 * 2 * 4 * np.log(2.0 * np.pi)
        - 0.5 * 2 * 4 * np.log(spec4.sigma_a2)
        - 0.5 * 2 * logdet
        - 0.5 * 4 * np.log(3.0)
    )
    dense_dev = float(abs(gp_prior_logpdf(A, spec4, gram4) - oracle))
    elapsed = time.monotonic() - t0
    ok = kron_ratio <= 5.0 and dense_dev < 1e-10 and elapsed < 60.0
    report(3, ok, f"kron max |err|/SE {kron_ratio:.2f}, dense oracle {dense_dev:.2e}, {elapsed:.1f}s")


def test_criterion_04_gradient_check():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        grid = sio.make_grid(2, 2)
        kernel = KernelSpec(length_scale=float(rng.uniform(1.0, 4.0)))
        spec = PriorSpec(P=3, sigma_a2=float(rng.uniform(0.3, 3.0)), kernel=kernel)
        S, _ = builtin_endmembers(32, 3)
        res = synth_generate(S, grid, spec, snr_db=float(rng.uniform(8, 30)), rng=trial)
        model = PosteriorModel(S, Observations(res.X, res.sigma2), spec, build_gram(grid, kernel))
        Z = rng.standard_normal((2, 4)) * 2.0
        if trial % 3 == 0:
            Z[:, trial % 4] = np.array([9.0, 7.0])  # near-boundary softmax output
        G = latent_gradient(Z, model)
        G_fd = np.zeros_like(Z)
        h = 1e-5
        for i in range(2):
            for j in range(4):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += h
                Zm[i, j] -= h
                G_fd[i, j] = (
                    latent_neg_log_posterior(Zp, model) - latent_neg_log_posterior(Zm, model)
                ) / (2 * h)
        worst = max(worst, float(np.linalg.norm(G - G_fd) / np.linalg.norm(G_fd)))
    ok = worst < 1e-5
    report(4, ok, f"max relative error {worst:.2e}")


def test_criterion_05a_prior_target_moments():
    grid = sio.make_grid(3, 1)
    kernel = KernelSpec(length_scale=2.0)
    gram = build_gram(grid, kernel)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    S, _ = builtin_endmembers(16, 3)
    model = PosteriorModel(S, Observations(np.zeros((16, 3)), np.inf), spec, gram)
    # thinning of 600 steps clears the slowest spatial mode's relaxation
    # time (~450 steps at this step size), leaving kept-lag correlation
    # around 0.05; the SE tolerances carry a 1.1 margin for the residual
    cfg = SamplerConfig(
        step_size=0.01, n_steps=50_000 + 600 * 2500, burn_in=50_000, thinning=600, seed=5
    )
    chain = mirror_langevin(model, cfg)
    Z = geometry.ilr(np.swapaxes(chain.abundances, 1, 2))  # (M, N, P-1)
    Zs = np.swapaxes(Z, 1, 2).reshape(chain.n_samples, -1)  # (M, 2*3) dim-major
    M = len(Zs)
    target = np.kron(spec.sigma_a2 * np.eye(2), gram.matrix)
    mean_dev = float(np.max(np.abs(Zs.mean(axis=0))))
    mean_tol = 3.0 * np.sqrt(np.max(np.diag(target)) / M) * 1.1
    emp = np.cov(Zs.T)
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / M)
    cov_ratio = float(np.max(np.abs(emp - target) / se))
    ok = mean_dev < mean_tol and cov_ratio <= 3.3
    report(
        "5a",
        ok,
        f"latent mean dev {mean_dev:.3f} (tol {mean_tol:.3f}), cov max |err|/SE {cov_ratio:.2f}",
    )


def test_criterion_05b_quadrature_target():
    S, _ = builtin_endmembers(32, 2)
    grid = np.array([[0.0, 0.0]])
    kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=2, sigma_a2=1.0, kernel=kernel)
    res = synth_generate(S, grid, spec, snr_db=15.0, rng=7, abundances=np.array([[0.65], [0.35]]))
    gram = build_gram(grid, kernel)
    model = PosteriorModel(S, Observations(res.X, res.sigma2), spec, gram)

    M = 100_000
    cfg = SamplerConfig(step_size=5e-4, n_steps=M + 20_000, burn_in=20_000, seed=11)
    chain = mirror_langevin(model, cfg)
    zs = geometry.ilr(np.swapaxes(chain.abundances, 1, 2))[:, 0, 0]

    # quadrature oracle for the 1-D pushforward posterior; bin masses come
    # from the interpolated CDF so the comparison grid resolves the target
    from scipy.integrate import cumulative_trapezoid

    zg = np.linspace(-6.0, 6.0, 16001)
    a_g = geometry.ilr_inv(zg[:, None])
    resid = res.X[:, 0][None, :] - a_g @ S.T
    U = zg**2 / (2.0 * spec.sigma_a2) + np.sum(resid**2, axis=1) / (2.0 * res.sigma2)
    dens = np.exp(-(U - U.min()))
    dens /= np.trapezoid(dens, zg)
    zmean = np.trapezoid(zg * dens, zg)
    zstd = np.sqrt(np.trapezoid((zg - zmean) ** 2 * dens, zg))
    cdf = np.concatenate([[0.0], cumulative_trapezoid(dens, zg)])

    edges = np.linspace(zmean - 5.0 * zstd, zmean + 5.0 * zstd, 41)
    p_bin = np.diff(np.interp(edges, zg, cdf))
    p_hat, _ = np.histogram(zs, bins=edges)
    p_hat = p_hat / len(zs)
    outside_chain = float(np.mean(zs < edges[0]) + np.mean(zs > edges[-1]))
    outside_quad = 1.0 - p_bin.sum()
    tv = 0.5 * (np.abs(p_hat - p_bin).sum() + abs(outside_chain - outside_quad))
    ok = tv < 0.05
    report("5b", ok, f"latent TV distance {tv:.4f} at M={M}")


def test_criterion_05c_cross_sampler_agreement():
    S, _ = builtin_endmembers(64, 3)
    grid = np.array([[0.0, 0.0]])
    kernel = KernelSpec(kind="dirac")
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    res = synth_generate(
        S, grid, spec, snr_db=25.0, rng=1, abundances=np.array([[0.5], [0.3], [0.2]])
    )
    gram = build_gram(grid, kernel)
    model = PosteriorModel(S, Observations(res.X, res.sigma2), spec, gram)

    cfg_m = SamplerConfig(step_size=1e-3, n_steps=60_000, burn_in=10_000, thinning=25, seed=3)
    cfg_p = SamplerConfig(step_size=1e-4, n_steps=60_000, burn_in=10_000, thinning=25, seed=4)
    xm = mirror_langevin(model, cfg_m).abundances[:, :, 0]
    xp = projected_ula(model, cfg_p).abundances[:, :, 0]
    se = np.hypot(
        xm.std(axis=0, ddof=1) / np.sqrt(len(xm)), xp.std(axis=0, ddof=1) / np.sqrt(len(xp))
    )
    ratio = float(np.max(np.abs(xm.mean(axis=0) - xp.mean(axis=0)) / se))
    ok = ratio <= 3.0
    report("5c", ok, f"max |mean diff|/SE {ratio:.2f} over components")


def test_criterion_05d_constraints(fig2_runs):
    result, _, _ = fig2_runs
    samples = result["chain"].abundances
    interior = bool(np.all(samples > 0.0))
    sums_ok = bool(np.max(np.abs(samples.sum(axis=1) - 1.0)) < 1e-9)

    # projected ULA run on a small problem
    S, _ = builtin_endmembers(32, 3)
    grid = sio.make_grid(2, 2)
    kernel = KernelSpec(length_scale=2.0)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=kernel)
    res = synth_generate(S, grid, spec, snr_db=20.0, rng=9)
    model = PosteriorModel(S, Observations(res.X, res.sigma2), spec, build_gram(grid, kernel))
    chain_p = projected_ula(model, SamplerConfig(step_size=5e-5, n_steps=2000, burn_in=400, seed=2))
    on_simplex = bool(
        np.all(chain_p.abundances >= 0.0)
        and np.max(np.abs(chain_p.abundances.sum(axis=1) - 1.0)) < 1e-12
    )
    ok = interior and sums_ok and on_simplex
    report("5d", ok, f"mirror interior {interior}, sums {sums_ok}, projected on-simplex {on_simplex}")


def test_criterion_06_fig2_analogue(fig2_runs):
    result, _, _ = fig2_runs
    region = result["hdr"]
    gm, em = result["geodesic_mean"], result["euclidean_mean"]
    interior = bool(np.all(gm > 0.0) and np.all(em > 0.0) and np.all(gm < 1.0) and np.all(em < 1.0))
    n_samples = result["samples"].shape[0]
    ok = region.n_components >= 2 and interior and n_samples == 10_000
    report(
        6,
        ok,
        f"{region.n_components} HDR components at alpha={repro.FIG2_ALPHA}, "
        f"means interior {interior}, M={n_samples}",
    )


def test_criterion_07_image_analogue(samson_runs):
    result, _, _, elapsed = samson_runs
    tv = result["map_total_variation"]
    smoother = (
        tv["geodesic_std_spatial"] < tv["geodesic_std_dirac"]
        and tv["euclidean_std_spatial"] < tv["euclidean_std_dirac"]
    )
    st = result["region_stats"]["spatial"]
    paired = (
        st["geodesic_std_pure"] > st["geodesic_std_mixed"]
        and st["euclidean_std_pure"] < st["euclidean_std_mixed"]
    )
    nonempty = result["pure"].sum() > 0 and result["mixed"].sum() > 0
    ok = smoother and paired and nonempty and elapsed < 900.0
    report(
        7,
        ok,
        f"TV spatial<dirac {smoother}, pure/mixed inequality {paired}, "
        f"run {elapsed:.0f}s (< 900s)",
    )


def test_criterion_08_hdr_coverage():
    spec = PriorSpec(P=3, sigma_a2=0.25)
    samples = pixel_prior_sample(spec, 100_000, rng=8)
    train, held = samples[:50_000], samples[50_000:]
    devs = {}
    for alpha in (0.05, 0.1, 0.32):
        region = hdr(train, alpha, bins=64)
        covered = float(region.contains(held).mean())
        devs[alpha] = covered - (1.0 - alpha)
    ok = all(abs(d) <= 0.02 for d in devs.values())
    report(8, ok, "coverage deviation " + ", ".join(f"a={a}: {d:+.4f}" for a, d in devs.items()))


def test_criterion_09_interpolation():
    rng = np.random.default_rng(10)
    grid = sio.make_grid(6, 6)
    kernel = KernelSpec(length_scale=2.5)
    spec = PriorSpec(P=3, sigma_a2=0.7, kernel=kernel)
    gram = build_gram(grid, kernel)

    obs_idx = np.array([0, 5, 14, 21, 28, 35])
    values = rng.dirichlet(np.ones(3), size=len(obs_idx)).T
    A, var = interpolate(PartialObservation(obs_idx, values), spec, grid)
    reproduce = float(np.max(np.abs(A[:, obs_idx] - values)))

    from simplexuq.prior import gp_prior_sample

    draw = gp_prior_sample(spec, gram, 1, rng=11)[0]
    A_full, _ = interpolate(PartialObservation(np.arange(36), draw), spec, grid)
    round_trip = float(np.max(np.abs(A_full - draw)))

    # dense GP-regression oracle per latent dimension
    nugget = 0.03
    obs = PartialObservation(obs_idx, values, nugget=nugget)
    A_n, var_n = interpolate(obs, spec, grid)
    U = grid[obs_idx]
    C_oo = spec.sigma_a2 * kernel(U, U) + nugget * np.eye(len(obs_idx))
    C_so = spec.sigma_a2 * kernel(grid, U)
    Cinv = np.linalg.inv(C_oo)
    mean_oracle = C_so @ Cinv @ geometry.ilr(values.T)
    var_oracle = spec.sigma_a2 * kernel.sigma_k2 - np.einsum("ij,jk,ik->i", C_so, Cinv, C_so)
    oracle_dev = float(
        max(
            np.max(np.abs(geometry.ilr(A_n.T) - mean_oracle)),
            np.max(np.abs(var_n - var_oracle)),
        )
    )
    ok = reproduce < 1e-8 and round_trip < 1e-8 and oracle_dev < 1e-10
    report(
        9,
        ok,
        f"reproduce {reproduce:.2e}, full round-trip {round_trip:.2e}, oracle {oracle_dev:.2e}",
    )


def _dirs_byte_identical(d1, d2):
    names1 = sorted(os.listdir(d1))
    names2 = sorted(os.listdir(d2))
    if names1 != names2:
        return False, "file lists differ"
    for name in names1:
        if not filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name), shallow=False):
            return False, f"{name} differs"
    return True, f"{len(names1)} files identical"


def test_criterion_10_reproducibility(fig2_runs, samson_runs):
    _, f1, f2 = fig2_runs
    _, s1, s2, _ = samson_runs
    ok_f, msg_f = _dirs_byte_identical(str(f1), str(f2))
    ok_s, msg_s = _dirs_byte_identical(str(s1), str(s2))
    report(10, ok_f and ok_s, f"fig2: {msg_f}; samson-synthetic: {msg_s}")

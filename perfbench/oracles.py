"""Reference computations that share no code with the program.

Each oracle builds its own kernel matrix from the formula and its own
log-ratio charts, so a fault in `simplexuq.prior`, `simplexuq.geometry` or
`simplexuq.interp` cannot cancel out of a comparison. Every check returns a
list of failure messages; an empty list means the check passed.
"""

import numpy as np


def helmert(P):
    """Orthonormal basis of the zero-sum hyperplane, columns built directly."""
    H = np.zeros((P, P - 1))
    for j in range(1, P):
        H[:j, j - 1] = 1.0 / np.sqrt(j * (j + 1.0))
        H[j, j - 1] = -np.sqrt(j / (j + 1.0))
    return H


def clr(a):
    la = np.log(a)
    return la - la.mean(axis=-1, keepdims=True)


def softmax_cols(W):
    """Column-wise softmax of a (P, N) matrix."""
    E = np.exp(W - W.max(axis=0, keepdims=True))
    return E / E.sum(axis=0, keepdims=True)


def pixel_coords(width, height):
    """Row-major pixel centres (x, y)."""
    idx = np.arange(width * height)
    return np.column_stack([idx % width, idx // width]).astype(float)


def exp_kernel(U1, U2, length_scale):
    """exp(-|u - v| / length_scale), unit amplitude."""
    d = np.sqrt(((U1[:, None, :] - U2[None, :, :]) ** 2).sum(axis=-1))
    return np.exp(-d / length_scale)


def _close(name, got, want, rtol, atol):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    err = np.abs(got - want)
    lim = atol + rtol * np.abs(want)
    if not np.all(err <= lim):
        k = int(np.argmax(err - lim))
        return [f"{name}: max excess at {k}: got {got.ravel()[k]!r}, want {want.ravel()[k]!r}"]
    return []


def check_samples(A):
    """Kept samples (M, P, N) are strictly interior and sum to 1 within 1e-9."""
    out = []
    if not np.all(np.isfinite(A)) or not np.all(A > 0.0):
        out.append("kept samples: a component is not strictly positive")
    worst = float(np.max(np.abs(A.sum(axis=1) - 1.0)))
    if worst > 1e-9:
        out.append(f"kept samples: column sums off by {worst:.3e}")
    return out


def latent_potential(Z, K, S, X, sigma2, sigma_a2):
    """tr(Z K^-1 Z^T) / (2 sigma_a2) + |X - S softmax(H Z)|^2 / (2 sigma2)."""
    H = helmert(S.shape[1])
    quad = np.sum(Z.T * np.linalg.solve(K, Z.T)) / (2.0 * sigma_a2)
    R = S @ softmax_cols(H @ Z) - X
    return quad + np.sum(R * R) / (2.0 * sigma2)


def check_potential_and_gradient(Z, K, S, X, sigma2, sigma_a2, potential, gradient, rng):
    """Program potential against the oracle; gradient against central differences.

    ``potential`` and ``gradient`` are the program's functions of Z. The
    directional derivative of ``potential`` along three random unit
    directions, by central differences with h = 1e-5, must match
    <gradient, V> within 1e-5 of the gradient's norm.
    """
    out = _close("latent potential", potential(Z), latent_potential(Z, K, S, X, sigma2, sigma_a2), 1e-9, 0.0)
    G = gradient(Z)
    gnorm = float(np.linalg.norm(G))
    h = 1e-5
    for i in range(3):
        V = rng.standard_normal(Z.shape)
        V /= np.linalg.norm(V)
        fd = (potential(Z + h * V) - potential(Z - h * V)) / (2.0 * h)
        an = float(np.sum(G * V))
        if abs(fd - an) > 1e-5 * max(gnorm, 1.0):
            out.append(f"gradient direction {i}: analytic {an!r} vs central difference {fd!r}")
    return out


def check_summary(A, summary):
    """`summarize_image` moments against a clr recomputation from the chain."""
    C = clr(np.swapaxes(A, 1, 2))  # (M, N, P)
    g = np.exp(C.mean(axis=0))
    geo_mean = (g / g.sum(axis=1, keepdims=True)).T
    geo_tv = C.var(axis=0, ddof=1).sum(axis=1)
    return (
        _close("geodesic mean", summary.geodesic_mean, geo_mean, 1e-10, 1e-13)
        + _close("geodesic total variance", summary.geodesic_total_variance, geo_tv, 1e-9, 1e-13)
        + _close("euclidean mean", summary.euclidean_mean, A.mean(axis=0), 1e-12, 1e-14)
        + _close(
            "euclidean total variance",
            summary.euclidean_total_variance,
            A.var(axis=0, ddof=1).sum(axis=0),
            1e-9,
            1e-14,
        )
    )


# The posterior mean must be at least this much closer to the truth than the
# uniform image, in mean Aitchison distance over pixels.
TRUTH_MARGIN = 0.7


def check_closer_than_uniform(geo_mean, truth):
    """Mean Aitchison distance to the truth: posterior mean vs the uniform image."""
    ct = clr(truth.T)
    d_mean = np.linalg.norm(clr(geo_mean.T) - ct, axis=1).mean()
    d_unif = np.linalg.norm(ct, axis=1).mean()
    if not d_mean <= TRUTH_MARGIN * d_unif:
        return [f"geodesic mean is {d_mean:.4f} from the truth, uniform image {d_unif:.4f}"]
    return []


def pixel_posterior_grid(S, x, sigma2, sigma_a2, n=401):
    """Exact single-pixel posterior on an ilr quadrature grid.

    The latent density is exp(-|z|^2 / (2 sigma_a2) - |x - S softmax(H z)|^2
    / (2 sigma2)); the chart Jacobian cancels in latent coordinates. A coarse
    pass finds the box holding all points within e^-40 of the mode; the fine
    grid covers that box. Returns (weights summing to 1, compositions (n*n, P)).
    """
    H = helmert(S.shape[1])

    def logp(z):
        a = softmax_cols(H @ z.T).T
        r = a @ S.T - x
        return -np.sum(z * z, axis=1) / (2.0 * sigma_a2) - np.sum(r * r, axis=1) / (2.0 * sigma2), a

    def mesh(lo, hi, m):
        axes = [np.linspace(lo[d], hi[d], m) for d in range(len(lo))]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))

    wide = 6.0 * np.sqrt(sigma_a2) + 5.0
    z = mesh([-wide, -wide], [wide, wide], 301)
    lp, _ = logp(z)
    support = z[lp > lp.max() - 40.0]
    z = mesh(support.min(axis=0) - 0.5, support.max(axis=0) + 0.5, n)
    lp, a = logp(z)
    w = np.exp(lp - lp.max())
    return w / w.sum(), a


def check_pixel_posterior(samples, ess_by_part, region, alpha, S, x, sigma2, sigma_a2):
    """Chain mean and HDR mass against ilr quadrature of the exact posterior.

    The Euclidean mean of each part must lie within 5 Monte-Carlo standard
    errors (posterior std / sqrt(ESS of that part)) of the quadrature mean.
    The exact posterior mass of the estimated HDR must lie within
    3 * sqrt(alpha (1 - alpha) / ESS) of 1 - alpha, ESS being the median
    over parts.
    """
    w, a = pixel_posterior_grid(S, x, sigma2, sigma_a2)
    exact_mean = w @ a
    se = samples.std(axis=0, ddof=1) / np.sqrt(ess_by_part)
    out = []
    dev = np.abs(samples.mean(axis=0) - exact_mean)
    if not np.all(dev <= 5.0 * se):
        out.append(f"posterior mean off by {dev} with standard errors {se}")
    mass = float(w @ region.contains(a))
    tol = 3.0 * np.sqrt(alpha * (1.0 - alpha) / np.median(ess_by_part))
    if not abs(mass - (1.0 - alpha)) <= tol:
        out.append(f"HDR exact mass {mass:.4f}, target {1 - alpha:.2f} +- {tol:.4f}")
    if region.n_components < 2:
        out.append(f"HDR has {region.n_components} component(s), expected at least 2")
    return out


def check_gap_fill(A_obs, coords, idx, check_idx, sigma_a2, length_scale, nugget, A, var):
    """GP conditioning by `np.linalg.solve` on the observed block.

    Compares the latent mean (ilr of the returned image) and the predictive
    variance at ``check_idx`` within 1e-8; with zero nugget the observed
    pixels must come back unchanged within 1e-8.
    """
    P = A_obs.shape[0]
    H = helmert(P)
    U = coords[idx]
    V = coords[check_idx]
    C_oo = sigma_a2 * exp_kernel(U, U, length_scale) + nugget * np.eye(len(idx))
    C_vo = sigma_a2 * exp_kernel(V, U, length_scale)
    Z_obs = clr(A_obs.T) @ H
    mean = C_vo @ np.linalg.solve(C_oo, Z_obs)
    v = sigma_a2 - np.sum(C_vo * np.linalg.solve(C_oo, C_vo.T).T, axis=1)
    out = _close(f"nugget {nugget}: latent mean", clr(A[:, check_idx].T) @ H, mean, 0.0, 1e-8)
    out += _close(f"nugget {nugget}: predictive variance", var[check_idx], np.maximum(v, 0.0), 0.0, 1e-8)
    if nugget == 0.0:
        out += _close("observed pixels", A[:, idx], A_obs, 0.0, 1e-8)
    return out

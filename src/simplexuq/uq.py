"""Posterior summaries and constraint-aware uncertainty diagnostics.

Means and variances come in two flavors. Euclidean statistics treat
abundance vectors as points of R^P: interpretable as fractions but blind
to the simplex geometry. Geodesic statistics are computed in ilr
coordinates, where the constraint-respecting metric is Euclidean: the
geodesic mean is the softmax of the latent average and the geodesic total
variance the trace of the latent covariance. Highest-density regions are
estimated from sample densities: sort the estimated density of every
sample, threshold at the floor(alpha M)-th smallest and keep the cells
above the threshold; multiple connected components reveal multimodality.

Density estimators: a histogram on the triangular barycentric tiling
(P = 2 or 3), or a Gaussian KDE in latent space with the exact chart
Jacobian (P = 4, where simplex histograms get too sparse). Densities are
always with respect to Lebesgue measure on the first P-1 components,
matching the convention of the prior log-densities. Region export is
limited to P <= 4; scalar statistics work for any P.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry

ESTIMATORS = ("barycentric-histogram", "latent-kde")


def _as_samples(samples, min_samples=1, interior=True):
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2:
        raise ValueError("samples must be (M, P)")
    if a.shape[0] < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {a.shape[0]}")
    return geometry.check_interior(a, name="samples") if interior else a


def _moments(samples, basis=None, geodesic=True):
    """Moments over axis 0 of (M, ..., P) compositions.

    Returns the Euclidean mean (..., P), the geodesic mean (..., P), the
    Euclidean and geodesic total variances (...) and the ilr variances
    (..., P-1). Variances use ddof=1 and are zero for a single sample.
    With ``geodesic=False`` the three geodesic entries are None and no
    logarithm is taken, so compositions on the boundary are allowed.
    """
    M = samples.shape[0]
    eu_mean = samples.mean(axis=0)
    eu_var = samples.var(axis=0, ddof=1).sum(axis=-1) if M > 1 else np.zeros(samples.shape[1:-1])
    if not geodesic:
        return eu_mean, None, eu_var, None, None
    z = geometry.ilr(samples, basis)
    geo_mean = geometry.ilr_inv(z.mean(axis=0), basis)
    ilr_var = z.var(axis=0, ddof=1) if M > 1 else np.zeros(z.shape[1:])
    return eu_mean, geo_mean, eu_var, ilr_var.sum(axis=-1), ilr_var


def euclidean_mean(samples):
    """Componentwise average; stays on the simplex by convexity."""
    return _moments(_as_samples(samples, interior=False), geodesic=False)[0]


def geodesic_mean(samples, basis=None):
    """Softmax of the latent average: the minimum squared geodesic
    distance estimator, always strictly interior."""
    return _moments(_as_samples(samples), basis)[1]


def geodesic_total_variance(samples, basis=None):
    """Mean squared geodesic distance to the geodesic mean, 1/(M-1) norm.

    Equals the trace of the empirical latent covariance.
    """
    return float(_moments(_as_samples(samples, min_samples=2), basis)[3])


def ilr_componentwise_variances(samples, basis=None):
    """Diagonal of the latent covariance; sums to the geodesic total variance."""
    return _moments(_as_samples(samples, min_samples=2), basis)[4]


def euclidean_total_variance(samples):
    """Trace of the P x P empirical covariance of the raw abundances (ddof=1)."""
    return float(_moments(_as_samples(samples, min_samples=2, interior=False), geodesic=False)[2])


# ---------------------------------------------------------------------------
# barycentric grids
# ---------------------------------------------------------------------------


class BarycentricGrid:
    """Triangular tiling of the 2-simplex (or interval partition for P=2).

    For P=3 with resolution B, scaling a composition by B and taking floors
    assigns it to an upward cell (fractional parts sum to 1) or a downward
    cell (they sum to 2); the two families exactly tile the simplex with
    B^2 cells of equal area 1/(2 B^2) in the (a1, a2) plane. For P=2 the
    cells are B equal sub-intervals of a1.
    """

    def __init__(self, P, bins):
        if P not in (2, 3):
            raise ValueError("barycentric histograms support P = 2 or 3 only")
        if bins < 1:
            raise ValueError("bins must be >= 1")
        self.P = P
        self.bins = bins
        if P == 2:
            self.n_cells = bins
            self.cell_measure = 1.0 / bins
        else:
            # upward cells indexed 0..n_up-1, downward cells after
            self.n_up = bins * (bins + 1) // 2
            self.n_cells = bins * bins
            self.cell_measure = 1.0 / (2.0 * bins * bins)
            ii, jj = np.meshgrid(np.arange(bins), np.arange(bins), indexing="ij")
            up = (ii + jj <= bins - 1).ravel()
            dn = (ii + jj <= bins - 2).ravel()
            self._up_flat = np.flatnonzero(up)
            self._dn_flat = np.flatnonzero(dn)
            self._up_rank = np.full(bins * bins, -1)
            self._up_rank[self._up_flat] = np.arange(self.n_up)
            self._dn_rank = np.full(bins * bins, -1)
            self._dn_rank[self._dn_flat] = np.arange(len(self._dn_flat))

    def cell_of(self, a):
        """Cell index of each composition, shape (M,)."""
        a = np.asarray(a, dtype=float)
        B = self.bins
        if self.P == 2:
            return np.minimum((a[:, 0] * B).astype(int), B - 1)
        f = a[:, :2] * B
        ij = np.minimum(f.astype(int), B - 1)
        frac_sum = np.rint(B - ij.sum(axis=1) - np.floor(a[:, 2] * B)).astype(int)
        # frac parts of (a1, a2, a3) scaled by B sum to 1 (upward) or 2 (downward)
        flat = ij[:, 0] * B + ij[:, 1]
        up_idx = self._up_rank[flat]
        dn_idx = self._dn_rank[flat]
        down = (frac_sum >= 2) & (dn_idx >= 0)
        return np.where(down, self.n_up + dn_idx, up_idx)

    def cell_vertices(self, cell):
        """Barycentric vertices (3, P) of one cell (P=3) or interval endpoints (P=2)."""
        B = self.bins
        if self.P == 2:
            lo = cell / B
            hi = (cell + 1) / B
            return np.array([[lo, 1.0 - lo], [hi, 1.0 - hi]])
        if cell < self.n_up:
            flat = self._up_flat[cell]
            i, j = divmod(flat, B)
            verts = np.array([[i, j], [i + 1, j], [i, j + 1]], dtype=float) / B
        else:
            flat = self._dn_flat[cell - self.n_up]
            i, j = divmod(flat, B)
            verts = np.array([[i + 1, j], [i, j + 1], [i + 1, j + 1]], dtype=float) / B
        return np.column_stack([verts, 1.0 - verts.sum(axis=1)])

    def cell_centers(self, cells):
        """Barycentric centroids of the given cells, shape (len(cells), P)."""
        return np.array([self.cell_vertices(c).mean(axis=0) for c in np.atleast_1d(cells)])

    def counts(self, a):
        cells = self.cell_of(a)
        return np.bincount(cells, minlength=self.n_cells), cells

    def n_components(self, active):
        """Connected components of a set of cells under edge adjacency."""
        active = np.asarray(active, dtype=bool)
        if not active.any():
            return 0
        if self.P == 2:
            return int(np.sum(active & ~np.concatenate([[False], active[:-1]])))
        # union-find over up/down triangle edge adjacency
        parent = np.arange(self.n_cells)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        B = self.bins
        for d_rank, flat in enumerate(self._dn_flat):
            d_cell = self.n_up + d_rank
            if not active[d_cell]:
                continue
            i, j = divmod(flat, B)
            # a downward triangle shares edges with up-cells (i+1,j), (i,j+1), (i,j)
            for ui, uj in ((i + 1, j), (i, j + 1), (i, j)):
                u_rank = self._up_rank[ui * B + uj]
                if u_rank >= 0 and active[u_rank]:
                    union(d_cell, u_rank)
        roots = {find(c) for c in np.flatnonzero(active)}
        return len(roots)


@dataclass(frozen=True)
class HdrResult:
    """Highest-density region estimate at level alpha.

    ``region_cells`` indexes the estimator's cells (histogram cells, or
    latent evaluation-grid cells for the KDE estimator); ``coverage`` is
    the in-sample fraction with density >= threshold, which is at least
    1 - alpha - 1/M by construction (ties at the threshold are included,
    erring toward conservative coverage).
    """

    alpha: float
    estimator: str
    density_at_samples: np.ndarray
    threshold: float
    region_cells: np.ndarray
    region_centers: np.ndarray
    n_components: int
    coverage: float
    grid: object = None
    _density_fn: object = None

    def density(self, points):
        """Estimated density at new compositions."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._density_fn(pts)

    def contains(self, points):
        """Membership of new compositions in the estimated region."""
        return self.density(points) >= self.threshold


def _hdr_histogram(samples, alpha, bins):
    M, P = samples.shape
    grid = BarycentricGrid(P, bins)
    counts, cells = grid.counts(samples)
    dens_cells = counts / (M * grid.cell_measure)
    dens = dens_cells[cells]
    k = int(np.floor(alpha * M))
    threshold = np.sort(dens)[max(k - 1, 0)]
    active = dens_cells >= threshold
    region = np.flatnonzero(active)
    return HdrResult(
        alpha=alpha,
        estimator="barycentric-histogram",
        density_at_samples=dens,
        threshold=float(threshold),
        region_cells=region,
        region_centers=grid.cell_centers(region),
        n_components=grid.n_components(active),
        coverage=float(np.mean(dens >= threshold)),
        grid=grid,
        _density_fn=lambda pts: dens_cells[grid.cell_of(pts)],
    )


# KDE fit-set cap and per-dimension evaluation-grid sizes: keep the cost of
# density evaluation and mode counting bounded for long chains.
_KDE_MAX_FIT = 4000
_KDE_GRID = {1: 512, 2: 64, 3: 24}


def _hdr_latent_kde(samples, alpha, bandwidth):
    # imported here: scipy.stats dominates the package's import time
    from scipy import ndimage
    from scipy.stats import gaussian_kde

    M, P = samples.shape
    z = geometry.ilr(samples)
    fit = z
    if M > _KDE_MAX_FIT:
        # deterministic thinning; chain samples are autocorrelated anyway
        fit = z[np.linspace(0, M - 1, _KDE_MAX_FIT).astype(int)]
    try:
        kde = gaussian_kde(fit.T, bw_method=bandwidth)  # Scott's rule when None
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "degenerate sample set for KDE (singular latent covariance); "
            "use the histogram estimator or add jitter"
        ) from exc

    def density(pts):
        # simplex density = latent density * |dz/da| = kde(z) / (sqrt(P) prod a)
        zp = geometry.ilr(pts)
        log_jac = np.sum(np.log(pts), axis=-1) + 0.5 * np.log(P)
        return kde(zp.T) / np.exp(log_jac)

    dens = density(samples)
    k = int(np.floor(alpha * M))
    threshold = np.sort(dens)[max(k - 1, 0)]

    # component counting on a latent evaluation grid mapped back to the simplex
    grid_size = _KDE_GRID[P - 1]
    lo = z.min(axis=0) - 1.0
    hi = z.max(axis=0) + 1.0
    axes = [np.linspace(lo[d], hi[d], grid_size) for d in range(P - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    zg = np.stack([m.ravel() for m in mesh], axis=1)
    ag = geometry.ilr_inv(zg)
    dg = density(ag)
    mask = (dg >= threshold).reshape([grid_size] * (P - 1))
    _, n_comp = ndimage.label(mask)
    region = np.flatnonzero(mask.ravel())
    return HdrResult(
        alpha=alpha,
        estimator="latent-kde",
        density_at_samples=dens,
        threshold=float(threshold),
        region_cells=region,
        region_centers=ag[region],
        n_components=int(n_comp),
        coverage=float(np.mean(dens >= threshold)),
        grid=None,
        _density_fn=density,
    )


def hdr(samples, alpha, estimator=None, bins=64, bandwidth=None):
    """Estimate the highest-density region from posterior samples.

    Parameters
    ----------
    samples : ndarray (M, P)
        Interior compositions; M must be at least 1/alpha.
    alpha : float in (0, 1)
        Confidence threshold: the region targets mass 1 - alpha.
    estimator : str, optional
        "barycentric-histogram" (default for P <= 3) or "latent-kde"
        (default for P = 4).
    bins : int
        Bins per edge for the histogram estimator.
    bandwidth : float, optional
        KDE bandwidth (Scott's rule when omitted).
    """
    samples = _as_samples(samples)
    M, P = samples.shape
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if M < 1.0 / alpha:
        raise ValueError(f"need at least {int(np.ceil(1.0 / alpha))} samples for alpha={alpha}")
    if estimator is None:
        estimator = "barycentric-histogram" if P <= 3 else "latent-kde"
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    if P > 4:
        raise ValueError("HDR region estimation is limited to P <= 4")
    if estimator == "barycentric-histogram":
        return _hdr_histogram(samples, alpha, bins)
    return _hdr_latent_kde(samples, alpha, bandwidth)


# ---------------------------------------------------------------------------
# image-level summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageSummary:
    """Stacked per-pixel statistics for a sampled image chain.

    Arrays are indexed by pixel in row-major order; ``shape`` is
    (height, width) when known, letting :meth:`as_map` reshape any
    statistic into an image.
    """

    euclidean_mean: np.ndarray  # (P, N)
    geodesic_mean: np.ndarray  # (P, N)
    euclidean_total_variance: np.ndarray  # (N,)
    geodesic_total_variance: np.ndarray  # (N,)
    ilr_variances: np.ndarray  # (P-1, N)
    shape: tuple | None = None

    @property
    def euclidean_std(self):
        return np.sqrt(self.euclidean_total_variance)

    @property
    def geodesic_std(self):
        return np.sqrt(self.geodesic_total_variance)

    def as_map(self, values):
        if self.shape is None:
            raise ValueError("summary carries no grid shape")
        return np.asarray(values).reshape(self.shape)


def summarize_image(chain, shape=None, basis=None):
    """Per-pixel UQ summary of a sample chain.

    Parameters
    ----------
    chain : SampleChain or ndarray (M, P, N)
    shape : (height, width), optional
        Raster shape for map exports.
    """
    samples = chain if isinstance(chain, np.ndarray) else chain.abundances
    if samples.ndim != 3 or samples.shape[0] < 1:
        raise ValueError("need a nonempty chain of images (M, P, N)")
    eu_mean, geo_mean, eu_var, geo_var, ilr_var = _moments(np.swapaxes(samples, 1, 2), basis)
    return ImageSummary(
        euclidean_mean=eu_mean.T,
        geodesic_mean=geo_mean.T,
        euclidean_total_variance=eu_var,
        geodesic_total_variance=geo_var,
        ilr_variances=ilr_var.T,
        shape=tuple(shape) if shape is not None else None,
    )


def map_total_variation(img):
    """Anisotropic total variation of a 2-D map: sum of |neighbor differences|."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D map")
    return float(np.abs(np.diff(img, axis=0)).sum() + np.abs(np.diff(img, axis=1)).sum())

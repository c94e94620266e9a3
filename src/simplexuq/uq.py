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

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .prior import _as_count, _as_positive

ESTIMATORS = ("barycentric-histogram", "latent-kde")


def _as_samples(samples, interior=True):
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError("samples must be a nonempty (M, P) array")
    return geometry.check_interior(a, name="samples") if interior else a


# Doubles of samples that _moments reads at a time from a stack of images.
# Its temporaries are a few times this size, so the memory it needs beyond
# its input and result does not grow with the number of samples.
_MOMENT_BLOCK_DOUBLES = 1 << 15


def _sum0(total, x):
    """total + x[0] + x[1] + ... over axis 0, added in that order (x alone
    when total is None).

    ``np.add.reduce`` over axis 0 adds the samples one after another when
    each holds more than one entry, so a sum taken a block at a time this
    way has the bits of one sum over the whole stack.
    """
    if total is not None:
        x = np.concatenate([total[None], x])
    return np.add.reduce(x, axis=0)


def _moments(samples):
    """Moments over axis 0 of (M, ..., P) compositions, for
    `summarize_image`.

    Returns the Euclidean mean (..., P), the geodesic mean (..., P), the
    Euclidean and geodesic total variances (...) and the ilr variances
    (..., P-1). Variances use ddof=1 and are zero for a single sample.

    A stack whose samples hold two or more compositions each (images) is
    read a block of at most ``_MOMENT_BLOCK_DOUBLES`` entries at a time,
    twice: once for the means, once for the squared deviations, with the
    ilr coordinates recomputed rather than kept. Each sample's ilr
    coordinates are then a product of their own and each sum adds the
    samples in order, so the results have the bits of ``mean`` and ``var``
    over the whole stack. Other stacks are read whole: their ilr product
    spans the samples, and numpy sums one-entry samples pairwise.
    """
    M = samples.shape[0]
    block = M
    if samples.ndim > 2 and samples[0].size > samples.shape[-1]:
        block = max(1, _MOMENT_BLOCK_DOUBLES // samples[0].size)
    blocks = [samples[s : s + block] for s in range(0, M, block)]

    def mean_and_var(transform):
        total = None
        for x in blocks:
            total = _sum0(total, transform(x))
        mean = total / M
        if M == 1:
            return mean, np.zeros(mean.shape)
        total = None
        for x in blocks:
            d = transform(x) - mean
            total = _sum0(total, np.square(d, out=d))
        return mean, total / (M - 1)

    eu_mean, eu_var = mean_and_var(lambda x: x)
    z_mean, ilr_var = mean_and_var(geometry.ilr)
    return eu_mean, geometry.ilr_inv(z_mean), eu_var.sum(axis=-1), ilr_var.sum(axis=-1), ilr_var


def euclidean_mean(samples):
    """Componentwise average; stays on the simplex by convexity."""
    return np.mean(_as_samples(samples, interior=False), axis=0)


def geodesic_mean(samples):
    """Softmax of the latent average: the minimum squared geodesic
    distance estimator, always strictly interior."""
    return geometry.ilr_inv(np.mean(geometry.ilr(_as_samples(samples)), axis=0))


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
        bins = _as_count(bins, "bins")
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
        """Barycentric vertices (3, 3) of one cell of a P = 3 grid."""
        if self.P != 3:
            raise ValueError("cell vertices exist for P = 3 only")
        B = self.bins
        if cell < self.n_up:
            flat = self._up_flat[cell]
            i, j = divmod(flat, B)
            verts = np.array([[i, j], [i + 1, j], [i, j + 1]], dtype=float) / B
        else:
            flat = self._dn_flat[cell - self.n_up]
            i, j = divmod(flat, B)
            verts = np.array([[i + 1, j], [i, j + 1], [i + 1, j + 1]], dtype=float) / B
        return np.column_stack([verts, 1.0 - verts.sum(axis=1)])

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


@dataclass(frozen=True, eq=False)
class HdrResult:
    """Highest-density region estimate at level alpha.

    ``region_cells`` indexes the estimator's cells (histogram cells, or
    latent evaluation-grid cells for the KDE estimator); ``coverage`` is
    the in-sample fraction with density >= threshold, which is at least
    1 - alpha - 1/M by construction (ties at the threshold are included,
    erring toward conservative coverage). Instances compare and hash by
    identity.
    """

    alpha: float
    estimator: str
    density_at_samples: np.ndarray
    threshold: float
    region_cells: np.ndarray
    n_components: int
    coverage: float
    grid: object
    _density_fn: object

    def density(self, points):
        """Estimated density at new compositions."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._density_fn(pts)

    def contains(self, points):
        """Membership of new compositions in the estimated region."""
        return self.density(points) >= self.threshold


def _hdr_histogram(samples, bins):
    """The histogram's half of `hdr`: density function, densities of the
    samples (from the counting pass) and cells, component counter, grid."""
    M, P = samples.shape
    grid = BarycentricGrid(P, bins)
    counts, cells = grid.counts(samples)
    dens_cells = counts / (M * grid.cell_measure)
    return lambda pts: dens_cells[grid.cell_of(pts)], dens_cells[cells], dens_cells, grid.n_components, grid


# KDE fit-set cap and per-dimension evaluation-grid sizes: keep the cost of
# density evaluation and mode counting bounded for long chains.
_KDE_MAX_FIT = 4000
_KDE_GRID = {1: 512, 2: 64, 3: 24}


def _hdr_latent_kde(samples, bandwidth):
    """The KDE's half of `hdr`, as `_hdr_histogram`'s: its cells are the
    points of a latent evaluation grid, and it has no barycentric grid."""
    # imported here: only this estimator needs scipy.stats and scipy.ndimage,
    # and a run that does not use it should not pay for their import
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

    grid_size = _KDE_GRID[P - 1]
    lo, hi = z.min(axis=0) - 1.0, z.max(axis=0) + 1.0
    mesh = np.meshgrid(*[np.linspace(lo[d], hi[d], grid_size) for d in range(P - 1)], indexing="ij")
    zg = np.stack([m.ravel() for m in mesh], axis=1)

    def n_components(active):
        return int(ndimage.label(active.reshape([grid_size] * (P - 1)))[1])

    return density, density(samples), density(geometry.ilr_inv(zg)), n_components, None


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
        KDE bandwidth, positive and finite (Scott's rule when omitted).
    """
    samples = _as_samples(samples)
    M, P = samples.shape
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if M < 1.0 / alpha:
        raise ValueError(f"need at least {int(np.ceil(1.0 / alpha))} samples for alpha={alpha}")
    if bandwidth is not None:
        bandwidth = _as_positive(bandwidth, "bandwidth")
    if estimator is None:
        estimator = "barycentric-histogram" if P <= 3 else "latent-kde"
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    if P > 4:
        raise ValueError("HDR region estimation is limited to P <= 4")
    if estimator == "barycentric-histogram":
        density, dens, dens_cells, n_components, grid = _hdr_histogram(samples, bins)
    else:
        density, dens, dens_cells, n_components, grid = _hdr_latent_kde(samples, bandwidth)
    k = int(np.floor(alpha * M))
    threshold = np.sort(dens)[max(k - 1, 0)]
    active = dens_cells >= threshold
    return HdrResult(
        alpha=alpha,
        estimator=estimator,
        density_at_samples=dens,
        threshold=float(threshold),
        region_cells=np.flatnonzero(active),
        n_components=n_components(active),
        coverage=float(np.mean(dens >= threshold)),
        grid=grid,
        _density_fn=density,
    )


# ---------------------------------------------------------------------------
# image-level summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ImageSummary:
    """Stacked per-pixel statistics for a sampled image chain.

    Arrays are indexed by pixel in row-major order; ``shape`` is
    (height, width) when known, letting :meth:`as_map` reshape any
    statistic into an image. Instances compare and hash by identity.
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


def summarize_image(chain, shape=None):
    """Per-pixel UQ summary of a sample chain.

    The moments are taken a block of samples at a time, each block at most
    ``_MOMENT_BLOCK_DOUBLES`` chain entries, so the memory a summary needs
    beyond its chain and its result does not grow with the chain; the
    fields have the bits of moments over the whole chain at once. A
    single-pixel chain is summarised whole.

    Parameters
    ----------
    chain : SampleChain or ndarray (M, P, N)
    shape : (height, width), optional
        Raster shape for map exports.
    """
    samples = chain if isinstance(chain, np.ndarray) else chain.abundances
    if samples.ndim != 3 or samples.shape[0] < 1:
        raise ValueError("need a nonempty chain of images (M, P, N)")
    if shape is not None and (len(shape) != 2 or math.prod(shape) != samples.shape[2]):
        raise ValueError(f"map shape {tuple(shape)} holds {math.prod(shape)} pixels, the chain {samples.shape[2]}")
    eu_mean, geo_mean, eu_var, geo_var, ilr_var = _moments(np.swapaxes(samples, 1, 2))
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

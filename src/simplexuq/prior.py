"""Simplex-valued priors: pixelwise isotropic and spatialized pushforward GP.

A latent Gaussian in ilr coordinates, mapped through the softmax, yields a
permutation-invariant prior on single compositions. Spatializing the latent
field with a separable covariance (isotropic across latent dimensions,
a spatial Gram matrix across pixels) yields a matrix-normal latent prior
whose pushforward is a simplex-valued random field. Log-densities include
their normalizing constants: the latent-space Gaussian normalizer plus the
exact chart Jacobian, so they integrate to 1 with respect to Lebesgue
measure on the first P-1 components of each pixel.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from .errors import IllConditionedKernelError

KERNEL_KINDS = ("exponential", "dirac")

# Jitter escalation policy, as multiples of the kernel amplitude sigma_k2.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# GramMatrix multiplies by a precision block of this many pixels or more
# with one symmetric dsymv per row instead of a matmul, and splits the
# precision of a lattice of this many pixels or more into its four parity
# blocks (see the GramMatrix docstring). The dsymv crossover was measured
# on a 2-core Xeon with 2 MiB of L2 per core (`lscpu -C`: 2M each, 4M over
# both), OpenBLAS, one BLAS thread; not checked with multi-threaded BLAS or
# other cache sizes.
_SYMV_MIN_PIXELS = 480

# Entries of one block of rows: an exponential kernel evaluation fills its
# result a block of rows at a time, so its scratch stays in cache and adds
# 1/64 of a 1024 x 1024 matrix to the peak.
_ROW_BLOCK_ENTRIES = 2**14

# An exponential kernel is evaluated by table lookup when the table of
# pixel offsets has at most 1/8 as many entries as the result: the table
# then adds little to the peak, and its exponentials little to the time.
_LATTICE_SHARE = 8

# Side of the panels an inverted precision block is mirrored by: a panel's
# transposed copy then writes runs of 64 contiguous entries per column.
_MIRROR_PANEL = 64


@dataclass(frozen=True)
class KernelSpec:
    """Spatial kernel configuration.

    ``exponential`` is ``sigma_k2 * exp(-||u - u'|| / length_scale)``;
    ``dirac`` is ``sigma_k2`` at zero distance and 0 elsewhere (the
    non-spatialized prior).

    The exponential kernel is evaluated with numpy alone. On a lattice
    (integer coordinates whose offsets fill a box of no more offsets than
    the result has entries) a stationary kernel takes one value per pixel
    offset (Dietrich & Newsam 1997, SIAM J. Sci. Comput. 18:1088): each
    value is computed once, into a table, and the result is filled by
    lookup. Other coordinates have their squared differences summed
    column by column. Both give every entry the bits of ``cdist``'s
    distance, scaled in the same operation order, and ``kernel(U, U)`` is
    exactly symmetric.
    """

    kind: str = "exponential"
    length_scale: float = 1.0
    sigma_k2: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        for name in ("length_scale", "sigma_k2"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        # Chained comparisons reject NaN as well as infinity.
        if not 0 < self.length_scale < np.inf:
            raise ValueError("length_scale must be positive and finite")
        if not 0 < self.sigma_k2 < np.inf:
            raise ValueError("sigma_k2 must be positive and finite")

    def __call__(self, U1, U2):
        """Cross-covariance matrix between two coordinate sets (n1, d), (n2, d)."""
        U1 = np.atleast_2d(np.asarray(U1, dtype=float))
        U2 = np.atleast_2d(np.asarray(U2, dtype=float))
        if U1.ndim != 2 or U2.ndim != 2 or U1.shape[1] != U2.shape[1] or U1.shape[1] == 0:
            raise ValueError(f"coordinate sets of shapes {U1.shape} and {U2.shape}: need (n1, d) and (n2, d)")
        if self.kind == "dirac":
            # Exact coordinate equality, as build_gram's distinctness check:
            # a distance of 1e-200 squares to zero.
            same = np.all(U1[:, None, :] == U2[None, :, :], axis=-1)
            return self.sigma_k2 * same.astype(float)
        n1, n2 = len(U1), len(U2)
        out = np.empty((n1, n2))
        rows = max(1, _ROW_BLOCK_ENTRIES // max(n2, 1))
        lattice = _lattice_offsets(U1, U2, out.size)
        if lattice is not None:
            table, P1, P2 = lattice
            self._scale_distances(table)
            idx = np.empty((min(rows, n1), n2), dtype=np.intp)
            for s in range(0, n1, rows):
                e = min(s + rows, n1)
                np.subtract(P1[s:e, None], P2, out=idx[: e - s])
                # "clip" writes into out unbuffered; no index leaves the table
                np.take(table, idx[: e - s], out=out[s:e], mode="clip")
            return out
        sq = np.empty((min(rows, n1), n2))
        for s in range(0, n1, rows):
            e = min(s + rows, n1)
            d = out[s:e]
            _sum_squared_differences(U1[s:e].T, U2.T, d, sq[: e - s])
            np.sqrt(d, out=d)
            self._scale_distances(d)
        return out

    def _scale_distances(self, d):
        """sigma_k2 * exp(-(d / length_scale)), in place: a temporary would
        be as large as d."""
        np.divide(d, self.length_scale, out=d)
        np.negative(d, out=d)
        np.exp(d, out=d)
        d *= self.sigma_k2


def _as_float(value, name):
    """float(value); ValueError for an int too large for a float, which a range check accepts."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _lattice_offsets(U1, U2, size):
    """The distance of every pixel offset of two sets of lattice coordinates.

    When every coordinate is an integer and the coordinates span s_k along
    axis k, each offset u - u' lies in a box of prod(2 s_k + 1) offsets.
    Returns the distances of that box's offsets, row-major, and intp
    positions P1 and P2 such that the offset of U1[i] from U2[j] is entry
    P1[i] - P2[j]; or None unless the coordinates are integers and the box
    has at most ``size / _LATTICE_SHARE`` offsets. Integer coordinates this
    close together differ exactly in floating point, and the squares and
    sums of those differences stay exact, so each distance is ``cdist``'s:
    the square root of the same integer.
    """
    if size == 0:
        return None
    lo = np.minimum(U1.min(axis=0), U2.min(axis=0))
    span = np.maximum(U1.max(axis=0), U2.max(axis=0)) - lo
    # NaN and infinity fail the first test, a fractional coordinate the second
    if not np.all(span <= size) or np.any(U1 != np.floor(U1)) or np.any(U2 != np.floor(U2)):
        return None
    span = span.astype(np.intp)
    width = 2 * span + 1
    if _LATTICE_SHARE * math.prod(width.tolist()) > size:
        return None
    d2 = np.zeros(1)
    for s in span:
        d2 = np.add.outer(d2, np.arange(-s, s + 1.0) ** 2).ravel()
    # row-major strides of the box; the lower corner is subtracted before the
    # cast, so coordinates beyond intp's range stay exact
    stride = np.append(np.cumprod(width[:0:-1])[::-1], 1)
    P2 = (U2 - lo).astype(np.intp) @ stride
    P1 = (U1 - lo).astype(np.intp) @ stride + span @ stride
    return np.sqrt(d2, out=d2), P1, P2


def _sum_squared_differences(C1, C2, out, sq):
    """out[i, j] = sum over k of (C1[k, i] - C2[k, j])**2, added coordinate by
    coordinate in ``cdist``'s order; ``sq`` is scratch of out's shape."""
    np.subtract(C1[0][:, None], C2[0], out=out)
    np.square(out, out=out)
    for a, b in zip(C1[1:], C2[1:]):
        np.subtract(a[:, None], b, out=sq)
        np.square(sq, out=sq)
        out += sq


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Positive-definite spatial Gram matrix K_U, held as its Cholesky factor.

    ``chol`` is one of two kinds of factor:

    - for a dense kernel (exponential), the lower factor, an (N, N) array
      stored column-major; the one ``build_gram`` returns is the kernel
      matrix itself, factored in place, and is kept without a copy;
    - for a diagonal kernel (dirac), the (N,) vector of square roots of the
      diagonal, so memory and the time of each solve are O(N).

    ``chol`` serves prior draws, initial states and ``log_det``. A diagonal
    solve divides the right-hand side by ``chol`` twice, so a unit diagonal
    returns it unchanged. A dense solve multiplies by the precision
    K_U^{-1} instead of running two triangular solves. The precision is
    formed from ``chol`` on the first solve, so an operator used only for
    prior draws never pays for it, and is then kept as full, symmetric,
    C-ordered, read-only blocks. ``matrix``, the Gram matrix itself (with
    the kernel amplitude sigma_k2 on its diagonal), is not stored: each
    access recomputes it as ``chol @ chol.T``, or as the (N,) diagonal
    ``chol * chol``. ``applied_jitter`` records the diagonal boost that
    made the Cholesky succeed (0.0 when none was needed). Instances are
    immutable and safe to share across threads (two threads that solve
    first may both form the same precision); they compare and hash by
    identity.

    On the row-major w x h lattice of ``io.make_grid`` (``build_gram``
    records it), a kernel that depends only on |dx| and |dy| commutes with
    the x- and y-reflections of the lattice, so K_U is block-diagonal in
    the four even/odd parity classes of the two reflections: the
    centrosymmetric splitting of Cantoni & Butler 1976 (Linear Algebra
    Appl. 13:275), once per axis. For a basis V_c of class c, built from
    unnormalised +-1 folds of mirrored pixels (the centre row or column of
    an odd side is even), K_U^{-1} = sum_c V_c B_c^{-1} V_c^T with
    B_c = V_c^T K_U V_c = diag(|orbit|) (K_U V_c)[representatives], the
    pixels x < w/2, y < h/2 (rounded up), whose orbits hold 1, 2 or 4
    pixels. From ``_SYMV_MIN_PIXELS`` pixels on, a lattice operator keeps
    these four blocks, a quarter of the dense precision's bytes, formed in
    O(N^2) from the first row of L L^T (the kernel at every offset, jitter
    included), and a product folds the right-hand side into the classes,
    multiplies each by its block and unfolds the result. Any other dense
    operator keeps one block, V = I, whose factor is ``chol`` itself.

    A product with a block reads the whole block for a few flops per
    entry, so its cost is memory traffic. From ``_SYMV_MIN_PIXELS`` pixels
    of a block on, where it outgrows a core's L2 cache, each row is
    multiplied by BLAS ``dsymv``, which reads one triangle: half the
    traffic, and half the time for a 1024-pixel block. Below that the
    block stays in cache, and one ``matmul`` beats a ``dsymv`` call per
    row, with its call overhead and slower kernel.
    """

    chol: np.ndarray
    applied_jitter: float = 0.0
    # (width, height) of the row-major lattice the pixels fill, or None
    _lattice: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        chol = np.asfortranarray(self.chol, dtype=float)
        if chol.ndim not in (1, 2) or chol.shape != (len(chol),) * chol.ndim or not np.all(np.isfinite(chol)):
            raise ValueError("Cholesky factor must be a finite square matrix or vector")
        if not np.all((chol if chol.ndim == 1 else np.diag(chol)) != 0.0):
            raise ValueError("Cholesky factor must have a nonzero diagonal")
        # Solves and log_det read the lower triangle only, so a nonzero entry
        # above the diagonal would make them disagree with `matrix`. Column
        # by column: chol[:j, j] is contiguous in the F-ordered factor.
        if chol.ndim == 2 and any(chol[:j, j].any() for j in range(1, len(chol))):
            raise ValueError("Cholesky factor must be lower triangular")
        if self._lattice is not None and (chol.ndim != 2 or math.prod(self._lattice) != len(chol)):
            raise ValueError(f"a {self._lattice} lattice for a factor of shape {chol.shape}")
        object.__setattr__(self, "chol", chol)
        chol.setflags(write=False)

    @cached_property
    def _blocks(self):
        """K_U^{-1} as (lattice, blocks): the lattice the solves fold over
        (None for the one class V = I) and each class's B_c^{-1}, full,
        symmetric, C-ordered and read-only."""
        from ._lapack import dpotrf, dpotri

        n = len(self.chol)
        lattice = self._lattice if n >= _SYMV_MIN_PIXELS else None
        if lattice is None:
            # B = K_U, whose factor is chol; dpotri copies the read-only factor
            factors = [self.chol]
        else:
            w, h = lattice
            we, he = (w + 1) // 2, (h + 1) // 2
            shapes = [(a, b) for a in (we, w // 2) for b in (he, h // 2)]
            sizes = [a * b for a, b in shapes]
            # One allocation of N^2/4 entries beside the factor holds the blocks, and is freed whole.
            ends = np.cumsum([m * m for m in sizes])
            store = np.zeros(ends[-1])
            factors = [store[e - m * m : e].reshape(m, m, order="F") for m, e in zip(sizes, ends)]
            # Row 0 of L L^T holds K_U at each |dy|, |dx|; mirrored, pixel (x, y)'s row is rows[y, x].
            corner = (self.chol[0, 0] * self.chol[:, 0]).reshape(h, w)
            table = corner[abs(np.arange(1 - h, h))][:, abs(np.arange(1 - w, w))]
            rows = np.lib.stride_tricks.sliding_window_view(table, (h, w))[::-1, ::-1]
            # B_c = diag(|orbit|) (K_U V_c)[representatives]; the even fold of ones counts each orbit.
            orbit = _fold(np.ones(n), lattice)[0].reshape(we, he, 1, 1)
            for x in range(we):
                parts = _fold((rows[:he, x] * orbit[x]).reshape(he, n), lattice)
                for B, part, (a, b) in zip(factors, parts, shapes):
                    if x < a:
                        B.T.reshape(a, b, a * b)[x] = part[:b]
            for B in factors:
                if B.size and dpotrf(B, lower=1, overwrite_a=1)[1] != 0:
                    raise IllConditionedKernelError(
                        f"a {len(B)}x{len(B)} block of the precision is not positive definite"
                    )
        blocks = []
        upper = np.tri(_MIRROR_PANEL, k=-1, dtype=bool).T
        for F in factors:
            inv = dpotri(F, lower=1, overwrite_c=F.flags.writeable)[0] if F.size else F
            # dpotri fills the lower triangle; mirror it into the upper one in
            # place, a panel of rows at a time: the diagonal tile by one masked
            # copy, the rest of the panel by one transposed copy. The symmetric
            # F-ordered array, transposed, is C-ordered.
            for p in range(0, len(inv), _MIRROR_PANEL):
                e = min(p + _MIRROR_PANEL, len(inv))
                tile = inv[p:e, p:e]
                np.copyto(tile, tile.T.copy(), where=upper[: e - p, : e - p])
                inv[p:e, e:] = inv[e:, p:e].T
            inv.setflags(write=False)
            blocks.append(inv.T)
        return lattice, blocks

    @property
    def matrix(self):
        """K_U, recomputed from the factor on each access; the (N,) diagonal
        for a diagonal factor."""
        if self.chol.ndim == 1:
            return self.chol * self.chol
        return self.chol @ self.chol.T

    @property
    def n_pixels(self):
        return self.chol.shape[0]

    def _rsolve(self, Zc):
        """Zc K_U^{-1} over the last axis of Zc."""
        chol = self.chol
        n = Zc.shape[-1]
        # A row of the wrong length would broadcast against a diagonal factor,
        # and dsymv would silently use only the first n_pixels entries of a
        # longer row.
        if n != len(chol):
            raise ValueError(f"right-hand side of shape {Zc.shape} for {len(chol)} pixels")
        if chol.ndim == 1:
            return Zc / chol / chol
        lattice, blocks = self._blocks
        parts = _fold(Zc, lattice)
        return _unfold([_block_product(z, inv) for z, inv in zip(parts, blocks)], lattice)

    def solve(self, B):
        """K_U^{-1} B over the first axis of B; raises ValueError on a non-finite B."""
        return self._rsolve(np.asarray_chkfinite(B).T).T

    @property
    def log_det(self):
        diag = self.chol if self.chol.ndim == 1 else np.diag(self.chol)
        return 2.0 * np.sum(np.log(diag))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        if self.chol.ndim == 1:
            return E * self.chol
        return E @ self.chol.T


def _block_product(z, inv):
    """z inv over the last axis of z, for a symmetric C-ordered block inv."""
    n = len(inv)
    if n < _SYMV_MIN_PIXELS:
        return z @ inv
    from ._lapack import dsymv

    # dpotri's own F-ordered array, whose lower triangle dsymv reads without
    # a copy; each call writes its row of out in place.
    out = np.zeros(z.shape)
    for row, y in zip(z.reshape(-1, n), out.reshape(-1, n)):
        dsymv(1.0, inv.T, row, y=y, overwrite_y=1, lower=1)
    return out


def _mirror_fold(a):
    """(even, odd) folds of a over its last axis of n entries: the sums and
    the differences of mirrored entries, ceil(n/2) and floor(n/2) of them;
    the centre entry of an odd n is even."""
    n = a.shape[-1]
    k = n // 2
    lo, hi = a[..., :k], a[..., ::-1][..., :k]
    even = np.empty(a.shape[:-1] + (n - k,))
    np.add(lo, hi, out=even[..., :k])
    even[..., k:] = a[..., k : n - k]
    return even, lo - hi


def _mirror_unfold(even, odd):
    """V_e even + V_o odd over the last axis: the transpose of `_mirror_fold`,
    which returns V_e^T a and V_o^T a."""
    k = odd.shape[-1]
    n = even.shape[-1] + k
    out = np.empty(even.shape[:-1] + (n,))
    np.add(even[..., :k], odd, out=out[..., :k])
    np.subtract(even[..., :k], odd, out=out[..., ::-1][..., :k])
    out[..., k : n - k] = even[..., k:]
    return out


def _fold(a, lattice):
    """V_c^T a over the last axis of pixel vectors a, for each parity class
    c of a (width, height) lattice: x-even/y-even, x-even/y-odd,
    x-odd/y-even, x-odd/y-odd; [a] itself for the one class of no lattice."""
    if lattice is None:
        return [a]
    w, h = lattice
    lead = a.shape[:-1]
    return [
        c.reshape(lead + (c.shape[-1] * c.shape[-2],))
        for x in _mirror_fold(a.reshape(lead + (h, w)))
        for c in _mirror_fold(x.swapaxes(-1, -2))
    ]


def _unfold(parts, lattice):
    """sum_c V_c parts[c] over the last axis, for `_fold`'s classes:
    the transpose of `_fold`."""
    if lattice is None:
        return parts[0]
    w, h = lattice
    lead = parts[0].shape[:-1]
    he, ho = (h + 1) // 2, h // 2
    x = [
        _mirror_unfold(e.reshape(lead + (wc, he)), o.reshape(lead + (wc, ho))).swapaxes(-1, -2)
        for e, o, wc in ((parts[0], parts[1], (w + 1) // 2), (parts[2], parts[3], w // 2))
    ]
    return _mirror_unfold(*x).reshape(lead + (w * h,))


def _cholesky_with_jitter(make_K, scale):
    """Factor make_K() in place: with no jitter first, then escalating
    diagonal jitter from 1e-10*scale to 1e-4*scale.

    ``make_K`` returns a new, exactly symmetric, C-ordered matrix on each
    call. LAPACK ``dpotrf`` factors its transpose, which equals it and is
    F-ordered as LAPACK reads it, so the lower factor returned is the
    matrix's own memory. A failed attempt has overwritten its matrix, and
    ``clean`` has zeroed the untouched triangle, so the next attempt asks
    for a new one after dropping it: one N x N array at a time.
    """
    from ._lapack import dpotrf

    jitters = [0.0]
    j = _JITTER_START * scale
    while j <= _JITTER_MAX * scale * (1 + 1e-9):
        jitters.append(j)
        j *= 10.0
    for jit in jitters:
        K = make_K()
        n = len(K)
        K.reshape(-1)[:: n + 1] += jit
        L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, jit
        del K, L
    raise IllConditionedKernelError(
        f"Cholesky failed for a {n}x{n} Gram matrix even with jitter {_JITTER_MAX * scale:g}"
    )


def _as_grid(grid):
    """Pixel coordinates as a float (N, 2) array; ValueError on a
    non-finite coordinate, before any kernel is evaluated."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid coordinates must be finite")
    return grid


def build_gram(grid, kernel):
    """Discretize a spatial kernel on pixel coordinates.

    The exponential kernel matrix is evaluated once and factored in place
    (LAPACK ``dpotrf``), and the factor is kept without a copy: set-up
    holds one N x N array. A failed factorization evaluates the kernel
    again for the next jitter.

    Parameters
    ----------
    grid : ndarray, shape (N, 2)
        Distinct, finite pixel coordinates in pixel units.
    kernel : KernelSpec

    Returns
    -------
    GramMatrix
        For the dirac kernel, whose Gram matrix is ``sigma_k2`` times the
        identity, a diagonal factor: the (N,) vector sqrt(sigma_k2).

    Raises
    ------
    ValueError
        If the grid is empty or holds a repeated or non-finite coordinate.
    IllConditionedKernelError
        If the factorization fails after the maximum jitter.
    """
    grid = _as_grid(grid)
    if grid.size == 0:
        raise ValueError("grid must contain at least one pixel")
    # Sorted rows, then adjacent rows compared exactly (0.0 equals -0.0):
    # np.unique(grid, axis=0) gives the same verdict but imports numpy.ma.
    s = grid[np.lexsort(grid.T[::-1])]
    if np.any(np.all(s[1:] == s[:-1], axis=1)):
        raise ValueError("grid coordinates must be distinct")
    if kernel.kind == "dirac":
        return GramMatrix(np.full(len(grid), np.sqrt(kernel.sigma_k2)))
    # kernel(grid, grid) is exactly symmetric: each entry squares a difference
    # and its exact negation
    L, jitter = _cholesky_with_jitter(lambda: kernel(grid, grid), kernel.sigma_k2)
    return GramMatrix(L, jitter, _lattice_shape(grid))


def _lattice_shape(grid):
    """(width, height) when grid is the row-major lattice ``io.make_grid``
    returns, else None."""
    n = len(grid)
    if grid.shape[1] != 2 or not 0 <= grid[:, 0].max() < n:
        return None
    x, y = grid.T
    width = int(x.max()) + 1
    i = np.arange(n)
    if n % width or not (np.array_equal(x, i % width) and np.array_equal(y, i // width)):
        return None
    return width, n // width


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Hyperparameters of the latent prior.

    ``sigma_a2`` is the isotropic latent variance per ilr dimension,
    ``kernel`` the spatial covariance and ``mean`` an optional latent mean
    vector (length P-1, defaults to zero; a nonzero mean biases the prior
    toward a vertex or edge). Latent coordinates are taken in the Helmert
    basis ``H``. Instances compare and hash by identity.
    """

    P: int
    sigma_a2: float
    kernel: KernelSpec = field(default_factory=KernelSpec)
    mean: np.ndarray | None = None

    def __post_init__(self):
        if self.P < 2:
            raise ValueError("need at least 2 parts")
        object.__setattr__(self, "sigma_a2", _as_float(self.sigma_a2, "sigma_a2"))
        if not 0 < self.sigma_a2 < np.inf:
            raise ValueError("sigma_a2 must be positive and finite")
        if self.mean is not None:
            m = np.asarray(self.mean, dtype=float)
            if m.shape != (self.P - 1,):
                raise ValueError(f"mean shape {m.shape} inconsistent with P={self.P}")
            if not np.all(np.isfinite(m)):
                raise ValueError("mean must be finite")
            object.__setattr__(self, "mean", m)

    @property
    def H(self):
        return geometry.helmert_basis(self.P)

    @property
    def latent_mean(self):
        return self.mean if self.mean is not None else np.zeros(self.P - 1)


def pixel_prior_logpdf(a, spec):
    """Log-density of the pushforward Gaussian prior at composition(s) ``a``.

    Normalized with respect to Lebesgue measure on the first P-1 components
    (the chart Jacobian contributes ``-sum_k log a_k - log(P)/2``), so
    ``exp`` of the result integrates to 1 over the simplex. Broadcasts over
    leading axes.
    """
    a = geometry.check_interior(a)
    z = geometry.ilr(a, spec.H) - spec.latent_mean
    P = spec.P
    quad = np.sum(z * z, axis=-1) / (2.0 * spec.sigma_a2)
    norm = -0.5 * (P - 1) * np.log(2.0 * np.pi * spec.sigma_a2) - 0.5 * np.log(P)
    return -np.sum(np.log(a), axis=-1) - quad + norm


def pixel_prior_sample(spec, n_samples, rng):
    """Draw compositions by pushing latent Gaussians through ilr_inv.

    Deterministic for a given seed; ``rng`` may be an integer seed or a
    ``numpy.random.Generator``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng)
    z = spec.latent_mean + np.sqrt(spec.sigma_a2) * rng.standard_normal((n_samples, spec.P - 1))
    return geometry.ilr_inv(z, spec.H)


def sample_latent_field(spec, gram, n_samples, rng):
    """Matrix-normal latent draws Z ~ MN(mean, sigma_a2 I, K_U), shape (M, P-1, N)."""
    rng = np.random.default_rng(rng)
    N = gram.n_pixels
    E = rng.standard_normal((n_samples, spec.P - 1, N))
    Z = np.sqrt(spec.sigma_a2) * gram.sqrt_matvec(E)
    if spec.mean is not None:
        Z = Z + spec.mean[:, None]
    return Z


def gp_prior_sample(spec, gram, n_samples, rng):
    """Draw abundance images from the pushforward GP prior.

    Returns an array of shape (M, P, N): each draw is the columnwise
    ``ilr_inv`` of a matrix-normal latent field.
    """
    Z = sample_latent_field(spec, gram, n_samples, rng)
    # (M, P-1, N) -> columnwise softmax: move latent axis last
    A = geometry.ilr_inv(np.swapaxes(Z, -1, -2), spec.H)
    return np.swapaxes(A, -1, -2)


def prior_quadratic(Z, spec, gram):
    """Latent prior quadratic and its gradient from one product with K_U^{-1}.

    With Zc = Z - mean, returns tr(Zc K_U^{-1} Zc^T) / (2 sigma_a2) and its
    gradient Zc K_U^{-1} / sigma_a2 with respect to Z, shape (P-1, N).
    """
    Zc = Z - spec.mean[:, None] if spec.mean is not None else Z
    ZcKinv = gram._rsolve(Zc)
    return np.add.reduce(Zc * ZcKinv, axis=None) / (2.0 * spec.sigma_a2), ZcKinv / spec.sigma_a2


def gp_prior_logpdf(A, spec, gram):
    """Normalized log-density of the pushforward GP prior at an image.

    Parameters
    ----------
    A : ndarray, shape (P, N)
        Abundance image, strictly interior columns.
    spec : PriorSpec
    gram : GramMatrix

    The result reduces exactly to :func:`pixel_prior_logpdf` for a single
    pixel with unit kernel amplitude.
    """
    A = geometry.check_interior(A)
    P, N = A.shape
    if N != gram.n_pixels:
        raise ValueError(f"image has {N} pixels but Gram matrix has {gram.n_pixels}")
    Z = geometry.ilr(A.T, spec.H).T
    quad, _ = prior_quadratic(Z, spec, gram)
    norm = (
        -0.5 * (P - 1) * N * np.log(2.0 * np.pi)
        - 0.5 * (P - 1) * N * np.log(spec.sigma_a2)
        - 0.5 * (P - 1) * gram.log_det
        - 0.5 * N * np.log(P)
    )
    return float(-np.sum(np.log(A)) - quad + norm)

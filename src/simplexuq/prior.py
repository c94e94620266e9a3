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

import threading
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import IllConditionedKernelError

KERNEL_KINDS = ("exponential", "dirac")

# Jitter escalation policy, as multiples of the kernel amplitude sigma_k2.
_JITTER_START = 1e-10
_JITTER_MAX = 1e-4

# This pixel count sets two decisions.
# - A precision block this large or larger is multiplied by one symmetric
#   dsymv per row, which reads half of it, not by one matmul. dsymv won from
#   440-480 pixels on a 2-core Xeon with 2 MiB of L2 per core, OpenBLAS, one
#   BLAS thread (BENCH_9.json); not checked with more BLAS threads or other
#   cache sizes.
# - An io.make_grid lattice this large or larger gets the row-held
#   parity-block operator (see GramMatrix), a quarter of the dense factor's
#   bytes: a 64x64 prior draw and first solve peak at 38 MB under
#   tracemalloc against 166 MB (BENCH_26.json). Smaller lattices keep the
#   dense operator, whose two-row _rsolve is faster there, as folding and
#   unfolding alone take about 40 us: 13.4 against 45.7 us at 16x16. The
#   crossover lies just above this count: 49.6 against 57.0 us at 22x22
#   (484 pixels), 83.9 against 60.9 us at 24x24 (best of 7 runs, one BLAS
#   thread, the machine above).
_SYMV_MIN_PIXELS = 480

# Entries of one block of rows: a kernel evaluation fills its
# result a block of rows at a time, so its scratch stays in cache and adds
# 1/64 of a 1024 x 1024 matrix to the peak.
_ROW_BLOCK_ENTRIES = 2**14

# The parity blocks of an N-pixel lattice are filled from panels of at most
# N / _PANEL_SHARE representatives' rows of K_U: a panel and its folds add
# about 1/32 of N x N to the quarter of it that the blocks hold.
_PANEL_SHARE = 128

# Side of the panels an inverted precision block is mirrored by: a panel's
# transposed copy then writes runs of 64 contiguous entries per column.
_MIRROR_PANEL = 64


@dataclass(frozen=True)
class KernelSpec:
    """Spatial kernel configuration.

    ``exponential`` is ``sigma_k2 * exp(-||u - u'|| / length_scale)``;
    ``dirac`` is ``sigma_k2`` at zero distance and 0 elsewhere (the
    non-spatialized prior).

    ``kernel(U1, U2)`` takes two (n, 2) arrays of pixel coordinates, each
    a finite integer, and raises ValueError for any other input. A
    stationary kernel on the pixel lattice takes one value per pixel offset
    (Dietrich & Newsam 1997, SIAM J. Sci. Comput. 18:1088): each value is
    computed once, into a table of every offset between the two sets'
    bounding boxes, and the result is filled by lookup, a block of rows at
    a time. For pixels of one w x h image the table has fewer than 4 w h
    entries. Integer offsets below 2**53 are exact, so every exponential
    entry has the bits of ``cdist``'s distance, scaled in the same
    operation order, and ``kernel(U, U)`` is exactly symmetric.
    """

    kind: str = "exponential"
    length_scale: float = 1.0
    sigma_k2: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {self.kind!r}")
        for name in ("length_scale", "sigma_k2"):
            object.__setattr__(self, name, _as_positive(getattr(self, name), name))

    def __call__(self, U1, U2):
        """Cross-covariance matrix between two pixel coordinate sets (n1, 2), (n2, 2)."""
        U1, U2 = _as_pixels(U1), _as_pixels(U2)
        out = np.empty((len(U1), len(U2)))
        if out.size == 0:
            return out
        # Along each axis the offsets run from lo1 - hi2 to hi1 - lo2, and the
        # offset of U1[i] from U2[j] is table entry P1[i] + P2[j]. A width adds
        # two spans and a position subtracts a corner before the intp cast,
        # so coordinates beyond intp's range stay exact.
        axes = []
        for c1, c2 in zip(U1.T, U2.T):
            lo1, hi2 = c1.min(), c2.max()
            width = int((c1.max() - lo1) + (hi2 - c2.min())) + 1
            axes.append((lo1 - hi2 + np.arange(width), c1 - lo1, hi2 - c2))
        (dx, x1, x2), (dy, y1, y2) = axes
        table = np.add.outer(dx * dx, dy * dy)
        if self.kind == "dirac":
            table = self.sigma_k2 * (table == 0.0)
        else:
            np.sqrt(table, out=table)
            self._scale_distances(table)
        P1 = (x1 * len(dy) + y1).astype(np.intp)
        P2 = (x2 * len(dy) + y2).astype(np.intp)
        rows = max(1, _ROW_BLOCK_ENTRIES // len(U2))
        idx = np.empty((min(rows, len(U1)), len(U2)), dtype=np.intp)
        for s in range(0, len(U1), rows):
            e = min(s + rows, len(U1))
            np.add(P1[s:e, None], P2, out=idx[: e - s])
            # "clip" writes into out unbuffered; no index leaves the table
            np.take(table, idx[: e - s], out=out[s:e], mode="clip")
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


def _as_positive(value, name):
    """`_as_float`; ValueError unless the result is positive and finite."""
    value = _as_float(value, name)
    # Chained comparisons reject NaN as well as infinity.
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")
    return value


def _as_count(value, name, minimum=1):
    """int(value); ValueError unless it is a Python or numpy integer, not a
    bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _as_indices(idx, name):
    """Pixel indices as a 1-D integer array; ValueError unless they list at
    least one pixel, each nonnegative and once."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise ValueError(f"{name} indices must be one list, got shape {idx.shape}")
    if idx.size == 0:
        raise ValueError(f"{name} lists no pixels")
    # a boolean mask or float indices would cast silently to other pixels
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"{name} entries must be integer pixel indices, got dtype {idx.dtype}")
    if np.any(idx < 0):
        raise ValueError(f"{name} indices must be nonnegative")
    # sorted, then neighbours compared: np.unique would import numpy.ma
    s = np.sort(idx)
    if np.any(s[1:] == s[:-1]):
        raise ValueError(f"{name} indices must be unique")
    return idx


class GramMatrix:
    """Positive-definite spatial Gram matrix K_U and its products.

    ``GramMatrix(chol, applied_jitter=0.0)`` holds a Cholesky factor: for a
    dense kernel (exponential), the lower (N, N) factor, stored
    column-major; for a diagonal kernel (dirac), the (N,) vector of square
    roots of the diagonal, so memory and each solve are O(N). A diagonal
    solve divides the right-hand side by ``chol`` twice, so a unit diagonal
    returns it unchanged. A dense solve multiplies by the precision
    K_U^{-1}, kept as full, symmetric, C-ordered, read-only blocks, instead
    of running two triangular solves. ``matrix``, K_U itself (with sigma_k2
    on its diagonal), is recomputed on each access.

    On the row-major w x h lattice of ``io.make_grid``, from
    ``_SYMV_MIN_PIXELS`` pixels on, a dense kernel's operator holds the
    lattice and the kernel's first row, the corner pixel's covariance with
    every pixel: a stationary kernel on a lattice takes one value per
    pixel offset (Dietrich & Newsam 1997). A kernel of |dx| and |dy|
    commutes with the lattice's x- and y-reflections, so K_U is
    block-diagonal in their four even/odd parity classes (Cantoni & Butler
    1976, Linear Algebra Appl. 13:275, once per axis). For a basis V_c of
    class c of unnormalised +-1 folds of mirrored pixels (the centre row or
    column of an odd side is even), B_c = V_c^T K_U V_c =
    diag(|orbit|) (K_U V_c)[representatives], the pixels x < w/2, y < h/2
    (rounded up), whose orbits hold 1, 2 or 4 pixels. Formed in O(N^2)
    from the row and factored by ``dpotrf``, B_c = L_c L_c^T, the four
    blocks, a quarter of N^2 entries, are the operator's one
    factorization, formed again by each use. The first solve inverts them
    in place and keeps the inverses: K_U^{-1} = sum_c V_c B_c^{-1} V_c^T,
    so a product folds the right-hand side into the classes, multiplies
    each by its block and unfolds the result. As V_c^T V_c =
    diag(|orbit|), L = [V_c diag(|orbit|)^{-1} L_c] has L L^T = K_U: a
    draw feeds each L_c its class-sized part of the white noise, and
    ``log_det`` is sum_c log det B_c - sum log |orbit| over every class's
    representatives. Every Gram operator's factor comes from one routine,
    `_factor_with_jitter`: the first factorization runs its jitter ladder
    (none, then 1e-10 up to 1e-4 times sigma_k2 on the diagonal), raising
    ``IllConditionedKernelError`` if none succeeds, and later ones reuse
    its jitter: ``applied_jitter`` (0.0 when none was needed; a factor
    built by hand carries the one it is given). ``matrix`` is the row's
    fill with that jitter on the diagonal. Only ``chol``, which no
    pipeline path reads, forms an N x N array: that fill, factored in
    place. Smaller lattices, like other pixel sets, get the dense
    operator, whose one block, V = I, has the factor ``chol``. One lock
    per operator serialises the forming, so instances are safe to share
    across threads: the ladder runs once, and the precision and ``chol``
    form once each. What an instance represents never changes; instances
    compare and hash by identity.

    A product with a block reads the whole block for a few flops per
    entry, so its cost is memory traffic. From ``_SYMV_MIN_PIXELS`` pixels
    of a block on, where it outgrows a core's L2 cache, each row is
    multiplied by BLAS ``dsymv``, which reads one triangle: half the
    traffic, and half the time for a 1024-pixel block. Below that the
    block stays in cache, and one ``matmul`` beats a ``dsymv`` call per
    row, with its call overhead and slower kernel.
    """

    # what a lattice operator has not formed yet, and what others do not have
    _chol = _jitter = _precision = _row = _lattice = None

    def __init__(self, chol, applied_jitter=0.0):
        chol = np.asfortranarray(chol, dtype=float)
        if chol.ndim not in (1, 2) or chol.shape != (len(chol),) * chol.ndim or not np.all(np.isfinite(chol)):
            raise ValueError("Cholesky factor must be a finite square matrix or vector")
        if not np.all((chol if chol.ndim == 1 else np.diag(chol)) != 0.0):
            raise ValueError("Cholesky factor must have a nonzero diagonal")
        # Solves and log_det read the lower triangle only, so a nonzero entry
        # above the diagonal would make them disagree with `matrix`. Column
        # by column: chol[:j, j] is contiguous in the F-ordered factor.
        if chol.ndim == 2 and any(chol[:j, j].any() for j in range(1, len(chol))):
            raise ValueError("Cholesky factor must be lower triangular")
        chol.setflags(write=False)
        self._chol, self._jitter, self._lock = chol, applied_jitter, threading.RLock()

    @classmethod
    def _from_row(cls, row, lattice):
        """The operator of the stationary kernel whose corner pixel on the
        (width, height) lattice has covariance ``row`` with every pixel."""
        row.setflags(write=False)
        gram = cls.__new__(cls)
        gram._row, gram._lattice, gram._lock = row, lattice, threading.RLock()
        return gram

    def _formed(self, name, form):
        """Attribute ``name``, set to form() under the lock the first time."""
        value = getattr(self, name)
        if value is None:
            with self._lock:
                value = getattr(self, name)
                if value is None:
                    value = form()
                    setattr(self, name, value)
        return value

    @property
    def chol(self):
        """The Cholesky factor; a lattice operator forms it on first use."""
        return self._formed("_chol", self._form_factor)

    @property
    def applied_jitter(self):
        """The jitter on K_U's diagonal; factors the blocks if nothing has."""
        if self._jitter is None:
            self._block_factors()
        return self._jitter

    @property
    def _blocks(self):
        """Each class's B_c^{-1} (V = I off the lattice): full, symmetric, C-ordered, read-only."""
        return self._formed("_precision", self._form_precision)

    def _fill(self, jit):
        """The lattice kernel matrix K_U + jit I, filled from the row."""
        w, h = self._lattice
        K = np.empty((w * h, w * h))
        np.copyto(K.reshape(h, w, h, w), _offset_rows(self._row, jit, self._lattice))
        return K

    def _form_factor(self):
        """The dense factor of the lattice kernel matrix, at the blocks' jitter."""
        (L,), _ = _factor_with_jitter(lambda jit: [self._fill(jit).T], float(self._row[0]), self.applied_jitter)
        L.setflags(write=False)
        return L

    def _block_factors(self):
        """Each parity class's lower factor L_c of B_c, upper triangle zeroed,
        as F-ordered views of one store; the first call sets the jitter."""
        with self._lock:
            factors, self._jitter = _factor_with_jitter(
                lambda jit: _parity_blocks(self._row, jit, self._lattice), float(self._row[0]), self._jitter
            )
        return factors

    def _form_precision(self):
        from ._lapack import dpotri

        # off the lattice B = K_U, whose factor is the read-only chol: dpotri copies it
        factors = [self._chol] if self._lattice is None else self._block_factors()
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
        return blocks

    @property
    def matrix(self):
        """K_U; the (N,) diagonal for a diagonal factor."""
        if self._lattice is not None:
            return self._fill(self.applied_jitter)
        if self.chol.ndim == 1:
            return self.chol * self.chol
        return self.chol @ self.chol.T

    @property
    def n_pixels(self):
        return len(self._chol if self._row is None else self._row)

    def _rsolve(self, Zc):
        """Zc K_U^{-1} over the last axis of Zc."""
        n = self.n_pixels
        # A row of the wrong length would broadcast against a diagonal factor,
        # and dsymv would silently use only the first n_pixels entries of a
        # longer row.
        if Zc.shape[-1] != n:
            raise ValueError(f"right-hand side of shape {Zc.shape} for {n} pixels")
        chol = self._chol
        if chol is not None and chol.ndim == 1:
            return Zc / chol / chol
        if self._lattice is None:
            return _block_product(Zc, self._blocks[0])
        parts = _fold(Zc, self._lattice)
        return _unfold([_block_product(z, inv) for z, inv in zip(parts, self._blocks)], self._lattice)

    def solve(self, B):
        """K_U^{-1} B over the first axis of B; raises ValueError on a non-finite B."""
        return self._rsolve(np.asarray_chkfinite(B).T).T

    @property
    def log_det(self):
        if self._lattice is not None:
            factors, orbits = self._block_factors(), _class_orbits(self._lattice)
            return sum(2.0 * np.sum(np.log(np.diag(L))) - np.sum(np.log(o)) for L, o in zip(factors, orbits))
        diag = self.chol if self.chol.ndim == 1 else np.diag(self.chol)
        return 2.0 * np.sum(np.log(diag))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        if self._lattice is not None:
            factors, orbits = self._block_factors(), _class_orbits(self._lattice)
            parts = np.split(E, np.cumsum([o.size for o in orbits])[:-1], axis=-1)
            return _unfold([e @ L.T / o.reshape(-1) for e, L, o in zip(parts, factors, orbits)], self._lattice)
        if self.chol.ndim == 1:
            return E * self.chol
        return E @ self.chol.T


def _offset_rows(row, jit, lattice):
    """The rows of K_U + jit I, for K_U the stationary matrix whose corner
    pixel's row is ``row``, as an (h, w, h, w) view of one (2h-1, 2w-1)
    table of the kernel at each offset: pixel (x, y)'s row is [y, x]."""
    w, h = lattice
    corner = row.reshape(h, w)
    table = corner[abs(np.arange(1 - h, h))][:, abs(np.arange(1 - w, w))]
    table[h - 1, w - 1] += jit
    return np.lib.stride_tricks.sliding_window_view(table, (h, w))[::-1, ::-1]


def _class_orbits(lattice):
    """Each parity class's (x, y) grid of orbit sizes, in `_fold`'s order:
    the first representatives along each axis of the even fold of ones."""
    w, h = lattice
    we, he = (w + 1) // 2, (h + 1) // 2
    orbit = _fold(np.ones(w * h), lattice)[0].reshape(we, he)
    return [orbit[:a, :b] for a in (we, w // 2) for b in (he, h // 2)]


def _parity_blocks(row, jit, lattice):
    """Each parity class's B_c = diag(|orbit|) (K_U V_c)[representatives],
    for K_U the stationary matrix of ``row`` with ``jit`` on its diagonal:
    F-ordered views of one allocation of N^2/4 entries, freed whole."""
    n = lattice[0] * lattice[1]
    orbits = _class_orbits(lattice)
    ends = np.cumsum([o.size**2 for o in orbits])
    store = np.zeros(ends[-1])
    factors = [store[e - o.size**2 : e].reshape(o.size, o.size, order="F") for o, e in zip(orbits, ends)]
    rows = _offset_rows(row, jit, lattice)
    # the x-even/y-even class has every representative
    we, he = orbits[0].shape
    orbit = orbits[0][:, :, None, None]
    k = max(1, n // _PANEL_SHARE)
    for x in range(we):
        for y in range(0, he, k):
            e = min(y + k, he)
            parts = _fold((rows[y:e, x] * orbit[x, y:e]).reshape(e - y, n), lattice)
            for B, part, (a, b) in zip(factors, parts, (o.shape for o in orbits)):
                if x < a and y < b:
                    B.T.reshape(a, b, a * b)[x, y:e] = part[: b - y]
    return factors


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
    x-odd/y-even, x-odd/y-odd."""
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
    w, h = lattice
    lead = parts[0].shape[:-1]
    he, ho = (h + 1) // 2, h // 2
    x = [
        _mirror_unfold(e.reshape(lead + (wc, he)), o.reshape(lead + (wc, ho))).swapaxes(-1, -2)
        for e, o, wc in ((parts[0], parts[1], (w + 1) // 2), (parts[2], parts[3], w // 2))
    ]
    return _mirror_unfold(*x).reshape(lead + (w * h,))


def _factor_with_jitter(make_blocks, scale, jitter=None):
    """Factor the blocks of K_U + jit I in place; returns them and jit.

    ``make_blocks(jit)`` returns new, exactly symmetric, F-ordered matrices
    with ``jit`` on their diagonals. LAPACK ``dpotrf`` factors each in
    place, so each lower factor is its matrix's own memory, upper triangle
    zeroed. ``jit`` is ``jitter`` alone when given, else none and then
    1e-10*scale up to 1e-4*scale in turn, until every block factors. A
    failed set is dropped before the next is made: one set at a time.
    """
    from ._lapack import dpotrf

    jitters = [jitter]
    if jitter is None:
        jitters, jit = [0.0], _JITTER_START * scale
        while jit <= _JITTER_MAX * scale * (1 + 1e-9):
            jitters.append(jit)
            jit *= 10.0
    for jit in jitters:
        blocks = make_blocks(jit)
        n = sum(map(len, blocks))
        if all(dpotrf(B, lower=1, clean=1, overwrite_a=1)[1] == 0 for B in blocks if B.size):
            return blocks, jit
        del blocks
    raise IllConditionedKernelError(f"K_U of {n} pixels is not positive definite even with jitter {jit:g}")


def _as_pixels(U):
    """Pixel coordinates as a float (n, 2) array (a single one may be a
    vector); ValueError unless every coordinate is a finite integer."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.ndim != 2 or U.shape[1] != 2:
        raise ValueError(f"coordinate sets must have shape (n, 2), got {U.shape}")
    if not (np.all(np.isfinite(U)) and np.array_equal(U, np.floor(U))):
        raise ValueError("grid coordinates must be finite integers")
    return U


def build_gram(grid, kernel):
    """Discretize a spatial kernel on pixel coordinates.

    On an ``io.make_grid`` lattice of at least ``_SYMV_MIN_PIXELS``
    pixels, the exponential kernel is held as its first row, and nothing
    is factored until the operator is used (see `GramMatrix`). On other
    pixel sets, smaller lattices included, the kernel matrix is evaluated
    once and factored in place by `_factor_with_jitter`, the one routine
    that factors every Gram operator, and the factor is kept without a
    copy: set-up holds one N x N array. A failed factorization evaluates
    the kernel again for the next jitter. The kernel's offset
    table covers the pixels' bounding box (see `KernelSpec`): fewer than
    4 w h entries for pixels of one w x h image.

    Parameters
    ----------
    grid : ndarray, shape (N, 2)
        Distinct pixel coordinates, each a finite integer.
    kernel : KernelSpec

    Returns
    -------
    GramMatrix
        For the dirac kernel, whose Gram matrix is ``sigma_k2`` times the
        identity, a diagonal factor: the (N,) vector sqrt(sigma_k2).

    Raises
    ------
    ValueError
        If the grid is empty, not of shape (N, 2), or holds a repeated,
        non-finite or fractional coordinate.
    IllConditionedKernelError
        If the factorization fails after the maximum jitter; an operator
        that holds the lattice's row raises it at first use instead.
    """
    grid = _as_pixels(grid)
    if grid.size == 0:
        raise ValueError("grid must contain at least one pixel")
    # Sorted rows, then adjacent rows compared exactly (0.0 equals -0.0):
    # np.unique(grid, axis=0) gives the same verdict but imports numpy.ma.
    s = grid[np.lexsort(grid.T[::-1])]
    if np.any(np.all(s[1:] == s[:-1], axis=1)):
        raise ValueError("grid coordinates must be distinct")
    if kernel.kind == "dirac":
        return GramMatrix(np.full(len(grid), np.sqrt(kernel.sigma_k2)))
    lattice = _lattice_shape(grid) if len(grid) >= _SYMV_MIN_PIXELS else None
    if lattice is not None:
        # LAPACK loads here, in set-up, not inside the first step of a chain
        from . import _lapack  # noqa: F401

        return GramMatrix._from_row(kernel(grid[:1], grid)[0], lattice)

    def make_K(jit):
        # kernel(grid, grid) is exactly symmetric: each entry squares a
        # difference and its exact negation
        K = kernel(grid, grid)
        K.reshape(-1)[:: len(K) + 1] += jit
        return [K.T]

    (L,), jitter = _factor_with_jitter(make_K, kernel.sigma_k2)
    return GramMatrix(L, jitter)


def _lattice_shape(grid):
    """(width, height) when grid is the row-major lattice ``io.make_grid``
    returns, else None."""
    n = len(grid)
    if not 0 <= grid[:, 0].max() < n:
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
        geometry.helmert_basis(self.P)  # InvalidDimensionError unless P is an integer >= 2
        object.__setattr__(self, "sigma_a2", _as_positive(self.sigma_a2, "sigma_a2"))
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
    n_samples = _as_count(n_samples, "n_samples")
    rng = np.random.default_rng(rng)
    z = spec.latent_mean + np.sqrt(spec.sigma_a2) * rng.standard_normal((n_samples, spec.P - 1))
    return geometry.ilr_inv(z, spec.H)


def sample_latent_field(spec, gram, n_samples, rng):
    """Matrix-normal latent draws Z ~ MN(mean, sigma_a2 I, K_U), shape (M, P-1, N)."""
    n_samples = _as_count(n_samples, "n_samples")
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

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
from functools import lru_cache, reduce
from typing import NamedTuple

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
#   block operator (see GramMatrix), a quarter of the dense factor's bytes
#   or less: a 64x64 prior draw and first solve peak at 38 MB under
#   tracemalloc against 166 MB (BENCH_26.json). Smaller lattices keep the
#   dense operator, whose two-row _rsolve is faster there: against the
#   square's five blocks it takes 12-15 against 29-51 us at 16x16, but
#   44-45 against 35-37 us at 22x22 and 67-70 against 39-44 us at 24x24
#   (best of 7 runs, one BLAS thread, the machine above; BENCH_31.json).
_SYMV_MIN_PIXELS = 480

# Entries of one block of rows: a kernel evaluation fills its
# result a block of rows at a time, so its scratch stays in cache and adds
# 1/64 of a 1024 x 1024 matrix to the peak.
_ROW_BLOCK_ENTRIES = 2**14

# The blocks of an N-pixel lattice are filled from panels of N / _PANEL_SHARE
# representatives' rows of K_U, but of no fewer than _PANEL_ENTRIES entries:
# a panel and its folds add about 1/32 of N x N to the blocks from 64 x 64
# on, and below, where that share is a few rows, the floor keeps each fold's
# call overhead small. At 32 x 32, panels of 32 rows instead of 8 formed the
# four parity blocks in 2.2 ms instead of 4.2, with the same bits.
_PANEL_SHARE = 128
_PANEL_ENTRIES = 2**15

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
    """float(value) of a Python or numpy real number, not a bool; ValueError
    for anything else, and for an int too large for a float, which a range
    check accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
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


def _as_rng(rng):
    """``rng`` itself if it is a numpy Generator, else one seeded by it
    under the count rule: an integer seed of at least 0."""
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(_as_count(rng, "rng seed", 0))


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
    1976, Linear Algebra Appl. 13:275, once per axis). Class c has a basis
    V_c of unnormalised +-1 folds of mirrored pixels (the centre row or
    column of an odd side is even), one per representative, the pixels
    x < w/2, y < h/2 (rounded up), whose orbits hold 1, 2 or 4 pixels;
    its block is B_c = V_c^T K_U V_c = diag(|orbit|) (K_U V_c)[reps].
    Formed in O(N^2) from the row and factored by ``dpotrf``,
    B_c = L_c L_c^T, the four blocks, a quarter of N^2 entries, are the
    factorization that draws and ``log_det`` use, formed again by each
    use. As V_c^T V_c = diag(|orbit|), L = [V_c diag(|orbit|)^{-1} L_c] has
    L L^T = K_U: a draw feeds each L_c its class-sized part of the white
    noise, and ``log_det`` is sum_c log det B_c - sum log |orbit| over
    every class's representatives.

    Solves use K_U^{-1} = sum_b W_b B_b^{-1} W_b^T over the blocks of the
    lattice's symmetry classes, whose inverses the first solve forms by
    ``dpotrf`` and ``dpotri`` in place and keeps. A rectangle's classes are
    the four parity classes. A square's kernel also commutes with the
    transposition (x, y) -> (y, x), so K_U commutes with the whole
    dihedral group D4 of the square, and a basis adapted to it (Fässler &
    Stiefel 1992, Group Theoretical Methods and Their Applications) splits
    K_U further: the even/even class into parts symmetric and antisymmetric
    under the transposition, with one basis vector per representative
    x <= y (the antisymmetric part off the diagonal), the odd/odd class
    likewise, and the x-even/y-odd class, which the transposition maps
    onto the x-odd/y-even one. That pair shares the x-even/y-odd block
    when the x-odd/y-even class's basis is taken at the transposed
    representatives. Five blocks, about an eighth of N^2 entries, then
    hold the precision, and each is B_b = diag(|orbit|) (K_U W_b)[reps]
    again, with orbits of up to 8 pixels. A product folds the right-hand
    side into the classes through index tables built once per lattice
    (`_classes`): one gather of each representative's images, one product
    with a small 0/+-1 matrix, the 4 x 4 Hadamard matrix or its 8 x 8
    counterpart, and one gather of the coefficients. It multiplies each
    block by its classes' rows, the shared block by both classes' rows
    at once, and unfolds the result by the transposed steps.

    Every Gram operator's factor comes from one routine,
    `_factor_with_jitter`: the first factorization, of either set of
    blocks, runs its jitter ladder (none, then 1e-10 up to 1e-4 times
    sigma_k2 on the diagonal), raising ``IllConditionedKernelError`` if
    none succeeds, and later ones reuse its jitter: ``applied_jitter``
    (0.0 when none was needed; a factor built by hand carries the one it
    is given). ``matrix`` is the row's fill with that jitter on the
    diagonal. Only ``chol``, which no pipeline path reads, forms an N x N
    array: that fill, factored in place. Smaller lattices, like other pixel
    sets, get the dense operator, whose one block, V = I, has the factor
    ``chol``. One lock per operator serialises the forming, so instances
    are safe to share across threads: the ladder runs once, and the
    precision and ``chol`` form once each. What an instance represents
    never changes; instances compare and hash by identity.

    A product with a block reads the whole block for a few flops per
    entry, so its cost is memory traffic. From ``_SYMV_MIN_PIXELS`` pixels
    of a block on, where it outgrows a core's L2 cache, each row is
    multiplied by BLAS ``dsymv``, which reads one triangle: half the
    traffic, and half the time for a 1024-pixel block. Below that the
    block stays in cache, and one ``matmul`` beats a ``dsymv`` call per
    row, with its call overhead and slower kernel. The shared block's
    product with more than two rows is one ``matmul`` at any size, which
    reads the block once.
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
            self._block_factors(_classes(self._lattice, False))
        return self._jitter

    @property
    def _blocks(self):
        """Each class's B_c^{-1} (V = I off the lattice): full, symmetric, C-ordered, read-only."""
        return self._formed("_precision", self._form_precision)

    def _fill(self, jit):
        """The lattice kernel matrix K_U + jit I, filled from the row: pixel
        (x, y)'s row is a window of the offset table."""
        w, h = self._lattice
        K = np.empty((w * h, w * h))
        table = _offset_table(self._row, jit, self._lattice)
        np.copyto(K.reshape(h, w, h, w), np.lib.stride_tricks.sliding_window_view(table, (h, w))[::-1, ::-1])
        return K

    def _form_factor(self):
        """The dense factor of the lattice kernel matrix, at the blocks' jitter."""
        (L,), _ = _factor_with_jitter(lambda jit: [self._fill(jit).T], float(self._row[0]), self.applied_jitter)
        L.setflags(write=False)
        return L

    def _block_factors(self, classes):
        """Each block's lower factor L_b of B_b, upper triangle zeroed, as
        F-ordered views of one store; the first call sets the jitter."""
        with self._lock:
            factors, self._jitter = _factor_with_jitter(
                lambda jit: _parity_blocks(self._row, jit, classes), float(self._row[0]), self._jitter
            )
        return factors

    def _form_precision(self):
        from ._lapack import dpotri

        # off the lattice B = K_U, whose factor is the read-only chol: dpotri copies it
        factors = [self._chol] if self._lattice is None else self._block_factors(_symmetry_classes(self._lattice))
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
        classes = _symmetry_classes(self._lattice)
        Y = _fold(Zc.reshape(-1, n), classes)
        X = np.zeros((len(Y), n + 1))
        # Classes that share a block go through one product, stacked by rows.
        # Past two stacked rows that product is one matmul, which reads the
        # block once, not a dsymv per row, which reads half of it each time:
        # 3.2-3.3 against 3.4-3.5 ms for four rows of the 2256-pixel block
        # at 95x95 (BENCH_31.json).
        for inv, (s, e, k) in zip(self._blocks, classes.blocks):
            z = Y[:, s:e].reshape(k * len(Y), len(inv))
            x = z @ inv if k > 1 and len(z) > 2 else _block_product(z, inv)
            X[:, s:e] = x.reshape(len(Y), e - s)
        return _unfold(X, classes).reshape(Zc.shape)

    def solve(self, B):
        """K_U^{-1} B over the first axis of B; raises ValueError on a non-finite B."""
        return self._rsolve(np.asarray_chkfinite(B).T).T

    @property
    def log_det(self):
        if self._lattice is not None:
            classes = _classes(self._lattice, False)
            return sum(
                2.0 * np.sum(np.log(np.diag(L))) - np.sum(np.log(classes.norms[s:e]))
                for L, (s, e, _) in zip(self._block_factors(classes), classes.blocks)
            )
        diag = self.chol if self.chol.ndim == 1 else np.diag(self.chol)
        return 2.0 * np.sum(np.log(diag))

    def sqrt_matvec(self, E):
        """E L^T over the last axis of E: maps white noise to covariance K_U."""
        if self._lattice is not None:
            classes = _classes(self._lattice, False)
            n = self.n_pixels
            X = np.zeros(E.shape[:-1] + (n + 1,))
            # E's own stacked shape: a product with more rows at once may round differently
            for L, (s, e, _) in zip(self._block_factors(classes), classes.blocks):
                X[..., s:e] = E[..., s:e] @ L.T / classes.norms[s:e]
            return _unfold(X.reshape(-1, n + 1), classes).reshape(E.shape)
        if self.chol.ndim == 1:
            return E * self.chol
        return E @ self.chol.T


def _offset_table(row, jit, lattice):
    """The (2h-1, 2w-1) table of K_U + jit I at each pixel offset, for K_U
    the stationary matrix whose corner pixel's row is ``row``: the entry of
    pixels (x, y) and (x', y') is [h-1-y+y', w-1-x+x']."""
    w, h = lattice
    corner = row.reshape(h, w)
    table = corner[abs(np.arange(1 - h, h))][:, abs(np.arange(1 - w, w))]
    table[h - 1, w - 1] += jit
    return table


class _Classes(NamedTuple):
    """Index tables that fold pixel vectors into a lattice's symmetry classes.

    ``images[r]`` lists the pixels that the group's elements map
    representative r to, with ``n`` (a zero slot) where an image repeats an
    earlier one. The small 0/+-1 matrices ``stages``, multiplied in turn,
    combine one row of images into the G coefficients of r. The parity
    classes' two stages each sum or subtract two entries per column, so
    their coefficients take the additions of a mirror fold by hand, in its
    order, and keep its bits; the D4 classes' one stage is a single
    product. ``select``
    picks each class's coefficients from the flattened (R, G) combinations,
    class after class. ``place`` and ``pixel`` invert ``select`` and
    ``images``: the coefficient that each flattened combination takes
    (``n``, a zero, for none) and the flattened image that holds each
    pixel. ``reps`` is the
    pixel whose row of K_U gives each coefficient's row of its block,
    ``norms`` the number of pixels in its basis vector. Each block's
    (start, stop, count) in ``blocks`` spans the coefficients of the
    ``count`` classes of equal size that share it.
    """

    lattice: tuple
    images: np.ndarray
    stages: tuple
    select: np.ndarray
    place: np.ndarray
    pixel: np.ndarray
    reps: np.ndarray
    norms: np.ndarray
    blocks: tuple


@lru_cache(maxsize=8)
def _classes(lattice, diagonal):
    """The tables of a (width, height) lattice's classes (see `GramMatrix`).

    The representatives are the pixels x < w/2, y < h/2 (rounded up) in
    x-major order; with ``diagonal``, a square's, only those with x <= y.
    The mirror images of (x, y) come in the order (x, y), (x, y'), (x', y),
    (x', y'), for x' = w - 1 - x and y' = h - 1 - y, and the 4 x 4 Hadamard
    matrix, as a fold along x and then one along y, turns them into the
    x-even/y-even, x-even/y-odd, x-odd/y-even and x-odd/y-odd folds: four
    parity classes, each over the representatives off the centre row or
    column it is odd across. With ``diagonal`` the mirror images of (y, x)
    follow, and one 8 x 8 matrix folds both alike and gives the even/even
    fold of (x, y) plus and minus that of (y, x), the same for odd/odd,
    and the mixed folds of (x, y) and of (y, x) apart.
    The classes are then even/even symmetric and antisymmetric under the
    transposition, odd/odd likewise, x-even/y-odd over its own
    representatives, and x-odd/y-even at their transposes, in the same
    order: the transposition maps each basis vector of the one onto the
    other's, so those two share a block.
    """
    w, h = lattice
    n = w * h
    we = (w + 1) // 2
    x, y = np.divmod(np.arange(we * ((h + 1) // 2)), (h + 1) // 2)
    if diagonal:
        x, y = x[x <= y], y[x <= y]

    def mirrors(u, v):
        return [(w - 1 - u if i else u, h - 1 - v if j else v) for i in (0, 1) for j in (0, 1)]

    images = np.stack([v * w + u for u, v in mirrors(x, y) + (mirrors(y, x) if diagonal else [])], axis=1)
    for k in range(1, images.shape[1]):
        images[np.any(images[:, :k] == images[:, k : k + 1], axis=1), k] = n
    # the 4 x 4 Hadamard matrix as its x and y stages
    h2, i2 = np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2)
    stages = [np.kron(h2, i2), np.kron(i2, h2)]
    xo, yo = x < w // 2, y < h // 2
    if diagonal:
        index = np.zeros((we, we), dtype=np.intp)
        index[x, y] = np.arange(len(x))
        qx, qy = np.divmod(np.arange(we * (w // 2)), w // 2)
        up, low = qx <= qy, qy <= qx
        # the folds of (x, y) and of (y, x); then even/even and odd/odd of
        # (x, y) plus and minus those of (y, x), and the mixed ones apart:
        # one 8 x 8 matrix, as these coefficients keep no earlier bits
        T = np.hstack([np.kron(h2, np.eye(4))[:, [0, 4, 3, 7]], np.eye(8)[:, [1, 5, 2, 6]]])
        stages = [np.kron(i2, stages[0]) @ np.kron(i2, stages[1]) @ T]
        off = x < y
        parts = [(np.flatnonzero(keep), col) for col, keep in enumerate((x <= y, off, yo, off & yo))]
        parts += [
            (np.where(up, index[qx, qy], index[qy, qx]), np.where(up, 4, 5)),
            (np.where(low, index[qy, qx], index[qx, qy]), np.where(low, 6, 7)),
        ]
        shared = [1, 1, 1, 1, 2]
    else:
        parts = [(np.flatnonzero(keep), col) for col, keep in enumerate((x >= 0, yo, xo, xo & yo))]
        shared = [1, 1, 1, 1]
    signs = reduce(np.matmul, stages)
    G = len(signs)
    select = np.concatenate([r * G + col for r, col in parts])
    starts = np.cumsum([0] + [len(r) for r, _ in parts])
    firsts = np.cumsum([0] + shared)[:-1]
    held = images < n
    # each coefficient's representative is the first pixel its basis vector holds
    r = select // G
    first = np.argmax((signs[:, select % G].T != 0) & held[r], axis=1)
    place = np.full(images.size, n)
    place[select] = np.arange(n)
    pixel = np.empty(n, dtype=np.intp)
    pixel[images[held]] = np.flatnonzero(held)
    tables = _Classes(
        lattice,
        images,
        tuple(stages),
        select,
        place,
        pixel,
        images[r, first],
        (held @ np.abs(signs)).reshape(-1)[select],
        tuple((int(starts[i]), int(starts[i + k]), k) for i, k in zip(firsts, shared)),
    )
    for a in (images, *stages, select, place, pixel, tables.reps, tables.norms):
        a.setflags(write=False)
    return tables


def _symmetry_classes(lattice):
    """The classes the precision is held in: a square's D4 classes, else
    the four parity classes."""
    return _classes(lattice, lattice[0] == lattice[1])


def _parity_blocks(row, jit, classes):
    """Each block B of ``classes`` for K_U the stationary matrix of ``row``
    with ``jit`` on its diagonal: B = diag(norms) (K_U W)[reps] over the
    coefficients of the first class that shares it. F-ordered views of one
    allocation of the blocks' entries, freed whole."""
    n = len(row)
    w, h = classes.lattice
    spans = [(s, s + (e - s) // k) for s, e, k in classes.blocks]
    ends = np.cumsum([(e - s) ** 2 for s, e in spans])
    store = np.zeros(ends[-1])
    factors = [store[end - (e - s) ** 2 : end].reshape(e - s, e - s, order="F") for (s, e), end in zip(spans, ends)]
    # Entry (q, p) of K_U + jit I is the offset table's flat entry
    # first[q] + second[p]; a zero slot's index points past the table, which
    # "clip" maps to the zero appended to it.
    table = np.append(_offset_table(row, jit, classes.lattice), 0.0)
    y, x = np.divmod(np.arange(n), w)
    second = np.append(y * (2 * w - 1) + x, table.size)[classes.images]
    # The rows of K_U that the blocks read, a panel at a time, in the x-major
    # order of the representatives: each block's rows in a panel are then
    # consecutive.
    reps = [classes.reps[s:e] % w * h + classes.reps[s:e] // w for s, e in spans]
    read = np.zeros(n, dtype=bool)
    for r in reps:
        read[r] = True
    x, y = np.divmod(np.flatnonzero(read), h)
    first = (h - 1 - y) * (2 * w - 1) + (w - 1 - x)
    order = np.cumsum(read) - 1
    at = [order[r] for r in reps]
    k = max(n // _PANEL_SHARE, _PANEL_ENTRIES // n)
    for p in range(0, len(first), k):
        Y = _combine(np.take(table, first[p : p + k, None, None] + second, mode="clip"), classes)
        for B, (s, e), a in zip(factors, spans, at):
            i, j = np.searchsorted(a, (p, p + k))
            np.multiply(classes.norms[s + i : s + j, None], Y[a[i:j] - p, s:e], out=B.T[i:j])
        del Y  # before the next panel's gather
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


def _fold(a, classes):
    """W^T a for the (L, N) pixel rows a: each class's coefficients, class
    after class. One gather of every representative's images, then
    `_combine`."""
    ext = np.zeros((len(a), a.shape[1] + 1))
    ext[:, :-1] = a
    return _combine(np.take(ext, classes.images, axis=1), classes)


def _combine(v, classes):
    """W^T a from the (L, R, G) values v of a at the images, zero at the
    zero slots: the products with the stages, one gather of the
    coefficients. Each step frees the array before it, when nothing else
    holds it."""
    L, G = len(v), v.shape[-1]
    F = v.reshape(-1, G)
    del v
    for S in classes.stages:
        F = F @ S
    return np.take(F.reshape(L, -1), classes.select, axis=1)


def _unfold(X, classes):
    """W X for the (L, N + 1) coefficient rows X, last column zero: the
    transpose of `_fold`, by the same steps in reverse."""
    V = np.take(X, classes.place, axis=1).reshape(-1, len(classes.stages[0]))
    for S in classes.stages[::-1]:
        V = V @ S.T
    return np.take(V.reshape(len(X), -1), classes.pixel, axis=1)


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
        object.__setattr__(self, "P", _as_count(self.P, "P", 2))
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
    rng = _as_rng(rng)
    z = spec.latent_mean + np.sqrt(spec.sigma_a2) * rng.standard_normal((n_samples, spec.P - 1))
    return geometry.ilr_inv(z, spec.H)


def sample_latent_field(spec, gram, n_samples, rng):
    """Matrix-normal latent draws Z ~ MN(mean, sigma_a2 I, K_U), shape (M, P-1, N)."""
    n_samples = _as_count(n_samples, "n_samples")
    rng = _as_rng(rng)
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

"""Log-ratio geometry of the open probability simplex.

The interior of the unit simplex, identified with Euclidean space through
a log-ratio chart, becomes a flat manifold: geodesics are straight lines in
the chart coordinates and the geodesic distance is the Euclidean distance
of the images. This module provides the charts (alr, clr, ilr and the
softmax inverse), the induced distance and geodesic paths, and the Helmert
orthonormal basis used to represent ilr coordinates.

The ilr chart is the mirror map of the negative Shannon entropy
``sum_k a_k log a_k``, a convex potential: its ambient gradient
``log a_k + 1``, projected onto the zero-sum hyperplane and rotated by
``H^T``, is ``ilr(a)`` to rounding error, as the test suite asserts.

Conventions
-----------
Compositions live on the last axis and every function broadcasts over
leading axes, so a single vector has shape ``(P,)`` and a batch of samples
``(M, P)``. Transform inputs must be strictly positive; use :func:`closure`
to clamp and renormalize raw data first. All computations are pure and
double precision; basis matrices are immutable and safe to share across
threads.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, SimplexBoundaryError

# Clamping floor applied by `closure`; transforms reject exact zeros but
# accept anything at or above this scale.
EPS_SIMPLEX = 1e-12


def closure(a):
    """Clamp raw data into the interior of the simplex and renormalize.

    Components are clipped to ``[EPS_SIMPLEX, 1]`` and each vector rescaled
    to unit sum. This is the canonical constructor for compositions coming
    from files or from algorithms (e.g. simplex projections) that may emit
    exact zeros.

    Parameters
    ----------
    a : array_like, shape (..., P)
        Nonnegative data; the last axis is the part axis.

    Returns
    -------
    ndarray, shape (..., P)
        Strictly positive compositions summing to 1 within 1e-12.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("compositions must be finite")
    out = np.clip(a, EPS_SIMPLEX, 1.0)
    return out / out.sum(axis=-1, keepdims=True)


def check_interior(a, name="composition"):
    """Raise :class:`SimplexBoundaryError` unless all components are > 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    if np.any(a <= 0.0):
        raise SimplexBoundaryError(
            f"{name} has zero or negative components; log-ratio transforms "
            "require the open simplex (apply closure() first)"
        )
    return a


@lru_cache(maxsize=None)
def helmert_basis(P):
    """Orthonormal basis of the zero-sum hyperplane in ``R^P``.

    Returns the P x (P-1) Helmert sub-matrix: column ``j`` (1-based) has its
    first ``j`` entries equal to ``1/sqrt(j(j+1))``, entry ``j+1`` equal to
    ``-sqrt(j/(j+1))`` and zeros below. Columns are orthonormal and
    orthogonal to the all-ones vector, which is the only property the rest
    of the package relies on; the Helmert choice merely fixes a
    deterministic convention.

    The returned array is cached and marked read-only.
    """
    if not isinstance(P, (int, np.integer)) or P < 2:
        raise InvalidDimensionError(f"need an integer number of parts P >= 2, got {P!r}")
    H = np.zeros((P, P - 1))
    for j in range(1, P):
        H[:j, j - 1] = 1.0 / np.sqrt(j * (j + 1.0))
        H[j, j - 1] = -np.sqrt(j / (j + 1.0))
    H.setflags(write=False)
    return H


def _basis_for(P, basis):
    if basis is None:
        return helmert_basis(P)
    basis = np.asarray(basis, dtype=float)
    if basis.shape != (P, P - 1):
        raise InvalidDimensionError(
            f"basis shape {basis.shape} does not match {P} parts (expected {(P, P - 1)})"
        )
    return basis


def alr(a):
    """Additive log-ratio transform, ``[log a_k - log a_P] for k < P``.

    Provided for completeness and comparisons; it singles out the last
    component and is therefore not permutation-symmetric. Prefer
    :func:`ilr` everywhere else in the package.
    """
    a = check_interior(a)
    la = np.log(a)
    return la[..., :-1] - la[..., -1:]


def clr(a):
    """Centered log-ratio transform, ``log a_p - mean_k(log a_k)``.

    The output lives on the zero-sum hyperplane (rows sum to 0 within
    1e-12) and is permutation-equivariant.
    """
    a = check_interior(a)
    la = np.log(a)
    return la - la.mean(axis=-1, keepdims=True)


def ilr(a, basis=None):
    """Isometric log-ratio coordinates ``z = H^T clr(a)``.

    Parameters
    ----------
    a : array_like, shape (..., P)
        Strictly interior compositions.
    basis : ndarray, shape (P, P-1), optional
        Orthonormal basis of the zero-sum hyperplane. Defaults to
        :func:`helmert_basis`.

    Returns
    -------
    ndarray, shape (..., P-1)
    """
    a = check_interior(a)
    H = _basis_for(a.shape[-1], basis)
    return clr(a) @ H


def softmax(w, out=None):
    """Numerically stable softmax along the last axis, written into ``out``
    when given (which may be ``w`` itself); both forms give the same bits."""
    w = np.asarray(w, dtype=float)
    m = np.maximum.reduce(w, axis=-1, keepdims=True)
    e = np.subtract(w, m, out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


# Strict-interior floor for ilr_inv: far above the smallest double but small
# enough not to disturb round trips for any ||z||_inf below ~300.
_SOFTMAX_FLOOR = 1e-300


def interior_softmax(w, out=None):
    """Softmax with each component floored at 1e-300, so the result is
    strictly interior; written into ``out`` when given, as by `softmax`.

    The floor acts per component and nothing is renormalised: adding 1e-300
    cannot change a sum near 1, so the result still sums to 1 within 1e-12,
    and each vector of a stack comes out as it would alone.
    """
    a = softmax(w, out)
    return np.maximum(a, _SOFTMAX_FLOOR, out=a)


def ilr_inv(z, basis=None):
    """Inverse ilr transform, ``softmax(H z)``.

    Stable for arbitrarily large coordinates thanks to max-subtraction. The
    result is strictly interior (each component that underflows in the
    softmax is floored at 1e-300 on its own, with no renormalisation) and
    sums to 1 within 1e-12.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("latent coordinates must be finite")
    H = _basis_for(z.shape[-1] + 1, basis)
    return interior_softmax(z @ H.T)


def geodesic_distance(a, b, basis=None):
    """Geodesic (Aitchison) distance ``||ilr(a) - ilr(b)||_2``.

    Independent of the orthonormal basis choice and invariant under
    simultaneous permutation of the components of both arguments.
    """
    za = ilr(a, basis)
    zb = ilr(b, basis)
    return np.linalg.norm(za - zb, axis=-1)


def geodesic_path(a, b, t, basis=None):
    """Point(s) on the geodesic from ``a`` to ``b``.

    The geodesic is the image under ``ilr_inv`` of the straight line
    between the ilr coordinates, so ``t=0`` returns ``a`` and ``t=1``
    returns ``b``. ``t`` may be a scalar or a 1-D array (in which case
    ``a`` and ``b`` must be single vectors and the result has one row per
    parameter value). Values outside ``[0, 1]`` are rejected.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("path parameter t must lie in [0, 1]")
    za = ilr(a, basis)
    zb = ilr(b, basis)
    if t.ndim == 0:
        z = (1.0 - t) * za + t * zb
    elif t.ndim == 1 and za.ndim == 1:
        z = (1.0 - t)[:, None] * za[None, :] + t[:, None] * zb[None, :]
    else:
        raise ValueError("t must be a scalar, or 1-D with single endpoint vectors")
    return ilr_inv(z, basis)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexuq.errors import InvalidDimensionError, SimplexBoundaryError
from simplexuq.geometry import (
    alr,
    closure,
    clr,
    geodesic_distance,
    geodesic_path,
    helmert_basis,
    ilr,
    ilr_inv,
    interior_softmax,
    softmax,
)


def random_interior(rng, n, P, concentration=1.0):
    """Strictly interior compositions via Dirichlet draws."""
    return rng.dirichlet(np.full(P, concentration), size=n)


def random_basis(rng, P):
    """A non-Helmert orthonormal basis of the zero-sum hyperplane."""
    Q, _ = np.linalg.qr(rng.standard_normal((P - 1, P - 1)))
    return helmert_basis(P) @ Q


# ---------------------------------------------------------------------------
# Helmert basis
# ---------------------------------------------------------------------------


def test_helmert_p2_literal():
    H = helmert_basis(2)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(H, np.array([[s], [-s]]), atol=1e-15)


@pytest.mark.parametrize("P", [2, 3, 4, 8])
def test_helmert_orthonormal_and_zero_sum(P):
    H = helmert_basis(P)
    assert H.shape == (P, P - 1)
    assert np.max(np.abs(H.T @ H - np.eye(P - 1))) < 1e-12
    assert np.max(np.abs(np.ones(P) @ H)) < 1e-12


def test_helmert_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        helmert_basis(1)
    with pytest.raises(InvalidDimensionError):
        helmert_basis(0)


def test_helmert_is_immutable():
    H = helmert_basis(3)
    with pytest.raises(ValueError):
        H[0, 0] = 2.0


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------


def test_closure_normalizes_and_clamps():
    a = closure([0.4, 0.2, 0.2])
    assert abs(a.sum() - 1.0) < 1e-12
    assert np.allclose(a, [0.5, 0.25, 0.25])

    b = closure([1.0, 0.0, 0.0])
    assert np.all(b > 0.0)
    assert abs(b.sum() - 1.0) < 1e-12


def test_closure_rejects_nonfinite():
    with pytest.raises(ValueError):
        closure([np.nan, 0.5, 0.5])


# ---------------------------------------------------------------------------
# alr / clr / ilr
# ---------------------------------------------------------------------------


def test_alr_uniform_is_zero():
    assert np.allclose(alr(np.full(3, 1.0 / 3.0)), 0.0, atol=1e-14)


def test_alr_direct_formula():
    assert np.allclose(alr([0.5, 0.25, 0.25]), [np.log(2.0), 0.0], atol=1e-14)


def test_alr_oracle_value():
    # Frozen from a 30-digit mpmath evaluation of [log(a1/a3), log(a2/a3)].
    got = alr([0.59, 0.01, 0.4])
    expect = np.array([0.38865798979178315, -3.6888794541139363])
    assert np.max(np.abs(got - expect)) < 1e-14


def test_alr_rejects_boundary():
    with pytest.raises(SimplexBoundaryError):
        alr([0.5, 0.5, 0.0])


def test_clr_uniform_and_formula():
    assert np.allclose(clr(np.full(5, 0.2)), 0.0, atol=1e-14)
    a = np.array([0.5, 0.25, 0.25])
    m = np.mean(np.log(a))
    assert np.allclose(clr(a), np.log(a) - m, atol=1e-15)


def test_clr_zero_sum_and_permutation_equivariance():
    rng = np.random.default_rng(7)
    a = random_interior(rng, 200, 4)
    w = clr(a)
    assert np.max(np.abs(w.sum(axis=-1))) < 1e-12
    perm = rng.permutation(4)
    assert np.allclose(clr(a[:, perm]), w[:, perm], atol=1e-14)


def test_ilr_uniform_is_zero():
    assert np.allclose(ilr(np.full(4, 0.25)), 0.0, atol=1e-14)


def test_ilr_oracle_value():
    # Frozen from mpmath: clr in 30-digit precision, then the exact Helmert
    # columns [1/sqrt2, -1/sqrt2, 0] and [1/sqrt6, 1/sqrt6, -sqrt(2/3)].
    got = ilr([0.59, 0.01, 0.4])
    expect = np.array([2.8832543771277959, -1.3473097709616657])
    assert np.max(np.abs(got - expect)) < 1e-14


def test_ilr_norm_matches_clr_norm():
    rng = np.random.default_rng(11)
    a = random_interior(rng, 500, 6)
    assert np.max(np.abs(np.linalg.norm(ilr(a), axis=-1) - np.linalg.norm(clr(a), axis=-1))) < 1e-12


# ---------------------------------------------------------------------------
# ilr_inv and round trips
# ---------------------------------------------------------------------------


def test_ilr_inv_zero_is_uniform():
    assert np.allclose(ilr_inv(np.zeros(2)), np.full(3, 1.0 / 3.0), atol=1e-15)


@pytest.mark.parametrize("P", [2, 3, 4, 8])
def test_round_trip_random_interior(P):
    rng = np.random.default_rng(100 + P)
    a = random_interior(rng, 1000, P)
    back = ilr_inv(ilr(a))
    assert np.max(np.abs(back - a)) < 1e-10


def test_round_trip_latent_side():
    rng = np.random.default_rng(5)
    z = rng.uniform(-30.0, 30.0, size=(500, 3))
    back = ilr(ilr_inv(z))
    assert np.max(np.abs(back - z)) < 1e-10


def test_ilr_inv_large_coordinates_stay_interior():
    z = np.array([[1e3, -1e3], [700.0, 700.0], [-900.0, 0.0]])
    a = ilr_inv(z)
    assert np.all(np.isfinite(a))
    assert np.all(a > 0.0)
    assert np.allclose(a.sum(axis=-1), 1.0, atol=1e-12)


def test_ilr_inv_rejects_nonfinite():
    with pytest.raises(ValueError):
        ilr_inv(np.array([np.inf, 0.0]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=2, max_size=6).map(np.array)
)
def test_round_trip_property(z):
    a = ilr_inv(z)
    assert np.all(a > 0.0)
    assert np.max(np.abs(ilr(a) - z)) < 1e-10


# ---------------------------------------------------------------------------
# geodesic distance / path
# ---------------------------------------------------------------------------


def test_distance_identity_and_symmetry():
    rng = np.random.default_rng(21)
    a = random_interior(rng, 100, 4)
    b = random_interior(rng, 100, 4)
    assert np.all(geodesic_distance(a, a) == 0.0)
    assert np.max(np.abs(geodesic_distance(a, b) - geodesic_distance(b, a))) < 1e-14


def test_distance_triangle_inequality():
    rng = np.random.default_rng(22)
    a = random_interior(rng, 1000, 3)
    b = random_interior(rng, 1000, 3)
    c = random_interior(rng, 1000, 3)
    dab = geodesic_distance(a, b)
    dbc = geodesic_distance(b, c)
    dac = geodesic_distance(a, c)
    assert np.all(dac <= dab + dbc + 1e-12)


def test_distance_permutation_invariance():
    rng = np.random.default_rng(23)
    a = random_interior(rng, 200, 5)
    b = random_interior(rng, 200, 5)
    perm = rng.permutation(5)
    d0 = geodesic_distance(a, b)
    d1 = geodesic_distance(a[:, perm], b[:, perm])
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_distance_basis_independence():
    rng = np.random.default_rng(24)
    a = random_interior(rng, 300, 4)
    b = random_interior(rng, 300, 4)
    B = random_basis(rng, 4)
    assert np.max(np.abs(geodesic_distance(a, b) - geodesic_distance(a, b, basis=B))) < 1e-12


def test_path_endpoints_and_linearity():
    rng = np.random.default_rng(25)
    a = random_interior(rng, 1, 4)[0]
    b = random_interior(rng, 1, 4)[0]
    assert np.max(np.abs(geodesic_path(a, b, 0.0) - a)) < 1e-12
    assert np.max(np.abs(geodesic_path(a, b, 1.0) - b)) < 1e-12
    t = np.linspace(0.0, 1.0, 11)
    pts = geodesic_path(a, b, t)
    assert np.all(pts > 0.0)
    d = geodesic_distance(a, b)
    assert np.max(np.abs(geodesic_distance(np.broadcast_to(a, pts.shape), pts) - t * d)) < 1e-10


def test_path_midpoint_swap_symmetry():
    # Endpoints related by swapping the first two parts: the midpoint must be
    # invariant under that swap.
    p = np.array([0.6, 0.3, 0.1])
    q = np.array([0.3, 0.6, 0.1])
    mid = geodesic_path(p, q, 0.5)
    assert abs(mid[0] - mid[1]) < 1e-14


def test_path_rejects_out_of_range_t():
    a = np.array([0.2, 0.8])
    b = np.array([0.7, 0.3])
    with pytest.raises(ValueError):
        geodesic_path(a, b, 1.5)
    with pytest.raises(ValueError):
        geodesic_path(a, b, -0.1)


# ---------------------------------------------------------------------------
# entropy / mirror map
# ---------------------------------------------------------------------------


def test_entropy_values():
    # the negative Shannon entropy sum_k a_k log a_k, the mirror map's potential
    a = np.full(3, 1.0 / 3.0)
    assert abs(np.sum(a * np.log(a)) + np.log(3.0)) < 1e-14
    a = np.array([0.5, 0.5])
    assert abs(np.sum(a * np.log(a)) + np.log(2.0)) < 1e-15


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(31)
    a = random_interior(rng, 100, 4)
    perm = rng.permutation(4)
    b = a[:, perm]
    assert np.max(np.abs(np.sum(a * np.log(a), axis=-1) - np.sum(b * np.log(b), axis=-1))) < 1e-14


def test_mirror_map_projected_gradient_identity():
    # The ambient entropy gradient is log a + 1; projecting it onto the
    # zero-sum hyperplane and rotating by H^T must reproduce ilr(a).
    rng = np.random.default_rng(33)
    P = 5
    a = random_interior(rng, 200, P)
    H = helmert_basis(P)
    grad = np.log(a) + 1.0
    proj = grad - grad.mean(axis=-1, keepdims=True)
    assert np.max(np.abs(proj @ H - ilr(a))) < 1e-12
    direct = (np.log(a) - np.log(a).mean(axis=-1, keepdims=True)) @ H
    assert np.max(np.abs(direct - ilr(a))) < 1e-12


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(34)
    w = rng.standard_normal((64, 5)) * 50.0
    s = softmax(w)
    assert np.all(s > 0.0)
    assert np.max(np.abs(s.sum(axis=-1) - 1.0)) < 1e-12


@pytest.mark.parametrize("P", [3, 12])
def test_interior_softmax_each_floors_per_stacked_image(P):
    # A stack of (N, P) images in the layout the sampler maps: images 1
    # and 3 have a component below the 1e-300 floor, images 0 and 2 not.
    rng = np.random.default_rng(40)
    W = np.swapaxes(rng.standard_normal((4, P, 5)), 1, 2)
    W[1, 2, 0] = 800.0
    W[3, 0, -1] = -900.0
    got = interior_softmax(W)
    for i in range(4):
        assert np.array_equal(got[i], interior_softmax(W[i]))
    floored = got.min(axis=(1, 2)) < 1e-299
    assert list(floored) == [False, True, False, True]
    # written in place, as the sampler writes its kept images
    assert interior_softmax(W, out=W) is W
    assert np.array_equal(W, got)


@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda P: st.lists(
            st.tuples(
                st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=P, max_size=P),
                st.sampled_from([0.0, 800.0, -800.0]),
            ),
            min_size=2,
            max_size=8,
        )
    )
)
def test_interior_softmax_is_batch_invariant(rows):
    # Each row's image must not depend on what is stacked with it. A shift
    # of +-800 on a row's first entry puts some of its components (or all
    # but one) below the 1e-300 floor.
    W = np.array([[w[0] + shift, *w[1:]] for w, shift in rows])
    got = interior_softmax(W)
    for i in range(len(W)):
        assert np.array_equal(got[i], interior_softmax(W[i]))
        assert np.array_equal(got[i], interior_softmax(W[i : i + 1])[0])
    assert np.all(got > 0.0)
    assert np.max(np.abs(got.sum(axis=-1) - 1.0)) < 1e-12

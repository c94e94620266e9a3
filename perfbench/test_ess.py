"""The ESS estimator on AR(1) series, whose ESS is n (1 - rho) / (1 + rho).

Run from the repository root: python3 -m pytest perfbench/test_ess.py
"""

import numpy as np
import pytest

from ess import ess


def ar1(rho, n, k, rng):
    e = rng.standard_normal((n, k))
    x = np.empty_like(e)
    x[0] = e[0] / np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.97, -0.3])
def test_ar1_ess_matches_closed_form(rho):
    n = 20_000
    est = ess(ar1(rho, n, 64, np.random.default_rng(17)))
    exact = n * (1.0 - rho) / (1.0 + rho)
    assert est.shape == (64,)
    assert abs(np.median(est) / exact - 1.0) < 0.05


def test_single_series_returns_scalar():
    x = ar1(0.5, 4000, 1, np.random.default_rng(3))[:, 0]
    assert np.ndim(ess(x)) == 0
    assert ess(x) == pytest.approx(ess(x[:, None])[0])

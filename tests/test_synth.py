import numpy as np
import pytest

from simplexuq.io import make_grid
from simplexuq.prior import KernelSpec, PriorSpec
from simplexuq.synth import builtin_endmembers, sigma2_from_snr, synth_generate


def test_builtin_endmembers_shape_and_structure():
    S, names = builtin_endmembers(64, 3)
    assert S.shape == (64, 3)
    assert names == ["material_1", "material_2", "material_3"]
    assert np.all(S > 0.0)
    # bright pair is strongly correlated, dark profile is dim
    rho = np.corrcoef(S.T)
    assert rho[0, 1] > 0.9
    assert S[:, 2].max() < 0.2 < S[:, :2].min(axis=0).max()


def test_builtin_endmembers_other_sizes():
    S, names = builtin_endmembers(32, 4)
    assert S.shape == (32, 4)
    assert len(names) == 4
    with pytest.raises(ValueError):
        builtin_endmembers(64, 1)
    with pytest.raises(ValueError):
        builtin_endmembers(1, 3)


def test_snr_round_trip_large_image():
    # criterion: regenerated SNR within 0.1 dB of the request at N >= 1024
    S, _ = builtin_endmembers(48, 3)
    grid = make_grid(32, 32)
    spec = PriorSpec(P=3, sigma_a2=0.5, kernel=KernelSpec(length_scale=6.0))
    res = synth_generate(S, grid, spec, snr_db=15.0, rng=0)
    realized = 10.0 * np.log10(np.mean(res.clean**2) / np.mean((res.X - res.clean) ** 2))
    assert abs(realized - 15.0) < 0.1
    assert res.sigma2 == sigma2_from_snr(res.clean, 15.0)


def test_synth_noise_free():
    S, _ = builtin_endmembers(16, 3)
    grid = make_grid(3, 3)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind="dirac"))
    res = synth_generate(S, grid, spec, snr_db=None, rng=1)
    assert np.array_equal(res.X, res.clean)
    assert res.sigma2 == 0.0
    assert np.array_equal(res.clean, S @ res.A)


def test_synth_fig2_scenario_values():
    S, _ = builtin_endmembers(64, 3)
    gt = np.array([[0.59], [0.01], [0.4]])
    spec = PriorSpec(P=3, sigma_a2=5.0, kernel=KernelSpec(kind="dirac"))
    res = synth_generate(S, np.array([[0.0, 0.0]]), spec, snr_db=8.0, rng=2, abundances=gt)
    assert np.array_equal(res.A, gt)
    assert res.sigma2 == pytest.approx(np.mean((S @ gt) ** 2) / 10**0.8)


def test_synth_determinism_and_gt_constraints():
    S, _ = builtin_endmembers(32, 3)
    grid = make_grid(4, 4)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(length_scale=3.0))
    r1 = synth_generate(S, grid, spec, snr_db=20.0, rng=7)
    r2 = synth_generate(S, grid, spec, snr_db=20.0, rng=7)
    assert np.array_equal(r1.X, r2.X)
    assert np.all(r1.A > 0.0)
    assert np.max(np.abs(r1.A.sum(axis=0) - 1.0)) < 1e-12


def test_sigma2_from_snr_rejects_infinite_snr():
    with pytest.raises(ValueError, match=r"synth_generate\(\.\.\., snr_db=None\)"):
        sigma2_from_snr(np.ones((4, 3)), np.inf)


def test_synth_validation():
    S, _ = builtin_endmembers(16, 3)
    spec = PriorSpec(P=3, sigma_a2=1.0, kernel=KernelSpec(kind="dirac"))
    with pytest.raises(ValueError):
        synth_generate(S, make_grid(2, 2), spec, snr_db=np.inf, rng=0)
    with pytest.raises(ValueError):
        synth_generate(S, make_grid(2, 2), spec, snr_db=10.0, rng=0, abundances=np.ones((3, 7)))

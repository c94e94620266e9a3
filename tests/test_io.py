import json

import numpy as np
import pytest

from simplexuq import io as sio
from simplexuq.errors import ConfigError


# ---------------------------------------------------------------------------
# binary containers
# ---------------------------------------------------------------------------


def test_cube_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(5, 12))
    p1 = tmp_path / "a.cube"
    p2 = tmp_path / "b.cube"
    sio.write_cube(p1, X, width=4, height=3, dtype="float32")
    Y, header = sio.read_cube(p1)
    assert header["n_bands"] == 5 and header["width"] == 4 and header["height"] == 3
    assert np.max(np.abs(Y - X)) < 1e-7  # float32 storage
    sio.write_cube(p2, Y, width=4, height=3, dtype="float32")
    assert p1.read_bytes() == p2.read_bytes()


def test_cube_full_scene_dimensions(tmp_path):
    # the container must round-trip a full 95 x 95 x 195-band scene
    rng = np.random.default_rng(42)
    X = rng.uniform(0.0, 1.0, size=(195, 95 * 95)).astype(np.float32).astype(float)
    p = tmp_path / "scene.cube"
    sio.write_cube(p, X, width=95, height=95, dtype="float32")
    Y, header = sio.read_cube(p)
    assert header["n_bands"] == 195 and header["width"] == 95 and header["height"] == 95
    assert np.array_equal(X, Y)


def test_cube_float64_lossless(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 6))
    p = tmp_path / "c.cube"
    sio.write_cube(p, X, width=3, height=2, dtype="float64")
    Y, _ = sio.read_cube(p)
    assert np.array_equal(X, Y)


def test_cube_validation(tmp_path):
    with pytest.raises(ValueError):
        sio.write_cube(tmp_path / "x.cube", np.zeros((2, 5)), width=2, height=2)
    with pytest.raises(ValueError):
        sio.write_cube(tmp_path / "x.cube", np.zeros((2, 4)), width=2, height=2, dtype="int8")
    p = tmp_path / "bad.cube"
    p.write_bytes(b'{"band_order":"band-major","dtype":"float32","height":2,"n_bands":2,"width":2}\n' + b"\0" * 7)
    with pytest.raises(ValueError):
        sio.read_cube(p)
    p.write_bytes(b"not json\n" + b"\0" * 32)
    with pytest.raises(ValueError):
        sio.read_cube(p)


def test_stack_round_trip_and_sum_check(tmp_path):
    rng = np.random.default_rng(2)
    stack = rng.dirichlet(np.ones(3), size=(4, 6)).transpose(0, 2, 1)
    p = tmp_path / "chain.stack"
    sio.write_abundance_stack(p, stack, width=3, height=2)
    back, header = sio.read_abundance_stack(p)
    assert np.array_equal(back, stack)
    assert header["n_frames"] == 4 and header["n_parts"] == 3
    # write -> read -> write is byte-identical
    p2 = tmp_path / "chain2.stack"
    sio.write_abundance_stack(p2, back, width=3, height=2)
    assert p.read_bytes() == p2.read_bytes()


def test_stack_renormalizes_with_warning(tmp_path):
    stack = np.full((1, 2, 4), 0.55)  # sums to 1.1
    p = tmp_path / "bad.stack"
    sio.write_abundance_stack(p, stack, width=2, height=2)
    with pytest.warns(UserWarning, match="renormalizing"):
        back, _ = sio.read_abundance_stack(p)
    assert np.max(np.abs(back.sum(axis=1) - 1.0)) < 1e-12


def test_stack_small_deviation_kept_verbatim(tmp_path):
    stack = np.array([[[0.5 + 2e-7], [0.5 - 1e-7]]])  # sums to 1 + 1e-7 < tol
    p = tmp_path / "ok.stack"
    sio.write_abundance_stack(p, stack, width=1, height=1)
    back, _ = sio.read_abundance_stack(p)
    assert np.array_equal(back, stack)


def test_stack_single_frame_convenience(tmp_path):
    A = np.full((2, 4), 0.5)
    p = tmp_path / "one.stack"
    sio.write_abundance_stack(p, A, width=2, height=2)
    back, header = sio.read_abundance_stack(p)
    assert header["n_frames"] == 1
    assert np.array_equal(back[0], A)


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------


def test_endmembers_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    S = rng.uniform(0.0, 1.0, size=(195, 3))
    p = tmp_path / "end.csv"
    sio.write_endmembers(p, S, ["soil", "vegetation", "water"])
    S2, names = sio.load_endmembers(p)
    assert names == ["soil", "vegetation", "water"]
    assert S2.shape == (195, 3)
    assert np.array_equal(S, S2)


def test_endmembers_toy_and_errors(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("a,b\n0.1,0.9\n0.8,0.2\n")
    S, names = sio.load_endmembers(p)
    assert S.shape == (2, 2)

    p.write_text("only\n0.5\n0.5\n")
    with pytest.raises(ValueError):
        sio.load_endmembers(p)

    p.write_text("a,b\n0.1\n0.8,0.2\n")
    with pytest.raises(ValueError, match="row 2"):
        sio.load_endmembers(p)

    p.write_text("a,b\n0.1,x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        sio.load_endmembers(p)


def test_mask_round_trip_and_errors(tmp_path):
    p = tmp_path / "mask.csv"
    sio.write_mask(p, [3, 1, 7])
    assert np.array_equal(sio.load_mask(p), [3, 1, 7])
    p.write_text("index\n2\n2\n")
    with pytest.raises(ValueError, match="unique"):
        sio.load_mask(p)
    p.write_text("index\nfoo\n")
    with pytest.raises(ValueError):
        sio.load_mask(p)


def test_float_csv_lossless(tmp_path):
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((7, 5)) * 1e-7
    p = tmp_path / "m.csv"
    sio.write_float_csv(p, arr)
    assert np.array_equal(sio.read_float_csv(p), arr)


def test_make_grid_layout():
    g = sio.make_grid(3, 2)
    assert g.shape == (6, 2)
    # row-major: pixel 1 is (x=1, y=0), pixel 3 starts the second row
    assert np.array_equal(g[1], [1.0, 0.0])
    assert np.array_equal(g[3], [0.0, 1.0])
    with pytest.raises(ValueError):
        sio.make_grid(0, 2)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def valid_config():
    return {
        "n_parts": 3,
        "prior": {"sigma_a2": 0.25, "kernel": {"kind": "exponential", "length_scale": 10.0}},
        "noise": {"snr_db": 15.0},
        "grid": {"width": 4, "height": 4},
        "sampler": {"step_size": 1e-3, "n_steps": 100, "seed": 0},
        "uq": {"alpha": 0.1, "estimator": "barycentric-histogram", "bins": 64},
    }


def test_config_valid_document(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(valid_config()))
    cfg = sio.load_run_config(p)
    spec = sio.config_to_prior_spec(cfg)
    assert spec.P == 3 and spec.kernel.length_scale == 10.0
    scfg = sio.config_to_sampler_config(cfg)
    assert scfg.n_steps == 100 and scfg.burn_in == 20


def test_config_rejects_unknown_keys():
    doc = valid_config()
    doc["typo_key"] = 1
    with pytest.raises(ConfigError, match="unknown key"):
        sio.validate_config(doc)
    doc = valid_config()
    doc["sampler"]["stepsize"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        sio.validate_config(doc)


def test_config_missing_required_and_types():
    doc = valid_config()
    del doc["sampler"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        sio.validate_config(doc)
    doc = valid_config()
    doc["prior"]["sigma_a2"] = "big"
    with pytest.raises(ConfigError, match="wrong type"):
        sio.validate_config(doc)
    doc = valid_config()
    doc["noise"] = {"sigma2": 0.1, "snr_db": 10.0}
    with pytest.raises(ConfigError, match="not both"):
        sio.validate_config(doc)
    with pytest.raises(ConfigError):
        sio.validate_config({"n_parts": 3})


def test_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        sio.load_run_config(p)


def test_prior_spec_config_round_trip():
    from simplexuq.prior import KernelSpec

    doc = {
        "n_parts": 4,
        "prior": {
            "sigma_a2": 0.7,
            "kernel": {"kind": "exponential", "length_scale": 5.0, "sigma_k2": 1.2, "jitter": 0.0},
            "mean": [0.1, -0.2, 0.3],
        },
        "sampler": {"step_size": 0.1, "n_steps": 10, "seed": 0},
    }
    spec = sio.config_to_prior_spec(sio.validate_config(doc))
    assert spec.P == 4
    assert spec.sigma_a2 == 0.7
    assert spec.kernel == KernelSpec(kind="exponential", length_scale=5.0, sigma_k2=1.2)
    assert np.array_equal(spec.mean, [0.1, -0.2, 0.3])


# ---------------------------------------------------------------------------
# PGM maps
# ---------------------------------------------------------------------------


def test_pgm_scaling_and_sidecar(tmp_path):
    img = np.array([[0.0, 1.0], [2.0, 4.0]])
    p = tmp_path / "map.pgm"
    side = tmp_path / "map_scale.json"
    sio.write_pgm16(p, img, side)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    vals = np.frombuffer(raw.split(b"65535\n", 1)[1], dtype=">u2").reshape(2, 2)
    assert vals[0, 0] == 0 and vals[1, 1] == 65535
    assert vals[0, 1] == round(1.0 / 4.0 * 65535)
    meta = json.loads(side.read_text())
    assert meta["vmin"] == 0.0 and meta["vmax"] == 4.0 and not meta["degenerate"]


def test_pgm_constant_map_degenerate(tmp_path):
    p = tmp_path / "const.pgm"
    side = tmp_path / "const_scale.json"
    sio.write_pgm16(p, np.full((3, 3), 7.5), side)
    meta = json.loads(side.read_text())
    assert meta["degenerate"] is True
    vals = np.frombuffer(p.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
    assert np.all(vals == 0)


# ---------------------------------------------------------------------------
# ternary exports
# ---------------------------------------------------------------------------


def test_ternary_corner_and_centroid():
    corners = sio.simplex_corners(3)
    xy = sio.bary_to_cart(np.eye(3))
    assert np.max(np.abs(xy - corners)) < 1e-15
    centroid = sio.bary_to_cart(np.full((1, 3), 1.0 / 3.0))[0]
    assert np.max(np.abs(centroid - corners.mean(axis=0))) < 1e-15


def test_ternary_export_files(tmp_path):
    rng = np.random.default_rng(6)
    samples = rng.dirichlet(np.ones(3), size=500)
    from simplexuq.uq import euclidean_mean, geodesic_mean, hdr

    region = hdr(samples, 0.2, bins=8)
    prefix = str(tmp_path / "tern")
    sio.export_ternary(prefix, samples, geodesic_mean(samples), euclidean_mean(samples), hdr=region)
    xy = sio.read_float_csv(prefix + "_samples.csv", skip_header=True)
    assert xy.shape == (500, 2)
    svg = (tmp_path / "tern.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    cells = (tmp_path / "tern_hdr_cells.csv").read_text().splitlines()
    assert cells[0] == "cell,vertex,x,y"
    assert len(cells) == 1 + 3 * len(region.region_cells)


def test_ternary_p4_and_limits(tmp_path):
    rng = np.random.default_rng(7)
    samples = rng.dirichlet(np.ones(4), size=50)
    prefix = str(tmp_path / "tetra")
    sio.export_ternary(prefix, samples, svg=False)
    xyz = sio.read_float_csv(prefix + "_samples.csv", skip_header=True)
    assert xyz.shape == (50, 3)
    with pytest.raises(ValueError):
        sio.export_ternary(str(tmp_path / "x"), rng.dirichlet(np.ones(5), size=5))
    with pytest.raises(ValueError):
        sio.simplex_corners(6)


# ---------------------------------------------------------------------------
# Samson-style loaders
# ---------------------------------------------------------------------------


def test_samson_loaders(tmp_path):
    from scipy.io import savemat

    rng = np.random.default_rng(8)
    V = rng.uniform(0.0, 1.0, size=(12, 16))
    savemat(tmp_path / "samson_1.mat", {"V": V, "nRow": 4, "nCol": 4})
    X, w, h, prov = sio.load_samson_cube(tmp_path / "samson_1.mat")
    assert (w, h) == (4, 4)
    assert np.allclose(X, V)
    assert prov["n_bands"] == 12

    M = rng.uniform(0.0, 1.0, size=(12, 3))
    A = rng.dirichlet(np.ones(3), size=16).T
    savemat(tmp_path / "end3.mat", {"M": M, "A": A})
    S, A2, prov2 = sio.load_samson_endmembers(tmp_path / "end3.mat")
    assert S.shape == (12, 3)
    assert A2.shape == (3, 16)
    assert prov2["n_parts"] == 3

    savemat(tmp_path / "weird.mat", {"other": V})
    with pytest.raises(ValueError):
        sio.load_samson_cube(tmp_path / "weird.mat")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    sio.write_float_csv(tmp_path / "clean.csv", np.ones((2, 2)))
    leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".tmp-")]
    assert leftovers == []

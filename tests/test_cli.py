import json

import numpy as np
import pytest

from simplexuq import io as sio
from simplexuq.cli import main


def write_config(path, **overrides):
    doc = {
        "n_parts": 3,
        "prior": {"sigma_a2": 0.5, "kernel": {"kind": "exponential", "length_scale": 3.0}},
        "noise": {"snr_db": 20.0},
        "grid": {"width": 3, "height": 3},
        "sampler": {"step_size": 1e-3, "n_steps": 60, "burn_in": 20, "seed": 0},
        "uq": {"alpha": 0.2, "bins": 16},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return doc


def test_transform_ilr_uniform(tmp_path):
    inp = tmp_path / "in.csv"
    out = tmp_path / "out.csv"
    sio.write_float_csv(inp, np.full((2, 3), 1.0 / 3.0))
    assert main(["transform", "--op", "ilr", "--input", str(inp), "--output", str(out)]) == 0
    z = sio.read_float_csv(out)
    assert z.shape == (2, 2)
    assert np.max(np.abs(z)) < 1e-12


def test_transform_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.dirichlet(np.ones(4), size=5)
    f1, f2, f3 = (tmp_path / n for n in ("a.csv", "z.csv", "back.csv"))
    sio.write_float_csv(f1, a)
    assert main(["transform", "--op", "ilr", "--input", str(f1), "--output", str(f2)]) == 0
    assert main(["transform", "--op", "softmax", "--input", str(f2), "--output", str(f3)]) == 0
    assert np.max(np.abs(sio.read_float_csv(f3) - a)) < 1e-10


def test_pipeline_synth_unmix_uq(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"output_dir": str(tmp_path)})
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "observations.cube").exists()
    assert (tmp_path / "ground_truth.stack").exists()

    write_config(
        cfg_path,
        paths={
            "cube": str(tmp_path / "observations.cube"),
            "endmembers": str(tmp_path / "endmembers.csv"),
            "output_dir": str(tmp_path),
        },
    )
    assert main(["unmix", "--config", str(cfg_path)]) == 0
    chain, header = sio.read_abundance_stack(tmp_path / "chain.stack")
    assert header["n_frames"] == 40
    assert np.max(np.abs(chain.sum(axis=1) - 1.0)) < 1e-6
    meta = json.loads((tmp_path / "chain.json").read_text())
    assert meta["algorithm"] == "mirror-langevin"
    assert len(meta["energy_trace"]) == 61

    write_config(
        cfg_path,
        paths={"stack": str(tmp_path / "chain.stack"), "output_dir": str(tmp_path)},
    )
    assert main(["uq", "--config", str(cfg_path)]) == 0
    for name in ("geodesic_std.pgm", "geodesic_std.csv", "euclidean_std.pgm",
                 "uq_summary.json", "geodesic_mean.stack"):
        assert (tmp_path / name).exists()
    gmean, _ = sio.read_abundance_stack(tmp_path / "geodesic_mean.stack")
    assert np.max(np.abs(gmean.sum(axis=1) - 1.0)) < 1e-6
    # exported maps have the raster dimensions of the grid
    assert sio.read_float_csv(tmp_path / "geodesic_std.csv").shape == (3, 3)


def test_projected_ula_algorithm_switch(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"output_dir": str(tmp_path)})
    assert main(["synth", "--config", str(cfg_path)]) == 0
    write_config(
        cfg_path,
        paths={
            "cube": str(tmp_path / "observations.cube"),
            "endmembers": str(tmp_path / "endmembers.csv"),
            "output_dir": str(tmp_path),
        },
        sampler={"algorithm": "projected-ula", "step_size": 1e-5, "n_steps": 30,
                 "burn_in": 10, "seed": 1},
    )
    assert main(["unmix", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "chain.json").read_text())
    assert meta["algorithm"] == "projected-ula"


def test_single_pixel_uq_exports_hdr(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.dirichlet(np.ones(3) * 5.0, size=(200,))[:, :, None]
    sio.write_abundance_stack(tmp_path / "pixel.stack", samples, width=1, height=1)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"stack": str(tmp_path / "pixel.stack"),
                                  "output_dir": str(tmp_path)})
    assert main(["uq", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "uq_summary.json").read_text())
    assert meta["hdr"]["n_components"] >= 1
    assert (tmp_path / "pixel_samples.csv").exists()
    assert (tmp_path / "pixel.svg").exists()


def test_sample_prior_and_interpolate(tmp_path):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"output_dir": str(tmp_path)})
    assert main(["sample-prior", "--config", str(cfg_path), "--n-samples", "3"]) == 0
    stack, header = sio.read_abundance_stack(tmp_path / "prior_samples.stack")
    assert stack.shape == (3, 3, 9)

    # observe a few pixels of the first draw and interpolate the rest
    sio.write_abundance_stack(tmp_path / "observed.stack", stack[0], width=3, height=3)
    sio.write_mask(tmp_path / "mask.csv", [0, 4, 8])
    write_config(
        cfg_path,
        paths={"stack": str(tmp_path / "observed.stack"), "mask": str(tmp_path / "mask.csv"),
               "output_dir": str(tmp_path)},
    )
    assert main(["interpolate", "--config", str(cfg_path)]) == 0
    interp, _ = sio.read_abundance_stack(tmp_path / "interpolated.stack")
    assert np.max(np.abs(interp[0][:, [0, 4, 8]] - stack[0][:, [0, 4, 8]])) < 1e-6
    var = sio.read_float_csv(tmp_path / "latent_variance.csv")
    assert var.shape == (3, 3)


def test_validation_error_exit_code_and_json(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    doc = write_config(cfg_path)
    doc["sampler"].pop("seed")
    cfg_path.write_text(json.dumps(doc))
    code = main(["--error-json", "synth", "--config", str(cfg_path)])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["exit_code"] == 1
    assert "seed" in payload["message"]


@pytest.mark.parametrize("key", ["sigma_k2", "sigma_a2"])
def test_config_integer_too_large_for_a_float_is_validation_error(tmp_path, capsys, key):
    # 1 followed by 400 zeros parses to a Python int; at the kernel it
    # used to raise TypeError from np.sqrt, a bare traceback.
    prior = {"sigma_a2": 1.0, "kernel": {"kind": "dirac"}}
    (prior["kernel"] if key == "sigma_k2" else prior)[key] = 0
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, prior=prior, grid={"width": 2, "height": 2})
    cfg_path.write_text(cfg_path.read_text().replace(f'"{key}": 0', f'"{key}": 1' + "0" * 400))
    code = main(["--error-json", "synth", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith("error: config number 1000")
    payload = json.loads(lines[-1])
    assert payload["error"] == "ConfigError"
    assert payload["exit_code"] == 1
    assert "overflows a float" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_malformed_stack_header_is_validation_error(tmp_path, capsys):
    stack = tmp_path / "chain.stack"
    header = {"band_order": "band-major", "dtype": "float64", "height": 1, "n_frames": 0.5, "n_parts": 2, "width": 1}
    # 0.5 frames of 2 float64 parts is 8 bytes: the size check alone passes it
    stack.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"\0" * 8)
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"stack": str(stack), "output_dir": str(tmp_path / "out")})
    code = main(["--error-json", "uq", "--config", str(cfg_path)])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0].startswith("error: header key 'n_frames'")
    payload = json.loads(lines[-1])
    assert payload["error"] == "ValueError"
    assert payload["exit_code"] == 1
    assert "n_frames" in payload["message"]


def test_interpolate_mask_past_stack_is_validation_error(tmp_path, capsys):
    sio.write_abundance_stack(tmp_path / "observed.stack", np.full((3, 9), 1.0 / 3.0), width=3, height=3)
    sio.write_mask(tmp_path / "mask.csv", [0, 4, 99])
    cfg_path = tmp_path / "run.json"
    write_config(
        cfg_path,
        paths={"stack": str(tmp_path / "observed.stack"), "mask": str(tmp_path / "mask.csv"),
               "output_dir": str(tmp_path / "out")},
    )
    code = main(["--error-json", "interpolate", "--config", str(cfg_path)])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0] == "error: mask index 99 is past the stack's 9 pixels"
    payload = json.loads(lines[-1])
    assert payload == {"error": "ValueError", "message": lines[0][len("error: "):], "exit_code": 1}


def test_interpolate_stack_off_the_grid_is_validation_error(tmp_path, capsys):
    # A 4x4 stack under a 3x3 grid: stack pixel 5 is (1, 1), grid pixel 5
    # is (2, 1), so its observations would land in the wrong place.
    sio.write_abundance_stack(tmp_path / "observed.stack", np.full((3, 16), 1.0 / 3.0), width=4, height=4)
    sio.write_mask(tmp_path / "mask.csv", [0, 5, 8])
    cfg_path = tmp_path / "run.json"
    write_config(
        cfg_path,
        paths={"stack": str(tmp_path / "observed.stack"), "mask": str(tmp_path / "mask.csv"),
               "output_dir": str(tmp_path / "out")},
    )
    code = main(["--error-json", "interpolate", "--config", str(cfg_path)])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[0] == "error: stack is 4x4 pixels but grid is 3x3"
    payload = json.loads(lines[-1])
    assert payload == {"error": "ValueError", "message": lines[0][len("error: "):], "exit_code": 1}
    assert not (tmp_path / "out").exists()


def test_uq_on_nan_stack_is_validation_error(tmp_path, capsys):
    chain = np.full((4, 3, 2), 1.0 / 3.0)
    chain[2, 1, 0] = np.nan
    # written byte by byte: the stack writer itself refuses a NaN payload
    header = {"band_order": "band-major", "dtype": "float64", "height": 1, "n_frames": 4, "n_parts": 3, "width": 2}
    (tmp_path / "chain.stack").write_bytes(sio._header_bytes(header) + chain.astype("<f8").tobytes())
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"stack": str(tmp_path / "chain.stack"), "output_dir": str(tmp_path / "out")})
    code = main(["--error-json", "uq", "--config", str(cfg_path)])
    assert code == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ValueError"
    assert payload["exit_code"] == 1
    assert "non-finite" in payload["message"]
    assert not (tmp_path / "out").exists()


def test_missing_file_is_validation_error(tmp_path):
    assert main(["transform", "--op", "clr", "--input", str(tmp_path / "nope.csv"),
                 "--output", str(tmp_path / "out.csv")]) == 1


def test_numerical_error_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    write_config(cfg_path, paths={"output_dir": str(tmp_path)})
    assert main(["synth", "--config", str(cfg_path)]) == 0
    write_config(
        cfg_path,
        paths={
            "cube": str(tmp_path / "observations.cube"),
            "endmembers": str(tmp_path / "endmembers.csv"),
            "output_dir": str(tmp_path),
        },
        sampler={"step_size": 1e6, "n_steps": 3000, "burn_in": 10, "seed": 0},
    )
    code = main(["--error-json", "unmix", "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "DivergenceError"
    assert payload["exit_code"] == 2


def test_repro_fig2_smoke(tmp_path, capsys, monkeypatch):
    # tiny-seeded smoke of the CLI wiring only; the full experiment runs in
    # the acceptance suite
    import simplexuq.repro as repro

    monkeypatch.setattr(repro, "FIG2_N_KEPT", 200)
    monkeypatch.setattr(repro, "FIG2_BURN_IN", 100)
    out = tmp_path / "fig2"
    assert main(["repro", "fig2", "--output-dir", str(out)]) == 0
    assert (out / "fig2_summary.json").exists()
    assert (out / "fig2.svg").exists()
    assert "HDR components" in capsys.readouterr().out

import json
import os
import threading
import tracemalloc
import warnings

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
    sio.write_cube(p1, X, width=4, height=3)
    Y, header = sio.read_cube(p1)
    assert header["n_bands"] == 5 and header["width"] == 4 and header["height"] == 3
    assert np.max(np.abs(Y - X)) < 1e-7  # float32 storage
    sio.write_cube(p2, Y, width=4, height=3)
    assert p1.read_bytes() == p2.read_bytes()


def test_cube_full_scene_dimensions(tmp_path):
    # the container must round-trip a full 95 x 95 x 195-band scene
    rng = np.random.default_rng(42)
    X = rng.uniform(0.0, 1.0, size=(195, 95 * 95)).astype(np.float32).astype(float)
    p = tmp_path / "scene.cube"
    sio.write_cube(p, X, width=95, height=95)
    Y, header = sio.read_cube(p)
    assert header["n_bands"] == 195 and header["width"] == 95 and header["height"] == 95
    assert np.array_equal(X, Y)


def test_cube_float64_lossless(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((3, 6))
    p = tmp_path / "c.cube"
    # write_cube writes float32; a float64 cube, from elsewhere, reads back exactly
    sio._write_container(p, X, 3, 2, "float64", ("n_bands",))
    Y, _ = sio.read_cube(p)
    assert np.array_equal(X, Y)


def test_cube_validation(tmp_path):
    with pytest.raises(ValueError):
        sio.write_cube(tmp_path / "x.cube", np.zeros((2, 5)), width=2, height=2)
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


@pytest.mark.parametrize(
    "write, shape, width, height, key",
    [
        (sio.write_abundance_stack, (0, 3, 4), 2, 2, "n_frames"),
        (sio.write_abundance_stack, (2, 0, 4), 2, 2, "n_parts"),
        (sio.write_abundance_stack, (1, 3, 0), 0, 1, "width"),
        (sio.write_abundance_stack, (1, 3, 0), 1, 0, "height"),
        (sio.write_cube, (0, 4), 2, 2, "n_bands"),
    ],
)
def test_container_writers_reject_what_the_reader_rejects(tmp_path, write, shape, width, height, key):
    with pytest.raises(ValueError, match=f"header key '{key}' must be a positive integer, got 0"):
        write(tmp_path / "empty", np.zeros(shape), width, height)
    assert list(tmp_path.iterdir()) == []


def _write_header(path, header, payload_bytes):
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + b"\0" * payload_bytes)


_VALID_HEADERS = {
    "cube": (sio.read_cube, {"band_order": "band-major", "dtype": "float32", "height": 2, "n_bands": 2, "width": 2}),
    "stack": (
        sio.read_abundance_stack,
        {"band_order": "band-major", "dtype": "float64", "height": 1, "n_frames": 1, "n_parts": 2, "width": 1},
    ),
}


_MALFORMED_COUNTS = [0.5, 2.0, True, 0, -1, "2", None, [2]]


@pytest.mark.parametrize(
    "kind, key",
    [("cube", k) for k in ("n_bands", "width", "height")] + [("stack", k) for k in ("n_frames", "n_parts", "width", "height")],
)
@pytest.mark.parametrize("value", _MALFORMED_COUNTS)
def test_container_rejects_malformed_counts(tmp_path, kind, key, value):
    read, header = _VALID_HEADERS[kind]
    p = tmp_path / f"bad.{kind}"
    _write_header(p, {**header, key: value}, 16)  # the valid header's payload size
    with pytest.raises(ValueError, match=f"header key '{key}' must be a positive integer"):
        read(p)


@pytest.mark.parametrize("write", [sio.write_cube, sio.write_abundance_stack])
@pytest.mark.parametrize("key", ["width", "height"])
@pytest.mark.parametrize("value", [*_MALFORMED_COUNTS, np.int64(2)], ids=repr)
def test_container_writers_refuse_the_sizes_the_reader_refuses(tmp_path, write, key, value):
    # A one-pixel image, so that a width or height of True (== 1) passes
    # the pixel count and only the header rule can refuse it.
    sizes = {"width": 1, "height": 1, key: value}
    with pytest.raises(ValueError, match=f"header key '{key}' must be a positive integer"):
        write(tmp_path / "x", np.full((2, 1), 0.5), sizes["width"], sizes["height"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["cube", "stack"])
@pytest.mark.parametrize(
    "entry, message",
    [
        ({"band_order": "pixel-major"}, "unsupported band_order 'pixel-major'"),
        ({"band_order": None}, "unsupported band_order None"),
        ({"dtype": "int8"}, "unsupported dtype 'int8'"),
    ],
)
def test_container_readers_refuse_unknown_layouts(tmp_path, kind, entry, message):
    read, header = _VALID_HEADERS[kind]
    p = tmp_path / f"bad.{kind}"
    _write_header(p, {**header, **entry}, 16)
    with pytest.raises(ValueError, match=message):
        read(p)


def test_container_missing_key_and_wrong_rank(tmp_path):
    p = tmp_path / "bad.stack"
    _write_header(p, {"band_order": "band-major", "dtype": "float64", "height": 1, "n_parts": 2, "width": 1}, 16)
    with pytest.raises(ValueError, match="header missing key 'n_frames'"):
        sio.read_abundance_stack(p)
    with pytest.raises(ValueError):
        sio.write_cube(tmp_path / "x.cube", np.zeros((2, 2, 4)), width=2, height=2)
    with pytest.raises(ValueError):
        sio.write_abundance_stack(tmp_path / "x.stack", np.zeros(4), width=2, height=2)


@pytest.mark.parametrize("kind", ["cube", "stack"])
@pytest.mark.parametrize("extra", [-16, -1, 1, 8])
def test_container_payload_of_the_wrong_size(tmp_path, kind, extra):
    read, header = _VALID_HEADERS[kind]
    size = {"cube": 32, "stack": 16}[kind]
    p = tmp_path / f"bad.{kind}"
    _write_header(p, header, size + extra)
    with pytest.raises(ValueError, match=f"payload is {size + extra} bytes, expected {size}"):
        read(p)
    # A header that claims an impossibly large payload is refused by size,
    # before any array is allocated for it.
    _write_header(p, {**header, "width": 10**9, "height": 10**9}, size)
    with pytest.raises(ValueError, match=f"payload is {size} bytes, expected"):
        read(p)


def test_stack_reads_from_a_pipe(tmp_path):
    # A pipe has no size to check before reading: its payload is counted
    # as it is read, with the same messages as a file's.
    stack = np.full((2, 3, 4), 1.0 / 3.0)
    sio.write_abundance_stack(tmp_path / "s.stack", stack, 2, 2)
    data = (tmp_path / "s.stack").read_bytes()
    fifo = tmp_path / "fifo"
    for payload, error in ((data, None), (data[:-8], "payload is 184 bytes, expected 192"),
                           (data + b"abc", "payload is 195 bytes, expected 192")):
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,))
        writer.start()
        try:
            if error is None:
                assert np.array_equal(sio.read_abundance_stack(fifo)[0], stack)
            else:
                with pytest.raises(ValueError, match=error):
                    sio.read_abundance_stack(fifo)
        finally:
            writer.join(timeout=10)
            os.unlink(fifo)
        assert not writer.is_alive()


def test_stack_write_and_read_peak_memory(tmp_path):
    # Under tracemalloc a write holds no copy of a float64 chain (only the
    # finiteness mask, an eighth of it), and a read holds the array it
    # returns plus that mask.
    chain = np.random.default_rng(31).dirichlet(np.ones(3), size=(100, 1024)).transpose(0, 2, 1).copy()
    p = tmp_path / "chain.stack"
    tracemalloc.start()
    try:
        sio.write_abundance_stack(p, chain, 32, 32)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back, _ = sio.read_abundance_stack(p)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, chain)
    assert write_peak < 0.25 * chain.nbytes
    assert read_peak < 1.25 * chain.nbytes


def _write_raw_container(path, arr, width, height, dtype, count_keys):
    """The file `_write_container` writes, without its finiteness check, so
    that a reader can be handed a non-finite payload."""
    header = {"band_order": "band-major", "dtype": dtype, "height": height, "width": width}
    header.update(zip(count_keys, arr.shape[:-1]))
    payload = np.ascontiguousarray(arr, dtype=sio._DTYPES[dtype]).tobytes()
    path.write_bytes(sio._header_bytes(header) + payload)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["cube", "stack"])
def test_container_rejects_non_finite_payload(tmp_path, kind, bad):
    p = tmp_path / f"bad.{kind}"
    if kind == "cube":
        X = np.ones((2, 4))
        X[1, 2] = bad
        _write_raw_container(p, X, 2, 2, "float32", ("n_bands",))
        read = sio.read_cube
    else:
        A = np.full((2, 3, 4), 1.0 / 3.0)
        A[1, 0, 3] = bad
        _write_raw_container(p, A, 4, 1, "float64", ("n_frames", "n_parts"))
        read = sio.read_abundance_stack
    with pytest.raises(ValueError, match="non-finite"):
        read(p)


@pytest.mark.parametrize(
    "kind, dtype, bad",
    [("cube", "float32", v) for v in (np.nan, np.inf, -np.inf, 1e39, -1e39)]
    + [("stack", "float64", v) for v in (np.nan, np.inf)],
)
def test_container_writer_rejects_non_finite_payload(tmp_path, kind, dtype, bad):
    # Cubes are stored as float32, stacks as float64. 1e39 is finite as a
    # float64 but casts to infinity as a float32: the writer checks what it
    # would store, and writes no file.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"non-finite values .* as {dtype}"):
            if kind == "cube":
                X = np.ones((2, 4))
                X[1, 2] = bad
                sio.write_cube(tmp_path / "x.cube", X, width=2, height=2)
            else:
                A = np.full((2, 3, 4), 1.0 / 3.0)
                A[1, 0, 3] = bad
                sio.write_abundance_stack(tmp_path / "x.stack", A, width=4, height=1)
    assert list(tmp_path.iterdir()) == []


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


def test_endmember_names_round_trip_verbatim(tmp_path):
    # Inner spaces, commas and quotes survive; the reader strips nothing, so
    # a name it reads with surrounding spaces is refused, not renamed.
    p = tmp_path / "end.csv"
    names = ["dry soil", "water, deep", 'veg "x"']
    sio.write_endmembers(p, np.eye(3), names)
    assert sio.load_endmembers(p)[1] == names
    p.write_text(" soil,water \n0.1,0.9\n")
    with pytest.raises(ValueError, match="surrounding whitespace"):
        sio.load_endmembers(p)
    p.write_text("soil,soil\n0.1,0.9\n")
    with pytest.raises(ValueError, match="repeat a name"):
        sio.load_endmembers(p)


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


@pytest.mark.parametrize(
    "S, names, message",
    [
        (np.ones((4, 3)), ["a", "b"], r"shape \(4, 3\) for 2 names"),
        (np.ones((4, 1)), ["a"], "at least 2 endmember columns"),
        (np.ones((0, 2)), ["a", "b"], "at least one band row"),
        (np.array([[0.5, np.nan]]), ["a", "b"], "non-finite"),
        (np.ones((4, 2)), ["soil", "soil"], "repeat a name"),
        (np.ones((4, 2)), [" soil", "water"], "surrounding whitespace"),
        (np.ones((4, 2)), ["soil", "water\t"], "surrounding whitespace"),
    ],
    ids=["more-columns-than-names", "one-column", "no-bands", "nan", "repeated-name", "leading-space", "trailing-tab"],
)
def test_endmember_writer_refuses_what_the_reader_refuses(tmp_path, S, names, message):
    # The writer raises and leaves no file; the reader refuses the file the
    # writer would have written without its check.
    p = tmp_path / "end.csv"
    with pytest.raises(ValueError, match=message):
        sio.write_endmembers(p, S, names)
    assert not p.exists()
    sio._write_csv(p, names, S)
    with pytest.raises(ValueError):
        sio.load_endmembers(p)


def test_endmember_writer_and_reader_refuse_identical_columns(tmp_path):
    # the model would refuse them only at unmix
    p = tmp_path / "end.csv"
    S = np.array([[0.1, 0.5, 0.1], [0.2, 0.6, 0.2]])
    with pytest.raises(ValueError, match="columns 0 and 2 are identical"):
        sio.write_endmembers(p, S, ["a", "b", "c"])
    assert not p.exists()
    sio._write_csv(p, ["a", "b", "c"], S)
    with pytest.raises(ValueError, match="columns 0 and 2 are identical"):
        sio.load_endmembers(p)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([], "lists no pixels"),
        ([1, 1], "must be unique"),
        ([-1], "must be nonnegative"),
        ([1.5], "must be integer pixel indices"),
    ],
    ids=["empty", "repeated", "negative", "fraction"],
)
def test_mask_writer_refuses_what_the_reader_refuses(tmp_path, indices, message):
    p = tmp_path / "mask.csv"
    with pytest.raises(ValueError, match=message):
        sio.write_mask(p, indices)
    assert not p.exists()
    p.write_text("".join(f"{i}\n" for i in ["index", *indices]))
    with pytest.raises(ValueError, match=message):
        sio.load_mask(p)


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


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_config_rejects_non_finite_constants(tmp_path, constant):
    p = tmp_path / "run.json"
    p.write_text(
        '{"n_parts": 3, "prior": {"sigma_a2": 1.0, "kernel": {"kind": "dirac"}}, '
        f'"noise": {{"sigma2": {constant}}}, "sampler": {{"step_size": 1e-3, "n_steps": 2, "seed": 0}}}}'
    )
    with pytest.raises(ConfigError, match=f"{constant} is not a JSON number"):
        sio.load_run_config(p)


@pytest.mark.parametrize(
    "number",
    ["1e400", "-1e400",
     pytest.param("1" + "0" * 400, id="int-1e400"), pytest.param("-1" + "0" * 400, id="int--1e400")],
)
def test_config_rejects_numbers_that_overflow(tmp_path, number):
    # json parses the first two to +-inf through parse_float, not
    # parse_constant, and the integer literals to ints too large for a
    # float through parse_int; neither may reach KernelSpec from a config.
    p = tmp_path / "run.json"
    p.write_text(
        '{"n_parts": 3, "prior": {"sigma_a2": 1.0, "kernel": {"kind": "dirac", '
        f'"sigma_k2": {number}}}}}, "sampler": {{"step_size": 1e-3, "n_steps": 2, "seed": 0}}}}'
    )
    with pytest.raises(ConfigError, match=f"{number} overflows"):
        sio.load_run_config(p)


def test_prior_spec_config_round_trip():
    from simplexuq.prior import KernelSpec

    doc = {
        "n_parts": 4,
        "prior": {
            "sigma_a2": 0.7,
            "kernel": {"kind": "exponential", "length_scale": 5.0, "sigma_k2": 1.2},
            "mean": [0.1, -0.2, 0.3],
        },
        "sampler": {"step_size": 0.1, "n_steps": 10, "seed": 0},
    }
    spec = sio.config_to_prior_spec(sio.validate_config(doc))
    assert spec.P == 4
    assert spec.sigma_a2 == 0.7
    assert spec.kernel == KernelSpec(kind="exponential", length_scale=5.0, sigma_k2=1.2)
    assert np.array_equal(spec.mean, [0.1, -0.2, 0.3])
    doc["prior"]["kernel"]["jitter"] = 0.0
    with pytest.raises(ConfigError, match="unknown key 'jitter' in prior.kernel"):
        sio.validate_config(doc)


def test_config_schema_keys_are_the_dataclass_fields():
    # The config layer restates no default: it passes the keys a config
    # holds, so every optional key must name a field that has its default.
    from dataclasses import fields

    from simplexuq.interp import PartialObservation
    from simplexuq.prior import KernelSpec
    from simplexuq.sampler import SamplerConfig

    schema = sio._CONFIG_SCHEMA
    assert set(schema["prior"]["kernel"]) == {f.name for f in fields(KernelSpec)}
    assert set(schema["sampler"]) - {"algorithm"} == {f.name for f in fields(SamplerConfig)}
    assert set(schema["interp"]) <= {f.name for f in fields(PartialObservation)}


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pgm_non_finite_map_writes_nothing(tmp_path, bad):
    img = np.array([[0.0, 1.0], [bad, 4.0]])
    with pytest.raises(ValueError, match="non-finite"):
        sio.write_pgm16(tmp_path / "map.pgm", img, tmp_path / "map_scale.json")
    with pytest.raises(ValueError, match="non-finite"):
        sio.write_map(tmp_path / "m", img)
    assert list(tmp_path.iterdir()) == []


def test_json_sidecar_is_strict(tmp_path):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            sio.write_json_sidecar(tmp_path / "meta.json", {"vmin": bad})
    assert list(tmp_path.iterdir()) == []


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
    assert (tmp_path / "tern_samples.csv").read_text().startswith("x,y\n")
    xy = np.loadtxt(prefix + "_samples.csv", delimiter=",", skiprows=1)
    assert xy.shape == (500, 2)
    assert np.array_equal(xy, sio.bary_to_cart(samples))
    svg = (tmp_path / "tern.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    cells = (tmp_path / "tern_hdr_cells.csv").read_text().splitlines()
    assert cells[0] == "cell,vertex,x,y"
    assert len(cells) == 1 + 3 * len(region.region_cells)


def test_ternary_p4_and_limits(tmp_path):
    from simplexuq.uq import euclidean_mean, geodesic_mean, hdr

    rng = np.random.default_rng(7)
    samples = rng.dirichlet(np.ones(4), size=50)
    region = hdr(samples, 0.2)  # the latent KDE: no cells to draw
    prefix = str(tmp_path / "tetra")
    sio.export_ternary(prefix, samples, geodesic_mean(samples), euclidean_mean(samples), region)
    assert (tmp_path / "tetra_samples.csv").read_text().startswith("x,y,z\n")
    xyz = np.loadtxt(prefix + "_samples.csv", delimiter=",", skiprows=1)
    assert xyz.shape == (50, 3)
    assert not (tmp_path / "tetra_hdr_cells.csv").exists()
    assert not (tmp_path / "tetra.svg").exists()  # the svg is drawn for P = 3 only
    five = rng.dirichlet(np.ones(5), size=5)
    with pytest.raises(ValueError):
        sio.export_ternary(str(tmp_path / "x"), five, geodesic_mean(five), euclidean_mean(five), region)
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


# ---------------------------------------------------------------------------
# golden bytes: every writer's output pinned across versions
# ---------------------------------------------------------------------------

# sha256 of each file written by _write_golden_files; a change here is a
# change of file format and breaks byte-reproducibility across versions
GOLDEN_SHA256 = {
    "const.pgm": "b8ee682da345c486baedd81c54c74f41e99f6c03bef9b8f07e80122450c7f7e8",
    "const_scale.json": "f1abce175785d05d865115c58efe71f80ebbdac404513ddf04cd8cc27a3fc374",
    "endmembers.csv": "ae57ad46979694508376935d59d217a584d87af8879c7b392ff0600fc035cb9d",
    "f32.cube": "da948e8bcefa3a3ba5c92bb889406ec1d923802fe8fb2b3cf926001cd1d963e4",
    "f64.cube": "48825f88f326b1e9cbcd1e3024034957922bab846294f86204cd3c421aeac540",
    "floats.csv": "5ad152075c013a5f72548b87bfa2791479a8a740ba92285056b0aa5ae0a43d69",
    "map.pgm": "d07ab84475dd1640f16efa5485f48139d49c3c236d3b444aabc0f51baa9f25a7",
    "map_scale.json": "843fcb3a748f93b37ae0f4fdbe40f3ddb7c81c5fb280304ee0d66fe6c83821bf",
    "multi.stack": "d1531d8b256a3399e3def2153b98ff7b53cbb5a865f4e5ebd3159ab953686533",
    "one.stack": "698045d396e1915f6219e422768ccc723d293f824512654dca704c75bbc35673",
    "tern.svg": "88d74c2f705a23f3747bb2fa7fc5fe58a82d820b7e4e847e2e4c22073f499f01",
    "tern_hdr_cells.csv": "61102c9fc10959a63102a7279fab3dfc727a951cd1711e2d3c654e850fd2af26",
    "tern_means.csv": "27ff4dc4c34996133fbb67cf9905a8e1db62aad42e75f4722995306be34680f5",
    "tern_samples.csv": "d377116a5fd8d3967de4879a1dd5704104215f99caf2c409d55a133aed53236b",
}


def _write_golden_files(d):
    from types import SimpleNamespace

    from simplexuq.uq import BarycentricGrid

    X = np.array([[0.1, 1.0 / 3.0, -2.5e-7], [7.0, 1e30, 0.0], [2.0 / 3.0, -0.5, 12345.678]])
    X = np.column_stack([X, X[:, ::-1]])  # (3, 6)
    sio.write_cube(d / "f32.cube", X[:, :6], width=3, height=2)
    sio._write_container(d / "f64.cube", X[:, :6], 2, 3, "float64", ("n_bands",))
    A = np.array([[0.2, 0.7, 1.0 / 3.0, 0.05], [0.3, 0.1, 1.0 / 3.0, 0.9], [0.5, 0.2, 1.0 / 3.0, 0.05]])
    sio.write_abundance_stack(d / "one.stack", A, width=2, height=2)
    sio.write_abundance_stack(d / "multi.stack", np.stack([A, A[::-1], A[[1, 2, 0]]]), 4, 1)
    sio.write_endmembers(d / "endmembers.csv", X[:, :3], ["soil", "tree", "water"])
    sio.write_float_csv(d / "floats.csv", X, header=["a", "b", "c", "d", "e", "f"])
    sio.write_pgm16(d / "map.pgm", np.array([[0.0, 0.1, 1.0 / 3.0], [2.5, 4.0, -1.0]]), d / "map_scale.json")
    sio.write_pgm16(d / "const.pgm", np.full((2, 2), 7.5), d / "const_scale.json")
    samples = np.array([[0.2, 0.3, 0.5], [0.7, 0.1, 0.2], [1.0 / 3.0] * 3, [0.05, 0.9, 0.05], [0.6, 0.3, 0.1]])
    region = SimpleNamespace(grid=BarycentricGrid(3, 4), region_cells=np.array([0, 5, 12]))
    sio.export_ternary(
        str(d / "tern"), samples, np.array([0.3, 0.3, 0.4]), np.array([1.0 / 3.0, 0.3, 1.0 - 0.3 - 1.0 / 3.0]), hdr=region
    )


def test_writers_golden_bytes(tmp_path):
    import hashlib

    _write_golden_files(tmp_path)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(tmp_path.iterdir())}
    assert got == GOLDEN_SHA256

"""Property tests of the package's input rules.

`prior._as_count` (an integer, not a bool, of at least a minimum),
`prior._as_float` (a Python or numpy real number, not a bool),
`prior._as_positive` (a positive finite real), `prior._as_indices` (a list
of pixel indices) and `prior._as_pixels` (a set of integer pixel
coordinates) are each written once. One strategy per rule draws what the
rule refuses, and every entry point that applies the rule must raise
ValueError for it: never TypeError, never a silent result. A value a run
configuration can carry must also make `cli.main` return 1.
"""

import contextlib
import io as _stdio
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simplexuq import io as sio
from simplexuq.cli import main
from simplexuq.interp import PartialObservation, interpolate
from simplexuq.prior import (
    KernelSpec,
    PriorSpec,
    build_gram,
    gp_prior_sample,
    pixel_prior_sample,
    sample_latent_field,
)
from simplexuq.sampler import Observations, SamplerConfig
from simplexuq.synth import builtin_endmembers, synth_generate
from simplexuq.uq import BarycentricGrid, hdr

SPEC = PriorSpec(P=3, sigma_a2=1.0)
GRID = sio.make_grid(2, 2)
GRAM = build_gram(GRID, SPEC.kernel)
SAMPLES = np.random.default_rng(0).dirichlet(np.ones(3), size=20)
ENDMEMBERS = builtin_endmembers(8, 3)[0]


def bad_counts(minimum, optional=False):
    """Non-integers (integral floats too), bools, None (unless the count is
    ``optional``), strings and integers below ``minimum``, as Python and
    numpy scalars."""
    return st.one_of(
        st.floats(),
        st.sampled_from([np.float64(2.0), np.True_] + [None] * (not optional)),
        st.booleans(),
        st.text(max_size=3),
        st.integers(max_value=minimum - 1),
        st.integers(min_value=-(2**40), max_value=minimum - 1).map(np.int64),
    )


bad_reals = st.one_of(
    st.sampled_from([0, 0.0, -0.0, np.nan, np.inf, -np.inf, np.float32(np.nan)]),
    st.floats(max_value=0.0),
    st.integers(min_value=-(2**53), max_value=0),
)

_ints = st.integers(0, 50)
bad_index_lists = st.one_of(
    st.integers(2, 3).flatmap(lambda m: st.lists(st.lists(_ints, min_size=m, max_size=m), min_size=1, max_size=3)),
    st.just([]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.tuples(st.lists(_ints, max_size=3), st.integers(max_value=-1)).map(lambda t: t[0] + [t[1]]),
    st.lists(_ints, min_size=1, max_size=3).map(lambda xs: xs + xs[:1]),
)

# entry point -> (what it refuses, call)
COUNTS = {
    "SamplerConfig.n_steps": (bad_counts(1), lambda v: SamplerConfig(step_size=0.1, n_steps=v)),
    "SamplerConfig.burn_in": (
        bad_counts(0, optional=True),
        lambda v: SamplerConfig(step_size=0.1, n_steps=10, burn_in=v),
    ),
    "SamplerConfig.thinning": (bad_counts(1), lambda v: SamplerConfig(step_size=0.1, n_steps=10, thinning=v)),
    "SamplerConfig.seed": (bad_counts(0), lambda v: SamplerConfig(step_size=0.1, n_steps=10, seed=v)),
    "pixel_prior_sample.n_samples": (bad_counts(1), lambda v: pixel_prior_sample(SPEC, v, 0)),
    "gp_prior_sample.n_samples": (bad_counts(1), lambda v: gp_prior_sample(SPEC, GRAM, v, 0)),
    "hdr.bins": (bad_counts(1), lambda v: hdr(SAMPLES, 0.1, estimator="barycentric-histogram", bins=v)),
    "hdr.bins.latent-kde": (bad_counts(1), lambda v: hdr(SAMPLES, 0.1, estimator="latent-kde", bins=v)),
    "PriorSpec.P": (bad_counts(2), lambda v: PriorSpec(P=v, sigma_a2=1.0)),
    "synth_generate.rng": (bad_counts(0), lambda v: synth_generate(ENDMEMBERS, GRID, SPEC, None, v)),
    "gp_prior_sample.rng": (bad_counts(0), lambda v: gp_prior_sample(SPEC, GRAM, 1, v)),
    "pixel_prior_sample.rng": (bad_counts(0), lambda v: pixel_prior_sample(SPEC, 1, v)),
    "sample_latent_field.rng": (bad_counts(0), lambda v: sample_latent_field(SPEC, GRAM, 1, v)),
    "BarycentricGrid.bins": (bad_counts(1), lambda v: BarycentricGrid(3, v)),
    "make_grid.width": (bad_counts(1), lambda v: sio.make_grid(v, 2)),
    "make_grid.height": (bad_counts(1), lambda v: sio.make_grid(2, v)),
    "builtin_endmembers.n_bands": (bad_counts(2), lambda v: builtin_endmembers(v, 3)),
    "builtin_endmembers.n_materials": (bad_counts(2), lambda v: builtin_endmembers(8, v)),
}

REALS = {
    "KernelSpec.length_scale": lambda v: KernelSpec(length_scale=v),
    "KernelSpec.sigma_k2": lambda v: KernelSpec(sigma_k2=v),
    "PriorSpec.sigma_a2": lambda v: PriorSpec(P=3, sigma_a2=v),
    "SamplerConfig.step_size": lambda v: SamplerConfig(step_size=v, n_steps=10),
    "hdr.bandwidth": lambda v: hdr(SAMPLES, 0.1, estimator="latent-kde", bandwidth=v),
}


# what the real-number rule refuses, before any range check
not_reals = st.one_of(
    st.none(),
    st.booleans(),
    st.just(np.True_),
    st.text(max_size=3),
    st.sampled_from(["2", "inf", b"2"]),
    st.binary(max_size=3),
    st.lists(st.floats(), max_size=2),
    st.lists(st.floats(), min_size=1, max_size=2).map(tuple),
    st.lists(st.floats(), min_size=1, max_size=2).map(np.array),
)

# entry point -> call, for each entry point that takes a real number
FLOATS = {
    **REALS,
    "Observations.sigma2": lambda v: Observations(np.zeros((2, 2)), v),
    "PartialObservation.nugget": lambda v: PartialObservation([0], np.full((3, 1), 1.0 / 3.0), v),
}


@pytest.mark.parametrize("entry", COUNTS)
@given(data=st.data())
def test_count_rule_refuses_what_is_not_a_count(entry, data):
    values, call = COUNTS[entry]
    value = data.draw(values, label="value")
    with pytest.raises(ValueError, match=r"must be an integer >= "):
        call(value)


def test_count_rule_takes_numpy_integers_as_python_ints():
    counts = dict(n_steps=np.int64(10), burn_in=np.uint8(0), thinning=np.int32(2), seed=np.int64(3))
    cfg = SamplerConfig(step_size=0.1, **counts)
    assert [type(v) for v in (cfg.n_steps, cfg.burn_in, cfg.thinning, cfg.seed)] == [int] * 4
    assert np.array_equal(sio.make_grid(np.int64(3), np.uint16(2)), sio.make_grid(3, 2))
    assert BarycentricGrid(3, np.int32(4)).n_cells == 16


def test_part_counts_and_seeds_take_numpy_integers_and_generators():
    assert type(PriorSpec(P=np.int64(3), sigma_a2=1.0).P) is int
    # a seed and the Generator it seeds give the same draw
    for seed in (0, np.uint32(7), 2**70):
        want = gp_prior_sample(SPEC, GRAM, 2, np.random.default_rng(int(seed)))
        assert np.array_equal(gp_prior_sample(SPEC, GRAM, 2, seed), want)
    assert np.array_equal(pixel_prior_sample(SPEC, 3, np.int64(5)), pixel_prior_sample(SPEC, 3, 5))


@pytest.mark.parametrize(
    "entry, value",
    [
        ("hdr.bins.latent-kde", 0),
        ("PriorSpec.P", [3]),
        ("synth_generate.rng", 2.5),
        ("gp_prior_sample.rng", 2.5),
        ("pixel_prior_sample.rng", None),
        ("sample_latent_field.rng", -1),
    ],
)
def test_count_rule_names_the_parameter(entry, value):
    with pytest.raises(ValueError, match=f"^{entry.split('.')[1]}( seed)? must be an integer >= .*, got "):
        COUNTS[entry][1](value)


@pytest.mark.parametrize("entry", FLOATS)
@given(value=not_reals)
def test_real_rule_refuses_what_is_not_a_real_number(entry, value):
    assume(not (entry == "hdr.bandwidth" and value is None))  # None asks for Scott's rule
    with pytest.raises(ValueError, match=f"^{entry.split('.')[1]} must be a real number, got "):
        FLOATS[entry](value)


def test_real_rule_takes_python_and_numpy_reals():
    # every numeric type the package's own callers pass
    for value in (2, 2.0, np.int64(2), np.uint8(2), np.float32(2.0), np.float64(2.0)):
        for entry in ("KernelSpec.length_scale", "Observations.sigma2", "PartialObservation.nugget"):
            got = getattr(FLOATS[entry](value), entry.split(".")[1])
            assert type(got) is float and got == 2.0


@pytest.mark.parametrize("entry", REALS)
@given(value=bad_reals)
def test_real_rule_refuses_what_is_not_positive_and_finite(entry, value):
    with pytest.raises(ValueError, match=f"^{entry.split('.')[1]} must be positive and finite$"):
        REALS[entry](value)


@pytest.fixture(scope="module")
def rule_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rules")


def _mask_text(indices):
    return "index\n" + "".join(",".join(map(str, i)) + "\n" if isinstance(i, list) else f"{i}\n" for i in indices)


@given(indices=bad_index_lists)
def test_index_rule_refuses_malformed_lists(rule_dir, indices):
    path = rule_dir / "mask.csv"
    path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match="mask"):
        sio.write_mask(path, indices)
    assert not path.exists()
    path.write_text(_mask_text(indices))
    with pytest.raises(ValueError, match="mask"):
        sio.load_mask(path)
    with pytest.raises(ValueError, match="observation"):
        PartialObservation(indices, np.full((3, 1), 1.0 / 3.0))


def _spoil(args):
    """An integer pixel set with its entry ``i`` (modulo its size) set to ``value``."""
    U, i, value = args
    U = U.copy()
    U.flat[i % U.size] = value
    return U


_pixel_sets = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(-20, 20), min_size=2 * n, max_size=2 * n)
).map(lambda xs: np.array(xs, dtype=float).reshape(-1, 2))
bad_pixel_sets = st.one_of(
    # one fractional or non-finite coordinate in an (n, 2) set
    st.tuples(
        _pixel_sets,
        st.integers(0, 7),
        st.one_of(
            st.floats(-1e6, 1e6).filter(lambda v: v != np.floor(v)),
            st.sampled_from([np.nan, np.inf, -np.inf]),
        ),
    ).map(_spoil),
    _pixel_sets.map(lambda U: np.hstack([U, U[:, :1]])),  # (n, 3)
    _pixel_sets.map(lambda U: np.stack([U, U])),  # 3-D
)
OBSERVED = PartialObservation([0], np.full((3, 1), 1.0 / 3.0))


@given(U=bad_pixel_sets)
def test_pixel_rule_refuses_what_is_not_an_integer_pixel_set(U):
    calls = [
        lambda: build_gram(U, KernelSpec()),
        lambda: build_gram(U, KernelSpec(kind="dirac")),
        lambda: interpolate(OBSERVED, SPEC, U),
        lambda: synth_generate(ENDMEMBERS, U, SPEC, None, 0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="coordinate"):
            call()


# ---------------------------------------------------------------------------
# the same rules through a run configuration
# ---------------------------------------------------------------------------

BASE_CONFIG = {
    "n_parts": 3,
    "prior": {"sigma_a2": 0.5, "kernel": {"kind": "exponential", "length_scale": 3.0}},
    "noise": {"sigma2": 0.01},
    "grid": {"width": 2, "height": 2},
    "sampler": {"step_size": 1e-3, "n_steps": 4, "burn_in": 1, "seed": 0},
    "uq": {"alpha": 0.2},
}


@pytest.fixture(scope="module")
def run_files(rule_dir):
    """A 2x2 cube and stack, a single-pixel chain and a mask for the commands to read."""
    paths = {name: str(rule_dir / name) for name in ("cube", "stack", "pixel.stack", "mask.csv")}
    A = np.full((3, 4), 1.0 / 3.0)
    sio.write_cube(paths["cube"], builtin_endmembers(64, 3)[0] @ A, 2, 2)
    sio.write_abundance_stack(paths["stack"], A, 2, 2)
    sio.write_abundance_stack(paths["pixel.stack"], SAMPLES[:, :, None], 1, 1)
    sio.write_mask(paths["mask.csv"], [0, 3])
    return paths


def _run(rule_dir, command, doc):
    """Run a command on the config ``doc``; returns its exit code and the
    message of its --error-json object (None on success)."""
    cfg_path = rule_dir / "run.json"
    cfg_path.write_text(json.dumps(doc))
    err = _stdio.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--error-json", command, "--config", str(cfg_path), "--output-dir", str(rule_dir / "out")])
    return code, json.loads(err.getvalue().strip().splitlines()[-1])["message"] if code else None


# (command, section path, key, strategy, paths the command reads)
CONFIG_CASES = [
    *[
        ("unmix", ("sampler",), key, bad_counts(m), {"cube": "cube"})
        for key, m in (("n_steps", 1), ("burn_in", 0), ("thinning", 1), ("seed", 0))
    ],
    ("unmix", ("sampler",), "step_size", bad_reals, {"cube": "cube"}),
    *[("synth", ("grid",), key, bad_counts(1), {}) for key in ("width", "height")],
    ("synth", ("prior",), "sigma_a2", bad_reals, {}),
    *[("synth", ("prior", "kernel"), key, bad_reals, {}) for key in ("length_scale", "sigma_k2")],
    ("uq", ("uq",), "bins", bad_counts(1), {"stack": "pixel.stack"}),
    ("uq", ("uq",), "bandwidth", bad_reals, {"stack": "pixel.stack"}),
]
CASE_IDS = [f"{c[0]}-{'.'.join(c[1])}.{c[2]}" for c in CONFIG_CASES]


def _config(run_files, section, reads):
    """The base config reading ``reads``, and its section holding the key."""
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["paths"] = {name: run_files[file] for name, file in reads.items()}
    node = doc
    for name in section:
        node = node[name]
    return doc, node


@pytest.mark.parametrize("command, section, key, values, reads", CONFIG_CASES, ids=CASE_IDS)
def test_config_cases_pass_with_their_base_values(rule_dir, run_files, command, section, key, values, reads):
    # so each failure below is the drawn value's
    assert _run(rule_dir, command, _config(run_files, section, reads)[0]) == (0, None)


@pytest.mark.parametrize("command, section, key, values, reads", CONFIG_CASES, ids=CASE_IDS)
@settings(max_examples=20)
@given(data=st.data())
def test_config_values_the_rules_refuse_fail_validation(
    rule_dir, run_files, command, section, key, values, reads, data
):
    doc, node = _config(run_files, section, reads)
    value = data.draw(values, label=key)
    node[key] = value.item() if isinstance(value, np.generic) else value
    code, message = _run(rule_dir, command, doc)
    # the rule or the schema names the key; JSON's own checks name the number
    named = key.replace("_", " ") in message.replace("_", " ")
    assert code == 1 and (named or "JSON" in message or "overflows" in message)


def test_config_mask_case_passes_with_a_valid_mask(rule_dir, run_files):
    doc = dict(BASE_CONFIG, paths={"stack": run_files["stack"], "mask": run_files["mask.csv"]})
    assert _run(rule_dir, "interpolate", doc) == (0, None)


@settings(max_examples=20)
@given(indices=bad_index_lists)
def test_config_mask_the_rule_refuses_fails_validation(rule_dir, run_files, indices):
    mask = rule_dir / "bad_mask.csv"
    mask.write_text(_mask_text(indices))
    doc = dict(BASE_CONFIG, paths={"stack": run_files["stack"], "mask": str(mask)})
    code, message = _run(rule_dir, "interpolate", doc)
    assert code == 1 and "mask" in message

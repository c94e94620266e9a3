"""Property tests of the package's three input rules.

`prior._as_count` (an integer, not a bool, of at least a minimum),
`prior._as_positive` (a positive finite real) and `prior._as_indices` (a
list of pixel indices) are each written once. One strategy per rule draws
what the rule refuses, and every entry point that applies the rule must
raise ValueError for it: never TypeError, never a silent result. A value a
run configuration can carry must also make `cli.main` return 1.
"""

import contextlib
import io as _stdio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexuq import io as sio
from simplexuq.cli import main
from simplexuq.interp import PartialObservation
from simplexuq.prior import KernelSpec, PriorSpec, build_gram, gp_prior_sample, pixel_prior_sample
from simplexuq.sampler import SamplerConfig
from simplexuq.synth import builtin_endmembers
from simplexuq.uq import BarycentricGrid, hdr

SPEC = PriorSpec(P=3, sigma_a2=1.0)
GRID = sio.make_grid(2, 2)
GRAM = build_gram(GRID, SPEC.kernel)
SAMPLES = np.random.default_rng(0).dirichlet(np.ones(3), size=20)


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

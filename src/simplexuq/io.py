"""File formats, run configuration, and plot-ready exports.

Binary containers have a single-line JSON header (sorted keys, UTF-8,
newline-terminated) followed by a raw little-endian payload; writes are
atomic (temp file + rename) and byte-reproducible, so identical runs
produce identical files. Cubes are written as float32 and abundance
stacks as float64; the readers accept either dtype for either kind. A
container whose payload holds NaN or infinity (after the cast to its
dtype) is rejected on write and on read, and every JSON written is strict
(no NaN or infinity). Abundance stacks are validated on read: pixel
vectors must sum to 1 within 1e-6, beyond which they are renormalized
with a warning.
"""

import csv
import io as _stdio
import json
import math
import os
import tempfile
import warnings

import numpy as np

from .errors import ConfigError
from .prior import KernelSpec, PriorSpec, _as_count, _as_indices
from .sampler import SamplerConfig, check_endmembers

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _atomic_write_bytes(path, *buffers):
    """Write buffers, one after another, to path via a temp file in the
    same directory. A buffer is any C-contiguous bytes-like object (a
    ``memoryview`` of an array writes its memory without a copy)."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for data in buffers:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _header_bytes(header):
    return (json.dumps(header, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def _read_header(fh):
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ValueError("missing or truncated header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError("header must be a JSON object")
    return header


# ---------------------------------------------------------------------------
# binary containers: observation cubes and abundance stacks
# ---------------------------------------------------------------------------


def _check_header(header, count_keys):
    """The header rule of every container, applied by `_write_container`
    to what it writes and by `_read_container` to what it reads."""
    for key in ("band_order", "dtype", "height", "width", *count_keys):
        if key not in header:
            raise ValueError(f"header missing key {key!r}")
    for key in (*count_keys, "width", "height"):
        if type(header[key]) is not int or header[key] < 1:
            raise ValueError(f"header key {key!r} must be a positive integer, got {header[key]!r}")
    if header["dtype"] not in _DTYPES:
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    if header["band_order"] != "band-major":
        raise ValueError(f"unsupported band_order {header['band_order']!r}")


def _write_container(path, arr, width, height, dtype, count_keys):
    """Write an array whose last axis is the pixel axis; its leading axes
    are recorded in the header under ``count_keys``. The header must pass
    `_check_header`, as `_read_container` requires; nothing is written
    otherwise."""
    arr = np.asarray(arr)
    *counts, N = arr.shape
    header = {"band_order": "band-major", "dtype": dtype, "width": width, "height": height}
    header.update(zip(count_keys, counts, strict=True))
    _check_header(header, count_keys)
    if N != width * height:
        raise ValueError(f"{N} pixels but width*height = {width * height}")
    # A value beyond the dtype's range casts to infinity; the check below
    # reports it, so numpy's overflow warning is redundant.
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"payload holds non-finite values (NaN or infinity) as {dtype}")
    _atomic_write_bytes(path, _header_bytes(header), memoryview(payload))


def _read_container(path, count_keys):
    """Read a container of either dtype; returns (float64 array of shape
    (*counts, width*height), header).

    The payload is read straight into its array: a float64 payload is
    never copied, a float32 one once, by the cast.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        _check_header(header, count_keys)
        dt = np.dtype(_DTYPES[header["dtype"]])
        shape = (*(header[key] for key in count_keys), header["width"] * header["height"])
        expected = math.prod(shape) * dt.itemsize
        # A file's size is checked before the array is allocated, so a
        # header that claims a huge payload costs nothing; a pipe's payload
        # is counted as it is read.
        size = os.fstat(fh.fileno()).st_size - fh.tell() if fh.seekable() else expected
        if size == expected:
            arr = np.empty(shape, dtype=dt)
            size = fh.readinto(arr) + len(fh.read())
        if size != expected:
            raise ValueError(f"payload is {size} bytes, expected {expected}")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise ValueError("payload holds non-finite values (NaN or infinity)")
    return arr, header


def write_cube(path, X, width, height):
    """Write an (L, N) spectral cube as float32; pixels row-major, bands major."""
    _write_container(path, X, width, height, "float32", ("n_bands",))


def read_cube(path):
    """Read a spectral cube; returns (X float64 (L, N), header dict)."""
    return _read_container(path, ("n_bands",))


SUM_TOL_READ = 1e-6
# Stack entries whose pixel sums read_abundance_stack checks at a time.
_SUM_BLOCK_DOUBLES = 1 << 15


def write_abundance_stack(path, stack, width, height):
    """Write float64 abundance images, shape (M, P, N) or (P, N) for one frame."""
    stack = np.asarray(stack)
    if stack.ndim == 2:
        stack = stack[None]
    _write_container(path, stack, width, height, "float64", ("n_frames", "n_parts"))


def read_abundance_stack(path):
    """Read an abundance stack; returns (stack (M, P, N) float64, header).

    Pixel vectors must sum to 1 within 1e-6; anything worse is renormalized
    with a warning.
    """
    stack, header = _read_container(path, ("n_frames", "n_parts"))
    # Column sums a block of frames at a time: for the whole stack, the sums
    # and their deviations would each take a P-th of its memory.
    step = max(1, _SUM_BLOCK_DOUBLES // stack[0].size)
    worst = max(np.max(np.abs(stack[s : s + step].sum(axis=1) - 1.0)) for s in range(0, len(stack), step))
    if worst > SUM_TOL_READ:
        warnings.warn(
            f"abundance stack columns sum to 1 only within {worst:.2e}; renormalizing",
            stacklevel=2,
        )
        stack /= stack.sum(axis=1, keepdims=True)
    return stack, header


# ---------------------------------------------------------------------------
# CSV formats: endmembers, masks, maps, vectors
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows, labels=None):
    """CSV with an optional header row. Each row is its entry of ``labels``
    (leading cells, if given) followed by its values written to 17
    significant digits, which round-trips float64 exactly."""
    buf = _stdio.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    if header is not None:
        wr.writerow(header)
    for lead, row in zip(labels or [()] * len(rows), rows):
        wr.writerow([*lead, *(format(v, ".17g") for v in row)])
    _atomic_write_text(path, buf.getvalue())


def _check_endmembers(S, names):
    """The endmember rule, applied by `write_endmembers` to what it writes
    and by `load_endmembers` to what it reads: at least 2 names, distinct
    strings without surrounding whitespace, an (L, P) matrix with a column
    per name, and the matrix rule of `sampler.check_endmembers`."""
    P = len(names)
    if P < 2:
        raise ValueError(f"need at least 2 endmember columns, found {P}")
    for name in names:
        if not isinstance(name, str) or name != name.strip():
            raise ValueError(f"endmember name {name!r} is not a string without surrounding whitespace")
    if len(set(names)) != P:
        raise ValueError(f"endmember names {names} repeat a name")
    if S.ndim != 2 or S.shape[1] != P:
        raise ValueError(f"endmember matrix of shape {S.shape} for {P} names")
    check_endmembers(S, warn=False)


def load_endmembers(path):
    """Load an endmember matrix from CSV (header row of names, L rows, P columns).

    Returns (S (L, P), names).
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("endmember CSV needs a header row and at least one band row")
    names = rows[0]
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(names):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(names)}")
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise ValueError(f"non-numeric cell in row {i}") from None
    S = np.array(data).reshape(len(data), len(names))
    _check_endmembers(S, names)
    return S, names


def write_endmembers(path, S, names):
    """Write an (L, P) endmember matrix under a header row of its P names;
    ValueError, and no file, for what `load_endmembers` would refuse."""
    S = np.asarray(S, dtype=float)
    _check_endmembers(S, names)
    _write_csv(path, names, S)


def load_mask(path):
    """Observed-pixel indices, one per line (optional 'index' header)."""
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows and rows[0] and rows[0][0].strip().lower() == "index":
        rows = rows[1:]
    if any(len(r) != 1 for r in rows):
        raise ValueError("mask rows must hold one pixel index each")
    try:
        idx = np.array([int(r[0]) for r in rows], dtype=int)
    except ValueError:
        raise ValueError("mask entries must be integer pixel indices") from None
    return _as_indices(idx, "mask")


def write_mask(path, indices):
    """Write pixel indices one per line under an 'index' header;
    ValueError, and no file, for what `load_mask` would refuse."""
    idx = _as_indices(indices, "mask")
    _atomic_write_text(path, "\n".join(["index", *map(str, idx.tolist())]) + "\n")


def write_float_csv(path, arr, header=None):
    """Lossless float64 CSV (17 significant digits round-trips exactly)."""
    _write_csv(path, header, np.atleast_2d(np.asarray(arr, dtype=float)))


def read_float_csv(path):
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return np.array([[float(c) for c in row] for row in rows])


def make_grid(width, height):
    """Row-major pixel coordinates (x, y), shape (width*height, 2)."""
    width, height = _as_count(width, "grid width"), _as_count(height, "grid height")
    ys, xs = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()])


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

# schema: section -> key -> (type check, required)
_CONFIG_SCHEMA = {
    "n_parts": (int, True),
    "paths": {
        "endmembers": (str, False),
        "cube": (str, False),
        "stack": (str, False),
        "mask": (str, False),
        "output_dir": (str, False),
    },
    "prior": {
        "sigma_a2": ((int, float), True),
        "mean": (list, False),
        "kernel": {
            "kind": (str, True),
            "length_scale": ((int, float), False),
            "sigma_k2": ((int, float), False),
        },
    },
    "noise": {
        "sigma2": ((int, float), False),
        "snr_db": ((int, float), False),
    },
    "grid": {
        "width": (int, False),
        "height": (int, False),
    },
    "sampler": {
        "algorithm": (str, False),
        "step_size": ((int, float), True),
        "n_steps": (int, True),
        "burn_in": (int, False),
        "thinning": (int, False),
        "seed": (int, True),
        "init": (str, False),
    },
    "uq": {
        "alpha": ((int, float), False),
        "estimator": (str, False),
        "bins": (int, False),
        "bandwidth": ((int, float), False),
    },
    "interp": {
        "nugget": ((int, float), False),
    },
}


def _validate_section(data, schema, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be an object")
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where or 'config'}")
    out = {}
    for key, rule in schema.items():
        label = f"{where}.{key}" if where else key
        if isinstance(rule, dict):
            if key in data:
                out[key] = _validate_section(data[key], rule, label)
            continue
        typ, required = rule
        if key in data:
            if isinstance(data[key], bool) or not isinstance(data[key], typ):
                raise ConfigError(f"{label} has the wrong type")
            out[key] = data[key]
        elif required:
            raise ConfigError(f"missing required key {label}")
    return out


def validate_config(doc):
    """Schema-check a run-configuration document (unknown keys rejected)."""
    cfg = _validate_section(doc, _CONFIG_SCHEMA, "")
    if "sampler" not in doc:
        raise ConfigError("missing required section 'sampler'")
    if "prior" not in doc:
        raise ConfigError("missing required section 'prior'")
    if "kernel" not in doc.get("prior", {}):
        raise ConfigError("missing required section 'prior.kernel'")
    noise = cfg.get("noise", {})
    if "sigma2" in noise and "snr_db" in noise:
        raise ConfigError("specify either noise.sigma2 or noise.snr_db, not both")
    if noise.get("sigma2", 0) < 0:
        raise ConfigError("noise.sigma2 must be nonnegative")
    return cfg


def _reject_json_constant(name):
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def _parse_finite_float(text):
    # json hands a number such as 1e400 to parse_float, not parse_constant.
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config number {text} overflows to infinity")
    return x


def _parse_float_sized_int(text):
    # an integer literal goes to parse_int, and a Python int has no bound:
    # one too large for a float would reach the kernel and fail there.
    n = int(text)
    try:
        float(n)
    except OverflowError:
        raise ConfigError(f"config number {text} overflows a float") from None
    return n


def load_run_config(path):
    """Load and validate a run configuration. Strict JSON: NaN and Infinity
    are rejected, and so are numbers too large for a float (1e400, or 1
    followed by 400 zeros), as every JSON this package writes must be
    finite."""
    with open(path, "r") as fh:
        try:
            doc = json.load(
                fh,
                parse_constant=_reject_json_constant,
                parse_float=_parse_finite_float,
                parse_int=_parse_float_sized_int,
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(doc)


def config_to_prior_spec(cfg):
    """Build a PriorSpec from a validated config document. Keys the config
    omits take the defaults of `KernelSpec`."""
    prior = cfg["prior"]
    kernel = KernelSpec(**prior["kernel"])
    mean = np.array(prior["mean"], dtype=float) if prior.get("mean") is not None else None
    return PriorSpec(P=cfg["n_parts"], sigma_a2=prior["sigma_a2"], kernel=kernel, mean=mean)


def config_to_sampler_config(cfg):
    """Build a SamplerConfig from a validated config document. Keys the
    config omits take the defaults of `SamplerConfig`; ``algorithm`` picks
    the sampler and is read by the caller."""
    return SamplerConfig(**{k: v for k, v in cfg["sampler"].items() if k != "algorithm"})


def write_json_sidecar(path, payload):
    """Deterministic JSON sidecar (sorted keys, no timestamps). Strict JSON:
    a NaN or infinity in ``payload`` raises ValueError."""
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# PGM map export
# ---------------------------------------------------------------------------


def write_pgm16(path, img, sidecar_path):
    """16-bit grayscale PGM, min-max scaled; the scale goes in the JSON sidecar
    ``sidecar_path``.

    A constant map is written as zeros and the sidecar records the
    degenerate scale. A map holding NaN or infinity has no scale and raises
    ValueError before any file is written.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D map")
    if not np.all(np.isfinite(img)):
        raise ValueError("map holds non-finite values (NaN or infinity)")
    vmin, vmax = float(img.min()), float(img.max())
    if vmax > vmin:
        scaled = np.round((img - vmin) / (vmax - vmin) * 65535.0).astype(">u2")
        degenerate = False
    else:
        scaled = np.zeros(img.shape, dtype=">u2")
        degenerate = True
    head = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    _atomic_write_bytes(path, head, memoryview(scaled))
    write_json_sidecar(
        sidecar_path,
        {"vmin": vmin, "vmax": vmax, "degenerate": degenerate, "maxval": 65535},
    )


def write_map(base, img):
    """Write a 2-D map three ways: ``<base>.pgm`` (see `write_pgm16`), its
    scale sidecar ``<base>_scale.json`` and the lossless ``<base>.csv``."""
    write_pgm16(f"{base}.pgm", img, f"{base}_scale.json")
    write_float_csv(f"{base}.csv", img)


# ---------------------------------------------------------------------------
# ternary / barycentric exports
# ---------------------------------------------------------------------------


def simplex_corners(P):
    """Cartesian corners of the regular simplex used for plotting.

    P=3: unit-edge triangle with part 1 at the origin, part 2 at (1, 0) and
    part 3 at the apex. P=4: regular tetrahedron. Higher P has no plotting
    embedding here.
    """
    if P == 3:
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    if P == 4:
        return np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, np.sqrt(3.0) / 2.0, 0.0],
                [0.5, np.sqrt(3.0) / 6.0, np.sqrt(6.0) / 3.0],
            ]
        )
    raise ValueError("plot embeddings exist for P = 3 or 4 only")


def bary_to_cart(a):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return a @ simplex_corners(a.shape[1])


def export_ternary(prefix, samples, geodesic_mean, euclidean_mean, hdr):
    """Write plot-ready ternary (P=3) or tetrahedral (P=4) scatter data.

    Produces ``<prefix>_samples.csv`` with cartesian coordinates,
    ``<prefix>_means.csv`` with the geodesic and Euclidean means,
    ``<prefix>_hdr_cells.csv`` (one row per cell vertex) when ``hdr`` has
    histogram cells to draw (a KDE region has none) and a self-contained
    ``<prefix>.svg`` for P=3.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    P = samples.shape[1]
    if P > 4:
        raise ValueError("ternary export supports P <= 4")
    if P < 3:
        raise ValueError("ternary export needs P >= 3")
    xy = bary_to_cart(samples)
    cols = ["x", "y", "z"][: xy.shape[1]]
    write_float_csv(f"{prefix}_samples.csv", xy, header=cols)

    mean_names = ["geodesic", "euclidean"]
    mean_rows = [bary_to_cart(m)[0] for m in (geodesic_mean, euclidean_mean)]
    _write_csv(f"{prefix}_means.csv", ["estimator"] + cols, mean_rows, [[n] for n in mean_names])

    hdr_polys = []
    if hdr.grid is not None:
        hdr_polys = [bary_to_cart(hdr.grid.cell_vertices(cell)) for cell in hdr.region_cells]
        _write_csv(
            f"{prefix}_hdr_cells.csv",
            ["cell", "vertex"] + cols,
            [v for poly in hdr_polys for v in poly],
            [(int(cell), vi) for cell, poly in zip(hdr.region_cells, hdr_polys) for vi in range(len(poly))],
        )

    if P == 3:
        _write_ternary_svg(f"{prefix}.svg", xy, mean_rows, mean_names, hdr_polys)


def _svg_pt(v):
    # 480 px to the unit edge, a 40 px margin; flip y: svg origin is top-left
    x = 40.0 + v[0] * 480.0
    y = 40.0 + (np.sqrt(3.0) / 2.0 - v[1]) * 480.0
    return f"{x:.2f},{y:.2f}"


def _write_ternary_svg(path, xy, mean_rows, mean_names, hdr_polys):
    corners = simplex_corners(3)
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="560" height="520" '
        'viewBox="0 0 560 520">',
        f'<polygon points="{" ".join(_svg_pt(c) for c in corners)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for poly in hdr_polys:
        out.append(
            f'<polygon points="{" ".join(_svg_pt(v) for v in poly)}" '
            'fill="#d8c8e8" stroke="none"/>'
        )
    step = max(1, len(xy) // 4000)  # cap marker count, deterministically
    for v in xy[::step]:
        cx, cy = _svg_pt(v).split(",")
        out.append(f'<circle cx="{cx}" cy="{cy}" r="1.2" fill="#3465a4" fill-opacity="0.35"/>')
    colors = {"geodesic": "#f5c211", "euclidean": "#813d9c"}
    for name, row in zip(mean_names, mean_rows):
        cx, cy = _svg_pt(row).split(",")
        out.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="{colors[name]}" stroke="black"/>')
    out.append("</svg>")
    _atomic_write_text(path, "\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# Samson-style .mat loaders (data not bundled)
# ---------------------------------------------------------------------------


def load_samson_cube(path):
    """Load the common public distribution layout of the Samson scene.

    Expects a MATLAB file with variables ``V`` (L x N reflectances) and
    ``nRow``/``nCol`` (or a square pixel count). Returns (X, width, height,
    provenance dict).
    """
    from scipy.io import loadmat

    mat = loadmat(path)
    if "V" not in mat:
        raise ValueError("expected variable 'V' in the Samson cube file")
    X = np.asarray(mat["V"], dtype=float)
    n = X.shape[1]
    if "nRow" in mat and "nCol" in mat:
        h, w = int(np.ravel(mat["nRow"])[0]), int(np.ravel(mat["nCol"])[0])
    else:
        side = int(round(np.sqrt(n)))
        if side * side != n:
            raise ValueError("cannot infer raster shape; file lacks nRow/nCol")
        h = w = side
    if w * h != n:
        raise ValueError(f"raster {w}x{h} inconsistent with {n} pixels")
    return X, w, h, {"source": os.fspath(path), "n_bands": X.shape[0]}


def load_samson_endmembers(path):
    """Load ground-truth endmembers ``M`` (L x P) and abundances ``A`` if present."""
    from scipy.io import loadmat

    mat = loadmat(path)
    if "M" not in mat:
        raise ValueError("expected variable 'M' in the endmember file")
    S = np.asarray(mat["M"], dtype=float)
    A = np.asarray(mat["A"], dtype=float) if "A" in mat else None
    return S, A, {"source": os.fspath(path), "n_bands": S.shape[0], "n_parts": S.shape[1]}

"""File formats, run configuration, and plot-ready exports.

Binary containers have a single-line JSON header (sorted keys, UTF-8,
newline-terminated) followed by a raw little-endian payload; writes are
atomic (temp file + rename) and byte-reproducible, so identical runs
produce identical files. Abundance stacks are validated on read: pixel
vectors must sum to 1 within 1e-6, beyond which they are renormalized
with a warning.
"""

import csv
import io as _stdio
import json
import os
import tempfile
import warnings

import numpy as np

from .errors import ConfigError

_DTYPES = {"float32": "<f4", "float64": "<f8"}


def _atomic_write_bytes(path, data):
    """Write bytes to path via a temp file in the same directory."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def _header_bytes(header):
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


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
# observation cubes
# ---------------------------------------------------------------------------


def write_cube(path, X, width, height, dtype="float32"):
    """Write an (L, N) spectral cube; pixels are row-major, bands major order."""
    X = np.asarray(X)
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    L, N = X.shape
    if N != width * height:
        raise ValueError(f"{N} pixels but width*height = {width * height}")
    header = {
        "band_order": "band-major",
        "dtype": dtype,
        "height": height,
        "n_bands": L,
        "width": width,
    }
    payload = np.ascontiguousarray(X, dtype=_DTYPES[dtype]).tobytes()
    _atomic_write_bytes(path, _header_bytes(header) + payload)


def read_cube(path):
    """Read a spectral cube; returns (X float64 (L, N), header dict)."""
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = fh.read()
    for key in ("band_order", "dtype", "height", "n_bands", "width"):
        if key not in header:
            raise ValueError(f"cube header missing key {key!r}")
    if header["dtype"] not in _DTYPES:
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    L, w, h = header["n_bands"], header["width"], header["height"]
    dt = np.dtype(_DTYPES[header["dtype"]])
    expected = L * w * h * dt.itemsize
    if len(payload) != expected:
        raise ValueError(f"payload is {len(payload)} bytes, expected {expected}")
    X = np.frombuffer(payload, dtype=dt).reshape(L, w * h).astype(float)
    return X, header


# ---------------------------------------------------------------------------
# abundance stacks
# ---------------------------------------------------------------------------

SUM_TOL_READ = 1e-6


def write_abundance_stack(path, stack, width, height, dtype="float64"):
    """Write abundance images, shape (M, P, N) or (P, N) for a single frame."""
    stack = np.asarray(stack)
    if stack.ndim == 2:
        stack = stack[None]
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    M, P, N = stack.shape
    if N != width * height:
        raise ValueError(f"{N} pixels but width*height = {width * height}")
    header = {
        "band_order": "band-major",
        "dtype": dtype,
        "height": height,
        "n_frames": M,
        "n_parts": P,
        "width": width,
    }
    payload = np.ascontiguousarray(stack, dtype=_DTYPES[dtype]).tobytes()
    _atomic_write_bytes(path, _header_bytes(header) + payload)


def read_abundance_stack(path):
    """Read an abundance stack; returns (stack (M, P, N) float64, header).

    Pixel vectors must sum to 1 within 1e-6; anything worse is renormalized
    with a warning.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        payload = fh.read()
    for key in ("band_order", "dtype", "height", "n_frames", "n_parts", "width"):
        if key not in header:
            raise ValueError(f"stack header missing key {key!r}")
    if header["dtype"] not in _DTYPES:
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    M, P, w, h = header["n_frames"], header["n_parts"], header["width"], header["height"]
    dt = np.dtype(_DTYPES[header["dtype"]])
    expected = M * P * w * h * dt.itemsize
    if len(payload) != expected:
        raise ValueError(f"payload is {len(payload)} bytes, expected {expected}")
    stack = np.frombuffer(payload, dtype=dt).reshape(M, P, w * h).astype(float)
    sums = stack.sum(axis=1)
    worst = np.max(np.abs(sums - 1.0))
    if worst > SUM_TOL_READ:
        warnings.warn(
            f"abundance stack columns sum to 1 only within {worst:.2e}; renormalizing",
            stacklevel=2,
        )
        stack = stack / sums[:, None, :]
    return stack, header


# ---------------------------------------------------------------------------
# CSV formats: endmembers, masks, maps, vectors
# ---------------------------------------------------------------------------


def load_endmembers(path):
    """Load an endmember matrix from CSV (header row of names, L rows, P columns).

    Returns (S (L, P), names).
    """
    with open(path, "r", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError("endmember CSV needs a header row and at least one band row")
    names = [c.strip() for c in rows[0]]
    P = len(names)
    if P < 2:
        raise ValueError(f"need at least 2 endmember columns, found {P}")
    data = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != P:
            raise ValueError(f"row {i} has {len(row)} cells, expected {P}")
        try:
            data.append([float(c) for c in row])
        except ValueError:
            raise ValueError(f"non-numeric cell in row {i}") from None
    S = np.array(data)
    if not np.all(np.isfinite(S)):
        raise ValueError("endmember matrix contains non-finite values")
    return S, names


def write_endmembers(path, S, names=None):
    S = np.asarray(S)
    if names is None:
        names = [f"material_{k + 1}" for k in range(S.shape[1])]
    buf = _stdio.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(names)
    for row in S:
        wr.writerow([format(v, ".17g") for v in row])
    _atomic_write_text(path, buf.getvalue())


def load_mask(path):
    """Observed-pixel indices, one per line (optional 'index' header)."""
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if rows and rows[0] and rows[0][0].strip().lower() == "index":
        rows = rows[1:]
    if not rows:
        raise ValueError("mask file lists no pixels")
    try:
        idx = np.array([int(r[0]) for r in rows])
    except ValueError:
        raise ValueError("mask entries must be integer pixel indices") from None
    if np.any(idx < 0):
        raise ValueError("mask indices must be nonnegative")
    if len(np.unique(idx)) != len(idx):
        raise ValueError("mask indices must be unique")
    return idx


def write_mask(path, indices):
    lines = ["index"] + [str(int(i)) for i in indices]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_float_csv(path, arr, header=None):
    """Lossless float64 CSV (17 significant digits round-trips exactly)."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    buf = _stdio.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    if header is not None:
        wr.writerow(header)
    for row in arr:
        wr.writerow([format(v, ".17g") for v in row])
    _atomic_write_text(path, buf.getvalue())


def read_float_csv(path, skip_header=False):
    with open(path, "r", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if skip_header:
        rows = rows[1:]
    return np.array([[float(c) for c in row] for row in rows])


def make_grid(width, height):
    """Row-major pixel coordinates (x, y), shape (width*height, 2)."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
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
            "jitter": ((int, float), False),
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
    return cfg


def load_run_config(path):
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    return validate_config(doc)


def config_to_prior_spec(cfg):
    """Build a PriorSpec from a validated config document."""
    from .prior import KernelSpec, PriorSpec

    prior = cfg["prior"]
    kern = prior["kernel"]
    kernel = KernelSpec(
        kind=kern["kind"],
        length_scale=kern.get("length_scale", 1.0),
        sigma_k2=kern.get("sigma_k2", 1.0),
        jitter=kern.get("jitter", 0.0),
    )
    mean = np.array(prior["mean"], dtype=float) if prior.get("mean") is not None else None
    return PriorSpec(P=cfg["n_parts"], sigma_a2=prior["sigma_a2"], kernel=kernel, mean=mean)


def config_to_sampler_config(cfg):
    from .sampler import SamplerConfig

    s = cfg["sampler"]
    return SamplerConfig(
        step_size=s["step_size"],
        n_steps=s["n_steps"],
        burn_in=s.get("burn_in"),
        thinning=s.get("thinning", 1),
        init=s.get("init", "prior-draw"),
        seed=s["seed"],
    )


def write_json_sidecar(path, payload):
    """Deterministic JSON sidecar (sorted keys, no timestamps)."""
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# PGM map export
# ---------------------------------------------------------------------------


def write_pgm16(path, img, sidecar_path=None):
    """16-bit grayscale PGM, min-max scaled; the scale goes in a JSON sidecar.

    A constant map is written as zeros and the sidecar records the
    degenerate scale.
    """
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError("expected a 2-D map")
    vmin, vmax = float(img.min()), float(img.max())
    if vmax > vmin:
        scaled = np.round((img - vmin) / (vmax - vmin) * 65535.0).astype(">u2")
        degenerate = False
    else:
        scaled = np.zeros(img.shape, dtype=">u2")
        degenerate = True
    head = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    _atomic_write_bytes(path, head + scaled.tobytes())
    if sidecar_path is not None:
        write_json_sidecar(
            sidecar_path,
            {"vmin": vmin, "vmax": vmax, "degenerate": degenerate, "maxval": 65535},
        )


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


def bary_to_cart(a, P=None):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    corners = simplex_corners(P or a.shape[1])
    return a @ corners


def export_ternary(prefix, samples, geodesic_mean=None, euclidean_mean=None, hdr=None, svg=True):
    """Write plot-ready ternary (P=3) or tetrahedral (P=4) scatter data.

    Produces ``<prefix>_samples.csv`` with cartesian coordinates,
    ``<prefix>_means.csv``, optionally ``<prefix>_hdr_cells.csv`` (one row
    per cell vertex) and a self-contained ``<prefix>.svg`` for P=3.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    P = samples.shape[1]
    if P > 4:
        raise ValueError("ternary export supports P <= 4")
    if P < 3:
        raise ValueError("ternary export needs P >= 3")
    xy = bary_to_cart(samples, P)
    cols = ["x", "y", "z"][: xy.shape[1]]
    write_float_csv(f"{prefix}_samples.csv", xy, header=cols)

    mean_rows, mean_names = [], []
    if geodesic_mean is not None:
        mean_rows.append(bary_to_cart(geodesic_mean, P)[0])
        mean_names.append("geodesic")
    if euclidean_mean is not None:
        mean_rows.append(bary_to_cart(euclidean_mean, P)[0])
        mean_names.append("euclidean")
    if mean_rows:
        buf = _stdio.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["estimator"] + cols)
        for name, row in zip(mean_names, mean_rows):
            wr.writerow([name] + [format(v, ".17g") for v in row])
        _atomic_write_text(f"{prefix}_means.csv", buf.getvalue())

    hdr_polys = []
    if hdr is not None and hdr.grid is not None:
        buf = _stdio.StringIO()
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(["cell", "vertex"] + cols)
        for cell in hdr.region_cells:
            verts = bary_to_cart(hdr.grid.cell_vertices(cell), P)
            hdr_polys.append(verts)
            for vi, v in enumerate(verts):
                wr.writerow([int(cell), vi] + [format(c, ".17g") for c in v])
        _atomic_write_text(f"{prefix}_hdr_cells.csv", buf.getvalue())

    if svg and P == 3:
        _write_ternary_svg(f"{prefix}.svg", xy, mean_rows, mean_names, hdr_polys)


def _svg_pt(v, scale=480.0, pad=40.0):
    # flip y: svg origin is top-left
    x = pad + v[0] * scale
    y = pad + (np.sqrt(3.0) / 2.0 - v[1]) * scale
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
        out.append(f'<circle cx="{_svg_pt(v).split(",")[0]}" cy="{_svg_pt(v).split(",")[1]}" r="1.2" fill="#3465a4" fill-opacity="0.35"/>')
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

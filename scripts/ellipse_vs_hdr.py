#!/usr/bin/env python3
"""Compare Gaussian confidence ellipses against HDR on a multimodal posterior.

This is a documented comparison script, not package API. It reruns the
single-pixel multimodal experiment and contrasts three ways of drawing a
90% confidence region from the same posterior samples:

  1. a Euclidean Gaussian ellipse from the sample covariance of the
     abundances (it can leave the simplex);
  2. a latent Gaussian ellipse from the ilr-space covariance, mapped back
     through the softmax (stays inside, but is unimodal by construction);
  3. the highest-density region (follows the actual mass, including
     multiple modes).

Outputs: `ellipse_vs_hdr.csv` with the ellipse outlines in ternary
coordinates plus a printed coverage table.

Usage: python scripts/ellipse_vs_hdr.py [output_dir]
"""

import os
import sys

import numpy as np

from simplexuq import geometry
from simplexuq import io as sio
from simplexuq import repro
from simplexuq.uq import hdr

ALPHA = 0.1


def ellipse_outline(mean, cov, level, n=256):
    """Points of the {x : (x-m)^T C^-1 (x-m) = level} ellipse (2-D)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    L = np.linalg.cholesky(cov)
    return mean + np.sqrt(level) * circle @ L.T


def main(output_dir="."):
    os.makedirs(output_dir, exist_ok=True)
    result = repro.fig2(os.path.join(output_dir, "fig2_rerun"))
    samples = result["samples"]
    M = len(samples)
    level = -2.0 * np.log(ALPHA)  # chi^2_2 quantile for 1 - ALPHA mass

    # 1. Euclidean ellipse in the (a1, a2) plane
    a12 = samples[:, :2]
    eu_outline = ellipse_outline(a12.mean(axis=0), np.cov(a12.T), level)
    eu_bary = np.column_stack([eu_outline, 1.0 - eu_outline.sum(axis=1)])
    leaves = np.any(eu_bary < 0.0, axis=1)

    # 2. latent ellipse mapped through the softmax
    z = geometry.ilr(samples)
    z_outline = ellipse_outline(z.mean(axis=0), np.cov(z.T), level)
    lat_bary = geometry.ilr_inv(z_outline)

    # 3. HDR at the same level
    region = hdr(samples, ALPHA, estimator="barycentric-histogram", bins=repro.FIG2_BINS)

    # coverage of each region on the samples themselves
    zc = z - z.mean(axis=0)
    lat_cover = float(
        np.mean(np.einsum("ij,jk,ik->i", zc, np.linalg.inv(np.cov(z.T)), zc) <= level)
    )
    ac = a12 - a12.mean(axis=0)
    eu_cover = float(
        np.mean(np.einsum("ij,jk,ik->i", ac, np.linalg.inv(np.cov(a12.T)), ac) <= level)
    )
    hdr_cover = region.coverage

    rows = []
    for kind, outline in (("euclidean", eu_bary), ("latent", lat_bary)):
        xy = sio.bary_to_cart(np.clip(outline, -0.5, 1.5))
        for (x, y), raw in zip(xy, outline):
            rows.append([kind, x, y, float(np.min(raw))])
    with open(os.path.join(output_dir, "ellipse_vs_hdr.csv"), "w") as fh:
        fh.write("region,x,y,min_component\n")
        for kind, x, y, mn in rows:
            fh.write(f"{kind},{x:.17g},{y:.17g},{mn:.17g}\n")

    print(f"target mass: {1 - ALPHA:.2f}  (M = {M} samples)")
    print(f"euclidean ellipse: coverage {eu_cover:.3f}; "
          f"{int(leaves.sum())}/{len(leaves)} outline points leave the simplex")
    print(f"latent ellipse:    coverage {lat_cover:.3f}; always inside, but unimodal")
    print(f"HDR:               coverage {hdr_cover:.3f}; "
          f"{region.n_components} connected component(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "."))

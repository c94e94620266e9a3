"""Effective sample size of a single chain (Vehtari et al. 2021, Geyer 1992).

The autocorrelation comes from an FFT of the centred series. Autocorrelations
are summed in consecutive pairs, Gamma_k = rho_2k + rho_2k+1; the sum stops
before the first negative pair (Geyer's initial positive sequence) and the
pairs are made non-increasing (initial monotone sequence). Then
tau = -1 + 2 * sum_k Gamma_k and ESS = n / tau.
"""

import numpy as np


def ess(x):
    """ESS of each column of ``x`` (shape (n,) or (n, k)); returns shape () or (k,)."""
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    n = x.shape[0]
    if n < 4:
        raise ValueError("need at least 4 draws")
    xc = x - x.mean(axis=0)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, n=nfft, axis=0)
    acov = np.fft.irfft(f * np.conj(f), n=nfft, axis=0)[:n]
    rho = acov / acov[0]
    n_pairs = n // 2
    gamma = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    positive = np.cumprod(gamma > 0.0, axis=0).astype(bool)
    gamma = np.minimum.accumulate(np.where(positive, gamma, np.inf), axis=0)
    tau = -1.0 + 2.0 * np.sum(np.where(positive, gamma, 0.0), axis=0)
    # Floor from Stan: ESS never exceeds n * log10(n).
    tau = np.maximum(tau, 1.0 / np.log10(n))
    out = n / tau
    return out[0] if squeeze else out

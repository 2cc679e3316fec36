"""Post-processing of recorded time series: derivatives and dominant modes."""
from __future__ import annotations

import numpy as np

__all__ = ["centered_difference", "dominant_mode"]


def centered_difference(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """d(values)/dt by centered differences, one-sided at the endpoints."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least three samples for centered differences")
    return np.gradient(values, times, edge_order=2)


def dominant_mode(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Angular frequency and amplitude of the strongest oscillation.

    The detrended trace is Hann-windowed and zero-padded to 64 times its
    length, the spectral peak is refined by parabolic interpolation of
    log|X|, and the amplitude is half the peak-to-peak swing of the
    detrended trace.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 8:
        raise ValueError("need at least eight samples to estimate a mode")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0):
        raise ValueError("samples must be uniformly spaced")
    y = values - values.mean()
    spectrum = np.abs(np.fft.rfft(y * np.hanning(len(y)), n=64 * len(y)))
    omega = 2 * np.pi * np.fft.rfftfreq(64 * len(y), d=dt[0])
    i = int(np.argmax(spectrum))
    if 0 < i < len(spectrum) - 1 and spectrum[i - 1] > 0 and spectrum[i + 1] > 0:
        la, lb, lc = np.log(spectrum[i - 1 : i + 2])
        denom = la - 2 * lb + lc
        if denom < 0:
            i_shift = 0.5 * (la - lc) / denom
            return float(omega[i] + i_shift * (omega[1] - omega[0])), float((y.max() - y.min()) / 2)
    return float(omega[i]), float((y.max() - y.min()) / 2)

"""Per-path reference rate kernels: the oracle for ``channel.beamformed_gains``.

These are the forms the package shipped before the rate layer became array
code: steering vectors and phase shifts built one path at a time, the channel
matrix summed from them, and |H w|^2 over a grid as one three-operand einsum
with a full (L, N) complex-exponential sub-carrier table. They are slow but
easy to check against the channel equation by eye. Tests compare the array
kernels against them; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from isactwin.raytrace import SPEED_OF_LIGHT


def steering_vector(array, azimuth: float, elevation: float, carrier_freq: float) -> np.ndarray:
    """ULA response of one direction, element m = exp(j 2 pi (m d / lambda) sin(az) cos(el))."""
    lam = SPEED_OF_LIGHT / carrier_freq
    m = np.arange(array.num_elements)
    phase = 2.0 * math.pi * (array.spacing / lam) * math.sin(azimuth) * math.cos(elevation)
    return np.exp(1j * phase * m)


def phase_shift(n: int, k: int, nu: float, tau: float, params) -> float:
    """omega_nk = k nu T_s - n tau df for one path."""
    return k * nu * params.symbol_duration - n * tau * params.delta_f


def path_responses(paths, tx_array, rx_array, params):
    """a_R (N_R, L), a_T (N_T, L) and gains (L,), one steering_vector call per path and end."""
    a_r = np.column_stack([
        steering_vector(rx_array, p.aoa[0] - rx_array.boresight, p.aoa[1], params.carrier_freq)
        for p in paths.paths
    ])
    a_t = np.column_stack([
        steering_vector(tx_array, p.aod[0] - tx_array.boresight, p.aod[1], params.carrier_freq)
        for p in paths.paths
    ])
    gains = np.array([p.gain for p in paths.paths])
    return a_r, a_t, gains


def synthesize_channel(paths, tx_array, rx_array, n: int, k: int, params) -> np.ndarray:
    """H (N_R x N_T) at (n, k) with one phase_shift call per path."""
    h = np.zeros((rx_array.num_elements, tx_array.num_elements), dtype=complex)
    if not paths.paths:
        return h
    a_r, a_t, gains = path_responses(paths, tx_array, rx_array, params)
    omega = np.array([phase_shift(n, k, p.doppler, p.delay, params) for p in paths.paths])
    coeff = gains * np.exp(2j * math.pi * omega)
    return (a_r * coeff) @ a_t.T


def beamformed_gains(paths, tx_array, rx_array, w, params, subcarriers, symbols) -> np.ndarray:
    """|H_nk w|^2 over the grid as einsum("rl,ln,lk->nkr") of full phase tables."""
    ns = np.asarray(subcarriers, dtype=float)
    ks = np.asarray(symbols, dtype=float)
    if not paths.paths:
        return np.zeros((len(ns), len(ks)))
    a_r, a_t, gains = path_responses(paths, tx_array, rx_array, params)
    g = gains * (a_t.T @ np.asarray(w, dtype=complex))
    taus = np.array([p.delay for p in paths.paths])
    nus = np.array([p.doppler for p in paths.paths])
    sub_phase = np.exp(-2j * math.pi * np.outer(taus * params.delta_f, ns))
    sym_phase = np.exp(2j * math.pi * np.outer(nus * params.symbol_duration, ks))
    hw = np.einsum("rl,ln,lk->nkr", a_r * g, sub_phase, sym_phase)
    return np.sum(np.abs(hw) ** 2, axis=-1)

"""Beamspace MIMO-OFDM channel synthesis and beamformed link gains.

Per resource element (n, k) the channel of a link is a sum over resolvable
paths::

    H = sum_l  b_l * exp(j 2 pi (k nu_l T_s - n tau_l df)) * a_R(theta_l) a_T(psi_l)^T

with unit-modulus ULA steering vectors at both ends (note the transpose, not
conjugate transpose). The rate model needs only the beamformed gain |H w|^2
of each element; no receive vector or receive noise sample is built, since
noise enters the rates as a power. Transmit vectors x = alpha * sqrt(p) * w * d
are available for one element at a time. Everything here is
per-resource-element frequency domain; no waveform simulation.

The rate kernels are array code over all L paths of a link at once: one
steering matrix per terminal, and for the (sub-carrier, symbol) grid one
small BLAS matmul per 32-wide block of sub-carriers, of a (32, L) table of
within-block phases with an (L, N_R * K) right-hand side scaled by the
block's own phase. No (N, L) table over all sub-carriers is built. The
per-path forms and the einsum they replaced live on as the test oracle in
tests/channel_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ArrayConfig
from .raytrace import SPEED_OF_LIGHT, PathSet


@dataclass(frozen=True)
class OfdmParams:
    n_subcarriers: int
    n_symbols: int
    delta_f: float          # subcarrier spacing, Hz
    carrier_freq: float     # Hz

    def __post_init__(self):
        if self.delta_f <= 0.0:
            raise ValueError("delta_f must be > 0")
        if self.carrier_freq <= 0.0:
            raise ValueError("carrier_freq must be > 0")

    @property
    def symbol_duration(self) -> float:
        """T_s = 1/delta_f seconds; no cyclic prefix is modeled."""
        return 1.0 / self.delta_f

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq


def steering_vector(array: ArrayConfig, azimuth, elevation, carrier_freq: float) -> np.ndarray:
    """ULA response, element m = exp(j 2 pi (m d / lambda) sin(az) cos(el)).

    Phase reference at element 0; angles are given in the array's own frame
    (the array lies along the local x-axis). Scalar angles give the
    (elements,) vector; (L,) angle arrays give the (elements, L) matrix of L
    directions, one column each.
    """
    lam = SPEED_OF_LIGHT / carrier_freq
    m = np.arange(array.num_elements)
    phase = 2.0 * math.pi * (array.spacing / lam) * np.sin(azimuth) * np.cos(elevation)
    return np.exp(1j * np.multiply.outer(m, phase))


def phase_shift(n, k, nu, tau, params: OfdmParams):
    """omega_nk = k nu T_s - n tau df (dimensionless); elementwise over arrays."""
    return k * nu * params.symbol_duration - n * tau * params.delta_f


def synthesize_channel(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                       n: int, k: int, params: OfdmParams) -> np.ndarray:
    """Channel matrix H (N_R x N_T) of one link at resource element (n, k).

    Path angles are already in each terminal's local frame; array boresight
    offsets rotate them into the array frame. An empty path set yields the
    zero matrix. Summation order is fixed (path order, ascending delay).
    """
    _check_frame(paths, params)
    a_r, a_t = _path_responses(paths, tx_array, rx_array, params.carrier_freq)
    coeff = paths.gain * np.exp(2j * math.pi * phase_shift(n, k, paths.doppler, paths.delay, params))
    return (a_r * coeff) @ a_t.T


# Sub-carrier n = _PHASE_BLOCK * h + m: exp(-j 2 pi tau df n) is the product
# of a per-block factor and a within-block factor, so a grid of N sub-carriers
# costs (distinct blocks + _PHASE_BLOCK) complex exponentials per path, not N.
_PHASE_BLOCK = 32


def beamformed_gains(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                     w: np.ndarray, params: OfdmParams,
                     subcarriers: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """|H_nk w|^2 over a whole (subcarrier, symbol) grid.

    The phase exp(j 2 pi (k nu T_s - n tau df)) separates into a sub-carrier
    factor and a symbol factor, so with c_rl = a_R[r, l] b_l (a_T^T w)_l,

        (H_nk w)_r = sum_l  exp(-j 2 pi n tau_l df) * (c_rl exp(j 2 pi k nu_l T_s)).

    Writing n = 32 h + m splits the sub-carrier factor once more, into a
    per-block factor P[h, l] and a within-block factor Q[m, l]. The rows of
    one block h are then one BLAS matmul, Q[m] @ (P[h][:, None] * rhs), with
    an (L, R*K) right-hand side. No (N, L) sub-carrier table is built: the
    largest array is the (N, R*K) result. Equal to calling synthesize_channel
    per element up to float accumulation order; the three-operand einsum
    this replaced is kept as the test oracle in tests/channel_oracle.py.
    subcarriers must be integer indices, in any order and with repeats.
    Returns an array of shape (len(subcarriers), len(symbols)) whose row i
    belongs to subcarriers[i].
    """
    _check_frame(paths, params)
    n = np.asarray(subcarriers)
    idx = n.astype(np.int64)
    if np.any(idx != n):
        raise ValueError("subcarrier indices must be integers")
    ks = np.asarray(symbols, dtype=float)
    a_r, a_t = _path_responses(paths, tx_array, rx_array, params.carrier_freq)
    c = a_r * (paths.gain * (a_t.T @ np.asarray(w, dtype=complex)))        # (R, L)
    sym_phase = np.exp(2j * math.pi * np.outer(paths.doppler * params.symbol_duration, ks))  # (L, K)
    n_r, n_k = len(c), len(ks)
    rhs = (c.T[:, :, None] * sym_phase[:, None, :]).reshape(len(paths), n_r * n_k)

    # rows sorted by sub-carrier, so that each block's rows are one slice
    order = np.argsort(idx, kind="stable")
    hi, lo = np.divmod(idx[order], _PHASE_BLOCK)
    blocks, starts = np.unique(hi, return_index=True)
    ends = np.append(starts[1:], len(idx))
    rate = -2.0 * math.pi * params.delta_f * paths.delay                   # (L,)
    per_block = np.exp(1j * np.outer(blocks * _PHASE_BLOCK, rate))         # (B, L)
    in_block = np.exp(1j * np.outer(np.arange(_PHASE_BLOCK), rate))        # (32, L)
    hw = np.empty((len(idx), n_r * n_k), dtype=complex)
    for factor, s, e in zip(per_block, starts, ends):
        np.matmul(in_block[lo[s:e]], factor[:, None] * rhs, out=hw[s:e])
    power = hw.real ** 2                   # += keeps one float (N, R*K) array fewer alive
    power += hw.imag ** 2
    power = np.sum(power.reshape(len(idx), n_r, n_k), axis=1)
    gains = np.empty_like(power)
    gains[order] = power
    return gains


def _path_responses(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig, fc: float):
    """Steering matrices a_R (N_R, L) and a_T (N_T, L) of the paths' arrival and departure angles."""
    a_r = steering_vector(rx_array, paths.aoa[:, 0] - rx_array.boresight, paths.aoa[:, 1], fc)
    a_t = steering_vector(tx_array, paths.aod[:, 0] - tx_array.boresight, paths.aod[:, 1], fc)
    return a_r, a_t


def _check_frame(paths: PathSet, params: OfdmParams):
    if paths.carrier_freq and abs(paths.carrier_freq - params.carrier_freq) > 1e-3:
        raise ValueError(
            f"path set traced at {paths.carrier_freq} Hz but OFDM params use {params.carrier_freq} Hz"
        )


@dataclass(eq=False)
class TxSignal:
    """x = alpha * sqrt(p) * w * d for one resource element."""

    symbol: complex
    beamformer: np.ndarray
    power: float
    occupancy: int
    vector: np.ndarray


def build_tx_signal(d: complex, w: np.ndarray, p: float, alpha: int) -> TxSignal:
    w = np.asarray(w, dtype=complex)
    norm = np.linalg.norm(w)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"beamformer norm {norm} deviates from 1 beyond 1e-9")
    if p < 0.0:
        raise ValueError("power must be nonnegative")
    if alpha not in (0, 1):
        raise ValueError("occupancy must be 0 or 1")
    x = alpha * math.sqrt(p) * w * d
    return TxSignal(symbol=d, beamformer=w, power=p, occupancy=alpha, vector=x)


def mrt_beamformer(h: np.ndarray) -> np.ndarray:
    """Unit-norm beamformer maximizing ||H w||: the dominant right singular direction.

    Phase convention: the first nonzero entry is made real positive, so the
    result is deterministic.
    """
    h = np.asarray(h, dtype=complex)
    if not np.any(np.abs(h) > 0.0):
        raise ValueError("zero channel has no MRT beamformer")
    _, _, vh = np.linalg.svd(h)
    w = vh[0].conj()
    for entry in w:
        if abs(entry) > 1e-12:
            w = w * (entry.conjugate() / abs(entry))
            break
    return w

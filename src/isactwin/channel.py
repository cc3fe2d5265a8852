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

The rate kernels are array code over all L paths of a link at once. Each
kernel call steers the path set from its local unit directions, as Sionna RT
forms array phases (arXiv 2303.11103), and keeps nothing (_path_responses).
The steering and beamformed_gains' in-block factor are tables z ** m, built
by doubling (_powers) from one complex exponential per path. beamformed_gains
walks a sub-carrier grid in the blocks and chunks of its _grid_layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ArrayConfig
from .raytrace import SPEED_OF_LIGHT, PathSet, _cis
from .scene import _read_only


@dataclass(frozen=True)
class OfdmParams:
    n_subcarriers: int
    n_symbols: int
    delta_f: float          # subcarrier spacing, Hz
    carrier_freq: float     # Hz

    def __post_init__(self):
        if self.delta_f <= 0.0:
            raise ValueError("delta_f must be > 0")
        carrier_wavelength(self.carrier_freq)

    @property
    def symbol_duration(self) -> float:
        """T_s = 1/delta_f seconds; no cyclic prefix is modeled."""
        return 1.0 / self.delta_f

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq


def carrier_wavelength(carrier_freq: float) -> float:
    """SPEED_OF_LIGHT / carrier_freq in m; ValueError unless it is finite and > 0 (a near-zero carrier overflows it)."""
    if not (carrier_freq > 0.0 and 0.0 < SPEED_OF_LIGHT / carrier_freq < math.inf):   # NaN fails too
        raise ValueError(f"carrier_freq {carrier_freq!r} Hz gives no wavelength that is finite and > 0")
    return SPEED_OF_LIGHT / carrier_freq


def _steering(array: ArrayConfig, psi, carrier_freq: float) -> np.ndarray:
    """ULA response to directions whose sines off broadside are psi: (elements,) + psi.shape,
    element m = z ** m with z = exp(j 2 pi (d / lambda) psi)."""
    lam = SPEED_OF_LIGHT / carrier_freq
    return _powers(_cis(2.0 * math.pi * (array.spacing / lam) * psi), array.num_elements)


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """The (n,) + z.shape table z ** m, m = 0..n-1, by doubling: with rows 0..k filled, rows k+1..2k
    are rows 1..k times row k, so at most ceil(log2 n) in-place products and no cos or sin."""
    out = np.empty((n,) + z.shape, dtype=complex)
    out[:1], out[1:2] = 1.0, z
    k = 1
    while k < n - 1:
        np.multiply(out[1:min(k, n - 1 - k) + 1], out[k], out=out[k + 1:2 * k + 1])
        k *= 2
    return out


def phase_shift(n, k, nu, tau, params: OfdmParams):
    """omega_nk = k nu T_s - n tau df (dimensionless); elementwise over arrays."""
    return k * nu * params.symbol_duration - n * tau * params.delta_f


def synthesize_channel(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                       n: int, k: int, params: OfdmParams) -> np.ndarray:
    """Channel matrix H (N_R x N_T) of one link at resource element (n, k).

    Path directions are already in each terminal's local frame; array boresight
    offsets rotate them into the array frame. An empty path set yields the
    zero matrix. Summation order is fixed (path order, ascending delay).
    """
    _check_frame(paths, params)
    a_r, a_t = _path_responses(paths, tx_array, rx_array, params.carrier_freq)
    coeff = paths.gain * _cis(2.0 * math.pi * phase_shift(n, k, paths.doppler, paths.delay, params))
    return (a_r * coeff) @ a_t.T


# beamformed_gains' sub-carriers per phase block, 2 ** _PHASE_SHIFT, and blocks per phase table
_PHASE_SHIFT = 5
_PHASE_BLOCK = 1 << _PHASE_SHIFT
_CHUNK_BLOCKS = 4


@dataclass(frozen=True, eq=False)
class _GridLayout:
    """How beamformed_gains walks a grid of len() sub-carriers; a rate plan shares it, so its arrays are read-only."""

    rows: int            # sub-carriers
    starts: np.ndarray   # (B,) first sub-carrier n0 + 32 h of each distinct block
    chunks: tuple        # (first block, end block, first row, end row, and None for whole
                         #  blocks or (block of each row, offset in its block) for partial ones)

    def __len__(self):
        return self.rows


def _grid_layout(subcarriers) -> _GridLayout:
    """The layout of a sub-carrier index grid, checked against beamformed_gains' grid
    contract: integer indices, ascending and distinct. A refused grid raises ValueError."""
    given = np.asarray(subcarriers)
    idx = given.astype(np.int64)
    if idx.dtype != given.dtype and (idx != given).any():                 # an int64 grid is as given
        raise ValueError("subcarrier indices must be integers")
    if (idx[1:] <= idx[:-1]).any():
        raise ValueError("subcarrier indices must be ascending and distinct")
    # the rows ascend, so each block's rows are one slice
    n0 = int(idx[0]) if len(idx) else 0
    offsets = idx - n0                                                     # >= 0, so shift and mask
    hi, lo = offsets >> _PHASE_SHIFT, offsets & (_PHASE_BLOCK - 1)         # are np.divmod's, at half its cost
    opens = hi != np.concatenate((hi[:1] - 1, hi[:-1]))                    # row starts a block
    starts = _read_only((n0 + _PHASE_BLOCK * hi[opens]).astype(float))[0]
    bounds = [*np.flatnonzero(opens)[::_CHUNK_BLOCKS].tolist(), len(idx)]
    chunks = []
    for b, s, e in zip(range(0, len(starts), _CHUNK_BLOCKS), bounds[:-1], bounds[1:]):
        b_end = min(b + _CHUNK_BLOCKS, len(starts))
        whole = e - s == (b_end - b) * _PHASE_BLOCK
        # a chunk's first row opens block b, so its rows' blocks count up from there
        chunks.append((b, b_end, s, e, None if whole else _read_only(np.cumsum(opens[s:e]) + (b - 1), lo[s:e])))
    return _GridLayout(rows=len(idx), starts=starts, chunks=tuple(chunks))


def beamformed_gains(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                     w: np.ndarray, params: OfdmParams,
                     layout: _GridLayout, symbols: np.ndarray) -> np.ndarray:
    """|H_nk w|^2 over a whole (subcarrier, symbol) grid.

    The phase exp(j 2 pi (k nu T_s - n tau df)) separates into a sub-carrier
    factor and a symbol factor, so with c_rl = a_R[r, l] b_l (a_T^T w)_l,

        (H_nk w)_r = sum_l  exp(-j 2 pi n tau_l df) * (c_rl exp(j 2 pi k nu_l T_s)).

    Blocks are anchored at the grid's smallest sub-carrier n0: the sub-carrier
    factor of n = n0 + 32 h + m is a per-block factor P[h, l] times a
    within-block factor Q[m, l], so a contiguous grid is all whole blocks, and
    a grid of N sub-carriers costs (distinct blocks + 32) complex exponentials
    per path, not N.
    The sub-carriers are taken four blocks (at most 128 rows) at a time:
    their (rows, L) table P[h] * Q[m] is built in one buffer, by one
    broadcast product when the rows are whole blocks and row by row when
    they are not, and times the (L, R*K) right-hand side in one BLAS matmul.
    The grid comes as _grid_layout(subcarriers), which a rate plan works out
    once per link. No (N, L) sub-carrier table is built: the largest arrays
    are the (N, R*K) result and the (B, L) table of the B distinct blocks'
    factors, which has N / 32 rows on a contiguous grid and up to N on a
    sparse one. Equal to calling synthesize_channel per element up to float
    accumulation order; the three-operand einsum this replaced is kept as the
    test oracle in tests/channel_oracle.py. Returns an array of shape
    (len(layout), len(symbols)) whose row i belongs to subcarriers[i].
    """
    _check_frame(paths, params)
    ks = np.asarray(symbols, dtype=float)
    a_r, a_t = _path_responses(paths, tx_array, rx_array, params.carrier_freq)
    c = a_r * (paths.gain * (a_t.T @ np.asarray(w, dtype=complex)))        # (R, L)
    sym_phase = _cis(2.0 * math.pi * np.multiply.outer(paths.doppler * params.symbol_duration, ks))  # (L, K)
    n_l, n_r, n_k = len(paths), len(c), len(ks)
    rhs = (c.T[:, :, None] * sym_phase[:, None, :]).reshape(n_l, n_r * n_k)

    rate = -2.0 * math.pi * params.delta_f * paths.delay                   # (L,)
    per_block = _cis(np.multiply.outer(layout.starts, rate))               # (B, L)
    in_block = _powers(_cis(rate), _PHASE_BLOCK)                           # (32, L)
    table = np.empty((min(layout.rows, _CHUNK_BLOCKS * _PHASE_BLOCK), n_l), dtype=complex)
    hw = np.empty((layout.rows, n_r * n_k), dtype=complex)
    for b, b_end, s, e, partial in layout.chunks:
        rows = table[:e - s]
        # an in-place product keeps one broadcast or gathered (rows, L) temporary, not two
        if partial is None:
            blocks = rows.reshape(b_end - b, _PHASE_BLOCK, n_l)
            blocks[...] = in_block
            blocks *= per_block[b:b_end, None]
        else:
            np.take(per_block, partial[0], axis=0, out=rows)
            rows *= in_block[partial[1]]
        np.matmul(rows, rhs, out=hw[s:e])
    # |.|^2 in place on the (re, im) pairs: no second (N, R*K) array. The sum over
    # the receive antennas is a loop of slice adds; a strided np.sum is several times slower.
    parts = hw.view(float)
    np.square(parts, out=parts)
    parts = parts.reshape(layout.rows, n_r, n_k, 2)
    np.add(parts[..., 0], parts[..., 1], out=parts[..., 0])
    power = parts[:, 0, :, 0].copy()
    for r in range(1, n_r):
        power += parts[:, r, :, 0]
    return power


def _path_responses(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig, fc: float):
    """Steering matrices a_R (N_R, L) and a_T (N_T, L) of the paths' arrival and departure directions."""
    # a unit direction at (az, el) dotted with (-sin b, cos b, 0) is sin(az - b) cos(el), its sine off broadside
    return tuple(_steering(array, dirs @ (-math.sin(array.boresight), math.cos(array.boresight), 0.0), fc)
                 for array, dirs in ((rx_array, paths.aoa_dir), (tx_array, paths.aod_dir)))


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
    result is deterministic. A nonzero one-column channel (one transmit
    antenna) gives exactly [1+0j], so sim_step's phase 3 uses [1] for a
    one-element transmitter without the channel or the SVD.
    """
    h = np.asarray(h, dtype=complex)
    if not np.logical_or.reduce(np.abs(h) > 0.0, axis=None):
        raise ValueError("zero channel has no MRT beamformer")
    _, _, vh = np.linalg.svd(h)
    w = vh[0].conj()
    for entry in w:
        if abs(entry) > 1e-12:
            w = w * (entry.conjugate() / abs(entry))
            break
    return w

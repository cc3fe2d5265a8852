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

The rate kernels are array code over all L paths of a link at once. The
steering matrices of a path set are computed once per array pair and shared
by synthesize_channel and beamformed_gains while the path set lives. Over
the (sub-carrier, symbol) grid, beamformed_gains fills up to 128 distinct
sub-carriers (four 32-wide blocks, anchored at the grid's first
sub-carrier) at a time: a (rows, L) table of per-sub-carrier phases, built
from a per-block and a within-block factor, times one (L, N_R * K)
right-hand side in one BLAS matmul. How a grid splits into blocks and
chunks is worked out once per grid, not once per call. No (N, L) table
over all sub-carriers is built. The per-path forms and the einsum they
replaced live on as the test oracle in tests/channel_oracle.py.
"""

from __future__ import annotations

import functools
import math
import weakref
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
    return _cis(np.multiply.outer(m, phase))


def _cis(x) -> np.ndarray:
    """exp(j x) of real x from one cos and one sin: half the time of numpy's complex exp."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


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
    coeff = paths.gain * _cis(2.0 * math.pi * phase_shift(n, k, paths.doppler, paths.delay, params))
    return (a_r * coeff) @ a_t.T


# Sub-carrier n = n0 + _PHASE_BLOCK * h + m, with n0 the grid's smallest:
# exp(-j 2 pi tau df n) is the product of a per-block factor and a within-block
# factor, so a grid of N sub-carriers costs (distinct blocks + _PHASE_BLOCK)
# complex exponentials per path, not N.
_PHASE_BLOCK = 32
# beamformed_gains builds its phase table over this many distinct blocks at a
# time, so the table never exceeds (_CHUNK_BLOCKS * _PHASE_BLOCK, L)
_CHUNK_BLOCKS = 4


@dataclass(frozen=True, eq=False)
class _GridLayout:
    """How beamformed_gains walks one sub-carrier grid; its arrays are read-only."""

    rows: int            # distinct sub-carriers
    starts: np.ndarray   # (B,) first sub-carrier n0 + 32 h of each distinct block
    chunks: tuple        # (first block, end block, first row, end row, and None for whole
                         #  blocks or (block of each row, offset in its block) for partial ones)
    select: object       # the rows in input order: a slice, or an index array for repeats
                         # and unsorted input


@functools.lru_cache(maxsize=32)
def _grid_layout(key: bytes) -> _GridLayout:
    """The layout of the int64 sub-carrier indices whose bytes are key: worked out
    once per grid, since a link's grid does not change between steps."""
    idx = np.frombuffer(key, dtype=np.int64)
    # rows are the distinct sub-carriers in ascending order, so each block's rows are one slice
    uniq, inverse = np.unique(idx, return_inverse=True)
    n0 = uniq[:1].sum()                                                    # 0 for an empty grid
    hi, lo = np.divmod(uniq - n0, _PHASE_BLOCK)
    opens = np.diff(hi, prepend=hi[:1] - 1) != 0                           # row starts a block
    row_block = np.cumsum(opens) - 1
    starts = (n0 + _PHASE_BLOCK * hi[opens]).astype(float)
    for a in (inverse, lo, row_block, starts):
        a.flags.writeable = False
    bounds = np.append(np.flatnonzero(opens)[::_CHUNK_BLOCKS], len(uniq))
    chunks = []
    for b, s, e in zip(range(0, len(starts), _CHUNK_BLOCKS), bounds[:-1], bounds[1:]):
        b_end = min(b + _CHUNK_BLOCKS, len(starts))
        whole = e - s == (b_end - b) * _PHASE_BLOCK
        chunks.append((b, b_end, int(s), int(e), None if whole else (row_block[s:e], lo[s:e])))
    select = slice(None) if np.array_equal(uniq, idx) else inverse
    return _GridLayout(rows=len(uniq), starts=starts, chunks=tuple(chunks), select=select)


def beamformed_gains(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                     w: np.ndarray, params: OfdmParams,
                     subcarriers: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """|H_nk w|^2 over a whole (subcarrier, symbol) grid.

    The phase exp(j 2 pi (k nu T_s - n tau df)) separates into a sub-carrier
    factor and a symbol factor, so with c_rl = a_R[r, l] b_l (a_T^T w)_l,

        (H_nk w)_r = sum_l  exp(-j 2 pi n tau_l df) * (c_rl exp(j 2 pi k nu_l T_s)).

    Blocks are anchored at the grid's smallest sub-carrier n0: the sub-carrier
    factor of n = n0 + 32 h + m is a per-block factor P[h, l] times a
    within-block factor Q[m, l], so a contiguous grid is all whole blocks.
    The distinct sub-carriers are taken four blocks (at most 128 rows) at a
    time: their (rows, L) table P[h] * Q[m] is built in one buffer, by one
    broadcast product when the rows are whole blocks and row by row when
    they are not, and times the (L, R*K) right-hand side in one BLAS matmul.
    A grid's blocks, chunks and output order are worked out on its first
    call and kept (_grid_layout). No (N, L) sub-carrier table is built: the
    largest arrays are the (N, R*K) result and the (B, L) table of the B
    distinct blocks' factors, which has N / 32 rows on a contiguous grid
    and up to N on a sparse one. Equal to calling synthesize_channel per
    element up to float accumulation order; the three-operand einsum this
    replaced is kept as the test oracle in tests/channel_oracle.py.
    subcarriers must be integer indices, in any order and with repeats.
    Returns an array of shape (len(subcarriers), len(symbols)) whose row i
    belongs to subcarriers[i].
    """
    _check_frame(paths, params)
    n = np.asarray(subcarriers)
    idx = n.astype(np.int64)
    if np.any(idx != n):
        raise ValueError("subcarrier indices must be integers")
    layout = _grid_layout(idx.tobytes())
    ks = np.asarray(symbols, dtype=float)
    a_r, a_t = _path_responses(paths, tx_array, rx_array, params.carrier_freq)
    c = a_r * (paths.gain * (a_t.T @ np.asarray(w, dtype=complex)))        # (R, L)
    sym_phase = _cis(2.0 * math.pi * np.outer(paths.doppler * params.symbol_duration, ks))  # (L, K)
    n_l, n_r, n_k = len(paths), len(c), len(ks)
    rhs = (c.T[:, :, None] * sym_phase[:, None, :]).reshape(n_l, n_r * n_k)

    rate = -2.0 * math.pi * params.delta_f * paths.delay                   # (L,)
    per_block = _cis(np.outer(layout.starts, rate))                        # (B, L)
    in_block = _cis(np.outer(np.arange(_PHASE_BLOCK), rate))               # (32, L)
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
    return power[layout.select]


# PathSet -> {(tx_array, rx_array, carrier_freq): (a_r, a_t)}, dying with the path set;
# its columns are read-only, so the steering stays valid while it lives
_STEERING: "weakref.WeakKeyDictionary[PathSet, dict]" = weakref.WeakKeyDictionary()


def _path_responses(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig, fc: float):
    """Read-only steering matrices a_R (N_R, L) and a_T (N_T, L) of the paths' arrival and
    departure angles, computed once per path set and array pair."""
    memo = _STEERING.setdefault(paths, {})
    pair = memo.get((tx_array, rx_array, fc))
    if pair is None:
        a_r = steering_vector(rx_array, paths.aoa[:, 0] - rx_array.boresight, paths.aoa[:, 1], fc)
        a_t = steering_vector(tx_array, paths.aod[:, 0] - tx_array.boresight, paths.aod[:, 1], fc)
        a_r.flags.writeable = a_t.flags.writeable = False
        pair = memo[(tx_array, rx_array, fc)] = (a_r, a_t)
    return pair


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

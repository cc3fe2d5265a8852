"""Beamspace MIMO-OFDM channel synthesis and link-level signal simulation.

Per resource element (n, k) the channel of a link is a sum over resolvable
paths::

    H = sum_l  b_l * exp(j 2 pi (k nu_l T_s - n tau_l df)) * a_R(theta_l) a_T(psi_l)^T

with unit-modulus ULA steering vectors at both ends (note the transpose, not
conjugate transpose). Transmit vectors are x = alpha * sqrt(p) * w * d and the
receive side sums over incoming edges and adds circularly-symmetric Gaussian
noise. Everything here is per-resource-element frequency domain; no waveform
simulation.

The rate kernels are array code over all L paths of a link at once: one
steering matrix per terminal, and for the (sub-carrier, symbol) grid one BLAS
matmul of an (N, L) sub-carrier phase table, factored into per-block and
within-block exponentials, with an (L, N_R * K) right-hand side. The per-path
forms and the einsum they replaced live on as the test oracle in
tests/channel_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ArrayConfig, NetworkGraph, incoming_edges
from .raytrace import SPEED_OF_LIGHT, PathSet


@dataclass(frozen=True)
class OfdmParams:
    n_subcarriers: int
    n_symbols: int
    delta_f: float          # subcarrier spacing, Hz
    carrier_freq: float     # Hz
    symbol_duration: float = None  # seconds; defaults to 1/delta_f (no CP modeled)

    def __post_init__(self):
        if self.delta_f <= 0.0:
            raise ValueError("delta_f must be > 0")
        if self.symbol_duration is None:
            object.__setattr__(self, "symbol_duration", 1.0 / self.delta_f)
        if self.symbol_duration <= 0.0:
            raise ValueError("symbol_duration must be > 0")

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
    a_r, a_t, gains, taus, nus = _path_responses(paths, tx_array, rx_array, params)
    coeff = gains * np.exp(2j * math.pi * phase_shift(n, k, nus, taus, params))
    return (a_r * coeff) @ a_t.T


def beamformed_gains(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                     w: np.ndarray, params: OfdmParams,
                     subcarriers: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """|H_nk w|^2 over a whole (subcarrier, symbol) grid in one shot.

    The phase exp(j 2 pi (k nu T_s - n tau df)) separates into a sub-carrier
    factor and a symbol factor, so with c_rl = a_R[r, l] b_l (a_T^T w)_l,

        (H_nk w)_r = sum_l  S[n, l] * (c_rl exp(j 2 pi k nu_l T_s)),

    one BLAS matmul of the (N, L) sub-carrier table S with an (L, R*K)
    right-hand side. S comes from a factored table (_subcarrier_phases).
    Equal to calling synthesize_channel per element up to float
    accumulation order; the three-operand einsum it replaced is kept as the
    test oracle in tests/channel_oracle.py. subcarriers must be integer
    indices. Returns an array of shape (len(subcarriers), len(symbols)).
    """
    _check_frame(paths, params)
    ks = np.asarray(symbols, dtype=float)
    a_r, a_t, gains, taus, nus = _path_responses(paths, tx_array, rx_array, params)
    c = a_r * (gains * (a_t.T @ np.asarray(w, dtype=complex)))             # (R, L)
    sym_phase = np.exp(2j * math.pi * np.outer(nus * params.symbol_duration, ks))  # (L, K)
    n_r, n_k = len(c), len(ks)
    rhs = (c.T[:, :, None] * sym_phase[:, None, :]).reshape(len(taus), n_r * n_k)
    sub_phase = _subcarrier_phases(taus, params.delta_f, subcarriers)      # (N, L)
    hw = (sub_phase @ rhs).reshape(len(sub_phase), n_r, n_k)
    return np.sum(hw.real ** 2 + hw.imag ** 2, axis=1)


# Sub-carrier n = _PHASE_BLOCK * hi + lo: exp(-j 2 pi tau df n) is the product
# of a per-block factor and a within-block factor.
_PHASE_BLOCK = 32


def _subcarrier_phases(taus: np.ndarray, delta_f: float, subcarriers) -> np.ndarray:
    """(N, L) table exp(-j 2 pi tau_l df n) over the sub-carrier indices n.

    Costs (distinct blocks + _PHASE_BLOCK) complex exponentials per path
    instead of N, plus one gather and one multiply.
    """
    n = np.asarray(subcarriers)
    idx = n.astype(np.int64)
    if np.any(idx != n):
        raise ValueError("subcarrier indices must be integers")
    hi, lo = np.divmod(idx, _PHASE_BLOCK)
    blocks, block_of = np.unique(hi, return_inverse=True)
    rate = -2.0 * math.pi * delta_f * taus                                 # (L,)
    per_block = np.exp(1j * np.outer(blocks * _PHASE_BLOCK, rate))         # (B, L)
    in_block = np.exp(1j * np.outer(np.arange(_PHASE_BLOCK), rate))        # (32, L)
    return per_block[block_of] * in_block[lo]


def _path_responses(paths: PathSet, tx_array: ArrayConfig, rx_array: ArrayConfig,
                    params: OfdmParams):
    """Steering matrices a_R (N_R, L) and a_T (N_T, L), then gains, delays, Dopplers (L,)."""
    gains = np.array([p.gain for p in paths.paths], dtype=complex)
    cols = np.array([(p.delay, p.doppler, *p.aoa, *p.aod) for p in paths.paths],
                    dtype=float).reshape(-1, 6)
    taus, nus, aoa_az, aoa_el, aod_az, aod_el = cols.T
    a_r = steering_vector(rx_array, aoa_az - rx_array.boresight, aoa_el, params.carrier_freq)
    a_t = steering_vector(tx_array, aod_az - tx_array.boresight, aod_el, params.carrier_freq)
    return a_r, a_t, gains, taus, nus


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


@dataclass(eq=False)
class NoiseModel:
    """Circularly-symmetric Gaussian receive noise with a seeded generator.

    Either white (sigma2 per antenna) or with an explicit Hermitian PSD
    covariance. Sampling is deterministic given the seed.
    """

    sigma2: float = 0.0
    covariance: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.covariance is not None:
            c = np.asarray(self.covariance, dtype=complex)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValueError("covariance must be square")
            if not np.allclose(c, c.conj().T, atol=1e-12):
                raise ValueError("covariance must be Hermitian")
            eig = np.linalg.eigvalsh(c)
            if np.min(eig) < -1e-12:
                raise ValueError("covariance must be positive semidefinite")
            self.covariance = c
        elif self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")

    def factor(self, n: int) -> np.ndarray:
        if self.covariance is not None:
            if self.covariance.shape[0] != n:
                raise ValueError(f"covariance is {self.covariance.shape[0]}-dim, need {n}")
            eigval, eigvec = np.linalg.eigh(self.covariance)
            return eigvec @ np.diag(np.sqrt(np.clip(eigval, 0.0, None)))
        return math.sqrt(self.sigma2) * np.eye(n)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        white = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
        return self.factor(n) @ white


def propagate(graph: NetworkGraph, channels, signals, noise: NoiseModel) -> dict:
    """Receive vectors y_vnk = sum_{q in E_v} H_vqnk x_qnk + z for every receiver.

    channels maps (v, q, n, k) -> H; signals maps (q, n, k) -> TxSignal.
    Output covers every receiver at every (n, k) present in signals. Noise is
    drawn in a fixed (receiver, n, k) order from the model's seed, so results
    are bit-reproducible.
    """
    rng = np.random.default_rng(noise.seed)
    elements = sorted({(n, k) for (_, n, k) in signals})
    out = {}
    for v in sorted(graph.receivers):
        node = graph.nodes[v]
        if node.array is None:
            raise ValueError(f"receiver {v!r} has no array config")
        n_r = node.array.num_elements
        ev = sorted(incoming_edges(graph, v))
        for (n, k) in elements:
            y = np.zeros(n_r, dtype=complex)
            for q in ev:
                sig = signals.get((q, n, k))
                if sig is None:
                    continue
                h = channels.get((v, q, n, k))
                if h is None:
                    raise ValueError(f"missing channel for edge ({v!r}, {q!r}) at ({n}, {k})")
                h = np.asarray(h, dtype=complex)
                if h.shape != (n_r, len(sig.vector)):
                    raise ValueError(
                        f"channel shape {h.shape} inconsistent with ({n_r}, {len(sig.vector)})"
                    )
                y = y + h @ sig.vector
            out[(v, n, k)] = y + noise.sample(rng, n_r)
    return out


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

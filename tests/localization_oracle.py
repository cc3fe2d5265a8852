"""Reference forms of the fingerprint layer's array code.

``localize`` scores every grid point at once against the database's cached
aligned profiles. ``mdp_distance`` is the same metric for one pair of
profiles, written out directly: circular-shift each profile so its first
nonzero bin is bin 0, divide by its total power, and take the RMS bin
difference. ``compute_mdp_per_path`` is the per-path binning loop that
``compute_mdp`` replaced with one ``np.bincount``; both read the PathSet's
``power`` column, so it checks the binning order and the overflow count.
``localize_full_width`` is the match over all ``num_bins`` bins that
``localize`` replaced with one over the occupied window, and
``add_fingerprint_noise_masked`` is the boolean-mask noise formula that
``add_fingerprint_noise`` replaced with one gather of the occupied bins; each
must give the same bits. Tests compare the package against all of them;
nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from isactwin.localization import DatabaseError, FingerprintDB, Mdp, snr_power
from isactwin.raytrace import PathSet


def mdp_distance(a: Mdp, b: Mdp) -> float:
    """Delay-aligned RMS difference of power-normalized profiles."""
    if a.num_bins != b.num_bins or abs(a.bin_width - b.bin_width) > 1e-18:
        raise DatabaseError("bin parameters mismatch")
    return float(np.sqrt(np.mean((_aligned_unit(a.bins) - _aligned_unit(b.bins)) ** 2)))


def _aligned_unit(bins: np.ndarray) -> np.ndarray:
    total = bins.sum()
    if total <= 0.0:
        return np.zeros_like(bins)
    first = int(np.nonzero(bins)[0][0])
    return np.roll(bins, -first) / total


def compute_mdp_per_path(paths: PathSet, bin_width: float, num_bins: int) -> Mdp:
    """Bin path powers by delay, one path at a time, in path order."""
    bins = np.zeros(num_bins)
    overflow = 0
    for i in range(len(paths)):
        idx = int(np.floor(paths.delay[i] / bin_width))
        if idx >= num_bins:
            overflow += 1
            continue
        bins[idx] += paths.power[i]
    return Mdp(bins=bins, bin_width=bin_width, overflow=overflow)


def _aligned_unit_rows(bins: np.ndarray) -> np.ndarray:
    """Profiles along the last axis, each rolled so its first nonzero bin is bin 0 and divided by
    its total power; an all-zero profile stays all zero."""
    n = bins.shape[-1]
    first = np.argmax(bins > 0.0, axis=-1)
    rolled = np.take_along_axis(bins, (np.arange(n) + first[..., None]) % n, axis=-1)
    totals = bins.sum(axis=-1, keepdims=True)
    return np.where(totals > 0.0, rolled / np.where(totals > 0.0, totals, 1.0), 0.0)


def localize_full_width(measured, db: FingerprintDB) -> tuple:
    """localize's (estimate, score), every bin of every profile scored, ties to the lowest index."""
    columns = [db._ap_index(ap_id) for ap_id in sorted(measured)]
    query = _aligned_unit_rows(np.stack([mdp.bins for _, mdp in sorted(measured.items())]))
    diff = _aligned_unit_rows(db.bins)[:, columns, :] - query
    scores = np.sqrt(np.mean(np.square(diff), axis=-1)).sum(axis=-1)
    best = int(np.argmin(scores))
    return db.positions[best].copy(), float(scores[best])


def add_fingerprint_noise_masked(mdp: Mdp, snr_db: float, rng: np.random.Generator) -> Mdp:
    """add_fingerprint_noise through a boolean mask of the occupied bins."""
    snr = snr_power(snr_db)
    occupied = mdp.bins > 0.0
    if not np.any(occupied):
        return Mdp(bins=mdp.bins.copy(), bin_width=mdp.bin_width, overflow=mdp.overflow)
    sigma = np.sqrt(np.mean(mdp.bins[occupied] ** 2) / snr)
    noisy = mdp.bins.copy()
    noisy[occupied] = np.clip(noisy[occupied] + rng.normal(0.0, sigma, int(occupied.sum())), 0.0, None)
    return Mdp(bins=noisy, bin_width=mdp.bin_width, overflow=mdp.overflow)

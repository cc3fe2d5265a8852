"""Reference forms of the fingerprint layer's array code.

``localize`` scores every grid point at once against the database's cached
aligned profiles. ``mdp_distance`` is the same metric for one pair of
profiles, written out directly: circular-shift each profile so its first
nonzero bin is bin 0, divide by its total power, and take the RMS bin
difference. ``compute_mdp_per_path`` is the per-path binning loop that
``compute_mdp`` replaced with one ``np.bincount``; both read the PathSet's
``power`` column, so it checks the binning order and the overflow count.
Tests compare the package against both; nothing in ``src/`` imports this
module.
"""

from __future__ import annotations

import numpy as np

from isactwin.localization import DatabaseError, Mdp
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

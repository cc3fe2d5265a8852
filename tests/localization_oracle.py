"""Pairwise MDP distance: the reference for ``localization.localize``'s scores.

``localize`` scores every grid point at once against the database's cached
aligned profiles. This is the same metric for one pair of profiles, written
out directly: circular-shift each profile so its first nonzero bin is bin 0,
divide by its total power, and take the RMS bin difference. Tests compare
``localize`` against it; nothing in ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from isactwin.localization import DatabaseError, Mdp


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

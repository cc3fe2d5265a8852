"""Fingerprint localization from multipath delay profiles (MDPs).

Offline, every floor-grid point gets one delay-power profile per access
point, binned from a PathSet's power and delay columns with one bincount, so
building it evaluates no path phase; online, measured profiles are matched
by a delay-aligned, power-normalized RMS distance summed over APs:
circular-shift each profile so its first nonzero bin is bin 0
(kills the unknown absolute sync offset), scale it to unit total power, and
take the RMS bin difference. One alignment over the last axis serves the
cached database and the query, and every grid point and AP scores at once.

Database file layout (version 2, little-endian, deterministic bytes):

    magic   b"ITFPDB01"
    u32     header length in bytes
    bytes   UTF-8 JSON header {version, scene_hash, network_hash, spacing_m,
            bin_width_s, num_bins, ap_ids, n_points}
    f64     positions, (n_points, 3), C order
    f64     bins, (n_points, n_aps, num_bins), C order

A scenario stamps scene_hash with scene.scene_hash and network_hash with
simcore.db_signature, which covers the static APs, the carrier and the
reflection order; the grid is not hashed, since the file holds it. Version 1
files, whose network_hash also covered the db.build settings, are refused.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .raytrace import PathSet, receiver_poses, trace_paths
from .scene import Scene, _bad_field

_MAGIC = b"ITFPDB01"
_VERSION = 2
# the header's schema, in the shapes of scene.read_document
_DB_HEADER = {"version": int, "scene_hash": str, "network_hash": str, "spacing_m": float,
              "bin_width_s": float, "num_bins": int, "ap_ids": [str], "n_points": int}

# grid points whose receiver entries build_fingerprint_db builds in one batch; one chunk's entries,
# about 430 KB on the shipped grid at reflection order 3, are alive at a time
_CHUNK = 16


class DatabaseError(ValueError):
    """Fingerprint database mismatch, missing entry, or bad file."""


@dataclass(eq=False)
class Mdp:
    """Per-delay-bin received power (linear watts) of one AP at one position."""

    bins: np.ndarray
    bin_width: float
    overflow: int = 0  # paths whose delay fell beyond the binning window

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=float)
        if self.bin_width <= 0.0:
            raise ValueError("bin_width must be positive")
        if not (self.bins.min(initial=0.0) >= 0.0 and self.bins.max(initial=0.0) < np.inf):   # NaN fails both
            finite = np.isfinite(self.bins)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise ValueError(f"bins must be finite: bin {bad} is {self.bins[bad]}")
            raise ValueError("bins must be nonnegative")

    @property
    def num_bins(self) -> int:
        return len(self.bins)


def compute_mdp(paths: PathSet, bin_width: float, num_bins: int) -> Mdp:
    """Bin path powers by delay: bin[i] = sum |b_l|^2 over floor(tau_l / width) == i.

    Reads the PathSet's power and delay columns only, so a traced set forms no complex gain.
    """
    if bin_width <= 0.0 or num_bins < 1:
        raise ValueError("invalid bin parameters")
    idx = np.floor(paths.delay / bin_width)
    power = paths.power
    if len(idx) and idx[-1] >= num_bins:   # delays ascend: only the last can tell of an overflow
        inside = idx < num_bins
        idx, power = idx[inside], power[inside]
    bins = np.bincount(idx.astype(np.intp), weights=power, minlength=num_bins)
    return Mdp(bins=bins, bin_width=bin_width, overflow=len(paths) - len(idx))


def _aligned_unit(bins: np.ndarray) -> np.ndarray:
    """Profiles along the last axis, each shifted so its first nonzero bin is bin 0
    and divided by its total power; an all-zero profile stays all zero."""
    n = bins.shape[-1]
    first = np.argmax(bins > 0.0, axis=-1)
    rolled = np.take_along_axis(bins, (np.arange(n) + first[..., None]) % n, axis=-1)
    totals = bins.sum(axis=-1, keepdims=True)
    return np.where(totals > 0.0, rolled / np.where(totals > 0.0, totals, 1.0), 0.0)


@dataclass(eq=False)
class FingerprintDB:
    """Grid-indexed MDPs per AP, stamped with the producing scenario's hashes."""

    positions: np.ndarray       # (P, 3)
    spacing: float
    ap_ids: list
    bins: np.ndarray            # (P, A, num_bins)
    bin_width: float
    scene_hash: str = ""
    network_hash: str = ""
    overflow: int = 0           # paths dropped past the bin window while building; not saved

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.bins = np.asarray(self.bins, dtype=float)
        if self.bins.shape[:2] != (len(self.positions), len(self.ap_ids)):
            raise DatabaseError("bins array shape inconsistent with grid and AP list")

    @property
    def num_bins(self) -> int:
        return self.bins.shape[2]

    def entry(self, point_index: int, ap_id: str) -> Mdp:
        a = self._ap_index(ap_id)
        return Mdp(bins=self.bins[point_index, a].copy(), bin_width=self.bin_width)

    def _ap_index(self, ap_id: str) -> int:
        try:
            return self.ap_ids.index(ap_id)
        except ValueError:
            raise DatabaseError(f"AP {ap_id!r} not in database") from None

    @cached_property
    def aligned_unit(self) -> np.ndarray:
        """Aligned+normalized profiles, shape (P, A, num_bins), computed on first use."""
        return _aligned_unit(self.bins)


def build_fingerprint_db(
    scene: Scene,
    aps,
    grid: np.ndarray,
    bin_width: float,
    num_bins: int,
    spacing: float,
    max_order: int = 2,
    carrier_freq: float = 2.4e9,
    scene_hash: str = "",
    network_hash: str = "",
) -> FingerprintDB:
    """Trace every (grid point, AP) pair and bin the result.

    aps is a list of (ap_id, Pose) pairs. Deterministic: same inputs, same
    database. Paths whose delay falls past the num_bins * bin_width window
    are dropped; the database's ``overflow`` counts them over the whole grid.
    The receiver entries of _CHUNK grid points are built in one batch
    (receiver_poses) before their pairs are traced, each through trace_paths
    and compute_mdp.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1, 3)
    if len(grid) == 0:
        raise ValueError("empty grid")
    ap_list = list(aps)
    if not ap_list:
        raise ValueError("no APs")
    bins = np.zeros((len(grid), len(ap_list), num_bins))
    overflow = 0
    for start in range(0, len(grid), _CHUNK):
        receivers = receiver_poses(scene, grid[start:start + _CHUNK], max_order)
        for pi, rx in enumerate(receivers, start):
            for ai, (ap_id, ap_pose) in enumerate(ap_list):
                paths = trace_paths(scene, ap_pose, rx, max_order=max_order, carrier_freq=carrier_freq)
                mdp = compute_mdp(paths, bin_width, num_bins)
                bins[pi, ai] = mdp.bins
                overflow += mdp.overflow
    return FingerprintDB(
        positions=grid,
        spacing=spacing,
        ap_ids=[a for a, _ in ap_list],
        bins=bins,
        bin_width=bin_width,
        scene_hash=scene_hash,
        network_hash=network_hash,
        overflow=overflow,
    )


def localize(measured, db: FingerprintDB) -> tuple:
    """Grid point minimizing the summed per-AP profile distance, plus the score.

    Ties resolve to the lowest grid index. Every measured AP must exist in
    the database with matching bin parameters.
    """
    if not measured:
        raise DatabaseError("no measured fingerprints")
    columns = [db._ap_index(ap_id) for ap_id in sorted(measured)]
    for ap_id, mdp in sorted(measured.items()):
        if mdp.num_bins != db.num_bins or abs(mdp.bin_width - db.bin_width) > 1e-18:
            raise DatabaseError(f"bin parameters of AP {ap_id!r} do not match database")
    query = _aligned_unit(np.stack([mdp.bins for _, mdp in sorted(measured.items())]))
    # every AP in database order, as each step measures them, needs no copy of the table
    table = db.aligned_unit if columns == list(range(len(db.ap_ids))) else db.aligned_unit[:, columns, :]
    diff = table - query                                                      # (P, A', num_bins)
    scores = np.sqrt(np.mean(np.square(diff, out=diff), axis=-1)).sum(axis=-1)
    best = int(np.argmin(scores))
    return db.positions[best].copy(), float(scores[best])


def add_fingerprint_noise(mdp: Mdp, snr_db: float, rng: np.random.Generator) -> Mdp:
    """Per-bin Gaussian perturbation of the occupied bins at a given SNR.

    Models post-detection power-estimation error: the set of occupied delay
    bins is assumed correctly detected, and each occupied bin's power picks
    up zero-mean Gaussian noise with variance (mean squared occupied power) /
    SNR, clipped at zero. Empty bins stay empty so the first-nonzero delay
    alignment remains meaningful.
    """
    occupied = mdp.bins > 0.0
    if not np.any(occupied):
        return Mdp(bins=mdp.bins.copy(), bin_width=mdp.bin_width, overflow=mdp.overflow)
    sigma = np.sqrt(np.mean(mdp.bins[occupied] ** 2) / 10.0 ** (snr_db / 10.0))
    noisy = mdp.bins.copy()
    noisy[occupied] = np.clip(noisy[occupied] + rng.normal(0.0, sigma, int(occupied.sum())), 0.0, None)
    return Mdp(bins=noisy, bin_width=mdp.bin_width, overflow=mdp.overflow)


def save_db(db: FingerprintDB, path) -> Path:
    """Write the database file (see module docstring for the layout); refuses non-finite bins."""
    path = Path(path)
    _finite(db, f"{path}: not written")
    header = {
        "version": _VERSION,
        "scene_hash": db.scene_hash,
        "network_hash": db.network_hash,
        "spacing_m": db.spacing,
        "bin_width_s": db.bin_width,
        "num_bins": int(db.num_bins),
        "ap_ids": list(db.ap_ids),
        "n_points": int(len(db.positions)),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(np.ascontiguousarray(db.positions, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(db.bins, dtype="<f8").tobytes())
    return path


def load_db(path) -> FingerprintDB:
    """Read a database file written by save_db; refuses a corrupt file and non-finite bins."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise DatabaseError(f"{path}: not a fingerprint database")
    off = len(_MAGIC)
    if len(raw) < off + 4:
        raise DatabaseError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    try:
        header = json.loads(raw[off : off + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DatabaseError(f"{path}: corrupt header") from exc
    off += hlen
    if not isinstance(header, dict):
        raise DatabaseError(f"{path}: corrupt header: not a JSON object")
    if header.get("version") != _VERSION:
        raise DatabaseError(f"{path}: unsupported version {header.get('version')}")
    bad = _bad_field(header, _DB_HEADER)
    if bad is not None:
        raise DatabaseError(f"{path}: corrupt header: {bad[0]} {bad[1]}{bad[2]}")
    n_points, num_bins, ap_ids = header["n_points"], header["num_bins"], header["ap_ids"]
    spacing, bin_width = header["spacing_m"], header["bin_width_s"]
    scene_hash, network_hash = header["scene_hash"], header["network_hash"]
    for key, ok, rule in (("n_points", n_points >= 0, ">= 0"), ("num_bins", num_bins >= 0, ">= 0"),
                          ("spacing_m", spacing > 0, "> 0"), ("bin_width_s", bin_width > 0, "> 0")):
        if not ok:
            raise DatabaseError(f"{path}: corrupt header: has {header[key]!r} at .{key}, which must be {rule}")
    expected = off + 8 * n_points * (3 + len(ap_ids) * num_bins)
    if len(raw) != expected:
        raise DatabaseError(
            f"{path}: {len(raw)} bytes, but its header describes {expected} "
            "(truncated or corrupt file)"
        )
    positions = np.frombuffer(raw, dtype="<f8", count=n_points * 3, offset=off).reshape(n_points, 3)
    off += n_points * 3 * 8
    bins = np.frombuffer(raw, dtype="<f8", count=n_points * len(ap_ids) * num_bins, offset=off)
    bins = bins.reshape(n_points, len(ap_ids), num_bins)
    return _finite(FingerprintDB(positions=positions.copy(), spacing=spacing, ap_ids=ap_ids, bins=bins.copy(),
                                 bin_width=bin_width, scene_hash=scene_hash, network_hash=network_hash),
                   f"{path}: not loaded")


def _finite(db: FingerprintDB, refusal: str) -> FingerprintDB:
    """db, refused with a DatabaseError naming the first grid point and AP whose bins are not finite."""
    finite = np.isfinite(db.bins).all(axis=-1)
    if not finite.all():
        point, ap = np.argwhere(~finite)[0]
        raise DatabaseError(f"{refusal}: the bins of grid point {tuple(db.positions[point].tolist())} "
                            f"from AP {db.ap_ids[ap]!r} are not finite")
    return db

"""Fingerprint localization from multipath delay profiles (MDPs).

Offline, every floor-grid point gets one delay-power profile per access
point, binned from a PathSet's power and delay columns with one bincount, so
building it evaluates no path phase; online, measured profiles are matched
by a delay-aligned, power-normalized RMS distance summed over APs:
circular-shift each profile so its first nonzero bin is bin 0
(kills the unknown absolute sync offset), scale it to unit total power, and
take the RMS bin difference. The database is aligned once over its last
axis and cached; a query row is sliced from its first nonzero bin. Every grid
point and AP scores at once, over the occupied window only: the first W bins,
W the smallest multiple of 8 covering every nonzero aligned bin of the table
and the query (all bins when that is not fewer, or past 128). numpy sums a
row of at most 128 float64 values in 8 interleaved accumulators, to which the
exact zeros past W add nothing, so each score keeps the full-width sum's bits.

README.md ("Fingerprint database file") describes the database file and its
stamps; save_db writes it, load_db reads it, and _DB_HEADER is its header's schema.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .raytrace import PathSet, Pose, trace_paths
from .scene import _AT_LEAST_ONE, _POSITIVE, Rule, Scene, _conform

_MAGIC = b"ITFPDB01"
_VERSION = 2
# the header's schema, in the shapes of scene.read_document, which save_db and load_db both hold to:
# the values localize can use. build_fingerprint_db makes no database without a point, a bin or an AP
_DB_HEADER = {"version": int, "scene_hash": str, "network_hash": str, "spacing_m": _POSITIVE,
              "bin_width_s": _POSITIVE, "num_bins": _AT_LEAST_ONE, "ap_ids": Rule([str], bool, "a non-empty list"),
              "n_points": _AT_LEAST_ONE}


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
        if not (np.minimum.reduce(self.bins, axis=None, initial=0.0) >= 0.0
                and np.maximum.reduce(self.bins, axis=None, initial=0.0) < np.inf):   # NaN fails both
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
    top = bin_width * 2.0 ** 1023   # a delay past it would overflow delay / bin_width; it is past the window too
    delay = np.minimum(paths.delay, top) if len(paths.delay) and paths.delay[-1] > top else paths.delay
    idx = np.floor(delay / bin_width)
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
    def aligned_unit(self) -> tuple:
        """Aligned+normalized profiles, shape (P, A, num_bins), computed on first use, and the
        number of leading bins that hold every nonzero one of them."""
        table = _aligned_unit(self.bins)
        occupied = np.logical_or.reduce(table != 0.0, axis=(0, 1)).nonzero()[0]
        return table, int(occupied[-1]) + 1 if len(occupied) else 0


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
    Each grid point is one still Pose, traced from every AP through
    trace_paths and compute_mdp, so its APs share its receiver entry.
    """
    grid = np.asarray(grid, dtype=float).reshape(-1, 3)
    if len(grid) == 0:
        raise ValueError("empty grid")
    ap_list = list(aps)
    if not ap_list:
        raise ValueError("no APs")
    bins = np.zeros((len(grid), len(ap_list), num_bins))
    overflow = 0
    for pi, point in enumerate(grid):
        rx = Pose(point)
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
    the database with matching bin parameters. Only the first W bins are
    scored, W the smallest multiple of 8 covering every nonzero aligned bin
    (all bins past 128): numpy sums up to 128 float64 values in 8 accumulators,
    and the exact zeros past W leave each sum's bits as they are.
    """
    if not measured:
        raise DatabaseError("no measured fingerprints")
    aps = sorted(measured)
    columns = [db._ap_index(ap_id) for ap_id in aps]
    n = db.num_bins
    query = np.zeros((len(aps), n))
    width = 0
    for row, ap_id in zip(query, aps):
        mdp = measured[ap_id]
        if mdp.num_bins != n or abs(mdp.bin_width - db.bin_width) > 1e-18:
            raise DatabaseError(f"bin parameters of AP {ap_id!r} do not match database")
        occupied = mdp.bins.nonzero()[0]
        if len(occupied):   # shifted to bin 0 over its total; an all-zero row stays zero
            first = occupied[0]
            np.divide(mdp.bins[first:], np.add.reduce(mdp.bins), out=row[:n - first])
            width = max(width, occupied[-1] - first + 1)
    table, table_width = db.aligned_unit
    window = min(-(-max(width, table_width) // 8) * 8, n) if n <= 128 else n
    # every AP in database order, as each step measures them, needs no copy of the table
    table = table[:, :, :window] if columns == list(range(len(db.ap_ids))) else table[:, columns, :window]
    diff = table - query[:, :window]                                          # (P, A', window)
    scores = np.add.reduce(np.sqrt(np.add.reduce(np.square(diff, out=diff), axis=-1) / n), axis=-1)
    best = int(scores.argmin())
    return db.positions[best].copy(), float(scores[best])


def add_fingerprint_noise(mdp: Mdp, snr_db: float, rng: np.random.Generator) -> Mdp:
    """Per-bin Gaussian perturbation of the occupied bins at a given SNR.

    Models post-detection power-estimation error: the set of occupied delay
    bins is assumed correctly detected, and each occupied bin's power picks
    up zero-mean Gaussian noise with variance (mean squared occupied power) /
    SNR, clipped at zero. Empty bins stay empty so the first-nonzero delay
    alignment remains meaningful.
    """
    snr = snr_power(snr_db)
    noisy = mdp.bins.copy()
    occupied = (noisy > 0.0).nonzero()[0]
    k = len(occupied)
    if k:
        power = noisy.take(occupied)
        sigma = np.sqrt(np.add.reduce(power * power) / k / snr)
        power += rng.normal(0.0, sigma, k)
        noisy[occupied] = np.maximum(power, 0.0, out=power)
    return Mdp(bins=noisy, bin_width=mdp.bin_width, overflow=mdp.overflow)


def snr_power(snr_db: float) -> float:
    """10 ** (snr_db / 10), an SNR's linear power; ValueError unless it and its inverse are finite positive floats."""
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        power = np.inf
    if not (0.0 < power < np.inf and 1.0 / power < np.inf):   # NaN fails too
        raise ValueError(f"an SNR of {snr_db} dB gives a linear power 10 ** (x / 10) out of float range")
    return power


def save_db(db: FingerprintDB, path) -> Path:
    """Write the database file; refuses, writing nothing, a header load_db would refuse and non-finite bins."""
    path = Path(path)
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
    bad = _conform(header, _DB_HEADER)[1]
    if bad is not None:
        raise DatabaseError(f"{path}: not written: {bad[0]} {bad[1]}{bad[2]}")
    _finite(db, f"{path}: not written")
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
    """Read a database file written by save_db into read-only arrays; refuses a corrupt file and non-finite bins."""
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
    header, bad = _conform(header, _DB_HEADER)
    if bad is not None:
        raise DatabaseError(f"{path}: corrupt header: {bad[0]} {bad[1]}{bad[2]}")
    n_points, num_bins, ap_ids = header["n_points"], header["num_bins"], header["ap_ids"]
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
    return _finite(FingerprintDB(positions=positions, spacing=header["spacing_m"], ap_ids=ap_ids, bins=bins,
                                 bin_width=header["bin_width_s"], scene_hash=header["scene_hash"],
                                 network_hash=header["network_hash"]), f"{path}: not loaded")


def _finite(db: FingerprintDB, refusal: str) -> FingerprintDB:
    """db, refused with a DatabaseError naming the first grid point and AP whose bins are not finite."""
    finite = np.isfinite(db.bins).all(axis=-1)
    if not finite.all():
        point, ap = np.argwhere(~finite)[0]
        raise DatabaseError(f"{refusal}: the bins of grid point {tuple(db.positions[point].tolist())} "
                            f"from AP {db.ap_ids[ap]!r} are not finite")
    return db

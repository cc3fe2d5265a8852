import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.localization import (
    DatabaseError,
    FingerprintDB,
    Mdp,
    add_fingerprint_noise,
    build_fingerprint_db,
    compute_mdp,
    load_db,
    localize,
    save_db,
)
from isactwin.raytrace import PathSet, Pose, PropagationPath, trace_paths
from isactwin.scene import load_scene, floor_grid
from conftest import box_scene_doc, rewrite_db_header
from localization_oracle import (
    add_fingerprint_noise_masked,
    compute_mdp_per_path,
    localize_full_width,
    mdp_distance,
)


def pathset(entries, fc=2.4e9):
    paths = [
        PropagationPath(gain=g, delay=d, doppler=0.0, aoa=(0, 0), aod=(0, 0),
                        reflection_points=np.zeros((0, 3)), order=0)
        for g, d in entries
    ]
    return PathSet(paths=paths, tx_pose=Pose.at(0, 0, 0), rx_pose=Pose.at(1, 0, 0),
                   carrier_freq=fc)


def mdp_from(bins, bw=12.5e-9):
    return Mdp(bins=np.asarray(bins, float), bin_width=bw)


class TestComputeMdp:
    def test_empty_pathset_all_zero(self):
        mdp = compute_mdp(pathset([]), 12.5e-9, 64)
        assert np.all(mdp.bins == 0)
        assert mdp.overflow == 0

    def test_single_path_hand_binned(self):
        # |b| = 0.5 at 13 ns with 12.5 ns bins: floor(13/12.5) = 1, power 0.25
        mdp = compute_mdp(pathset([(0.5, 13e-9)]), 12.5e-9, 64)
        assert mdp.bins[1] == pytest.approx(0.25, rel=1e-15)
        assert np.sum(mdp.bins > 0) == 1

    def test_copath_powers_add(self):
        mdp = compute_mdp(pathset([(0.5, 13e-9), (0.3, 14e-9)]), 12.5e-9, 64)
        assert mdp.bins[1] == pytest.approx(0.25 + 0.09, rel=1e-15)

    def test_overflow_counted(self):
        mdp = compute_mdp(pathset([(0.5, 13e-9), (0.1, 900e-9)]), 12.5e-9, 64)
        assert mdp.overflow == 1
        assert mdp.bins.sum() == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_delay_past_the_float_range_of_the_quotient_is_overflow(self):
        # 900 ns / 5e-324 s overflows the float range: the path is past the window, with no warning;
        # 1e-321 s is 202 steps of 2 ** -1074 s, the smallest float
        mdp = compute_mdp(pathset([(0.5, 1e-321), (0.1, 900e-9)]), 5e-324, 1000)
        assert mdp.overflow == 1
        assert mdp.bins[202] == pytest.approx(0.25, rel=1e-15) and np.count_nonzero(mdp.bins) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            compute_mdp(pathset([]), 0.0, 64)
        with pytest.raises(ValueError):
            compute_mdp(pathset([]), 1e-9, 0)

    @pytest.mark.parametrize("bin_width,num_bins", [(5e-10, 64), (1e-9, 8), (2e-10, 3), (1e-8, 1)])
    def test_matches_per_path_oracle_on_traced_paths(self, bin_width, num_bins):
        scene = load_scene(box_scene_doc(2.0, 1.6, 1.2, coeff=0.8))
        rng = np.random.default_rng(17)
        overflowed = 0
        for _ in range(12):
            tx = Pose(position=rng.uniform([0.1, 0.1, 0.1], [1.9, 1.5, 1.1]))
            rx = Pose(position=rng.uniform([0.1, 0.1, 0.1], [1.9, 1.5, 1.1]))
            paths = trace_paths(scene, tx, rx, max_order=2, carrier_freq=2.4e9)
            got = compute_mdp(paths, bin_width, num_bins)
            want = compute_mdp_per_path(paths, bin_width, num_bins)
            # the same powers in the same accumulation order: equal bit for bit
            np.testing.assert_array_equal(got.bins, want.bins)
            assert got.overflow == want.overflow
            overflowed += got.overflow
        if num_bins * bin_width < 20e-9:       # shorter than most order-2 paths in this room
            assert overflowed > 0


class TestMdpBins:
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_bins_are_refused(self, bad):
        # NaN passes a bins < 0 check; localize then matched it to grid point 0 with score 0.5
        with pytest.raises(ValueError, match=f"^bins must be finite: bin 2 is {bad}$"):
            mdp_from([0.0, 1.0, bad, bad])

    def test_negative_bins_are_refused(self):
        with pytest.raises(ValueError, match="^bins must be nonnegative$"):
            mdp_from([0.0, -1.0])

    def test_all_zero_profile_is_accepted(self):
        assert mdp_from(np.zeros(4)).bins.tolist() == [0.0] * 4


def match(query, *stored, bw=12.5e-9):
    """localize's (grid index, score) for one profile against a one-AP database
    whose point i (at x = i) holds stored[i]."""
    db = FingerprintDB(positions=[[float(i), 0.0, 0.0] for i in range(len(stored))], spacing=1.0,
                       ap_ids=["ap"], bins=[[s] for s in stored], bin_width=bw)
    est, score = localize({"ap": mdp_from(query)}, db)
    return int(est[0]), score


class TestMdpDistance:
    """The profile distance, seen through localize's score on two-point databases."""

    DECOY = [0.25, 0.25, 0.25, 0.25]

    def test_identical_profiles_zero(self):
        assert match([0.0, 1.0, 0.5, 0.0], self.DECOY, [0.0, 1.0, 0.5, 0.0]) == (1, 0.0)

    def test_scale_invariance(self):
        idx, score = match([0.0, 10.0, 5.0, 0.0], self.DECOY, [0.0, 1.0, 0.5, 0.0])
        assert idx == 1
        assert score == pytest.approx(0.0, abs=1e-15)

    def test_alignment_removes_common_shift(self):
        idx, score = match([0.0, 0.0, 1.0, 0.5], self.DECOY, [1.0, 0.5, 0.0, 0.0])
        assert idx == 1
        assert score == pytest.approx(0.0, abs=1e-15)

    def test_hand_case_split_spike(self):
        # unit spike at bin 0 vs half/half at bins 0-1, 8 bins:
        # normalized diff = (0.5, -0.5, 0...), RMS = sqrt(0.5/8); the flat
        # quarter profile over bins 0-3 lies farther, at sqrt(0.75/8)
        idx, score = match([1.0] + [0.0] * 7, [0.25] * 4 + [0.0] * 4, [0.5, 0.5] + [0.0] * 6)
        assert idx == 1
        assert score == pytest.approx(math.sqrt(0.5 / 8), rel=1e-12)

    def test_all_zero_profiles_stay_zero(self):
        zero, spike = [0.0] * 8, [1.0] + [0.0] * 7
        assert match(zero, spike, zero) == (1, 0.0)
        idx, score = match(spike, zero, zero)
        assert idx == 0 and score > 0

    def test_bin_mismatch_rejected(self):
        db = FingerprintDB(positions=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], spacing=1.0, ap_ids=["ap"],
                           bins=[[[1.0, 0.0]], [[0.0, 1.0]]], bin_width=1e-9)
        with pytest.raises(DatabaseError, match="bin parameters"):
            localize({"ap": mdp_from([1.0, 0.0, 0.0], bw=1e-9)}, db)
        with pytest.raises(DatabaseError, match="bin parameters"):
            localize({"ap": mdp_from([1.0, 0.0], bw=2e-9)}, db)

    @given(st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4),
           st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_nonnegative(self, xs, ys):
        # both points hold the other profile, so the score is the distance itself
        _, d_ab = match(xs, ys, ys)
        _, d_ba = match(ys, xs, xs)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(d_ba, abs=1e-15)


@pytest.fixture(scope="module")
def small_db():
    scene = load_scene(box_scene_doc(2.0, 1.6, 1.2, coeff=0.8))
    grid = floor_grid(scene, 0.2, 0.2)
    aps = [("ap1", Pose.at(0.1, 0.1, 1.0)), ("ap2", Pose.at(1.9, 1.5, 0.9))]
    return build_fingerprint_db(scene, aps, grid, bin_width=5e-10, num_bins=64,
                                spacing=0.2, max_order=2, carrier_freq=2.4e9,
                                scene_hash="s", network_hash="n"), scene, aps


class TestFingerprintDB:
    def test_completeness(self, small_db):
        db, _, _ = small_db
        assert db.bins.shape == (len(db.positions), 2, 64)
        assert db.ap_ids == ["ap1", "ap2"]

    def test_counting_example(self):
        scene = load_scene(box_scene_doc(2.0, 1.6, 1.2, coeff=0.8))
        grid = floor_grid(scene, 0.8, 0.2)  # 3 x 3
        aps = [("a", Pose.at(0.1, 0.1, 1.0)), ("b", Pose.at(1.9, 1.5, 0.9))]
        db = build_fingerprint_db(scene, aps, grid, bin_width=1e-9, num_bins=32, spacing=0.8)
        assert len(grid) == 9
        assert db.bins.shape == (9, 2, 32)  # 18 profiles

    def test_deterministic_rebuild_byte_identical(self, small_db, tmp_path):
        db, scene, aps = small_db
        grid = db.positions
        db2 = build_fingerprint_db(scene, aps, grid, bin_width=5e-10, num_bins=64,
                                   spacing=0.2, max_order=2, carrier_freq=2.4e9,
                                   scene_hash="s", network_hash="n")
        p1, p2 = tmp_path / "a.fpdb", tmp_path / "b.fpdb"
        save_db(db, p1)
        save_db(db2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_round_trip(self, small_db, tmp_path):
        db, _, _ = small_db
        p = save_db(db, tmp_path / "db.fpdb")
        back = load_db(p)
        assert np.array_equal(back.positions, db.positions)
        assert np.array_equal(back.bins, db.bins)
        assert back.ap_ids == db.ap_ids
        assert back.bin_width == db.bin_width
        assert back.scene_hash == "s" and back.network_hash == "n"

    def test_loaded_arrays_are_read_only(self, small_db, tmp_path):
        # the views of the bytes read: no write can leave the cached aligned_unit stale
        back = load_db(save_db(small_db[0], tmp_path / "db.fpdb"))
        assert not back.bins.flags.writeable and not back.positions.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.bins[0, 0, 0] = 1.0

    def test_corrupt_file_rejected(self, tmp_path):
        p = tmp_path / "bogus.fpdb"
        p.write_bytes(b"NOTADB00" + b"\x00" * 64)
        with pytest.raises(DatabaseError, match="not a fingerprint database"):
            load_db(p)

    @pytest.mark.parametrize("cut", [10, 200, -8])
    def test_truncated_file_rejected(self, small_db, tmp_path, cut):
        db, _, _ = small_db
        p = save_db(db, tmp_path / "db.fpdb")
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(DatabaseError) as err:
            load_db(p)
        assert str(err.value).startswith(f"{p}: ")
        assert "truncated" in str(err.value) or "corrupt header" in str(err.value)

    @pytest.mark.parametrize("edit", [
        lambda header: {"version": header["version"]},
        lambda header: [1],
        lambda header: {**header, "n_points": str(header["n_points"])},
    ], ids=["version-only", "not-an-object", "count-as-string"])
    def test_malformed_header_rejected(self, small_db, tmp_path, edit):
        db, _, _ = small_db
        p = save_db(db, tmp_path / "db.fpdb")
        rewrite_db_header(p, edit)
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(p))}: corrupt header"):
            load_db(p)

    @pytest.mark.parametrize("field,value", [
        ("bin_width_s", "0.8ns"), ("bin_width_s", 0.0), ("bin_width_s", float("nan")),
        ("spacing_m", -0.2), ("spacing_m", float("inf")), ("spacing_m", True),
        ("scene_hash", None), ("network_hash", 5), ("ap_ids", "ab"), ("ap_ids", ["ap1", 2]),
    ])
    def test_mistyped_header_field_rejected(self, small_db, tmp_path, field, value):
        db, _, _ = small_db
        p = save_db(db, tmp_path / "db.fpdb")
        rewrite_db_header(p, lambda header: {**header, field: value})
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(p))}: corrupt header: .* at \\.{field}\\b"):
            load_db(p)

    @pytest.mark.parametrize("field,edit,value", [
        ("n_points", lambda db: dict(positions=db.positions[:0], bins=db.bins[:0]), 0),
        ("num_bins", lambda db: dict(bins=db.bins[..., :0]), 0),
        ("ap_ids", lambda db: dict(ap_ids=[], bins=db.bins[:, :0]), []),
        ("spacing_m", lambda db: dict(spacing=0.0), 0.0),
        ("bin_width_s", lambda db: dict(bin_width=-5e-10), -5e-10),
    ], ids=["no-point", "no-bin", "no-ap", "zero-spacing", "negative-bin-width"])
    def test_database_that_cannot_localize_is_refused(self, small_db, tmp_path, field, edit, value):
        # localize could not use such a database: save_db writes no file of it, and load_db refuses
        # the file written byte by byte in save_db's format, whose size matches its header
        db = dataclasses.replace(small_db[0], **edit(small_db[0]))
        p = tmp_path / "db.fpdb"
        rule = f"has {re.escape(repr(value))} at \\.{field}, which must be "
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(p))}: not written: {rule}"):
            save_db(db, p)
        assert not p.exists()
        header = json.dumps({"version": 2, "scene_hash": "s", "network_hash": "n", "spacing_m": db.spacing,
                             "bin_width_s": db.bin_width, "num_bins": db.num_bins, "ap_ids": db.ap_ids,
                             "n_points": len(db.positions)}).encode()
        p.write_bytes(b"ITFPDB01" + struct.pack("<I", len(header)) + header
                      + db.positions.astype("<f8").tobytes() + db.bins.astype("<f8").tobytes())
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(p))}: corrupt header: {rule}"):
            load_db(p)

    def test_trailing_bytes_rejected(self, small_db, tmp_path):
        db, _, _ = small_db
        p = save_db(db, tmp_path / "db.fpdb")
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(DatabaseError, match="header describes"):
            load_db(p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bins_are_not_written(self, small_db, tmp_path, bad):
        db = dataclasses.replace(small_db[0], bins=small_db[0].bins.copy())
        db.bins[3, 1, 5] = bad
        db.bins[4, 0, 0] = bad    # a later pair: the first one is named
        p = tmp_path / "db.fpdb"
        where = re.escape(str(tuple(db.positions[3].tolist())))
        with pytest.raises(DatabaseError, match=f"^{re.escape(str(p))}: not written: the bins of grid point "
                                                f"{where} from AP 'ap2' are not finite$"):
            save_db(db, p)
        assert not p.exists()

    def test_empty_grid_rejected(self, small_db):
        _, scene, aps = small_db
        with pytest.raises(ValueError, match="empty grid"):
            build_fingerprint_db(scene, aps, np.zeros((0, 3)), bin_width=1e-9,
                                 num_bins=8, spacing=0.1)


class TestLocalize:
    def test_self_query_every_point(self, small_db):
        db, _, _ = small_db
        for i in range(len(db.positions)):
            measured = {ap: db.entry(i, ap) for ap in db.ap_ids}
            est, score = localize(measured, db)
            assert np.array_equal(est, db.positions[i])
            assert score == 0.0

    def test_separable_two_point_db(self):
        bins = np.zeros((2, 1, 8))
        bins[0, 0, 0] = 1.0
        bins[1, 0, 4] = 1.0
        db = FingerprintDB(positions=np.array([[0, 0, 0], [1, 0, 0]], float), spacing=1.0,
                           ap_ids=["a"], bins=bins, bin_width=1e-9)
        q = Mdp(bins=bins[0, 0] * 7.0, bin_width=1e-9)
        est, score = localize({"a": q}, db)
        assert np.array_equal(est, [0, 0, 0])

    def test_unknown_ap_rejected(self, small_db):
        db, _, _ = small_db
        q = Mdp(bins=np.zeros(64), bin_width=5e-10)
        with pytest.raises(DatabaseError, match="nope"):
            localize({"nope": q}, db)

    def test_bin_mismatch_rejected(self, small_db):
        db, _, _ = small_db
        q = Mdp(bins=np.zeros(32), bin_width=5e-10)
        with pytest.raises(DatabaseError, match="bin"):
            localize({"ap1": q}, db)

    def test_estimate_is_grid_member(self, small_db):
        db, scene, aps = small_db
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = np.array([rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.3), 0.2])
            measured = {}
            for ap_id, pose in aps:
                ps = trace_paths(scene, pose, Pose(position=p), 2, 2.4e9)
                measured[ap_id] = compute_mdp(ps, db.bin_width, db.num_bins)
            est, _ = localize(measured, db)
            assert any(np.array_equal(est, g) for g in db.positions)

    def test_matches_pairwise_mdp_distance_argmin(self, small_db):
        db, scene, aps = small_db
        rng = np.random.default_rng(4)
        p = np.array([rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.3), 0.2])
        measured = {}
        for ap_id, pose in aps:
            ps = trace_paths(scene, pose, Pose(position=p), 2, 2.4e9)
            measured[ap_id] = compute_mdp(ps, db.bin_width, db.num_bins)
        est, score = localize(measured, db)
        sums = np.array([
            sum(mdp_distance(measured[ap], db.entry(i, ap)) for ap in db.ap_ids)
            for i in range(len(db.positions))
        ])
        assert score == pytest.approx(sums.min(), rel=1e-12)
        assert np.array_equal(est, db.positions[int(np.argmin(sums))])

    def test_ties_resolve_to_lowest_index(self):
        profile, other = [0.0, 1.0, 0.5, 0.0], [1.0, 0.0, 0.0, 1.0]
        assert match(profile, other, profile, profile, other) == (1, 0.0)

    @pytest.mark.parametrize("ap_ids", [["ap2"], ["ap1"], ["ap2", "ap1"]])
    def test_scores_only_the_measured_aps(self, small_db, ap_ids):
        db, scene, aps = small_db
        p = Pose.at(1.13, 0.71, 0.2)
        measured = {
            ap_id: compute_mdp(trace_paths(scene, pose, p, 2, 2.4e9), db.bin_width, db.num_bins)
            for ap_id, pose in aps if ap_id in ap_ids
        }
        est, score = localize(measured, db)
        sums = np.array([
            sum(mdp_distance(measured[ap], db.entry(i, ap)) for ap in sorted(ap_ids))
            for i in range(len(db.positions))
        ])
        assert score == pytest.approx(sums.min(), rel=1e-12)
        assert np.array_equal(est, db.positions[int(np.argmin(sums))])

    def test_unknown_ap_among_known_rejected(self, small_db):
        db, _, _ = small_db
        known = db.entry(0, "ap1")
        with pytest.raises(DatabaseError, match="zzz"):
            localize({"ap1": known, "zzz": known}, db)


class TestFingerprintNoise:
    def test_empty_profile_unchanged(self):
        m = mdp_from([0.0] * 8)
        out = add_fingerprint_noise(m, 20.0, np.random.default_rng(0))
        assert np.array_equal(out.bins, m.bins)

    def test_empty_bins_stay_empty(self):
        m = mdp_from([0.0, 4.0, 0.0, 1.0])
        out = add_fingerprint_noise(m, 20.0, np.random.default_rng(1))
        assert out.bins[0] == 0.0 and out.bins[2] == 0.0
        assert np.all(out.bins >= 0)

    @pytest.mark.parametrize("snr_db", [3090.0, -4000.0, -3200.0, float("nan")])
    def test_snr_out_of_float_range_rejected(self, snr_db):
        # 10 ** 309 overflows a float and 10 ** -400 is 0. 10 ** -320 is a positive float, but its
        # reciprocal overflows, and the noise's deviation with it; the profile is refused before it is read
        for m in (mdp_from([0.0, 4.0, 0.0, 1.0]), mdp_from([0.0] * 4)):
            with pytest.raises(ValueError, match="out of float range"):
                add_fingerprint_noise(m, snr_db, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        m = mdp_from([0.0, 4.0, 0.0, 1.0])
        a = add_fingerprint_noise(m, 20.0, np.random.default_rng(5))
        b = add_fingerprint_noise(m, 20.0, np.random.default_rng(5))
        assert np.array_equal(a.bins, b.bins)

    def test_monotone_degradation_with_noise(self, small_db):
        # expected localization error never decreases as fingerprint SNR drops
        db, scene, aps = small_db
        rng = np.random.default_rng(11)
        queries = []
        for _ in range(25):
            p = np.array([rng.uniform(0.4, 1.6), rng.uniform(0.4, 1.2), 0.2])
            measured = {}
            for ap_id, pose in aps:
                ps = trace_paths(scene, pose, Pose(position=p), 2, 2.4e9)
                measured[ap_id] = compute_mdp(ps, db.bin_width, db.num_bins)
            queries.append((p, measured))

        def mean_error(snr_db, trials):
            noise_rng = np.random.default_rng(77)
            errs = []
            for _ in range(trials):
                for p, measured in queries:
                    noisy = {
                        ap: (add_fingerprint_noise(m, snr_db, noise_rng) if snr_db is not None else m)
                        for ap, m in measured.items()
                    }
                    est, _ = localize(noisy, db)
                    errs.append(np.hypot(est[0] - p[0], est[1] - p[1]))
            return np.mean(errs), np.std(errs) / math.sqrt(len(errs))

        m_clean, s_clean = mean_error(None, 4)
        m_mid, s_mid = mean_error(15.0, 4)
        m_low, s_low = mean_error(3.0, 4)
        assert m_mid >= m_clean - (s_clean + s_mid)
        assert m_low >= m_mid - (s_mid + s_low)


def _profiles(rng, rows, n, widest):
    """rows profiles of n bins, each occupying a run of at most widest bins at a random start, with
    zeros inside the run, magnitudes over 16 decades and, at width 0, all-zero rows."""
    bins = np.zeros((rows, n))
    for row in bins:
        width = int(rng.integers(0, widest + 1))
        start = int(rng.integers(0, n - width + 1))
        row[start:start + width] = 10.0 ** rng.uniform(-14.0, 2.0, width) * (rng.random(width) < 0.8)
    return bins


class TestOccupiedWindow:
    """localize scores only the occupied window of bins and add_fingerprint_noise gathers the occupied
    bins once; both must keep the bits of the full-width forms in localization_oracle."""

    @given(n=st.integers(1, 300), points=st.integers(1, 8), num_aps=st.integers(1, 3),
           widest=st.data(), subset=st.lists(st.booleans(), min_size=3, max_size=3),
           query_from=st.sampled_from(["table", "fresh", "zero"]), snr_db=st.none() | st.floats(0.0, 40.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_localize_keeps_the_full_width_bits(self, n, points, num_aps, widest, subset, query_from, snr_db,
                                                seed):
        rng = np.random.default_rng(seed)
        table_widest, query_widest = widest.draw(st.integers(0, n)), widest.draw(st.integers(0, n))
        ap_ids = ["c", "a", "b"][:num_aps]   # sorted order is not database order: the columns path
        db = FingerprintDB(positions=rng.uniform(0.0, 2.0, (points, 3)), spacing=0.1, ap_ids=ap_ids,
                           bins=_profiles(rng, points * num_aps, n, table_widest).reshape(points, num_aps, n),
                           bin_width=1e-9)
        measured_ids = [ap for ap, keep in zip(ap_ids, subset) if keep] or ap_ids[-1:]
        if query_from == "table":   # a stored point's profiles, scaled
            point = int(rng.integers(points))
            query = {ap: db.bins[point, ap_ids.index(ap)] * rng.uniform(0.5, 2.0) for ap in measured_ids}
        else:
            widths = query_widest if query_from == "fresh" else 0
            query = dict(zip(measured_ids, _profiles(rng, len(measured_ids), n, widths)))
        measured = {ap: Mdp(bins=bins, bin_width=1e-9) for ap, bins in query.items()}
        if snr_db is not None:
            measured = {ap: add_fingerprint_noise(mdp, snr_db, rng) for ap, mdp in measured.items()}
        est, score = localize(measured, db)
        ref_est, ref_score = localize_full_width(measured, db)
        assert est.tobytes() == ref_est.tobytes() and score.hex() == ref_score.hex()

    def test_traced_queries_keep_the_full_width_bits(self, small_db):
        db, scene, aps = small_db
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = Pose.at(rng.uniform(0.3, 1.7), rng.uniform(0.3, 1.3), 0.2)
            measured = {ap_id: compute_mdp(trace_paths(scene, pose, p, 2, 2.4e9), db.bin_width, db.num_bins)
                        for ap_id, pose in aps}
            for query in (measured, {ap: add_fingerprint_noise(m, 20.0, rng) for ap, m in measured.items()}):
                est, score = localize(query, db)
                ref_est, ref_score = localize_full_width(query, db)
                assert est.tobytes() == ref_est.tobytes() and score.hex() == ref_score.hex()

    @given(n=st.integers(1, 300), widest=st.data(), snr_db=st.floats(-30.0, 60.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_noise_keeps_the_masked_formulas_bits_and_draws(self, n, widest, snr_db, seed):
        bins = _profiles(np.random.default_rng(seed), 1, n, widest.draw(st.integers(0, n)))[0]
        mdp = Mdp(bins=bins, bin_width=1e-9, overflow=3)
        rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        noisy, ref = add_fingerprint_noise(mdp, snr_db, rng), add_fingerprint_noise_masked(mdp, snr_db, ref_rng)
        assert noisy.bins.tobytes() == ref.bins.tobytes() and noisy.overflow == ref.overflow == 3
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert bins.tobytes() == mdp.bins.tobytes()   # the input is left as it was

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isactwin.channel import (
    OfdmParams,
    _cis,
    _grid_layout,
    _path_responses,
    _powers,
    _steering,
    beamformed_gains,
    build_tx_signal,
    carrier_wavelength,
    mrt_beamformer,
    phase_shift,
    synthesize_channel,
)
from isactwin.network import ArrayConfig
from isactwin.raytrace import GAIN_PRUNE_THRESHOLD, SPEED_OF_LIGHT as C, PathSet, Pose, PropagationPath
from isactwin import simcore
from isactwin.simcore import _SINGLE_ANTENNA_MRT, ScenarioConfig
import channel_oracle


FC = 2.4e9
LAM = C / FC


def params(n=1024, k=14, df=78125.0):
    return OfdmParams(n_subcarriers=n, n_symbols=k, delta_f=df, carrier_freq=FC)


def broadside_sines(array, directions):
    """sin(az - b) cos(el) of local unit directions (L, 3) for an array at boresight b, as the
    channel forms it."""
    return directions @ (-math.sin(array.boresight), math.cos(array.boresight), 0.0)


def make_pathset(entries):
    """entries: list of (gain, delay, doppler, aoa, aod)."""
    paths = [
        PropagationPath(gain=g, delay=d, doppler=nu, aoa=aoa, aod=aod,
                        reflection_points=np.zeros((0, 3)), order=0)
        for g, d, nu, aoa, aod in entries
    ]
    return PathSet(paths=paths, tx_pose=Pose.at(0, 0, 0), rx_pose=Pose.at(1, 0, 0),
                   carrier_freq=FC)


class TestSteeringVector:
    """_steering of the sine off broadside psi = sin(az) cos(el) of a direction at (az, el)."""

    def test_broadside_all_ones(self):
        a = _steering(ArrayConfig(8, LAM / 2), 0.0, FC)
        assert np.allclose(a, np.ones(8))

    def test_half_wavelength_thirty_degrees(self):
        a = _steering(ArrayConfig(2, LAM / 2), math.sin(math.radians(30)), FC)
        assert np.allclose(a, [1.0, 1j], atol=1e-12)

    @given(az=st.floats(-math.pi, math.pi), el=st.floats(-math.pi / 2, math.pi / 2),
           n=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus(self, az, el, n):
        a = _steering(ArrayConfig(n, LAM / 2), math.sin(az) * math.cos(el), FC)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)


# unit directions, drawn as non-zero vectors and normalized in the test
_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3)


class TestPhaseTablesAgainstOracle:
    """The tables built by doubling powers (_powers) against one complex exponential per entry."""

    @given(n=st.integers(1, 64), spacing=st.floats(0.1, 1.0), boresight=st.floats(-math.pi, math.pi),
           directions=st.lists(_DIRECTION, max_size=24))
    @example(n=64, spacing=1.0, boresight=0.0, directions=[(0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)])
    @example(n=2, spacing=1.0, boresight=0.0, directions=[(0.0, 1.25e-08, 1.0)])
    @settings(max_examples=100, deadline=None)
    def test_steering_from_path_directions_matches_the_angle_route(self, n, spacing, boresight, directions):
        # a path set's steering reads its local unit directions; the oracle builds one path at a
        # time from the (azimuth, elevation) of the same direction, off the array's boresight.
        # The elevation is atan2(z, hypot(x, y)): asin(z) of a near-vertical direction loses
        # cos(el) to about 1e-8, as (0, 1.25e-8, 1) showed
        array = ArrayConfig(n, spacing * LAM, boresight)
        u = np.array(directions).reshape(-1, 3)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        got = _steering(array, broadside_sines(array, u), FC)
        assert got.shape == (n, len(u))
        for column, (x, y, z) in zip(got.T, u.tolist()):
            want = channel_oracle.steering_vector(array, math.atan2(y, x) - boresight,
                                                  math.atan2(z, math.hypot(x, y)), FC)
            np.testing.assert_allclose(column, want, rtol=0.0, atol=1e-12)

    # a unit-modulus z has an angle in [-pi, pi], which keeps m angle, and the reference's
    # rounding of it, within 256 pi
    @given(angles=st.lists(st.floats(-math.pi, math.pi), max_size=24), n=st.integers(0, 256))
    @example(angles=[math.pi, -math.pi, 3.1, 0.0, 1e-300], n=256)
    @settings(max_examples=100, deadline=None)
    def test_powers_match_the_exponentials_of_multiples(self, angles, n):
        angle = np.array(angles, dtype=float)
        got = _powers(_cis(angle), n)
        assert got.shape == (n, len(angle))
        np.testing.assert_allclose(got, _cis(np.outer(np.arange(n), angle)), rtol=0.0, atol=1e-13)


class TestPhaseShift:
    def test_zero_for_static_zero_delay(self):
        p = params()
        for n in (0, 1, 7):
            for k in (0, 1, 13):
                assert phase_shift(n, k, 0.0, 0.0, p) == 0.0

    def test_doppler_term(self):
        # T_s = 1/78.125 kHz = 12.8 us; k=1, nu=100 Hz, n=0
        assert phase_shift(0, 1, 100.0, 0.0, params()) == pytest.approx(1.28e-3, rel=1e-12)

    def test_delay_term(self):
        # n=1, tau=12.5 ns, df=78.125 kHz, k=0
        assert phase_shift(1, 0, 0.0, 12.5e-9, params()) == pytest.approx(-9.765625e-4, rel=1e-12)


class TestSynthesizeChannel:
    def test_empty_pathset_gives_zero_matrix(self):
        ps = make_pathset([])
        h = synthesize_channel(ps, ArrayConfig(4, LAM / 2), ArrayConfig(2, LAM / 2), 1, 1, params())
        assert h.shape == (2, 4)
        assert np.all(h == 0)

    def test_scalar_collapse(self):
        b, tau, nu = 0.3 - 0.1j, 20e-9, 50.0
        ps = make_pathset([(b, tau, nu, (0.2, 0.0), (-0.4, 0.1))])
        p = params()
        h = synthesize_channel(ps, ArrayConfig(1, LAM / 2), ArrayConfig(1, LAM / 2), 3, 2, p)
        omega = 2 * nu * p.symbol_duration - 3 * tau * p.delta_f
        assert h[0, 0] == pytest.approx(b * cmath.exp(2j * math.pi * omega), rel=1e-12)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            nt, nr = rng.integers(1, 5), rng.integers(1, 5)
            L = rng.integers(1, 5)
            entries = []
            for _ in range(L):
                g = (rng.normal() + 1j * rng.normal()) * 0.1
                entries.append((g, rng.uniform(1e-9, 1e-7), rng.uniform(-500, 500),
                                (rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2)),
                                (rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2))))
            ps = make_pathset(entries)
            p = params(n=16, k=4, df=rng.uniform(2e4, 3e5))
            tx = ArrayConfig(int(nt), LAM * rng.uniform(0.3, 0.7))
            rx = ArrayConfig(int(nr), LAM * rng.uniform(0.3, 0.7))
            n, k = int(rng.integers(1, 17)), int(rng.integers(1, 5))
            h = synthesize_channel(ps, tx, rx, n, k, p)
            oracle = eq3_oracle(ps, tx, rx, n, k, p)
            assert np.max(np.abs(h - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))

    def test_linear_in_gains(self):
        entries = [(0.1 + 0.2j, 10e-9, 30.0, (0.5, 0.1), (-0.2, 0.0)),
                   (0.05 - 0.1j, 25e-9, -40.0, (1.0, -0.2), (0.7, 0.3))]
        ps = make_pathset(entries)
        scaled = make_pathset([(3 * g, d, nu, aoa, aod) for g, d, nu, aoa, aod in entries])
        tx, rx = ArrayConfig(3, LAM / 2), ArrayConfig(2, LAM / 2)
        h1 = synthesize_channel(ps, tx, rx, 5, 2, params())
        h3 = synthesize_channel(scaled, tx, rx, 5, 2, params())
        assert np.allclose(h3, 3 * h1, rtol=1e-12)

    def test_zero_doppler_symbol_invariant(self):
        ps = make_pathset([(0.2, 15e-9, 0.0, (0.3, 0.0), (0.1, 0.0))])
        tx, rx = ArrayConfig(2, LAM / 2), ArrayConfig(2, LAM / 2)
        h1 = synthesize_channel(ps, tx, rx, 5, 1, params())
        h2 = synthesize_channel(ps, tx, rx, 5, 9, params())
        assert np.allclose(h1, h2, rtol=1e-12)

    def test_zero_delay_subcarrier_invariant(self):
        ps = make_pathset([(0.2, 1e-300, 77.0, (0.3, 0.0), (0.1, 0.0))])
        tx, rx = ArrayConfig(2, LAM / 2), ArrayConfig(2, LAM / 2)
        h1 = synthesize_channel(ps, tx, rx, 1, 3, params())
        h2 = synthesize_channel(ps, tx, rx, 700, 3, params())
        assert np.allclose(h1, h2, rtol=1e-10)

    @pytest.mark.parametrize("carrier", [0, 0.0, -1.0, 1e-300, 5e-309, float("inf"), float("nan")])
    def test_carrier_without_a_finite_wavelength_rejected(self, carrier):
        # the scenario schema's carrier rule is carrier_wavelength, and its walker catches only ValueError
        with pytest.raises(ValueError, match="carrier_freq"):
            carrier_wavelength(carrier)
        with pytest.raises(ValueError, match="carrier_freq"):
            OfdmParams(n_subcarriers=8, n_symbols=2, delta_f=1e5, carrier_freq=carrier)

    def test_carrier_mismatch_rejected(self):
        ps = make_pathset([(0.1, 1e-9, 0.0, (0, 0), (0, 0))])
        bad = OfdmParams(n_subcarriers=8, n_symbols=2, delta_f=1e5, carrier_freq=5.8e9)
        with pytest.raises(ValueError, match="Hz"):
            synthesize_channel(ps, ArrayConfig(1, LAM / 2), ArrayConfig(1, LAM / 2), 1, 1, bad)


class TestBeamformedGains:
    def test_matches_per_element_synthesis(self):
        rng = np.random.default_rng(11)
        entries = [((rng.normal() + 1j * rng.normal()) * 0.05, rng.uniform(1e-9, 8e-8),
                    rng.uniform(-300, 300),
                    (rng.uniform(-3, 3), rng.uniform(-1, 1)),
                    (rng.uniform(-3, 3), rng.uniform(-1, 1))) for _ in range(6)]
        ps = make_pathset(entries)
        tx, rx = ArrayConfig(8, LAM / 2), ArrayConfig(2, LAM / 2)
        p = params(n=32, k=4)
        w = mrt_beamformer(synthesize_channel(ps, tx, rx, 1, 1, p))
        subs = np.arange(1, 33)
        syms = np.arange(1, 5)
        gains = beamformed_gains(ps, tx, rx, w, p, _grid_layout(subs), syms)
        for i, n in enumerate([1, 7, 32]):
            for k in [1, 4]:
                h = synthesize_channel(ps, tx, rx, n, k, p)
                direct = np.linalg.norm(h @ w) ** 2
                assert gains[n - 1, k - 1] == pytest.approx(direct, rel=1e-10)


_ANGLES = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi / 2, math.pi / 2))
# gains of modulus 0 or within a trace's range: no trace emits a path weaker than the prune
# threshold, and a subnormal power would meet an atol that underflows to 0
_GAIN = st.just(0j) | st.complex_numbers(min_magnitude=GAIN_PRUNE_THRESHOLD, max_magnitude=0.1,
                                         allow_nan=False, allow_infinity=False)
_PATH = st.tuples(_GAIN, st.floats(1e-9, 1e-7), st.floats(-500.0, 500.0), _ANGLES, _ANGLES)
_ARRAY = st.builds(ArrayConfig, st.integers(1, 32), st.floats(0.3, 0.7).map(lambda f: f * LAM),
                   st.floats(0.05, math.pi) | st.floats(-math.pi, -0.05))
# gapped sorted index sets that always hold 0 and one index >= 2048, so the
# sub-carriers span many 32-wide phase blocks; or a single index; or any
# ascending, distinct indices, the one grid format beamformed_gains takes
_SUBCARRIERS = (
    st.integers(0, 4200).map(lambda n: [n])
    | st.tuples(st.integers(2048, 4200), st.sets(st.integers(0, 4200), max_size=60))
    .map(lambda t: sorted({0, t[0]} | t[1]))
    | st.sets(st.integers(0, 4200), min_size=2, max_size=80).map(sorted)
)
_SYMBOLS = st.sets(st.integers(0, 14), min_size=1, max_size=14).map(sorted)


# two paths whose delays turn the sub-carrier phase by a different, non-trivial
# amount per block, so a row placed in the wrong block cannot match
_EDGE_PATHS = [(0.05 - 0.02j, 3.1e-8, 120.0, (0.4, 0.1), (-1.1, 0.2)),
               (0.01 + 0.03j, 7.3e-8, -80.0, (2.5, -0.3), (0.6, 0.0))]


class TestRateKernelsAgainstOracle:
    """The array rate kernels against the per-path and einsum forms in channel_oracle."""

    @given(entries=st.lists(_PATH, max_size=40), tx=_ARRAY, rx=_ARRAY, subs=_SUBCARRIERS,
           syms=_SYMBOLS, df=st.floats(1.5e4, 3e5), w_seed=st.integers(0, 2**32 - 1))
    @example(entries=[], tx=ArrayConfig(4, LAM / 2, 0.3), rx=ArrayConfig(2, LAM / 2, -0.7),
             subs=[0, 2048], syms=[1, 2], df=78125.0, w_seed=0)
    @example(entries=[(0.05 - 0.02j, 3e-8, 120.0, (0.4, 0.1), (-1.1, 0.2)),
                      (0.01 + 0.03j, 7e-8, -80.0, (2.5, -0.3), (0.6, 0.0))],
             tx=ArrayConfig(8, LAM / 2, 0.25), rx=ArrayConfig(3, 0.6 * LAM, -1.0),
             subs=[2049], syms=[7], df=78125.0, w_seed=1)
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(8, LAM / 2, 0.25), rx=ArrayConfig(2, LAM / 2),
             subs=[31, 32, 63, 64], syms=[1, 14], df=78125.0, w_seed=2)       # block edges
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=[0, 167, 288, 4100], syms=[1, 2, 3], df=78125.0, w_seed=5)  # one index per block
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(32, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=list(range(513, 1025)), syms=[1, 14], df=78125.0, w_seed=7)  # shipped ap2 grid
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=list(range(200)), syms=[2, 9], df=78125.0, w_seed=8)        # partial last chunk
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(3, LAM / 2),
             subs=list(range(224)), syms=[4], df=78125.0, w_seed=9)           # 3 whole blocks last
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=list(range(45, 345)), syms=[1, 2], df=78125.0, w_seed=10)   # starts mid-block
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(32, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=list(range(1, 513)), syms=[1, 14], df=78125.0, w_seed=11)   # shipped ap1 grid
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(3, LAM / 2),
             subs=list(range(45, 45 + 32 * 5 + 1)), syms=[2, 3], df=78125.0, w_seed=12)  # 32k + 1
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=list(range(0, 16384, 32)), syms=[1, 5], df=15000.0, w_seed=13)  # one per block
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=[], syms=[1, 2, 3], df=78125.0, w_seed=14)                  # no sub-carriers
    @example(entries=[(0j, 5.960464477539063e-08, 0.0, (0.0, 0.0), (0.0, 0.0)),
                      (1e-9 + 0j, 1e-09, 0.0, (0.0, 0.0), (0.0, 0.0))],
             tx=ArrayConfig(1, 0.5 * LAM, 1.0), rx=ArrayConfig(5, 0.5 * LAM, 1.0),
             subs=[0], syms=[0], df=15000.0, w_seed=0)                       # weakest traced gain
    @example(entries=[(-0.03125 + 0j, 1e-8, 0.0, (0.0, 0.0), (0.0, 0.0)),
                      (0.03125 - 6e-8j, 1e-8, 0.0, (0.0, 0.0), (0.0, 0.0))],
             tx=ArrayConfig(3, LAM / 2, 1.0), rx=ArrayConfig(1, LAM / 2, 1.0),
             subs=[100], syms=[0], df=78125.0, w_seed=0)                     # two paths nearly cancel
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, entries, tx, rx, subs, syms, df, w_seed):
        ps = make_pathset(entries)
        p = params(df=df)
        rng = np.random.default_rng(w_seed)
        w = rng.normal(size=tx.num_elements) + 1j * rng.normal(size=tx.num_elements)
        w /= np.linalg.norm(w)
        subs, syms = np.array(subs), np.array(syms)

        fast = beamformed_gains(ps, tx, rx, w, p, _grid_layout(subs), syms)
        slow = channel_oracle.beamformed_gains(ps, tx, rx, w, p, subs, syms)
        assert fast.shape == (len(subs), len(syms))
        # a cell is |sum_l b_l (a_T^T w)_l ...|^2 summed over N_R elements of unit-modulus steering:
        # it rounds on the scale of N_R (sum |b_l| sum |w_m|)^2, not of its value once paths cancel
        scale = rx.num_elements * (np.abs(ps.gain).sum() * np.abs(w).sum()) ** 2
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12 * scale)

        for n in set(subs[:1].tolist() + subs[-1:].tolist()):
            for k in {int(syms[0]), int(syms[-1])}:
                h = synthesize_channel(ps, tx, rx, n, k, p)
                ref = channel_oracle.synthesize_channel(ps, tx, rx, n, k, p)
                assert np.max(np.abs(h - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("subs,message", [
        ([1.5], "integers"),
        ([64, 31, 63, 32], "ascending and distinct"),
        ([7, 7, 100], "ascending and distinct"),
    ], ids=["fractional", "unsorted", "repeated"])
    def test_grid_outside_the_contract_rejected(self, subs, message):
        with pytest.raises(ValueError, match=message):
            _grid_layout(np.array(subs))


def test_path_responses_steer_each_array_along_its_path_directions():
    ps = make_pathset(_EDGE_PATHS)
    pairs = [(ArrayConfig(8, LAM / 2, 0.25), ArrayConfig(2, LAM / 2)),
             (ArrayConfig(4, 0.6 * LAM, -0.4), ArrayConfig(3, LAM / 2, 1.1))]
    for tx, rx in pairs:
        a_r, a_t = _path_responses(ps, tx, rx, FC)
        np.testing.assert_array_equal(a_r, _steering(rx, broadside_sines(rx, ps.aoa_dir), FC))
        np.testing.assert_array_equal(a_t, _steering(tx, broadside_sines(tx, ps.aod_dir), FC))


def test_beamformed_gains_builds_no_subcarrier_by_path_table():
    # the shipped link's size: 63 paths, 32 transmit and 2 receive elements,
    # a 512 x 14 grid. One (N, L) complex table alone is N * L * 16 bytes, so
    # a peak under (N * R * K + N * L) * 16 bytes leaves no room for the
    # table beside the (N, R * K) result and its squares.
    rng = np.random.default_rng(12)
    n_paths, n_sub, n_sym = 63, 512, 14
    entries = [((rng.normal() + 1j * rng.normal()) * 0.01, rng.uniform(1e-9, 8e-8), rng.uniform(-50, 50),
                (rng.uniform(-1, 1), rng.uniform(-1, 1)), (rng.uniform(-1, 1), rng.uniform(-1, 1)))
               for _ in range(n_paths)]
    tx, rx = ArrayConfig(32, LAM / 2), ArrayConfig(2, LAM / 2)
    w = rng.normal(size=32) + 1j * rng.normal(size=32)
    w /= np.linalg.norm(w)
    p = params(n=1024, k=n_sym)
    syms = np.arange(1, n_sym + 1)
    for first in (1, 513):                              # the shipped scenario's two grids
        layout = _grid_layout(np.arange(first, first + n_sub))   # a rate plan's, worked out at set-up
        beamformed_gains(make_pathset(entries), tx, rx, w, p, layout, syms)   # warm up imports
        ps = make_pathset(entries)
        tracemalloc.start()
        try:
            beamformed_gains(ps, tx, rx, w, p, layout, syms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n_sub * rx.num_elements * n_sym + n_sub * n_paths) * 16, first


def test_beamformed_gains_on_a_sparse_grid_builds_no_subcarrier_by_path_table():
    # one sub-carrier in every 32-wide block, so each opens a block of its own
    # and the per-block factor table is (N, L) too. The rows of partial blocks
    # are filled one by one: padding them to whole blocks would make the
    # result 32 times longer, about 7 MB here, far past this bound of 1.3 MB.
    rng = np.random.default_rng(13)
    n_paths, n_sym = 63, 14
    entries = [((rng.normal() + 1j * rng.normal()) * 0.01, rng.uniform(1e-9, 8e-8), rng.uniform(-50, 50),
                (rng.uniform(-1, 1), rng.uniform(-1, 1)), (rng.uniform(-1, 1), rng.uniform(-1, 1)))
               for _ in range(n_paths)]
    tx, rx = ArrayConfig(32, LAM / 2), ArrayConfig(2, LAM / 2)
    w = np.ones(32) / math.sqrt(32)
    p, syms = params(n=16384, k=n_sym), np.arange(1, n_sym + 1)
    for first in (0, 5):
        layout = _grid_layout(np.arange(first, 16384, 32))
        beamformed_gains(make_pathset(entries), tx, rx, w, p, layout, syms)   # warm up imports
        ps = make_pathset(entries)
        tracemalloc.start()
        try:
            beamformed_gains(ps, tx, rx, w, p, layout, syms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(layout) * rx.num_elements * n_sym + 2 * len(layout) * n_paths) * 16, first


def test_grid_layout_is_worked_out_once_per_link(tiny_scenario, monkeypatch):
    config = ScenarioConfig.from_file(tiny_scenario)
    laid_out = []
    monkeypatch.setattr(simcore, "_grid_layout", lambda subs: laid_out.append(subs) or _grid_layout(subs))
    world = simcore.init_world(config)
    assert [sub.tolist() for sub in laid_out] == [list(range(1, 17)), list(range(17, 33))]   # two links
    laid_out.clear()
    for t in range(3):
        simcore.sim_step(world, t)
    assert laid_out == []

    # the plan shares each layout across steps, so none of its arrays may be written
    layouts = [plan.layout for plan in world.rate_plan.values()] + [_grid_layout(np.arange(45, 45 + 32 * 5 + 1))]
    for layout in layouts:
        arrays = [layout.starts] + [a for *_, partial in layout.chunks for a in partial or ()]
        assert arrays and not any(a.flags.writeable for a in arrays)


class TestTxSignal:
    def test_unoccupied_element_zero_vector(self):
        w = np.ones(4) / 2.0
        sig = build_tx_signal(1.0, w, 2.0, 0)
        assert np.all(sig.vector == 0)

    def test_scaling(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        sig = build_tx_signal(1.0, e1, 4.0, 1)
        assert np.allclose(sig.vector, 2.0 * e1)

    def test_energy_identity(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=6) + 1j * rng.normal(size=6)
        w /= np.linalg.norm(w)
        d = cmath.exp(1j * 0.7)
        sig = build_tx_signal(d, w, 3.0, 1)
        assert np.linalg.norm(sig.vector) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_non_unit_beamformer_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            build_tx_signal(1.0, np.array([1.0, 1.0]), 1.0, 1)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            build_tx_signal(1.0, np.array([1.0, 0.0]), -1.0, 1)


class TestMrtBeamformer:
    def test_rank_one_row_channel(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = mrt_beamformer(h.reshape(1, 4))
        expected = np.conj(h) / np.linalg.norm(h)
        assert abs(np.vdot(expected, w)) == pytest.approx(1.0, rel=1e-12)

    def test_elementary_channel(self):
        h = np.zeros((4, 4))
        h[0, 0] = 1.0
        assert np.allclose(mrt_beamformer(h), np.eye(4)[0], atol=1e-12)

    def test_phase_convention_first_entry_real_positive(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        w = mrt_beamformer(h)
        assert w[0].imag == pytest.approx(0.0, abs=1e-12)
        assert w[0].real > 0

    def test_maximality_over_random_directions(self):
        rng = np.random.default_rng(8)
        h = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        w = mrt_beamformer(h)
        best = np.linalg.norm(h @ w)
        for _ in range(1000):
            u = rng.normal(size=4) + 1j * rng.normal(size=4)
            u /= np.linalg.norm(u)
            assert np.linalg.norm(h @ u) <= best * (1 + 1e-12)

    def test_zero_channel_rejected(self):
        with pytest.raises(ValueError, match="zero channel"):
            mrt_beamformer(np.zeros((2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.just(0j) | st.builds(lambda exponent, phase: 10.0 ** exponent * cmath.exp(1j * phase),
                                            st.floats(-150.0, 150.0), st.floats(0.0, 2.0 * math.pi)),
                    min_size=1, max_size=8).filter(any))
    def test_one_transmit_antenna_gives_exactly_one(self, column):
        # sim_step's phase 3 uses its constant for a one-element transmitter in place of this SVD
        w = mrt_beamformer(np.array(column).reshape(-1, 1))
        assert w.dtype == _SINGLE_ANTENNA_MRT.dtype
        assert w.tobytes() == _SINGLE_ANTENNA_MRT.tobytes() == np.array([1 + 0j]).tobytes()


def eq3_oracle(ps, tx_array, rx_array, n, k, p):
    """Independent term-by-term channel evaluation with plain loops and cmath."""
    lam = C / p.carrier_freq
    nr, nt = rx_array.num_elements, tx_array.num_elements
    h = [[0j] * nt for _ in range(nr)]
    for path in ps.paths:
        omega = k * path.doppler * p.symbol_duration - n * path.delay * p.delta_f
        rot = cmath.exp(2j * math.pi * omega)
        a_r = [cmath.exp(2j * math.pi * (m * rx_array.spacing / lam)
                         * math.sin(path.aoa[0]) * math.cos(path.aoa[1])) for m in range(nr)]
        a_t = [cmath.exp(2j * math.pi * (m * tx_array.spacing / lam)
                         * math.sin(path.aod[0]) * math.cos(path.aod[1])) for m in range(nt)]
        for i in range(nr):
            for j in range(nt):
                h[i][j] += path.gain * rot * a_r[i] * a_t[j]
    return np.array(h)

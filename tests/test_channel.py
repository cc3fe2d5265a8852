import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isactwin.channel import (
    OfdmParams,
    _grid_layout,
    _path_responses,
    beamformed_gains,
    build_tx_signal,
    mrt_beamformer,
    phase_shift,
    steering_vector,
    synthesize_channel,
)
from isactwin.network import ArrayConfig
from isactwin.raytrace import SPEED_OF_LIGHT as C, PathSet, Pose, PropagationPath
from isactwin.simcore import ScenarioConfig, run_simulation
import channel_oracle


FC = 2.4e9
LAM = C / FC


def params(n=1024, k=14, df=78125.0):
    return OfdmParams(n_subcarriers=n, n_symbols=k, delta_f=df, carrier_freq=FC)


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
    def test_broadside_all_ones(self):
        a = steering_vector(ArrayConfig(8, LAM / 2), 0.0, 0.0, FC)
        assert np.allclose(a, np.ones(8))

    def test_half_wavelength_thirty_degrees(self):
        a = steering_vector(ArrayConfig(2, LAM / 2), math.radians(30), 0.0, FC)
        assert np.allclose(a, [1.0, 1j], atol=1e-12)

    @given(az=st.floats(-math.pi, math.pi), el=st.floats(-math.pi / 2, math.pi / 2),
           n=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus(self, az, el, n):
        a = steering_vector(ArrayConfig(n, LAM / 2), az, el, FC)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)


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
        gains = beamformed_gains(ps, tx, rx, w, p, subs, syms)
        for i, n in enumerate([1, 7, 32]):
            for k in [1, 4]:
                h = synthesize_channel(ps, tx, rx, n, k, p)
                direct = np.linalg.norm(h @ w) ** 2
                assert gains[n - 1, k - 1] == pytest.approx(direct, rel=1e-10)


_ANGLES = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi / 2, math.pi / 2))
_PATH = st.tuples(st.complex_numbers(max_magnitude=0.1, allow_nan=False, allow_infinity=False),
                  st.floats(1e-9, 1e-7), st.floats(-500.0, 500.0), _ANGLES, _ANGLES)
_ARRAY = st.builds(ArrayConfig, st.integers(1, 32), st.floats(0.3, 0.7).map(lambda f: f * LAM),
                   st.floats(0.05, math.pi) | st.floats(-math.pi, -0.05))
# gapped sorted index sets that always hold 0 and one index >= 2048, so the
# sub-carriers span many 32-wide phase blocks; or a single index; or indices
# in any order and with repeats, whose gains must come back in input order
_SUBCARRIERS = (
    st.integers(0, 4200).map(lambda n: [n])
    | st.tuples(st.integers(2048, 4200), st.sets(st.integers(0, 4200), max_size=60))
    .map(lambda t: sorted({0, t[0]} | t[1]))
    | st.lists(st.integers(0, 4200), min_size=2, max_size=80)
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
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(8, LAM / 2, 0.25), rx=ArrayConfig(2, LAM / 2),
             subs=[64, 31, 63, 32], syms=[3], df=78125.0, w_seed=3)           # edges, shuffled
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(8, LAM / 2, 0.25), rx=ArrayConfig(3, LAM / 2),
             subs=[100, 7, 2047, 7, 100, 100], syms=[2, 5], df=78125.0, w_seed=4)  # repeats
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=[4100, 0, 167, 288], syms=[1, 2, 3], df=78125.0, w_seed=5)  # one index per block
    @example(entries=_EDGE_PATHS, tx=ArrayConfig(4, LAM / 2), rx=ArrayConfig(2, LAM / 2),
             subs=np.random.default_rng(6).permutation(np.arange(1, 513)).tolist(), syms=[1, 14],
             df=78125.0, w_seed=6)                                            # shuffled grid
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
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, entries, tx, rx, subs, syms, df, w_seed):
        ps = make_pathset(entries)
        p = params(df=df)
        rng = np.random.default_rng(w_seed)
        w = rng.normal(size=tx.num_elements) + 1j * rng.normal(size=tx.num_elements)
        w /= np.linalg.norm(w)
        subs, syms = np.array(subs), np.array(syms)

        fast = beamformed_gains(ps, tx, rx, w, p, subs, syms)
        slow = channel_oracle.beamformed_gains(ps, tx, rx, w, p, subs, syms)
        assert fast.shape == (len(subs), len(syms))
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-12 * np.max(slow, initial=0.0))

        for n in set(subs[:1].tolist() + subs[-1:].tolist()):
            for k in {int(syms[0]), int(syms[-1])}:
                h = synthesize_channel(ps, tx, rx, n, k, p)
                ref = channel_oracle.synthesize_channel(ps, tx, rx, n, k, p)
                assert np.max(np.abs(h - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_fractional_subcarrier_rejected(self):
        ps = make_pathset([(0.1, 1e-8, 0.0, (0.0, 0.0), (0.0, 0.0))])
        arr = ArrayConfig(1, LAM / 2)
        with pytest.raises(ValueError, match="integers"):
            beamformed_gains(ps, arr, arr, np.ones(1), params(), np.array([1.5]), np.array([1]))


def test_path_responses_are_kept_per_path_set_and_array_pair():
    ps = make_pathset(_EDGE_PATHS)
    pairs = [(ArrayConfig(8, LAM / 2, 0.25), ArrayConfig(2, LAM / 2)),
             (ArrayConfig(4, 0.6 * LAM, -0.4), ArrayConfig(3, LAM / 2, 1.1))]
    kept = [_path_responses(ps, tx, rx, FC) for tx, rx in pairs]
    for (tx, rx), (a_r, a_t) in zip(pairs, kept):
        again = _path_responses(ps, tx, rx, FC)
        assert again[0] is a_r and again[1] is a_t
        np.testing.assert_array_equal(a_r, steering_vector(rx, ps.aoa[:, 0] - rx.boresight, ps.aoa[:, 1], FC))
        np.testing.assert_array_equal(a_t, steering_vector(tx, ps.aod[:, 0] - tx.boresight, ps.aod[:, 1], FC))
        assert not a_r.flags.writeable and not a_t.flags.writeable


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
        subs = np.arange(first, first + n_sub)
        beamformed_gains(make_pathset(entries), tx, rx, w, p, subs, syms)   # warm up imports
        ps = make_pathset(entries)                      # a path set whose steering is not kept yet
        tracemalloc.start()
        try:
            beamformed_gains(ps, tx, rx, w, p, subs, syms)
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
        subs = np.arange(first, 16384, 32)
        beamformed_gains(make_pathset(entries), tx, rx, w, p, subs, syms)   # warm up imports and layout
        ps = make_pathset(entries)
        tracemalloc.start()
        try:
            beamformed_gains(ps, tx, rx, w, p, subs, syms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (len(subs) * rx.num_elements * n_sym + 2 * len(subs) * n_paths) * 16, first


def test_grid_layout_is_worked_out_once_per_link(tiny_scenario):
    config = dataclasses.replace(ScenarioConfig.from_file(tiny_scenario), max_steps=6)
    _grid_layout.cache_clear()
    records = run_simulation(config)
    assert len(records) == 6
    info = _grid_layout.cache_info()
    assert (info.misses, info.hits) == (2, 10)          # two links, each with its own grid

    # a cached layout is shared by every later call, so none of its arrays may be written
    for subs in (np.arange(1, 17), np.arange(45, 45 + 32 * 5 + 1), np.array([70, 3, 3, 40])):
        layout = _grid_layout(subs.astype(np.int64).tobytes())
        arrays = [layout.starts] + [a for *_, partial in layout.chunks for a in partial or ()]
        if not isinstance(layout.select, slice):
            arrays.append(layout.select)
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

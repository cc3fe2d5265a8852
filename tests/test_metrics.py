import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isactwin.channel import OfdmParams, mrt_beamformer, synthesize_channel
from isactwin.metrics import RunSummary, achievable_rate, summarize_run
from isactwin.network import ArrayConfig
from isactwin.raytrace import SPEED_OF_LIGHT as C, Pose, Scene, trace_paths
from isactwin.simcore import AgentTrace, TraceRecord


FC = 2.4e9
LAM = C / FC


def records(est, truth, yaw=0.0):
    """One single-agent TraceRecord per (estimate, true position) pair."""
    return [
        TraceRecord(step=t, time_s=0.1 * t, rates={("robot", "ap1"): 1.0},
                    agents={"robot": AgentTrace(true_x=float(tx), true_y=float(ty), true_yaw=yaw,
                                                est_x=float(ex), est_y=float(ey), loc_score=0.0,
                                                v_cmd=0.0, w_cmd=0.0)})
        for t, ((ex, ey), (tx, ty)) in enumerate(zip(est, truth))
    ]


class TestPositioningError:
    # summarize_run's planar distance between the estimates and the true track
    def test_identical_trajectories(self):
        xy = np.array([[0, 0], [1, 1], [2, 0]])
        s = summarize_run(records(xy, xy))
        assert s.max_pos_err_m == s.mean_pos_err_m == s.rmse_pos_err_m == 0.0

    def test_constant_offset(self):
        truth = np.array([[0, 0], [1, 0], [2, 0]])
        est = truth + np.array([0.1, 0.0])
        s = summarize_run(records(est, truth))
        assert s.rmse_pos_err_m == pytest.approx(0.1, rel=1e-12)
        assert s.max_pos_err_m == pytest.approx(0.1, rel=1e-12)
        assert s.mean_pos_err_m == pytest.approx(0.1, rel=1e-12)

    def test_planar_only(self):
        # the trace carries no z, and the heading does not count
        s = summarize_run(records([[0.3, 0.4]], [[0.0, 0.0]], yaw=2.0))
        assert s.max_pos_err_m == pytest.approx(0.5, rel=1e-12)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty trace"):
            summarize_run([])


class TestAchievableRate:
    def test_unit_snr_is_one_bit(self):
        h = np.array([[1.0]])
        w = np.array([1.0])
        assert achievable_rate(h, w, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_channel_zero_rate(self):
        assert achievable_rate(np.zeros((2, 3)), np.array([1.0, 0, 0]), 5.0, 1e-9) == 0.0

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            achievable_rate(np.ones((1, 1)), np.ones(1), 1.0, 0.0)

    def test_interference_lowers_rate(self):
        h = np.array([[1.0]])
        w = np.array([1.0])
        assert achievable_rate(h, w, 1.0, 0.1, interference_power=0.5) < \
            achievable_rate(h, w, 1.0, 0.1)

    def test_friis_distance_halving_chain(self):
        # free-space LoS with MRT: halving the distance quadruples SNR
        scene = Scene(surfaces=[], materials={}, bounds_min=np.full(3, -100.0),
                      bounds_max=np.full(3, 100.0))
        params = OfdmParams(n_subcarriers=16, n_symbols=2, delta_f=78125.0, carrier_freq=FC)
        tx_arr, rx_arr = ArrayConfig(8, LAM / 2), ArrayConfig(1, LAM / 2)
        sigma2 = 1e-12

        def rate_at(d):
            ps = trace_paths(scene, Pose.at(0, 0, 1), Pose.at(d, 0, 1), 0, FC)
            h = synthesize_channel(ps, tx_arr, rx_arr, 1, 1, params)
            w = mrt_beamformer(h)
            return achievable_rate(h, w, 0.01, sigma2), np.linalg.norm(h @ w) ** 2

        r4, g4 = rate_at(4.0)
        r2, g2 = rate_at(2.0)
        assert g2 == pytest.approx(4.0 * g4, rel=1e-9)
        snr4 = 0.01 * g4 / sigma2
        assert r2 == pytest.approx(math.log2(1.0 + 4.0 * snr4), rel=1e-9)

    def test_monotone_decreasing_with_distance(self):
        scene = Scene(surfaces=[], materials={}, bounds_min=np.full(3, -100.0),
                      bounds_max=np.full(3, 100.0))
        params = OfdmParams(n_subcarriers=16, n_symbols=2, delta_f=78125.0, carrier_freq=FC)
        tx_arr, rx_arr = ArrayConfig(8, LAM / 2), ArrayConfig(1, LAM / 2)
        rates = []
        for d in np.linspace(1.0, 8.0, 15):
            ps = trace_paths(scene, Pose.at(0, 0, 1), Pose.at(d, 0, 1), 0, FC)
            h = synthesize_channel(ps, tx_arr, rx_arr, 1, 1, params)
            w = mrt_beamformer(h)
            rates.append(achievable_rate(h, w, 0.01, 1e-12))
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_array_gain_dominance(self):
        scene = Scene(surfaces=[], materials={}, bounds_min=np.full(3, -100.0),
                      bounds_max=np.full(3, 100.0))
        params = OfdmParams(n_subcarriers=16, n_symbols=2, delta_f=78125.0, carrier_freq=FC)
        rx_arr = ArrayConfig(1, LAM / 2)
        for d in (1.0, 3.0, 6.0):
            ps = trace_paths(scene, Pose.at(0, 0, 1), Pose.at(d, 0, 1), 0, FC)
            rates = {}
            for n_ant in (1, 32):
                tx_arr = ArrayConfig(n_ant, LAM / 2)
                h = synthesize_channel(ps, tx_arr, rx_arr, 1, 1, params)
                w = mrt_beamformer(h)
                rates[n_ant] = achievable_rate(h, w, 0.01, 1e-12)
            assert rates[32] >= rates[1]


class TestSeriesInvariants:
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_rmse_identities(self, errors):
        est = np.column_stack([errors, np.zeros(len(errors))])
        s = summarize_run(records(est, np.zeros_like(est)))
        assert s.max_pos_err_m >= s.rmse_pos_err_m >= 0.0
        assert s.rmse_pos_err_m ** 2 == pytest.approx(np.mean(np.square(errors)), rel=1e-9, abs=1e-12)
        assert s.steps == len(errors)


class TestRunSummary:
    def test_dict_round_trip(self):
        summary = RunSummary(
            max_pos_err_m=0.1, rmse_pos_err_m=0.05, mean_pos_err_m=0.04,
            mean_rate_bps_hz={"robot:ap1": 12.5, "robot:ap2": 3.25}, steps=100,
        )
        again = RunSummary(**dataclasses.asdict(summary))
        assert dataclasses.asdict(again) == dataclasses.asdict(summary)
        table = summary.format_table()
        assert "max pos error" in table and "robot:ap1" in table

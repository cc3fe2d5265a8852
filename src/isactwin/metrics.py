"""Evaluation quantities: positioning error, modeling error, achievable rate.

Errors are planar (x, y); ground robots keep constant z. Rates are
single-stream log2(1 + SNR) per resource element with the link's own
beamformer; interference from overlapping allocations, when present, is added
to the noise term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ErrorSeries:
    errors: np.ndarray

    def __post_init__(self):
        self.errors = np.atleast_1d(np.asarray(self.errors, dtype=float))
        if np.any(self.errors < 0.0):
            raise ValueError("errors must be nonnegative")

    @property
    def max(self) -> float:
        return float(np.max(self.errors))

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors))

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean(self.errors ** 2)))


def positioning_error(estimated, ground_truth) -> ErrorSeries:
    """Per-step planar distance between estimates and the ground truth track."""
    return ErrorSeries(errors=_planar_distances(estimated, ground_truth))


def modeling_error(sim_positions, ground_truth) -> ErrorSeries:
    """Per-step planar distance between the twin's pose and the ground truth."""
    return ErrorSeries(errors=_planar_distances(sim_positions, ground_truth))


def _planar_distances(a, b) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))[:, :2]
    b = np.atleast_2d(np.asarray(b, dtype=float))[:, :2]
    if len(a) != len(b):
        raise ValueError(f"trajectory lengths differ: {len(a)} vs {len(b)}")
    return np.linalg.norm(a - b, axis=1)


def achievable_rate(h: np.ndarray, w: np.ndarray, p: float, noise_power: float,
                    interference_power: float = 0.0) -> float:
    """log2(1 + p ||H w||^2 / (noise + interference)) for one resource element."""
    if noise_power <= 0.0:
        raise ValueError("noise power must be positive")
    gain = float(np.linalg.norm(np.asarray(h) @ np.asarray(w)) ** 2)
    return math.log2(1.0 + p * gain / (noise_power + interference_power))


@dataclass(eq=False)
class RunSummary:
    max_pos_err_m: float
    rmse_pos_err_m: float
    mean_pos_err_m: float
    max_model_err_m: float
    rmse_model_err_m: float
    mean_rate_bps_hz: dict  # "v:q" -> mean rate
    steps: int

    def to_dict(self) -> dict:
        return {
            "max_pos_err_m": self.max_pos_err_m,
            "rmse_pos_err_m": self.rmse_pos_err_m,
            "mean_pos_err_m": self.mean_pos_err_m,
            "max_model_err_m": self.max_model_err_m,
            "rmse_model_err_m": self.rmse_model_err_m,
            "mean_rate_bps_hz": dict(self.mean_rate_bps_hz),
            "steps": self.steps,
        }

    def format_table(self) -> str:
        lines = [
            f"{'steps':24s} {self.steps}",
            f"{'max pos error [m]':24s} {self.max_pos_err_m:.4f}",
            f"{'rmse pos error [m]':24s} {self.rmse_pos_err_m:.4f}",
            f"{'mean pos error [m]':24s} {self.mean_pos_err_m:.4f}",
            f"{'max model error [m]':24s} {self.max_model_err_m:.4f}",
            f"{'rmse model error [m]':24s} {self.rmse_model_err_m:.4f}",
        ]
        for link, rate in sorted(self.mean_rate_bps_hz.items()):
            lines.append(f"{'mean rate ' + link + ' [b/s/Hz]':24s} {rate:.3f}")
        return "\n".join(lines)


def summarize_run(records) -> RunSummary:
    """Aggregate a list of TraceRecords into the run report."""
    if not records:
        raise ValueError("empty trace")
    est, true, model = [], [], []
    rate_acc: dict = {}
    for rec in records:
        for agent in rec.agents.values():
            est.append((agent.est_x, agent.est_y))
            true.append((agent.true_x, agent.true_y))
            if agent.dt_x is not None:
                model.append((agent.dt_x, agent.dt_y))
            else:
                model.append((agent.true_x, agent.true_y))
        for link, rate in rec.rates.items():
            rate_acc.setdefault(link, []).append(rate)
    pos = positioning_error(est, true)
    model_err = modeling_error(model, true)
    return RunSummary(
        max_pos_err_m=pos.max,
        rmse_pos_err_m=pos.rmse,
        mean_pos_err_m=pos.mean,
        max_model_err_m=model_err.max,
        rmse_model_err_m=model_err.rmse,
        mean_rate_bps_hz={f"{v}:{q}": float(np.mean(r)) for (v, q), r in sorted(rate_acc.items())},
        steps=len(records),
    )

"""Evaluation quantities: the run report of a trace, and achievable rate.

The report reads only what the trace CSV holds, so `run` and `eval` of the
same trace print the same table. Position errors are planar (x, y); ground
robots keep constant z. Rates are single-stream log2(1 + SNR) per resource
element with the link's own beamformer; interference from overlapping
allocations, when present, is added to the noise term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
    mean_rate_bps_hz: dict  # "v:q" -> mean rate
    steps: int

    def format_table(self) -> str:
        lines = [
            f"{'steps':24s} {self.steps}",
            f"{'max pos error [m]':24s} {self.max_pos_err_m:.4f}",
            f"{'rmse pos error [m]':24s} {self.rmse_pos_err_m:.4f}",
            f"{'mean pos error [m]':24s} {self.mean_pos_err_m:.4f}",
        ]
        for link, rate in sorted(self.mean_rate_bps_hz.items()):
            lines.append(f"{'mean rate ' + link + ' [b/s/Hz]':24s} {rate:.3f}")
        return "\n".join(lines)


def summarize_run(records) -> RunSummary:
    """The run report of a list of TraceRecords: the planar distance between each
    agent's estimate and its true position over all rows, and each link's mean rate."""
    if not records:
        raise ValueError("empty trace")
    rows = [agent for rec in records for agent in rec.agents.values()]
    est = np.array([(a.est_x, a.est_y) for a in rows], dtype=float)
    true = np.array([(a.true_x, a.true_y) for a in rows], dtype=float)
    err = np.linalg.norm(est - true, axis=1)
    rate_acc: dict = {}
    for rec in records:
        for link, rate in rec.rates.items():
            rate_acc.setdefault(link, []).append(rate)
    max_err = float(np.max(err))
    return RunSummary(
        max_pos_err_m=max_err,
        # the root of a mean of equal squares can round one ulp above their max
        rmse_pos_err_m=min(float(np.sqrt(np.mean(err ** 2))), max_err),
        mean_pos_err_m=float(np.mean(err)),
        mean_rate_bps_hz={f"{v}:{q}": float(np.mean(r)) for (v, q), r in sorted(rate_acc.items())},
        steps=len(records),
    )

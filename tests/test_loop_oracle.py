"""sim_step against the slow reference loop of loop_oracle, on the tiny scenario, the shipped
scenario's first 10 steps clean and degraded, and a scenario where two transmitters share cells.

Both runs stop at the same step and give the same estimates, bit for bit; poses, rates and
scores agree to relative 1e-9 and absolute 1e-12, since the oracles' kernels round apart from
the loop's. Where the best two grid scores lie within 1e-9 relative, the argmin is a matter of
rounding: there the oracle goes on from the loop's choice among the tied points, so the test
compares the scores and not the argmin.
"""

import dataclasses
import json

import numpy as np
import pytest

import loop_oracle
from conftest import repo_scenario_dir
from isactwin import simcore

TOL = dict(rtol=1e-9, atol=1e-12)


def shipped(tmp_path, noise=None):
    """A copy of the shipped scenario in tmp_path, its noise block updated with noise."""
    for name in ("desk_two_ap.json", "desk_box.scene.json"):
        (tmp_path / name).write_text((repo_scenario_dir() / name).read_text())
    path = tmp_path / "desk_two_ap.json"
    doc = json.loads(path.read_text())
    doc["noise"].update(noise or {})
    path.write_text(json.dumps(doc))
    return path


def shared_cells(tiny_scenario):
    """The tiny scenario with ap_b on sub-carriers 9-24, half of them ap_a's 1-16."""
    doc = json.loads(tiny_scenario.read_text())
    doc["network"]["resources"]["users"][1]["subcarriers"] = {"from": 9, "to": 24}
    tiny_scenario.write_text(json.dumps(doc))
    return tiny_scenario


@pytest.mark.parametrize("make,max_steps", [
    (lambda tmp_path, tiny: tiny, None),
    (lambda tmp_path, tiny: shipped(tmp_path), 10),
    (lambda tmp_path, tiny: shipped(tmp_path, {"fingerprint_snr_db": 20.0, "map_offset_m": [0.0, -0.05]}), 10),
    (lambda tmp_path, tiny: shared_cells(tiny), 10),
], ids=["tiny", "shipped-clean", "shipped-degraded", "shared-cells"])
def test_sim_step_matches_the_reference_loop(tmp_path, tiny_scenario, make, max_steps):
    config = simcore.ScenarioConfig.from_file(make(tmp_path, tiny_scenario))
    if max_steps is not None:
        config = dataclasses.replace(config, max_steps=max_steps)
    fast = simcore.run_simulation(config, tmp_path / "trace.csv")
    follow = {(r.step, aid): (ag.est_x, ag.est_y) for r in fast for aid, ag in r.agents.items()}
    slow = loop_oracle.run(config, follow)
    assert [r.step for r in fast] == [s["step"] for s in slow]
    for record, ref in zip(fast, slow):
        assert record.rates.keys() == ref["rates"].keys()
        for link, rate in ref["rates"].items():
            np.testing.assert_allclose(record.rates[link], rate, **TOL, err_msg=f"step {record.step} {link}")
        assert record.agents.keys() == ref["agents"].keys()
        for aid, row in ref["agents"].items():
            got = record.agents[aid]
            assert (got.est_x, got.est_y) == (row["est_x"], row["est_y"]), f"step {record.step} {aid}"
            for name in ("true_x", "true_y", "true_yaw", "loc_score", "v_cmd", "w_cmd"):
                np.testing.assert_allclose(getattr(got, name), row[name], **TOL,
                                           err_msg=f"step {record.step} {aid} {name}")

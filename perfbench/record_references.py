"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py                 # all of them
    python3 perfbench/record_references.py run_degraded:3  # one noise seed

Targets are build_db, run_clean and run_degraded:<k> for k below
harness.DEGRADED_NOISE_SEEDS.  Each is written to perfbench/references/.
Record them only from a commit whose outputs are known good: every later
run is compared with them.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import harness


def record(target: str, prog, tmp_root):
    simcore, localization, _, _ = prog
    if target == "build_db":
        import numpy as np
        db = localization.load_db(harness.cached_db(simcore, tmp_root))
        np.savez_compressed(harness.REFERENCES / "build_db.npz", positions=db.positions,
                            bins=db.bins, ap_ids=np.array(db.ap_ids), bin_width=db.bin_width)
        return harness.REFERENCES / "build_db.npz"
    name, _, k = target.partition(":")
    workload = harness.WORKLOADS[name]
    seed = int(k) if workload.degraded else 0
    doc = harness.scenario_doc(workload, seed)
    scenario = harness.write_scenario(tmp_root / target.replace(":", "_"), doc)
    db_target = scenario.parent / doc["db"]["path"]
    db_target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(harness.cached_db(simcore, tmp_root), db_target)
    config = simcore.ScenarioConfig.from_file(scenario)
    simcore.run_simulation(config)
    out = harness.reference_trace(workload, seed)
    shutil.copyfile(config.trace_csv, out)
    return out


def main(argv) -> int:
    targets = argv or (["build_db", "run_clean"] + [
        f"run_degraded:{k}" for k in range(harness.DEGRADED_NOISE_SEEDS)])
    prog = harness.import_program()
    harness.REFERENCES.mkdir(exist_ok=True)
    (harness.build_dir() / "tmp").mkdir(parents=True, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="references-", dir=harness.build_dir() / "tmp")
    try:
        for target in targets:
            print(f"{target}: {record(target, prog, harness.Path(tmp_root))}", flush=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

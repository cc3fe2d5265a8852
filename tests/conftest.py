import json
import struct
import warnings
from pathlib import Path

import pytest

from isactwin.scene import load_scene

# Hypothesis writes a failing example's patch with libcst where that is installed, and
# importing libcst warns (DeprecationWarning, from mypy_extensions). Under -W error that
# made a failing @given test a pytest INTERNALERROR; only this one import is exempted.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def rewrite_db_header(path, edit):
    """Replace a fingerprint database file's JSON header with edit(header)."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", raw, 8)
    blob = json.dumps(edit(json.loads(raw[12 : 12 + hlen]))).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])


def box_scene_doc(lx=4.0, ly=3.0, lz=2.5, coeff=0.7):
    """Minimal closed shoebox room document with one material."""
    return {
        "materials": [{"name": "wall", "reflection_coeff": coeff}],
        "surfaces": [
            {"vertices": [[0, 0, 0], [lx, 0, 0], [lx, ly, 0], [0, ly, 0]], "material": "wall"},
            {"vertices": [[0, 0, lz], [lx, 0, lz], [lx, ly, lz], [0, ly, lz]], "material": "wall"},
            {"vertices": [[0, 0, 0], [lx, 0, 0], [lx, 0, lz], [0, 0, lz]], "material": "wall"},
            {"vertices": [[0, ly, 0], [lx, ly, 0], [lx, ly, lz], [0, ly, lz]], "material": "wall"},
            {"vertices": [[0, 0, 0], [0, ly, 0], [0, ly, lz], [0, 0, lz]], "material": "wall"},
            {"vertices": [[lx, 0, 0], [lx, ly, 0], [lx, ly, lz], [lx, 0, lz]], "material": "wall"},
        ],
        "bounds": {"min": [0, 0, 0], "max": [lx, ly, lz]},
    }


@pytest.fixture
def box_doc():
    return box_scene_doc()


@pytest.fixture
def box_scene():
    return load_scene(box_scene_doc())


TINY_SCENE = {
    "materials": [
        {"name": "metal", "reflection_coeff": 0.9},
        {"name": "board", "reflection_coeff": 0.6},
    ],
    "surfaces": [
        {"vertices": [[0, 0, 0], [1.2, 0, 0], [1.2, 1.0, 0], [0, 1.0, 0]], "material": "metal"},
        {"vertices": [[0, 0, 0.8], [1.2, 0, 0.8], [1.2, 1.0, 0.8], [0, 1.0, 0.8]], "material": "board"},
        {"vertices": [[0, 0, 0], [1.2, 0, 0], [1.2, 0, 0.8], [0, 0, 0.8]], "material": "metal"},
        {"vertices": [[0, 1.0, 0], [1.2, 1.0, 0], [1.2, 1.0, 0.8], [0, 1.0, 0.8]], "material": "board"},
        {"vertices": [[0, 0, 0], [0, 1.0, 0], [0, 1.0, 0.8], [0, 0, 0.8]], "material": "metal"},
        {"vertices": [[1.2, 0, 0], [1.2, 1.0, 0], [1.2, 1.0, 0.8], [1.2, 0, 0.8]], "material": "metal"},
    ],
    "bounds": {"min": [0, 0, 0], "max": [1.2, 1.0, 0.8]},
}


def tiny_scenario_doc():
    """Small, fast scenario for loop/CLI tests (runs in a couple of seconds)."""
    return {
        "scene": "tiny.scene.json",
        "network": {
            "nodes": [
                {"id": "ap_a", "role": "tx",
                 "array": {"elements": 4, "spacing_wavelengths": 0.5, "boresight_deg": 0.0},
                 "pose": {"position": [0.1, 0.1, 0.7], "yaw_deg": 45.0}},
                {"id": "ap_b", "role": "tx",
                 "array": {"elements": 1, "spacing_wavelengths": 0.5, "boresight_deg": 0.0},
                 "pose": {"position": [1.1, 0.9, 0.6], "yaw_deg": 225.0}},
                {"id": "robot", "role": "rx",
                 "array": {"elements": 2, "spacing_wavelengths": 0.5, "boresight_deg": 0.0}},
            ],
            "edges": [["ap_a", "robot"], ["ap_b", "robot"]],
            "resources": {
                "users": [
                    {"id": "ap_a", "subcarriers": {"from": 1, "to": 16},
                     "symbols": {"from": 1, "to": 4}, "power_w": 1.0},
                    {"id": "ap_b", "subcarriers": {"from": 17, "to": 32},
                     "symbols": {"from": 1, "to": 4}, "power_w": 0.5},
                ]
            },
        },
        "ofdm": {"n_subcarriers": 32, "delta_f_hz": 312500.0, "n_symbols": 4,
                 "carrier_hz": 2.4e9},
        "agents": [
            {"id": "robot",
             "initial_pose": {"position": [0.7, 0.5, 0.1], "yaw_deg": 180.0},
             "path": [[0.55, 0.55], [0.5, 0.45]],
             "controller": {"k_ang": 2.0, "v_max": 0.1, "w_max": 1.5, "waypoint_tol_m": 0.1}},
        ],
        "noise": {"state_var": 0.0, "noise_power_w": 1e-9},
        "sim": {"dt_s": 0.1, "max_steps": 40, "seed": 3},
        "raytrace": {"max_order": 2},
        "db": {"path": "artifacts/tiny.fpdb",
               "build": {"spacing_m": 0.1, "bin_width_s": 1e-9, "num_bins": 48,
                         "roi_m": [0.3, 0.25, 0.95, 0.75], "height_m": 0.1}},
        "output": {"trace_csv": "artifacts/tiny_trace.csv"},
    }


@pytest.fixture
def tiny_scenario(tmp_path):
    """Write the tiny scenario + scene into a tmp dir; returns the scenario path."""
    (tmp_path / "tiny.scene.json").write_text(json.dumps(TINY_SCENE))
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_scenario_doc()))
    return path


def repo_scenario_dir() -> Path:
    return Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def case_study_dir(tmp_path_factory):
    """Copy of the shipped desk scenario in a writable tmp dir (db built lazily)."""
    src = repo_scenario_dir()
    dst = tmp_path_factory.mktemp("case_study")
    for name in ("desk_two_ap.json", "desk_box.scene.json"):
        (dst / name).write_text((src / name).read_text())
    return dst

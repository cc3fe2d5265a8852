"""Deterministic indoor digital twin for sensing, communications, and robotics.

Submodules:
    scene         room geometry and materials
    raytrace      image-method multipath solver
    network       graph topology and uniform-power resource allocation
    channel       beamspace MIMO-OFDM synthesis and beamformed link gains
    agent         differential-drive dynamics, the MDP measurement, waypoint control
    localization  MDP fingerprint database and matching (the twin's sensing)
    simcore       the per-step simulation loop, bus, and trace recording
    metrics       the run report (position error, mean rates) and achievable rate

The names below and the submodules are imported on first use (PEP 562), so
importing the package loads no numpy: the command line sets its BLAS thread
defaults first (isactwin.cli).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("scene", "raytrace", "network", "channel", "agent", "localization", "simcore", "metrics")
_EXPORTS = {
    "Control": "agent", "OfdmParams": "channel", "TxSignal": "channel", "FingerprintDB": "localization",
    "Mdp": "localization", "ArrayConfig": "network", "NetworkGraph": "network",
    "ResourceAllocation": "network", "PathSet": "raytrace", "Pose": "raytrace",
    "PropagationPath": "raytrace", "Material": "scene", "Scene": "scene", "Surface": "scene",
    "Bus": "simcore", "ScenarioConfig": "simcore", "TraceRecord": "simcore", "run_simulation": "simcore",
}

__all__ = [
    "ArrayConfig", "Bus", "Control", "FingerprintDB", "Material", "Mdp",
    "NetworkGraph", "OfdmParams", "PathSet", "Pose", "PropagationPath", "ResourceAllocation", "Scene",
    "ScenarioConfig", "Surface", "TraceRecord", "TxSignal", "run_simulation",
    "__version__",
]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value

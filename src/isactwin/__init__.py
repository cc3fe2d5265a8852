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
"""

from .agent import Control
from .channel import OfdmParams, TxSignal
from .localization import FingerprintDB, Mdp
from .network import ArrayConfig, NetworkGraph, ResourceAllocation
from .raytrace import PathSet, Pose, PropagationPath
from .scene import Material, Scene, Surface
from .simcore import Bus, ScenarioConfig, TraceRecord, run_simulation

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig", "Bus", "Control", "FingerprintDB", "Material", "Mdp",
    "NetworkGraph", "OfdmParams", "PathSet", "Pose", "PropagationPath", "ResourceAllocation", "Scene",
    "ScenarioConfig", "Surface", "TraceRecord", "TxSignal", "run_simulation",
    "__version__",
]

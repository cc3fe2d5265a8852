"""Deterministic indoor digital twin for sensing, communications, and robotics.

Submodules:
    scene         room geometry and materials
    raytrace      image-method multipath solver
    network       graph topology and uniform-power resource allocation
    channel       beamspace MIMO-OFDM synthesis and beamformed link gains
    agent         differential-drive dynamics and waypoint control
    localization  MDP fingerprint database and matching (the twin's sensing)
    simcore       the per-step simulation loop, bus, and trace recording
    metrics       positioning/modeling errors and achievable rates
"""

from .agent import AgentState, Control, Observation, ProcessNoise
from .channel import OfdmParams, TxSignal
from .localization import FingerprintDB, Mdp
from .network import ArrayConfig, NetworkGraph, ResourceAllocation
from .raytrace import PathSet, Pose, PropagationPath
from .scene import Material, Scene, Surface
from .simcore import Bus, ScenarioConfig, TraceRecord, run_simulation

__version__ = "0.1.0"

__all__ = [
    "AgentState", "ArrayConfig", "Bus", "Control", "FingerprintDB", "Material",
    "Mdp", "NetworkGraph", "Observation", "OfdmParams", "PathSet", "Pose",
    "ProcessNoise", "PropagationPath", "ResourceAllocation", "Scene",
    "ScenarioConfig", "Surface", "TraceRecord", "TxSignal", "run_simulation",
    "__version__",
]

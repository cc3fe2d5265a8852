"""Deterministic indoor digital twin for sensing, communications, and robotics.

Submodules, the API (from isactwin import simcore):
    scene         room geometry and materials
    raytrace      image-method multipath solver
    network       graph topology and uniform-power resource allocation
    channel       beamspace MIMO-OFDM synthesis and beamformed link gains
    agent         differential-drive dynamics, the MDP measurement, waypoint control
    localization  MDP fingerprint database and matching (the twin's sensing)
    simcore       the per-step simulation loop, bus, and trace recording
    metrics       the run report (position error, mean rates) and achievable rate

The package imports none of them, so importing it loads no numpy: the command
line sets its BLAS thread defaults first (isactwin.cli).
"""

__version__ = "0.1.0"

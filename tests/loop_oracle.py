"""Slow reference loop: the oracle for ``simcore.sim_step``.

It steps a scenario as README's model describes it, one link, one AP and one
grid point at a time, through the slow reference kernels alone: the scalar
tracer (``raytrace_oracle``), the per-path channel and einsum gains
(``channel_oracle``), the per-path MDP binning and a brute-force
``mdp_distance`` match over the database's positions (``localization_oracle``),
and an MRT beamformer taken from ``np.linalg.svd`` with ``mrt_beamformer``'s
phase convention. It uses the same ``agent`` functions and generator seeds as
the loop, and shares nothing else with ``sim_step``: it reads the scenario's
scene, network and database from ``init_world``, and every link's cells,
power and interferers from the scenario's resource requests. A fingerprint
reads the step's link trace from its AP to the same point, if there is one,
since an MDP reads only delays and powers, which the receiver's yaw and
velocity do not change; it is traced afresh otherwise. Tests compare the
loop against it; nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

import channel_oracle
from isactwin import agent, simcore
from isactwin.localization import Mdp
from isactwin.network import incoming_edges
from isactwin.raytrace import Pose, wrap_angle
from localization_oracle import compute_mdp_per_path, mdp_distance
from raytrace_oracle import trace_paths_scalar

# grid points whose scores lie within this relative distance of the best are a near tie
TIE_RTOL = 1e-9


def mrt(h: np.ndarray) -> np.ndarray:
    """The dominant right singular vector of h, turned so its first nonzero entry is real positive."""
    w = np.linalg.svd(h)[2][0].conj()
    first = w[np.abs(w) > 1e-12][0]
    return w * (first.conjugate() / abs(first))


def run(config, follow=None) -> list:
    """The steps of config's run, each a dict: step, agents (agent id -> dict of the trace CSV's
    agent columns) and rates ((receiver id, transmitter id) -> bits/s/Hz). It stops as the loop does: once every agent is
    past its last waypoint, or after config.max_steps.

    follow maps (step, agent id) to the loop's estimate (x, y): at a near tie the oracle goes on
    from that tied point, so that two matches that round apart do not split the runs."""
    world = simcore.init_world(config)
    scene, graph, db = world.scene, world.graph, world.db
    trace = lambda tx, rx: trace_paths_scalar(scene, tx, rx, config.max_order, config.ofdm.carrier_freq)
    requests = {r.user: r for r in config.requests}
    # room for every (sub-carrier, symbol) cell a request names
    grid_shape = [1 + max(max(getattr(r, name)) for r in config.requests) for name in ("subcarriers", "symbols")]
    links = [(v, q) for v in sorted(a.id for a in config.agents) for q in sorted(incoming_edges(graph, v))]
    agents = {}
    for idx, spec in enumerate(sorted(config.agents, key=lambda a: a.id)):
        agents[spec.id] = {"spec": spec, "pose": spec.initial_pose, "heading": spec.initial_pose.yaw,
                           "control": agent.Control(0.0, 0.0), "index": 0,
                           "rng": np.random.default_rng([config.seed, 11, idx])}
    fp_rng = np.random.default_rng([config.seed, 13])
    noise = config.noise
    steps = []
    for t in range(config.max_steps):
        for aid in sorted(agents):
            a = agents[aid]
            a["pose"] = agent.step_state(a["pose"], a["control"], noise.state_var, a["rng"], config.dt)
            a["heading"] = wrap_angle(a["heading"] + a["control"].omega * config.dt)

        # every link's received power over every requested cell, zero off its transmitter's
        traced, received = {}, {}   # (transmitter, receiver point) -> the link's paths
        for v, q in links:
            request = requests.get(q)
            tx_pose = agents[q]["pose"] if q in agents else graph.nodes[q].pose
            paths = traced[(q, agents[v]["pose"].position.tobytes())] = trace(tx_pose, agents[v]["pose"])
            if request is None or len(paths) == 0:
                continue
            tx_array, rx_array = graph.nodes[q].array, graph.nodes[v].array
            subs, syms = sorted(request.subcarriers), sorted(request.symbols)
            h = channel_oracle.synthesize_channel(paths, tx_array, rx_array, subs[len(subs) // 2], syms[0],
                                                  config.ofdm)
            power = request.power_budget / (len(subs) * len(syms))
            grid = received[(v, q)] = np.zeros(grid_shape)
            grid[np.ix_(subs, syms)] = power * channel_oracle.beamformed_gains(
                paths, tx_array, rx_array, mrt(h), config.ofdm, subs, syms)
        rates = {}
        for v, q in links:
            rates[(v, q)] = 0.0
            if (v, q) in received:
                cells = np.ix_(sorted(requests[q].subcarriers), sorted(requests[q].symbols))
                interference = sum((grid for (vv, qq), grid in received.items() if vv == v and qq != q),
                                   np.zeros_like(received[(v, q)]))
                snr = received[(v, q)][cells] / (noise.noise_power_w + interference[cells])
                rates[(v, q)] = float(np.mean(np.log2(1.0 + snr)))

        rows = {}
        for aid in sorted(agents):
            a = agents[aid]
            pose = a["pose"]
            fp_pose = Pose(pose.position + (*noise.map_offset, 0.0))
            mdps = {}
            for ap_id in db.ap_ids:
                key = (ap_id, fp_pose.position.tobytes())
                paths = traced[key] if key in traced else trace(graph.nodes[ap_id].pose, fp_pose)
                mdps[ap_id] = compute_mdp_per_path(paths, db.bin_width, db.num_bins)
            obs = agent.observe(mdps, noise.fingerprint_snr_db, fp_rng)
            scores = np.array([sum(mdp_distance(obs[ap_id], Mdp(db.bins[i, j], db.bin_width))
                                   for j, ap_id in enumerate(db.ap_ids)) for i in range(len(db.positions))])
            best = int(np.argmin(scores))
            near = np.flatnonzero(scores <= scores[best] * (1.0 + TIE_RTOL))
            if len(near) > 1 and follow is not None:   # a near tie: the loop's choice, if it is one of them
                best = next((i for i in near if np.array_equal(db.positions[i, :2], follow[(t, aid)])), best)
            est = db.positions[best]
            a["control"], a["index"] = agent.waypoint_control(est, a["heading"], a["spec"].waypoints, a["index"],
                                                              **a["spec"].gains)
            rows[aid] = {"true_x": float(pose.position[0]), "true_y": float(pose.position[1]),
                         "true_yaw": pose.yaw, "est_x": float(est[0]), "est_y": float(est[1]),
                         "loc_score": float(scores[best]), "v_cmd": a["control"].v,
                         "w_cmd": a["control"].omega}
        steps.append({"step": t, "agents": rows, "rates": rates})
        if all(a["index"] == len(a["spec"].waypoints) for a in agents.values()):
            break
    return steps

#!/bin/sh
# Smoke checks of the isactwin console script on the shipped scenario: the four commands run end
# to end, and validate, build-db and run refuse a bad scenario or output path, and run a stale
# database, with exit 1 and exactly one stderr line, "error: ...".
#
#   scripts/cli_smoke.sh [scratch dir]
#
# Needs `isactwin` on PATH (python -m pip install -e .). Writes only under the scratch dir, a
# new temporary directory by default.
set -eu
cd "$(dirname "$0")/.."
tmp=${1:-$(mktemp -d)}

isactwin validate scenarios/desk_two_ap.json
isactwin build-db scenarios/desk_two_ap.json --out "$tmp/desk.fpdb"
isactwin run scenarios/desk_two_ap.json --max-steps 5 --out "$tmp/t.csv"
isactwin eval "$tmp/t.csv"
# the commands run on one BLAS thread unless the environment sets a count; a count the user sets
# is kept, and it changes no bit of the database or the trace
OPENBLAS_NUM_THREADS=2 isactwin build-db scenarios/desk_two_ap.json --out "$tmp/desk_threads.fpdb"
OPENBLAS_NUM_THREADS=2 isactwin run scenarios/desk_two_ap.json --max-steps 5 --out "$tmp/t_threads.csv"
cmp "$tmp/desk.fpdb" "$tmp/desk_threads.fpdb"
cmp "$tmp/t.csv" "$tmp/t_threads.csv"

# edit STATEMENTS: run the statements on the scenario (d) and scene (s) in $tmp/case
# edited STATEMENTS: a fresh copy of the shipped scenario and scene in $tmp/case, edited
case=$tmp/case
edit() {
    python3 -c '
import json, sys
paths = [sys.argv[1] + "/desk_two_ap.json", sys.argv[1] + "/desk_box.scene.json"]
d, s = (json.load(open(p)) for p in paths)
exec(sys.argv[2])
for p, doc in zip(paths, (d, s)):
    json.dump(doc, open(p, "w"))
' "$case" "$1"
}
edited() {
    rm -rf "$case"
    mkdir "$case"
    cp scenarios/desk_two_ap.json scenarios/desk_box.scene.json "$case/"
    edit "$1"
}
# refused ARGS: isactwin ARGS fails with one stderr line "error: ...", which is passed on to stderr
refused() {
    if isactwin "$@" 2> "$tmp/refused.err"; then
        echo "cli_smoke: isactwin $* should have failed" >&2
        exit 1
    fi
    if [ "$(wc -l < "$tmp/refused.err")" -ne 1 ] || ! grep -q '^error: ' "$tmp/refused.err"; then
        echo "cli_smoke: isactwin $* was not refused with exactly one error: line:" >&2
        cat "$tmp/refused.err" >&2
        exit 1
    fi
    cat "$tmp/refused.err" >&2
}

# a misspelled key is an error, not a silent default
edited 'd["noise"]["fingerprint_snr"] = 20'
refused validate "$case/desk_two_ap.json"
# so is a negative seed, which numpy would refuse only once the run starts
edited 'd["sim"]["seed"] = -1'
refused validate "$case/desk_two_ap.json"
# and a fractional integer field, which int() would truncate
edited 'd["sim"]["max_steps"] = 2.5'
refused validate "$case/desk_two_ap.json"
# and a boolean where a number belongs, which float() would read as a 1 Hz carrier
edited 'd["ofdm"]["carrier_hz"] = True'
refused validate "$case/desk_two_ap.json"
# and an empty db path, which names the scenario's own directory
edited 'd["db"]["path"] = ""'
refused validate "$case/desk_two_ap.json"
# and a pose on the robot's node, which would be ignored: the agent drives the node
edited 'd["network"]["nodes"][2]["pose"] = {"position": [0.2, 0.2, 0.08]}'
refused validate "$case/desk_two_ap.json"
refused run "$case/desk_two_ap.json" --max-steps 2 --out "$tmp/agent_pose.csv"
if [ -e "$case/artifacts" ] || [ -e "$tmp/agent_pose.csv" ]; then
    echo "cli_smoke: a refused agent-node pose left files behind" >&2
    exit 1
fi
# and a receiver that no agent drives, which the run would ignore
edited 'd["network"]["nodes"].append({"id": "probe", "role": "rx", "array": {"elements": 2},
                                     "pose": {"position": [0.3, 0.3, 0.08]}})
d["network"]["edges"].append(["ap1", "probe"])'
refused validate "$case/desk_two_ap.json"
# and a static transmitter outside the room, whose paths would enter through a wall
edited 'd["network"]["nodes"][0]["pose"]["position"] = [1.5, 0.07, 0.6]'
refused validate "$case/desk_two_ap.json"
# and the same transmitter inside scene bounds widened past the wall x = 1: it is behind that wall
edited 's["bounds"]["max"][0] = 2.0'
isactwin validate "$case/desk_two_ap.json"
edited 's["bounds"]["max"][0] = 2.0; d["network"]["nodes"][0]["pose"]["position"] = [1.5, 0.07, 0.6]'
refused validate "$case/desk_two_ap.json"
# a db.build grid too large to build is counted, not allocated: terabytes at a spacing of 1e-7 m,
# more points than numpy can index at 1e-300 m or, with no ROI, with bounds out to 1e300 m; with
# an ROI only the floor lattice's block that spans it is counted and built
edited 'd["db"]["build"]["spacing_m"] = 1e-7'
refused validate "$case/desk_two_ap.json"
edited 'd["db"]["build"]["spacing_m"] = 1e-300'
refused validate "$case/desk_two_ap.json"
edited 's["bounds"]["max"][0] = 1e300; del d["db"]["build"]["roi_m"]'
refused build-db "$case/desk_two_ap.json"
edited 's["bounds"]["max"][0] = 1e300'
isactwin build-db "$case/desk_two_ap.json" --out "$tmp/wide.fpdb"
# a vertex out at 1e300 m overflows its plane; the bounds check reports it, with no warning first
edited 's["surfaces"][0]["vertices"][0][0] = 1e300'
refused validate "$case/desk_two_ap.json"
# and a database build whose only transmitter is the agent has no AP to fingerprint from
edited 'n = d["network"]; n["nodes"] = [dict(n["nodes"][2], role="txrx")]; n["edges"] = []
n["resources"]["users"] = []'
refused validate "$case/desk_two_ap.json"
refused run "$case/desk_two_ap.json" --max-steps 2 --out "$tmp/no_ap.csv"

# a free-standing panel is an occluder, not a wall: every trace maps its bounces back to the real
# frame for the occlusion pass, which no benchmark workload runs; build-db writes the scenario's
# database, and run loads it
edited 's["surfaces"].append({"vertices": [[0.77, 0.3, 0.05], [0.77, 0.5, 0.05], [0.77, 0.5, 0.45],
                                           [0.77, 0.3, 0.45]], "material": "aluminum"})'
isactwin validate "$case/desk_two_ap.json"
isactwin build-db "$case/desk_two_ap.json"
isactwin run "$case/desk_two_ap.json" --max-steps 5 --out "$tmp/panel.csv"

# a database whose grid db.build no longer gives is refused before the run writes a trace
edited ''
isactwin build-db "$case/desk_two_ap.json"
edit 'd["db"]["build"]["roi_m"][0] = 0.2'
refused run "$case/desk_two_ap.json" --max-steps 2 --out "$tmp/stale.csv" 2> "$tmp/stale.err"
if ! grep -q "different db.build settings" "$tmp/stale.err" || [ -e "$tmp/stale.csv" ]; then
    echo "cli_smoke: a run on a stale database was not refused as one, or wrote a trace:" >&2
    cat "$tmp/stale.err" >&2
    exit 1
fi

# an --out that names a directory is refused before any work: no database is built or written
edited ''
mkdir "$tmp/outdir"
refused run "$case/desk_two_ap.json" --max-steps 2 --out "$tmp/outdir"
refused build-db "$case/desk_two_ap.json" --out "$tmp/outdir"
if [ -e "$case/artifacts" ] || [ -n "$(ls -A "$tmp/outdir")" ]; then
    echo "cli_smoke: a refused --out left files behind" >&2
    exit 1
fi
echo "cli_smoke: ok"

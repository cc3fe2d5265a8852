#!/bin/sh
# Smoke checks of the isactwin console script on the shipped scenario: the four commands run end
# to end, and validate, build-db and run refuse a bad scenario or output path with exit 1.
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

# edited STATEMENTS: a fresh copy of the shipped scenario (d) and scene (s) in $tmp/case, edited
case=$tmp/case
edited() {
    rm -rf "$case"
    mkdir "$case"
    cp scenarios/desk_two_ap.json scenarios/desk_box.scene.json "$case/"
    python3 -c '
import json, sys
paths = [sys.argv[1] + "/desk_two_ap.json", sys.argv[1] + "/desk_box.scene.json"]
d, s = (json.load(open(p)) for p in paths)
exec(sys.argv[2])
for p, doc in zip(paths, (d, s)):
    json.dump(doc, open(p, "w"))
' "$case" "$1"
}
refused() {
    if isactwin "$@"; then
        echo "cli_smoke: isactwin $* should have failed" >&2
        exit 1
    fi
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
# and a static transmitter outside the room, whose paths would enter through a wall
edited 'd["network"]["nodes"][0]["pose"]["position"] = [1.5, 0.07, 0.6]'
refused validate "$case/desk_two_ap.json"
# and the same transmitter inside scene bounds widened past the wall x = 1: it is behind that wall
edited 's["bounds"]["max"][0] = 2.0'
isactwin validate "$case/desk_two_ap.json"
edited 's["bounds"]["max"][0] = 2.0; d["network"]["nodes"][0]["pose"]["position"] = [1.5, 0.07, 0.6]'
refused validate "$case/desk_two_ap.json"

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

#!/bin/sh
# Smoke checks of the installed isactwin console script on the shipped scenario: the four commands
# run end to end and leave the scenario and scene files as they were, a BLAS thread count the user
# sets changes no output bit, a refused scenario is exit 1 with exactly one stderr line,
# "error: ...", and nothing is written into the checkout.
# Each refusal case itself is a Tier-1 test through isactwin.cli.main.
#
#   scripts/cli_smoke.sh [scratch dir]
#
# Needs `isactwin` on PATH (python -m pip install -e .). Writes only under the scratch dir, a
# new temporary directory by default.
set -eu
cd "$(dirname "$0")/.."
tmp=${1:-$(mktemp -d)}

# edited STATEMENTS: a fresh copy of the shipped scenario (d) in $tmp/case, edited by the statements
case=$tmp/case
edited() {
    rm -rf "$case"
    mkdir "$case"
    cp scenarios/desk_two_ap.json scenarios/desk_box.scene.json "$case/"
    python3 -c '
import json, sys
path = sys.argv[1] + "/desk_two_ap.json"
d = json.load(open(path))
exec(sys.argv[2])
json.dump(d, open(path, "w"))
' "$case" "$1"
}

# the four commands end to end on a fresh copy, so run builds and reads the scenario's database in
# $tmp/case, never in the checkout
shipped_db=scenarios/artifacts/desk_two_ap.fpdb
[ -e "$shipped_db" ] && had_shipped_db=1 || had_shipped_db=0
edited ''
rm -rf "$tmp/inputs"
cp -R "$case" "$tmp/inputs"
isactwin validate "$case/desk_two_ap.json"
isactwin build-db "$case/desk_two_ap.json" --out "$tmp/desk.fpdb"
isactwin run "$case/desk_two_ap.json" --max-steps 5 --out "$tmp/t.csv"
isactwin eval "$tmp/t.csv"
for name in desk_two_ap.json desk_box.scene.json; do
    cmp "$tmp/inputs/$name" "$case/$name"
done
# the commands run on one BLAS thread unless the environment sets a count; a count the user sets
# is kept, and it changes no bit of the database or the trace
OPENBLAS_NUM_THREADS=2 isactwin build-db "$case/desk_two_ap.json" --out "$tmp/desk_threads.fpdb"
OPENBLAS_NUM_THREADS=2 isactwin run "$case/desk_two_ap.json" --max-steps 5 --out "$tmp/t_threads.csv"
cmp "$tmp/desk.fpdb" "$tmp/desk_threads.fpdb"
cmp "$tmp/t.csv" "$tmp/t_threads.csv"

# refused EDIT WHAT: the scenario edited by EDIT must be refused by validate with exit 1 and exactly
# one stderr line, "error: ..."
refused() {
    edited "$1"
    if isactwin validate "$case/desk_two_ap.json" 2> "$tmp/refused.err"; then
        echo "cli_smoke: $2 was not refused" >&2
        exit 1
    fi
    if [ "$(wc -l < "$tmp/refused.err")" -ne 1 ] || ! grep -q '^error: ' "$tmp/refused.err"; then
        echo "cli_smoke: $2 was not refused with exactly one error: line:" >&2
        cat "$tmp/refused.err" >&2
        exit 1
    fi
}
# a misspelled key is an error, not a silent default; a value outside its schema rule is refused
refused 'd["noise"]["fingerprint_snr"] = 20' "a misspelled key"
refused 'd["sim"]["dt_s"] = 0' "a zero dt_s"
# an integer too large for a float fits the number shape, and float() of it would raise
refused 'd["sim"]["dt_s"] = 10**400' "an integer dt_s past the float range"
# a bin window that ends before the shortest line-of-sight delay would give an all-zero database
refused 'd["db"]["build"]["bin_width_s"] = 1e-15' "an empty bin window"

if [ "$had_shipped_db" = 0 ] && [ -e "$shipped_db" ]; then
    echo "cli_smoke: the smoke run wrote $shipped_db into the checkout" >&2
    exit 1
fi
echo "cli_smoke: ok"

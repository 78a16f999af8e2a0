#!/usr/bin/env bash
# Tier-1 check of the committed export goldens: the 4-node Perfetto and
# stats JSON of both protocols against golden/trace_harness_4.sha256,
# and the default sim_harness and table_3_1 output against their text
# goldens.
#
# Usage: golden_exports.sh <sim_harness> <table_3_1> <golden dir>

set -euo pipefail

harness="$1"
table="$2"
golden="$(cd "$3" && pwd)"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

for proto in update invalidate; do
    "$harness" --nodes=4 --protocol="$proto" \
        --trace-out="$out/trace_$proto.json" \
        --stats-out="$out/stats_$proto.json" > /dev/null
done
(cd "$out" && sha256sum --check --quiet "$golden/trace_harness_4.sha256")

"$harness" --nodes=16 > "$out/harness.txt"
diff "$golden/sim_harness_16.txt" "$out/harness.txt"
"$table" > "$out/table.txt"
diff "$golden/table_3_1.txt" "$out/table.txt"
echo "exports match golden/"

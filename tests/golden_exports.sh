#!/usr/bin/env bash
# Tier-1 check of the committed goldens: the 4-node Perfetto and stats
# JSON of both protocols against golden/trace_harness_4.sha256, the
# default sim_harness output, one full paper_results sweep against the
# 12 golden/<experiment>.txt files joined in declared order, and the
# fault and crash-recovery sweep against golden/chaos_sweep_8.txt.
#
# Usage: golden_exports.sh <sim_harness> <paper_results> <golden dir>
#                          <chaos_sweep>

set -euo pipefail

harness="$1"
papers="$2"
golden="$(cd "$3" && pwd)"
chaos="$4"
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

# The order of paperResults() in bench/paper_results.cpp.
for name in table_2_1 figure_2_1 table_3_1 figure_3_1 table_3_2_lock \
    ablation_copylist ablation_network ablation_depths ablation_fence \
    ablation_snoop placement_policies production_replication; do
    cat "$golden/$name.txt"
done > "$out/expected.txt"
"$papers" > "$out/papers.txt"
diff "$out/expected.txt" "$out/papers.txt"

"$chaos" --nodes=8 --seeds=2 --kill-node=7@2000 > "$out/chaos.txt"
diff "$golden/chaos_sweep_8.txt" "$out/chaos.txt"
echo "exports match golden/"

#!/usr/bin/env bash
# Continuous-integration driver for the PLUS simulator.
#
#   1. tier-1:     regular build + full test suite
#   2. sanitize:   ASan+UBSan build (PLUS_SANITIZE=ON) + full test suite
#   3. tidy:       clang-tidy over src/ — FATAL when the tool is present
#                  (per-file exit codes aggregated; one failing TU fails
#                  the stage), skipped with a warning when it is absent
#   4. lint:       scripts/pluslint.py determinism-contract analysis over
#                  src/ (rules R1-R5, see docs/STATIC_ANALYSIS.md); fails
#                  on any unbaselined finding, then self-tests the linter
#                  against the known-bad corpus in tests/lint_corpus
#   5. format:     clang-format --dry-run --Werror over src/ and include/
#                  (skipped with a warning when the tool is absent)
#   6. trace:      telemetry smoke test — run a 4-node workload with
#                  --trace-out/--stats-out, validate both as JSON, compare
#                  both exports under each protocol with the sums in
#                  golden/trace_harness_4.sha256, and check that tracing
#                  leaves bench output bit-identical
#   7. determinism: both engine backends must produce byte-for-byte
#                  identical bench output — the full matrix is
#                  {wheel, heap} x {update, invalidate}, the heap run
#                  diffed against the wheel run of the same protocol —
#                  and stray PLUS_ENGINE/PLUS_PROTOCOL variables must
#                  leave the default output equal to golden/
#   8. protocols:  per-protocol suites — tests/test_protocol, then
#                  bench/protocol_shootout (both protocols, checker on,
#                  each must win at least one sharing pattern) with the
#                  JSON output schema validated
#   9. perf-smoke: micro_sim BM_FiberSwitch, fail if the best of 3
#                  fiber resume+yield round trips is over 200 ns; then
#                  engine_throughput --quick --micro-only, fail if the
#                  wheel runs the micro mix less than 3.0x as fast as
#                  the priority-queue baseline measured in the same
#                  process, on each of 3 attempts
#  10. chaos:      chaos_sweep under fixed fault seeds (drop 1%, dup 1%,
#                  corrupt 0.5%, mixed + transient link kill) — every
#                  run must reproduce the fault-free memory image, and
#                  with the injector disabled the output of paper_results
#                  and sim_harness must stay byte-identical to the
#                  committed golden/ files under both engine backends
#  11. recovery:   node-crash chaos matrix — the recovery unit tests,
#                  then chaos_sweep --kill-node on wheel and heap; every
#                  run must leave the surviving replicas mutually
#                  consistent and the post-recovery image hash
#                  byte-identical across backends
#  12. prof:       host-time profiler gates — a profiled run must record
#                  every serial phase, and the profiler-on overhead on
#                  the wheel micro benchmark must stay under 3% (best
#                  of 5)
#  13. tsan:       ThreadSanitizer build of the code that runs machines on
#                  several host threads (bench/sweep.hpp): test_sweep, then
#                  paper_results table_3_1 table_2_1 ablation_snoop diffed
#                  against their joined goldens
#
# Usage: scripts/ci.sh [tier1|sanitize|tidy|lint|format|trace|determinism|
#                       protocols|perf-smoke|chaos|recovery|prof|tsan|all]
#                      (default: all)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

# Sanitizer dispositions are exported process-wide so every child —
# ctest *and* the bench binaries the later stages run out of whatever
# build tree is current — aborts on the first report instead of printing
# and carrying on.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

run_tier1() {
    echo "=== tier-1: build + ctest ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_sanitize() {
    echo "=== sanitize: ASan+UBSan build + ctest ==="
    cmake -B build-asan -S . -DPLUS_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

run_tidy() {
    echo "=== tidy: clang-tidy over src/ (fatal) ==="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "WARNING: clang-tidy not installed; stage skipped"
        return 0
    fi
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN
    # One clang-tidy invocation per TU so every exit code is observed;
    # failures are aggregated in a file (xargs batching with -n 8 hid
    # per-file status on xargs implementations that only report 123).
    find src -name '*.cpp' -print0 |
        xargs -0 -P "$JOBS" -I{} sh -c \
            'clang-tidy -p build --quiet "$1" || echo "$1" >> "$2"' \
            _ {} "$out/failed"
    if [ -s "$out/failed" ]; then
        echo "clang-tidy FAILED for:"
        sort "$out/failed" | sed 's/^/  - /'
        return 1
    fi
    echo "clang-tidy clean over $(find src -name '*.cpp' | wc -l) TUs"
}

run_lint() {
    echo "=== lint: pluslint determinism contract over src/ ==="
    python3 scripts/pluslint.py
    echo "--- linter self-test against tests/lint_corpus"
    python3 tests/lint_corpus/driver.py
}

run_format() {
    echo "=== format: clang-format check over src/ + include/ ==="
    if ! command -v clang-format >/dev/null 2>&1; then
        echo "WARNING: clang-format not installed; stage skipped"
        return 0
    fi
    find src include -name '*.cpp' -o -name '*.hpp' | sort |
        xargs clang-format --dry-run --Werror
    echo "clang-format clean"
}

run_trace() {
    echo "=== trace: telemetry export smoke test ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target sim_harness paper_results
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    build/bench/sim_harness --nodes=4 \
        --trace-out="$out/trace.json" --stats-out="$out/stats.json"
    python3 - "$out/trace.json" "$out/stats.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty trace"
assert any(e.get("ph") == "s" for e in events), "no flow events"
assert any(e.get("pid", 0) >= 1000 for e in events), "no link tracks"
stats = json.load(open(sys.argv[2]))
assert stats["metrics"]["counters"], "no counters"
assert stats["traffic"]["perLink"], "no link traffic"
print(f"trace OK: {len(events)} events")
EOF

    # The 4-node Perfetto and stats exports are pinned byte for byte per
    # protocol. After an intended output change, regenerate the sums by
    # running these commands and `sha256sum trace_update.json
    # stats_update.json trace_invalidate.json stats_invalidate.json` in
    # the output directory.
    local proto golden="$PWD/golden/trace_harness_4.sha256"
    for proto in update invalidate; do
        build/bench/sim_harness --nodes=4 --protocol="$proto" \
            --trace-out="$out/trace_$proto.json" \
            --stats-out="$out/stats_$proto.json" > /dev/null
    done
    (cd "$out" && sha256sum --check --quiet "$golden")
    echo "trace and stats exports match golden/trace_harness_4.sha256"

    # Telemetry must never perturb the simulation.
    build/bench/paper_results table_3_1 > "$out/plain.txt"
    build/bench/paper_results table_3_1 --trace-out="$out/t.json" \
        --stats-out="$out/s.json" > "$out/traced.txt"
    diff "$out/plain.txt" "$out/traced.txt"
    echo "bench output bit-identical with telemetry enabled"
}

run_determinism() {
    echo "=== determinism: backend x protocol matrix, byte-for-byte ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target sim_harness paper_results
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The heap oracle must reproduce the wheel output exactly, under
    # both coherence protocols (byte-identity is per protocol: update
    # and invalidate legitimately differ from each other, see
    # docs/PROTOCOLS.md).
    local proto eng
    for proto in update invalidate; do
        for eng in wheel heap; do
            build/bench/paper_results table_3_1 --engine="$eng" \
                --protocol="$proto" > "$out/${eng}_table.txt"
            build/bench/sim_harness --nodes=16 --engine="$eng" \
                --protocol="$proto" > "$out/${eng}_harness.txt"
        done
        echo "--- $proto: heap vs wheel"
        diff "$out/wheel_table.txt" "$out/heap_table.txt"
        diff "$out/wheel_harness.txt" "$out/heap_harness.txt"
    done
    echo "both engine backends are cycle-for-cycle identical per protocol"

    # Engine and protocol are chosen only by config and CLI flags; the
    # environment must not reach them.
    PLUS_ENGINE=heap PLUS_PROTOCOL=invalidate \
        build/bench/sim_harness --nodes=16 > "$out/env_harness.txt"
    diff golden/sim_harness_16.txt "$out/env_harness.txt"
    echo "PLUS_ENGINE/PLUS_PROTOCOL leave default output at golden/"
}

run_protocols() {
    echo "=== protocols: per-protocol suites + the shootout gate ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target test_protocol protocol_shootout
    build/tests/test_protocol
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN
    # The shootout runs every sharing pattern under both protocols with
    # the per-protocol invariant checker on, and exits non-zero unless
    # each protocol wins at least one pattern.
    build/bench/protocol_shootout --out="$out/protocols.json"
    python3 - "$out/protocols.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
winners = {p["winner"] for p in d["patterns"].values()}
assert winners == {"write-update", "write-invalidate"}, winners
print(f"shootout JSON OK: {len(d['patterns'])} patterns, both protocols win")
EOF
}

run_perf_smoke() {
    echo "=== perf-smoke: fiber switch + engine throughput gates ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target engine_throughput micro_sim
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # Fiber switch gate: every simulated cost is one resume+yield round
    # trip. The hand-written stack switch takes about 70 ns on a 4-vCPU
    # Xeon; a switch that makes a system call again (swapcontext's
    # signal-mask save took 600-700 ns there) fails. Best of 3.
    echo "--- fiber switch: resume+yield round trip"
    build/bench/micro_sim --benchmark_filter=BM_FiberSwitch \
        --benchmark_format=json --benchmark_repetitions=3 \
        > "$out/fiber.json"
    python3 - "$out/fiber.json" <<'EOF'
import json, sys
runs = [b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b["run_type"] == "iteration"]
assert runs and all(b["time_unit"] == "ns" for b in runs), runs
best = min(b["real_time"] for b in runs)
print(f"fiber round trip: {best:.1f} ns (best of {len(runs)})")
assert best <= 200.0, \
    f"fiber resume+yield round trip {best:.1f} ns > 200 ns"
print("fiber switch gate OK")
EOF

    # The wheel gate is a ratio measured in one process, so it does not
    # depend on the host's speed: engine_throughput interleaves 40 short
    # runs each of the wheel and of the priority-queue engine it replaced
    # and keeps each side's best, so host load slows both alike. On a
    # shared 4-vCPU Xeon the wheel ran the micro mix 3.1-3.8x as fast as
    # the baseline, idle or loaded, with a rare outlier down to 2.7x; a
    # build whose wheel was made 25% slower measured 2.5-2.8x. So the
    # floor is 3.0x, and a miss gets two more attempts before the stage
    # fails.
    echo "--- engine: wheel over priority-queue baseline"
    local attempt
    for attempt in 1 2 3; do
        build/bench/engine_throughput --quick --micro-only \
            --out="$out/bench.json" > /dev/null
        if python3 - "$out/bench.json" <<'EOF'
import json, sys
now = json.load(open(sys.argv[1]))
speedup = now["speedup"]
print(f"wheel {now['wheelEventsPerSec']:.3g} ev/s, baseline "
      f"{now['baselineEventsPerSec']:.3g} ev/s: {speedup:.2f}x")
assert speedup >= 3.0, \
    f"wheel under 3.0x the priority-queue baseline: {speedup:.2f}x"
print("wheel gate OK")
EOF
        then
            return 0
        fi
        echo "perf-smoke: wheel gate missed on attempt $attempt"
    done
    echo "perf-smoke: wheel gate failed on all attempts" >&2
    return 1
}

run_chaos() {
    echo "=== chaos: fault sweep + fault-free golden check ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target chaos_sweep sim_harness \
        paper_results
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # 4 scenarios x 2 seeds = 8 faulty runs, each checked against the
    # fault-free oracle image, plus the watchdog partition demo.
    build/bench/chaos_sweep --nodes=8 --seeds=2

    # The fault machinery must be invisible when disabled: bench output
    # stays byte-identical to the committed goldens on every backend.
    # Every paper result (tables, figures, ablations, placement,
    # production replication) has a committed golden/<name>.txt; a bare
    # paper_results prints them all, in this order.
    local name eng
    for name in table_2_1 figure_2_1 table_3_1 figure_3_1 table_3_2_lock \
        ablation_copylist ablation_network ablation_depths ablation_fence \
        ablation_snoop placement_policies production_replication; do
        cat "golden/$name.txt"
    done > "$out/papers_golden.txt"
    for eng in wheel heap; do
        build/bench/paper_results --engine="$eng" > "$out/papers.txt"
        diff "$out/papers_golden.txt" "$out/papers.txt"
        build/bench/sim_harness --nodes=16 --engine="$eng" \
            > "$out/harness.txt"
        diff golden/sim_harness_16.txt "$out/harness.txt"
    done
    echo "fault-free path byte-identical to golden/ on every backend"
}

run_recovery() {
    echo "=== recovery: node-crash chaos matrix ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target chaos_sweep test_recovery
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The recovery unit tests carry the fine-grained assertions:
    # dead-node purge, surviving-replica consistency, degraded serving
    # of lost pages, and the wheel/heap image identity.
    build/tests/test_recovery

    # Crash the end node of a 1x8 line mid-run on each backend. Every
    # run self-checks (survivor image vs oracle, replica consistency),
    # the whole output must match golden/chaos_sweep_8.txt, and the
    # combined post-recovery image hash — memory words, elapsed cycles,
    # and epoch outcomes — must be byte-identical across backends.
    local eng
    for eng in wheel heap; do
        echo "--- fail-stop sweep: $eng"
        build/bench/chaos_sweep --nodes=8 --seeds=2 --kill-node=7@2000 \
            --engine="$eng" | tee "$out/sweep_$eng.txt"
        diff golden/chaos_sweep_8.txt "$out/sweep_$eng.txt"
        grep "fail-stop image hash" "$out/sweep_$eng.txt" \
            > "$out/hash_$eng.txt"
    done
    diff "$out/hash_wheel.txt" "$out/hash_heap.txt"
    echo "post-recovery image byte-identical across backends and golden/"
}

run_prof() {
    echo "=== prof: host-time profiler breakdown + overhead gate ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target engine_throughput
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # A profiled run must attribute host time to every serial phase.
    echo "--- profiled run"
    build/bench/engine_throughput --quick --prof-out="$out/prof.json" \
        --out=/dev/null >/dev/null
    python3 - "$out/prof.json" <<'EOF'
import json, sys
prof = json.load(open(sys.argv[1]))
assert prof["enabled"], "profiler not enabled despite --prof-out"
phases = {name for t in prof["threads"] for name in t["phases"]}
for name in ("engine.run", "proc.dispatch", "proto.handle", "net.deliver"):
    assert name in phases, f"no {name} phase recorded"
print(f"profile OK: phases {sorted(phases)}")
EOF

    # Overhead gate: the serial wheel micro benchmark with profiling
    # enabled must stay within 3% of the disabled run. The bench runs 40
    # adjacent disabled/enabled pairs of short repetitions in one process
    # and reports the median of the pairs' throughput ratios: the host's
    # speed drifts in phases, which a pair shares but a best-of-each
    # comparison does not. A miss gets two more attempts before the
    # stage fails.
    echo "--- overhead gate (profiler off vs on, median of 40 pairs)"
    local attempt
    for attempt in 1 2 3; do
        build/bench/engine_throughput --prof-overhead \
            --out="$out/overhead.json"
        if python3 - "$out/overhead.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
print(f"wheel micro: {d['offEventsPerSec']:.3g} ev/s off, "
      f"{d['onEventsPerSec']:.3g} ev/s on "
      f"({d['overheadPct']:.2f}% overhead)")
assert d["overheadPct"] <= 3.0, \
    f"profiler-on overhead exceeds 3%: {d['overheadPct']:.2f}%"
print("prof overhead gate OK")
EOF
        then
            return 0
        fi
        echo "prof: overhead gate missed on attempt $attempt"
    done
    echo "prof: overhead gate failed on all attempts" >&2
    return 1
}

run_tsan() {
    echo "=== tsan: ThreadSanitizer over the multi-threaded sweep ==="
    cmake -B build-tsan -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
    cmake --build build-tsan -j "$JOBS" --target test_sweep paper_results
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    build-tsan/tests/test_sweep
    # figure_2_1 is left out: its TSan run grows past 5 GB of RSS.
    local name
    for name in table_3_1 table_2_1 ablation_snoop; do
        cat "golden/$name.txt"
    done > "$out/expected.txt"
    build-tsan/bench/paper_results table_3_1 table_2_1 ablation_snoop \
        > "$out/papers.txt"
    diff "$out/expected.txt" "$out/papers.txt"
    echo "no TSan report; sweep output matches golden/"
}

case "$STAGE" in
    tier1)       run_tier1 ;;
    sanitize)    run_sanitize ;;
    tidy)        run_tidy ;;
    lint)        run_lint ;;
    format)      run_format ;;
    trace)       run_trace ;;
    determinism) run_determinism ;;
    protocols)   run_protocols ;;
    perf-smoke)  run_perf_smoke ;;
    chaos)       run_chaos ;;
    recovery)    run_recovery ;;
    prof)        run_prof ;;
    tsan)        run_tsan ;;
    all)         run_tier1; run_sanitize; run_tidy; run_lint; run_format
                 run_trace; run_determinism; run_protocols; run_perf_smoke
                 run_chaos; run_recovery; run_prof; run_tsan ;;
    *)
        echo "unknown stage '$STAGE'" \
             "(want tier1|sanitize|tidy|lint|format|trace|determinism|" \
             "protocols|perf-smoke|chaos|recovery|prof|tsan|all)" >&2
        exit 2
        ;;
esac

echo "ci: $STAGE OK"

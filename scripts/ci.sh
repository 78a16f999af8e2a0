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
#                  golden/trace_harness_4.sha256, check that tracing
#                  leaves bench output bit-identical, and that a stray
#                  PLUS_PROTOCOL variable leaves the default output equal
#                  to golden/
#   7. protocols:  per-protocol suites — tests/test_protocol, then
#                  bench/protocol_shootout (both protocols, checker on,
#                  each must win at least one sharing pattern) with the
#                  JSON output schema validated
#   8. perf-smoke: in its own RelWithDebInfo tree (build-perf/, shared
#                  with prof): micro_sim BM_FiberSwitch, fail if the best of 3
#                  fiber resume+yield round trips is over 200 ns; then
#                  engine_throughput --quick --micro-only, fail if the
#                  wheel runs the micro mix less than 3.0x as fast as
#                  the priority-queue baseline measured in the same
#                  process, on each of 3 attempts
#   9. chaos:      chaos_sweep under fixed fault seeds (drop 1%, dup 1%,
#                  corrupt 0.5%, mixed + transient link kill) — every
#                  run must reproduce the fault-free memory image, and
#                  with the injector disabled the output of paper_results
#                  and sim_harness must stay byte-identical to the
#                  committed golden/ files
#  10. recovery:   node-crash chaos matrix — the recovery unit tests,
#                  then chaos_sweep --kill-node; every run must leave the
#                  surviving replicas mutually consistent, and the output
#                  must match golden/chaos_sweep_8.txt
#  11. prof:       host-time profiler gates, built in build-perf/ like
#                  perf-smoke — a profiled run must record
#                  every serial phase, and the profiler-on overhead on
#                  the wheel micro benchmark must stay under 3% (median
#                  of 40 paired ratios, on one of 3 attempts)
#  12. tsan:       ThreadSanitizer build of the code that runs machines on
#                  several host threads (bench/sweep.hpp): test_sweep, then
#                  paper_results table_3_1 table_2_1 ablation_snoop diffed
#                  against their joined goldens
#
# Usage: scripts/ci.sh [tier1|sanitize|tidy|lint|format|trace|protocols|
#                       perf-smoke|chaos|recovery|prof|tsan|all]
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

    # The protocol is chosen only by config and CLI flags; the
    # environment must not reach it.
    PLUS_PROTOCOL=invalidate \
        build/bench/sim_harness --nodes=16 > "$out/env_harness.txt"
    diff golden/sim_harness_16.txt "$out/env_harness.txt"
    echo "PLUS_PROTOCOL leaves default output at golden/"
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

# The perf gates' floors were calibrated on a RelWithDebInfo build, and a
# Release (-O3) tree read the unmodified wheel at 2.85-3.23x against the
# 3.0x floor. So perf-smoke and prof configure their own tree with that
# build type, whatever build/ was last configured as, and print it.
PERF_BUILD=build-perf
build_perf() {
    cmake -B "$PERF_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    echo "perf build: $PERF_BUILD, CMAKE_BUILD_TYPE=$(sed -n \
        's/^CMAKE_BUILD_TYPE:STRING=//p' "$PERF_BUILD/CMakeCache.txt")"
    cmake --build "$PERF_BUILD" -j "$JOBS" --target "$@"
}

run_perf_smoke() {
    echo "=== perf-smoke: fiber switch + engine throughput gates ==="
    build_perf engine_throughput micro_sim
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # Fiber switch gate: every simulated cost is one resume+yield round
    # trip. The hand-written stack switch takes about 70 ns on a 4-vCPU
    # Xeon; a switch that makes a system call again (swapcontext's
    # signal-mask save took 600-700 ns there) fails. Best of 3.
    echo "--- fiber switch: resume+yield round trip"
    "$PERF_BUILD"/bench/micro_sim --benchmark_filter=BM_FiberSwitch \
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
    # depend on the host's speed: engine_throughput runs the wheel and
    # the priority-queue engine it replaced as 40 adjacent pairs of short
    # runs with alternating order, and `speedup` is the median of the
    # pairs' wheel/baseline ratios. The host's speed drifts in phases,
    # which a pair shares but a best-of-each comparison does not.
    # On a shared 4-vCPU Xeon the unmodified wheel read 3.2-3.7x over 20
    # runs; a build whose wheel a spin loop made 25% slower read
    # 2.5-2.7x and missed all 3 attempts in 3 of 3 stage runs, while
    # best-of-each once read 3.8x on that same build.
    # So the floor is 3.0x, and a miss gets two more attempts before the
    # stage fails.
    echo "--- engine: wheel over priority-queue baseline"
    local attempt
    for attempt in 1 2 3; do
        "$PERF_BUILD"/bench/engine_throughput --quick --micro-only \
            --out="$out/bench.json" > /dev/null
        if python3 - "$out/bench.json" <<'EOF'
import json, sys
now = json.load(open(sys.argv[1]))
speedup = now["speedup"]
print(f"wheel {now['wheelEventsPerSec']:.3g} ev/s, baseline "
      f"{now['baselineEventsPerSec']:.3g} ev/s (best of each); "
      f"median of paired ratios {speedup:.2f}x")
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
    # stays byte-identical to the committed goldens.
    # Every paper result (tables, figures, ablations, placement,
    # production replication) has a committed golden/<name>.txt; a bare
    # paper_results prints them all, in this order.
    local name
    for name in table_2_1 figure_2_1 table_3_1 figure_3_1 table_3_2_lock \
        ablation_copylist ablation_network ablation_depths ablation_fence \
        ablation_snoop placement_policies production_replication; do
        cat "golden/$name.txt"
    done > "$out/papers_golden.txt"
    build/bench/paper_results > "$out/papers.txt"
    diff "$out/papers_golden.txt" "$out/papers.txt"
    build/bench/sim_harness --nodes=16 > "$out/harness.txt"
    diff golden/sim_harness_16.txt "$out/harness.txt"
    echo "fault-free path byte-identical to golden/"
}

run_recovery() {
    echo "=== recovery: node-crash chaos matrix ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target chaos_sweep test_recovery
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The recovery unit tests carry the fine-grained assertions:
    # dead-node purge, surviving-replica consistency and degraded
    # serving of lost pages.
    build/tests/test_recovery

    # Crash the end node of a 1x8 line mid-run. Every run self-checks
    # (survivor image vs oracle, replica consistency), and the whole
    # output, including the combined post-recovery image hash (memory
    # words, elapsed cycles and epoch outcomes), must match
    # golden/chaos_sweep_8.txt.
    build/bench/chaos_sweep --nodes=8 --seeds=2 --kill-node=7@2000 \
        | tee "$out/sweep.txt"
    diff golden/chaos_sweep_8.txt "$out/sweep.txt"
    echo "post-recovery image matches golden/"
}

run_prof() {
    echo "=== prof: host-time profiler breakdown + overhead gate ==="
    build_perf engine_throughput
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # A profiled run must attribute host time to every serial phase.
    echo "--- profiled run"
    "$PERF_BUILD"/bench/engine_throughput --quick \
        --prof-out="$out/prof.json" --out=/dev/null >/dev/null
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
        "$PERF_BUILD"/bench/engine_throughput --prof-overhead \
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
    protocols)   run_protocols ;;
    perf-smoke)  run_perf_smoke ;;
    chaos)       run_chaos ;;
    recovery)    run_recovery ;;
    prof)        run_prof ;;
    tsan)        run_tsan ;;
    all)         run_tier1; run_sanitize; run_tidy; run_lint; run_format
                 run_trace; run_protocols; run_perf_smoke
                 run_chaos; run_recovery; run_prof; run_tsan ;;
    *)
        echo "unknown stage '$STAGE'" \
             "(want tier1|sanitize|tidy|lint|format|trace|protocols|" \
             "perf-smoke|chaos|recovery|prof|tsan|all)" >&2
        exit 2
        ;;
esac

echo "ci: $STAGE OK"

#!/usr/bin/env bash
# check.sh — the repository's full verification gate (tier 1+).
#
# Runs formatting, vet, build, the custom lfolint analyzer, the full test
# suite, the examples, the golden-table diff, the benchmark module's own vet and tests,
# and the race detector over the concurrent packages. Every step must pass; the script exits
# non-zero on the first failure, so it is directly usable as a CI gate.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '== %s\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "lfolint ./..."
go run ./cmd/lfolint ./...

# One run of the suite, with coverage on: the floors further down read
# their figures from this output instead of testing those packages again.
step "go test -cover ./..."
cover_out=$(mktemp)
trap 'rm -f "$cover_out"' EXIT
go test -cover ./... | tee "$cover_out"

# The examples document the façade, and building them proves only that
# they compile: run both, and check that the quickstart reads its last
# window's report from the metrics registry.
step "examples"
go run ./examples/quickstart | grep '^4 windows trained; the last: 15000 samples' ||
    { echo "quickstart printed no registry line" >&2; exit 1; }
go run ./examples/predictionserver >/dev/null

# Every lfobench table is a pure function of its flags (no figure reads a
# clock), so the whole quick-scale output is a committed file. A change
# that moves a cell shows here as a diff; one that means to regenerates
# the file in the same commit:
#   go run ./cmd/lfobench -fig all -scale quick -seeds 3 -repeats 1 -workers 1 > testdata/lfobench_quick.golden
step "lfobench golden tables (about a minute)"
go run ./cmd/lfobench -fig all -scale quick -seeds 3 -repeats 1 -workers 1 |
    diff -u testdata/lfobench_quick.golden -

# bench/ is its own module (the repository benchmark, BENCHMARK.json)
# compiling against internal/core, evict, sim, server and fleet; the root
# "./..." never builds it, so an internal signature change could break the
# benchmark unseen.
step "bench module: go vet + go test"
(cd bench && go vet ./... && go test ./...)

# The three deploy-lag tests are skipped here: the -count 3 step below runs
# them, and TestDeployLagDeterministic alone takes 100-120 s under -race.
step "go test -race (concurrent packages)"
go test -race -skip '^(TestDeployLagDeterministic|TestEarlyRetrainAwaitsRoundInFlight|TestAsyncDroppedWindowCounted)$' \
    ./internal/server ./internal/fleet ./internal/faultnet \
    ./internal/tiered ./internal/sim ./internal/par ./internal/pq \
    ./internal/gbdt ./internal/features ./internal/core ./internal/opt \
    ./internal/obs ./internal/evict \
    ./internal/policy/ogd ./internal/drift

# A lagged handoff trains in a goroutine while requests are served; rerun
# its tests a few times so the race detector sees several schedules.
step "go test -race -count 3 (deploy lag)"
go test -race -count 3 -run 'DeployLag|EarlyRetrainAwaits|AsyncDropped' ./internal/core

# Coverage floors on the serving path, where the chaos/fuzz suites are the
# main guard, on gbdt and opt, whose reference trainer, pointer-walk and
# min-cost flow oracles are, on evict and core, whose lock-step picks,
# refactor pins and invariant replays are, on the figure harness, whose golden tables
# are, and on the analyzer, whose golden fixtures are its only guard: a
# silent drop in what they exercise should fail the gate. Each figure is
# the one the suite run above printed for the package.
cover_floor() {
    pkg=$1 floor=$2
    pct=$(awk -v p="lfo/${pkg#./}" '$2 == p {for (i = 1; i <= NF; i++) if ($i == "coverage:") {gsub("%", "", $(i+1)); print $(i+1)}}' "$cover_out")
    if [ -z "$pct" ]; then
        echo "no coverage figure for $pkg" >&2
        exit 1
    fi
    awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p+0 >= f+0) }' || {
        echo "coverage for $pkg is ${pct}%, below the ${floor}% floor" >&2
        exit 1
    }
    printf '   %s: %s%% (floor %s%%)\n' "$pkg" "$pct" "$floor"
}
step "go test -cover floors"
cover_floor ./internal/server 85
cover_floor ./internal/fleet 80
cover_floor ./internal/faultnet 70
cover_floor ./internal/evict 95
cover_floor ./internal/core 90
cover_floor ./internal/gbdt 95
cover_floor ./internal/opt 95
cover_floor ./internal/tiered 90
cover_floor ./internal/policy 90
cover_floor ./internal/policy/ogd 80
cover_floor ./internal/drift 80
cover_floor ./internal/experiments 88
cover_floor ./internal/lint 90
cover_floor ./internal/lint/flow 90

# Alloc-budget regression gate over the pinned hot-path benchmarks. The
# budgets in testdata/alloc_budgets.txt are exact current figures; any
# increase fails. The gate is self-tested first: fabricated output one
# alloc over budget must fail, so a broken parser cannot silently pass.
step "alloc budgets (self-test)"
synth_bench() { # fabricate bench output with every budget shifted by $1
    awk -v delta="$1" '!/^[ \t]*#/ && NF { printf "%s-8 100 10 ns/op 0 B/op %d allocs/op\n", $1, $2 + delta }' \
        testdata/alloc_budgets.txt
}
if ! synth_bench 0 | awk -v budgets=testdata/alloc_budgets.txt -f scripts/allocgate.awk >/dev/null; then
    echo "allocgate self-test failed: at-budget output was rejected" >&2
    exit 1
fi
if synth_bench 1 | awk -v budgets=testdata/alloc_budgets.txt -f scripts/allocgate.awk >/dev/null 2>&1; then
    echo "allocgate self-test failed: +1 allocs/op regression was not caught" >&2
    exit 1
fi

step "alloc budgets"
{
    go test -run '^$' \
        -bench '^(BenchmarkPredict|BenchmarkFlatPredict|BenchmarkPredictStable|BenchmarkPredictStableAdvance|BenchmarkPredictMatrix|BenchmarkCompile|BenchmarkRunRequestLoop|BenchmarkRequestObs|BenchmarkRouterEnqueueFlush|BenchmarkServeAdmitBatch|BenchmarkClientAdmit|BenchmarkPickVictim|BenchmarkHeuristicRequest|BenchmarkOGDRequest|BenchmarkS4LRURequest|BenchmarkLFORequest)$' \
        -benchmem -benchtime 200x ./internal/gbdt ./internal/sim ./internal/obs ./internal/fleet ./internal/server ./internal/evict ./internal/policy/ogd ./internal/policy ./internal/core
    # The tracker's stream sub-benchmark warms itself before its timer
    # starts; cold tracks a new object every iteration, and the handful of
    # slab chunks and index-map doublings that takes rounds to zero where
    # one heap object per tracked object would read 1.
    go test -run '^$' -bench '^BenchmarkFeatureTracking$/^(stream|cold)$' -benchmem -benchtime 200x ./internal/features
    # One Train is a quarter of a second and allocates the same number of
    # objects every time; ten iterations are enough that the handful the
    # test binary itself allocates per run divides away to the exact figure.
    go test -run '^$' -bench '^BenchmarkTrainWindow$' -benchmem -benchtime 10x ./internal/gbdt
    # One exact labelling of a default_flow window by the sweep, cycling
    # four windows: two rounds; one greedy labelling of an admit_rank
    # window, ten rounds. Their budgets have headroom for the two
    # request-index maps, whose overflow buckets vary with the hash seed.
    go test -run '^$' -bench '^BenchmarkFlowWindow$' -benchmem -benchtime 8x ./internal/opt
    go test -run '^$' -bench '^BenchmarkGreedyWindow$' -benchmem -benchtime 40x ./internal/opt
} | awk -v budgets=testdata/alloc_budgets.txt -f scripts/allocgate.awk

# Short fuzz smoke over the frame codec, the model parser, the scorer, the
# trainer's split scan, the test-side min-cost flow solver and the feature
# tracker (those four against their _test.go oracles), the trainer on rows
# stored without their missing tails (against the dense matrix), the OPT sweep
# (against that min-cost flow), the trace reader (accept implies validates and
# round-trips) and every registered policy (the per-request invariants of
# TestBaselineInvariants over fuzz-drawn valid traces). The
# committed seed corpora under testdata/fuzz always replay; the smoke
# additionally mutates for a few seconds per target. -fuzzminimizetime
# is capped because the engine's default 60s minimization budget would
# otherwise swallow the whole run.
step "fuzz smoke"
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 5s -fuzzminimizetime 5s ./internal/server
go test -run '^$' -fuzz '^FuzzMuxFrameDecode$' -fuzztime 5s -fuzzminimizetime 5s ./internal/server
go test -run '^$' -fuzz '^FuzzModelLoad$' -fuzztime 5s -fuzzminimizetime 5s ./internal/gbdt
go test -run '^$' -fuzz '^FuzzScoreMatchesOracle$' -fuzztime 5s -fuzzminimizetime 5s ./internal/gbdt
go test -run '^$' -fuzz '^FuzzSplitScanMatchesReference$' -fuzztime 5s -fuzzminimizetime 5s ./internal/gbdt
go test -run '^$' -fuzz '^FuzzRowsTrainLikeMatrix$' -fuzztime 5s -fuzzminimizetime 5s ./internal/gbdt
go test -run '^$' -fuzz '^FuzzSolveMatchesReference$' -fuzztime 5s -fuzzminimizetime 5s ./internal/opt
go test -run '^$' -fuzz '^FuzzSweepMatchesFlow$' -fuzztime 5s -fuzzminimizetime 5s ./internal/opt
go test -run '^$' -fuzz '^FuzzTraceRead$' -fuzztime 5s -fuzzminimizetime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzTrackerMatchesReference$' -fuzztime 5s -fuzzminimizetime 5s ./internal/features
go test -run '^$' -fuzz '^FuzzPolicyTrace$' -fuzztime 5s -fuzzminimizetime 5s ./internal/policy

# Informational: the size ROADMAP.md quotes (north star: the same tables
# and numbers from the least code), so its figure can be re-read here.
step "non-test Go lines outside bench/"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

echo "ALL CHECKS PASSED"

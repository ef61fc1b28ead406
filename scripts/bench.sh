#!/usr/bin/env bash
# bench.sh — record the hot-path benchmark suite as a JSON artifact.
#
# Runs the hot-path micro-benchmarks (GBDT train/predict, the compiled
# scorer single-row and per matrix, feature tracking,
# simulator, LFO cache request, serving round trips, fleet router) with
# -benchmem at GOMAXPROCS 1 and 4, then drives a live 1-shard sync vs
# 3-shard router lfoload comparison, and writes BENCH_<date>.json with
# ns/op, B/op, and allocs/op per benchmark plus the fleet load results.
# The JSON is the comparable record: commit it alongside perf changes so
# regressions show up in review.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=2s scripts/bench.sh    # override -benchtime (default 1s)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-BENCH_$(date +%Y-%m-%d).json}
benchtime=${BENCHTIME:-1s}
raw=$(mktemp)
fleetraw=$(mktemp)
tmpdir=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$raw" "$fleetraw" "$tmpdir"
}
trap cleanup EXIT

bench='^(BenchmarkGBDTTrain|BenchmarkTrainWindow|BenchmarkGBDTPredict|BenchmarkFeatureTracking|BenchmarkSimulatorRun|BenchmarkLFOCacheRequest|BenchmarkOPTCompute|BenchmarkFlatPredict|BenchmarkPredictMatrix|BenchmarkCompile|BenchmarkPredictionServerRoundTrip|BenchmarkPredictionServerSingleRow|BenchmarkRouterEnqueueFlush|BenchmarkPickVictim|BenchmarkEvictCacheRequest|BenchmarkGDSFRequest|BenchmarkOGDRequest|BenchmarkOGDLearnerUpdate|BenchmarkDriftObserve|BenchmarkDriftMaxScore)$'

echo "== go test -bench (this takes a few minutes)"
go test -run '^$' -bench "$bench" -benchmem -benchtime "$benchtime" -cpu 1,4 . ./internal/gbdt ./internal/fleet ./internal/evict ./internal/policy ./internal/policy/ogd ./internal/drift | tee "$raw"

# Fleet saturation comparison: the classic one-row-per-RTT sync client
# against one shard vs the pipelined router against three shards, same
# load generator and seed. Both lfoload JSON lines land under "fleet" in
# the artifact; rows_per_sec is the headline.
echo "== lfoload: 1-shard sync vs 3-shard router"
go build -o "$tmpdir/predserve" ./cmd/predserve
go build -o "$tmpdir/lfoload" ./cmd/lfoload

start_shard() { # $1 = shard id; prints the bound address
    local id=$1 log="$tmpdir/shard$1.log" addr i
    shift
    "$tmpdir/predserve" -addr 127.0.0.1:0 -shard-id "$id" "$@" >"$log" 2>&1 &
    pids+=($!)
    for i in $(seq 1 600); do
        addr=$(awk '/listening on/ {print $NF; exit}' "$log" 2>/dev/null || true)
        if [ -n "$addr" ]; then echo "$addr"; return; fi
        sleep 0.1
    done
    echo "shard did not come up; log:" >&2
    cat "$log" >&2
    exit 1
}
# Shard 0 trains the model once and saves it; shards 1-2 load it.
a0=$(start_shard 0 -train-gen cdn -n 20000 -save-model "$tmpdir/model.gob")
a1=$(start_shard 1 -model "$tmpdir/model.gob")
a2=$(start_shard 2 -model "$tmpdir/model.gob")

"$tmpdir/lfoload" -addrs "$a0" -mode sync -clients 4 -rows 3000 -seed 1 | tee -a "$fleetraw"
"$tmpdir/lfoload" -addrs "$a0,$a1,$a2" -mode router -clients 4 -rows 50000 -batch 64 -seed 1 | tee -a "$fleetraw"

awk -v date="$(date +%Y-%m-%d)" -v cpus="$(nproc)" -v benchtime="$benchtime" -v fleetfile="$fleetraw" '
BEGIN { n = 0 }
/^Benchmark/ && /ns\/op/ {
    name = $1
    cpu = 1
    # Trailing -N on the benchmark name is the GOMAXPROCS setting.
    if (match(name, /-[0-9]+$/)) {
        cpu = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    n++
    line = sprintf("    {\"name\": \"%s\", \"gomaxprocs\": %s, \"ns_per_op\": %s", name, cpu, ns)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    results[n] = line
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"hardware_cpus\": %s,\n", cpus
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"note\": \"-cpu sets GOMAXPROCS; wall-clock speedup is bounded by hardware_cpus\",\n"
    printf "  \"results\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", results[i], (i < n ? "," : "")
    printf "  ],\n"
    nf = 0
    while ((getline line < fleetfile) > 0) if (line != "") fleet[++nf] = line
    printf "  \"fleet\": [\n"
    for (i = 1; i <= nf; i++) printf "    %s%s\n", fleet[i], (i < nf ? "," : "")
    printf "  ]\n}\n"
}
' "$raw" > "$out"

# The acceptance headline: pipelined router throughput over the sync
# baseline, from the two lfoload runs above.
awk '
/"mode":"sync"/   { if (match($0, /"rows_per_sec":[0-9.eE+]+/)) sync = substr($0, RSTART + 15, RLENGTH - 15) }
/"mode":"router"/ { if (match($0, /"rows_per_sec":[0-9.eE+]+/)) router = substr($0, RSTART + 15, RLENGTH - 15) }
END { if (sync > 0) printf "router vs sync: %.1fx rows/sec (%.0f vs %.0f)\n", router / sync, router, sync }
' "$fleetraw"

echo "wrote $out"

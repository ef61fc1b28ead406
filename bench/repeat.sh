#!/usr/bin/env bash
# Runs the suite N times twice over (A B A B …) on the same code and checks
# that the two sets agree: for every workload × end-to-end metric it prints
# both sets' median and quartiles and the spread (interquartile distance
# over the median), and exits non-zero when a pair of medians differs by
# more than the metric's bound in BENCHMARK.json, when bhr or ohr of a seed
# differ between its runs, or when an operation failed.
#   bash bench/repeat.sh [N]          N defaults to 5; run i uses seed i
#   SEED=7 bash bench/repeat.sh 5     every run uses seed 7
#   TRACE=1 bash bench/repeat.sh 5    also makes traced runs and demands
#                                     identical count-type layer metrics
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
n="${1:-5}"
out="$here/.bin/repeat"
cd "$root"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for i in $(seq 1 "$n"); do
	seed="${SEED:-$i}"
	for set in A B; do
		for w in $workloads; do
			for trace in 0 ${TRACE:+1}; do
				echo "run $i$set $w seed $seed trace $trace" >&2
				bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" |
					tail -n 1 >"$out/$w.$set.$i.$trace.json"
			done
		done
	done
done
python3 - "$out" "$n" <<'PY'
import json, statistics, sys
out, n = sys.argv[1], int(sys.argv[2])
bm = json.load(open("BENCHMARK.json"))
bad = 0
def load(w, s, i, t):
    return json.load(open(f"{out}/{w}.{s}.{i}.{t}.json"))
def quart(v):
    return statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
for w in [x["name"] for x in bm["workloads"]]:
    runs = {s: [load(w, s, i, 0) for i in range(1, n + 1)] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w}: {r['failed']} of {r['attempted']} operations failed")
                bad += 1
    for m in bm["end_to_end"]:
        name, bound, sign = m["name"], m["bound"], 1 if m["better"] == "lower" else -1
        v = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in "AB"}
        med = {s: statistics.median(v[s]) for s in "AB"}
        q = {s: quart(v[s]) for s in "AB"}
        drift = abs(med["A"] - med["B"]) / med["A"]
        spread = max((q[s][2] - q[s][0]) / med[s] for s in "AB")
        flag = ""
        if drift > bound:
            flag, bad = "  MEDIANS DIFFER BY MORE THAN THE BOUND", bad + 1
        elif name != "setup_s" and spread > bound:
            flag, bad = "  SPREAD EXCEEDS THE BOUND", bad + 1
        if name in ("bhr", "ohr") and v["A"] != v["B"]:
            flag, bad = flag + "  NOT IDENTICAL BETWEEN THE SETS", bad + 1
        print(f"{w:14s} {name:20s} A {med['A']:14.6g} [{q['A'][0]:.6g} {q['A'][2]:.6g}]  "
              f"B {med['B']:14.6g} [{q['B'][0]:.6g} {q['B'][2]:.6g}]  "
              f"drift {100*drift:5.2f}% spread {100*spread:5.2f}% bound {100*bound:.0f}%{flag}")
    try:
        traced = {s: [load(w, s, i, 1) for i in range(1, n + 1)] for s in "AB"}
    except FileNotFoundError:
        continue
    for m in bm["per_layer"]:
        if m["unit"] != "count":
            continue
        a = [r["metrics"][m["name"]]["value"] for r in traced["A"]]
        b = [r["metrics"][m["name"]]["value"] for r in traced["B"]]
        if a != b:
            print(f"FAIL {w}: {m['name']} differs between the sets: {a} vs {b}")
            bad += 1
print("repeat: the two sets agree" if not bad else f"repeat: {bad} checks failed")
sys.exit(1 if bad else 0)
PY

#!/usr/bin/env bash
# Re-measures the benchmark's own repeatability: SETS sets of RUNS runs per
# workload, every run of a set with another --seed (the same seeds in every
# set), then per end-to-end metric the median, the quartiles as Python's
# statistics.quantiles(values, n=4) gives them, the spread (Q3-Q1)/median and
# (max-min)/median of each set, and how far the sets' medians disagree.
#
# It flags
#   - a spread above the metric's bound in BENCHMARK.json (the run is then
#     too noisy to gate on) or above a third of it (too close for comfort),
#   - a (max-min)/median above 0.10,
#   - a bound under twice the disagreement between the sets' medians.
#
#   bash benchmark/calibrate.sh                 # 2 sets x 10 runs, all workloads
#   RUNS=5 SETS=2 bash benchmark/calibrate.sh tcp-serial sim-suite
#
# Results land in .bench_build/calibrate/<workload>.set<k>.jsonl; the table
# goes to standard output. Needs python3 for the statistics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-10}"
sets="${SETS:-2}"
base_seed="${SEED:-1000}"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
out="$root/.bench_build/calibrate"
mkdir -p "$out"

if [ "$#" -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$root/BENCHMARK.json")
fi

for w in "${workloads[@]}"; do
	for ((s = 1; s <= sets; s++)); do
		file="$out/$w.set$s.jsonl"
		: >"$file"
		: >"$file.box"
		for ((r = 0; r < runs; r++)); do
			echo "calibrate: $w set $s run $((r + 1))/$runs" >&2
			log="$(bash "$here/run.sh" --workload "$w" --seed "$((base_seed + r))" --seconds "$seconds" --trace 0)"
			tail -n 1 <<<"$log" >>"$file"
			# The run's own note on stolen CPU time, kept beside the results.
			grep '^box:' <<<"$log" >>"$file.box" || true
		done
	done
done

python3 - "$root/BENCHMARK.json" "$out" "$sets" "${workloads[@]}" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
out, sets, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
flags = 0
for w in workloads:
    runs = []
    for s in range(1, sets + 1):
        with open(f"{out}/{w}.set{s}.jsonl") as f:
            runs.append([json.loads(line) for line in f if line.strip()])
    bad = sum(1 for rs in runs for r in rs if not r["correct"] or r["failed"])
    print(f"\n## {w}: {sets} sets of {len(runs[0])} runs, {bad} runs with failed operations")
    for s in range(1, sets + 1):
        with open(f"{out}/{w}.set{s}.jsonl.box") as f:
            stolen = [float(line.split()[1].rstrip("%")) for line in f if line.strip()]
        if stolen:
            print(f"set {s}: CPU time stolen from the VM per run: median {statistics.median(stolen):.1f}%, max {max(stolen):.1f}%  ")
    print("| metric | unit | bound | " + " | ".join(f"set {s+1}: median [Q1, Q3] spread range" for s in range(sets)) + " | sets disagree | flags |")
    print("|---|---|---|" + "---|" * sets + "---|---|")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells, medians, notes = [], [], []
        for rs in runs:
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread, rng = (q3 - q1) / med, (max(vals) - min(vals)) / med
            medians.append(med)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.4f} {rng:.4f}")
            if name != "setup_s":
                if spread > bound:
                    notes.append("SPREAD>BOUND")
                elif spread > bound / 3:
                    notes.append("spread>bound/3")
                if rng > 0.10:
                    notes.append("range>0.10")
        worse = 0.0
        if sets > 1:
            sign = 1 if m["better"] == "lower" else -1
            worse = max(sign * (b - a) / a for a, b in zip(medians, medians[1:]))
            disagree = max(abs(b - a) / a for a, b in zip(medians, medians[1:]))
            if worse > bound:
                notes.append("SET2-WORSE>BOUND")
            if bound < 2 * disagree:
                notes.append("bound<2x-disagreement")
        else:
            disagree = 0.0
        flags += len(notes)
        print(f"| {name} | {m['unit']} | {bound} | " + " | ".join(cells) + f" | {disagree:.4f} | {' '.join(sorted(set(notes)))} |")
print(f"\n{flags} flags")
PY

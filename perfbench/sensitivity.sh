#!/usr/bin/env bash
# Sensitivity check: does the headline workload separate two commits?
#
#   bash perfbench/sensitivity.sh OLD NEW OUTDIR [RUNS] [SECONDS]
#
# Exports OLD and NEW with `git archive` into OUTDIR, copies this
# directory and BENCHMARK.json into each export, builds the benchmark
# there with -tags perfbench_legacy (headline only; it builds at commits
# that predate the mode registry) and runs `--workload headline` RUNS
# times on each, alternating which commit goes first, with seeds 1..RUNS.
# It prints every run's result line, and per commit the median
# insns_per_s, latency_ms_p50 and setup_s.
set -euo pipefail
old=$1 new=$2 out=$3 runs=${4:-5} secs=${5:-20}
repo=$(git rev-parse --show-toplevel)
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
for c in "$old" "$new"; do
	d="$out/$c"
	rm -rf "$d"
	mkdir -p "$d"
	git -C "$repo" archive "$c" | tar -x -C "$d"
	cp -r "$repo/perfbench" "$d/perfbench"
	cp "$repo/BENCHMARK.json" "$d/"
	(cd "$d/perfbench" && go build -tags perfbench_legacy -o "$d/.bench_build/bin/perfbench" .)
done
results="$out/results.txt"
: >"$results"
for i in $(seq 1 "$runs"); do
	order=("$old" "$new")
	if ((i % 2 == 0)); then order=("$new" "$old"); fi
	for c in "${order[@]}"; do
		line=$(cd "$out/$c" && .bench_build/bin/perfbench --workload headline --seed "$i" --seconds "$secs" --trace 0 | tail -n 1)
		echo "$c $i $line" | tee -a "$results"
	done
done
python3 - "$results" "$old" "$new" <<'EOF'
import json, statistics, sys
path, old, new = sys.argv[1:]
vals = {old: {}, new: {}}
for line in open(path):
    commit, seed, js = line.split(" ", 2)
    r = json.loads(js)
    if not r["correct"]:
        sys.exit(f"{commit} seed {seed}: output checks failed")
    for name, m in r["metrics"].items():
        vals[commit].setdefault(name, []).append(m["value"])
for name, higher_better in (("insns_per_s", True), ("latency_ms_p50", False), ("setup_s", False)):
    a, b = vals[old][name], vals[new][name]
    m_old, m_new = statistics.median(a), statistics.median(b)
    worse = 1 - m_new / m_old if higher_better else m_new / m_old - 1
    print(f"{name}: {old} median {m_old:.6g} {sorted(round(x, 4) for x in a)}")
    print(f"{name}: {new} median {m_new:.6g} {sorted(round(x, 4) for x in b)}")
    print(f"{name}: {new} is {100 * worse:.1f}% worse than {old}")
EOF

#!/bin/sh
# Run the table/figure benchmarks and record ns/op as JSON.
#
# Usage: scripts/bench.sh [-cpuprofile FILE] [-memprofile FILE]
#                         [-ncpu "8 64 ..."] [extra go-test args...]
#
# Writes BENCH_<yyyy-mm-dd>.json at the repo root: a flat object mapping
# benchmark name (trailing -N GOMAXPROCS suffix stripped) to ns/op. Runs
# each benchmark -count=3 and keeps the median so a single noisy run on
# a shared host cannot skew the committed numbers.
#
# -cpuprofile/-memprofile pass straight through to go test; inspect the
# result with
#
#	go tool pprof -top FILE            # hot functions
#	go tool pprof -list SweepDM FILE   # line-level cost of one function
#
# (docs/PERFORMANCE.md walks through the full profiling workflow.)
#
# -ncpu runs the Figure 9 grid once per listed CPU count via
# BenchmarkFig9CPUSweep, recording BenchmarkFig9CPUSweep/<n>cpu entries
# in the JSON — the scaling curve behind docs/PERFORMANCE.md.
set -e
cd "$(dirname "$0")/.."

cpuprofile=
memprofile=
ncpu=
while [ $# -gt 0 ]; do
	case $1 in
	-cpuprofile) cpuprofile=$2; shift 2 ;;
	-memprofile) memprofile=$2; shift 2 ;;
	-ncpu) ncpu=$2; shift 2 ;;
	*) break ;;
	esac
done

[ -n "$memprofile" ] && set -- -memprofile "$memprofile" "$@"
[ -n "$cpuprofile" ] && set -- -cpuprofile "$cpuprofile" "$@"

out="BENCH_$(date +%F).json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

BENCH_NCPU="$ncpu" go test -run '^$' \
	-bench 'BenchmarkTable|BenchmarkFig|BenchmarkAblation|BenchmarkObs|BenchmarkCheckpoint|BenchmarkContextSwitch' \
	-count=3 "$@" . | tee "$raw"

awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	if (!(name in idx)) { idx[name] = ++n; names[n] = name }
	vals[name] = vals[name] " " $3
}
END {
	printf "{\n"
	for (i = 1; i <= n; i++) {
		name = names[i]
		cnt = split(vals[name], v, " ")
		# insertion-sort the handful of samples, take the median
		for (a = 2; a <= cnt; a++) {
			x = v[a]
			for (b = a - 1; b >= 1 && v[b] + 0 > x + 0; b--) v[b+1] = v[b]
			v[b+1] = x
		}
		med = v[int((cnt + 1) / 2)]
		printf "  \"%s\": %d%s\n", name, med, (i < n ? "," : "")
	}
	printf "}\n"
}' "$raw" > "$out"

echo "wrote $out"

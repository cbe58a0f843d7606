#!/bin/sh
# bench_gate.sh — the CI perf-regression gate. Compares the tier-1 query
# hot-path benchmarks between two revisions (or two saved bench outputs)
# benchstat-style: each benchmark is run -count times, medians are
# compared, and the gate FAILS when
#
#   * median ns/op regresses by more than the threshold (default 20%), or
#   * median allocs/op increases at all (the hot path's allocation
#     budget is pinned; any growth is a regression), or
#   * a gated benchmark that existed at the base disappeared.
#
# Modes:
#
#   scripts/bench_gate.sh -r <ref>            # run mode (what CI uses):
#       benchmarks HEAD's working tree and `git merge-base <ref> HEAD`
#       (checked out into a temporary git worktree), then compares.
#   scripts/bench_gate.sh -a base.txt -b head.txt   # compare mode:
#       compares two existing `go test -bench` outputs; used by the
#       gate's own tests to prove it fails on a seeded regression.
#
# Options:
#   -t <frac>   ns/op regression threshold as a fraction (default 0.20)
#   -o <file>   write the comparison report here (default bench-gate.txt)
#   -B <regex>  -bench regex for run mode (default: the tier-1 subset
#               BenchmarkQueryLatency*/BenchmarkSearch*)
#   -c <n>      -count per side in run mode (default 5; medians damp noise)
#   -T <dur>    -benchtime per run (default 0.3s)
#
# Exit status: 0 pass, 1 regression, 2 usage or infrastructure error.
set -eu

usage() {
	echo "usage: $0 -r <base-ref> | -a <base.txt> -b <head.txt>  [-t frac] [-o report] [-B bench-regex] [-c count] [-T benchtime]" >&2
	exit 2
}

BASEREF=""
BASEFILE=""
HEADFILE=""
THRESH="0.20"
OUT="bench-gate.txt"
BENCH='BenchmarkQueryLatency|BenchmarkSearch|BenchmarkQuantizedScan'
COUNT=5
TIME="0.3s"
# The packages holding the gated benchmarks: the root suite (query
# latency + batch), the backend hot paths, the int8 scan kernels, the
# segment scan every LSI query runs through, and the HTTP search
# handler (BenchmarkSearchHandler: decode, search, encode).
PKGS=". ./internal/vsm ./internal/lsi ./internal/quant ./internal/segment ./retrieval/httpapi"

while getopts "r:a:b:t:o:B:c:T:" opt; do
	case $opt in
	r) BASEREF=$OPTARG ;;
	a) BASEFILE=$OPTARG ;;
	b) HEADFILE=$OPTARG ;;
	t) THRESH=$OPTARG ;;
	o) OUT=$OPTARG ;;
	B) BENCH=$OPTARG ;;
	c) COUNT=$OPTARG ;;
	T) TIME=$OPTARG ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[ $# -eq 0 ] || usage

runbench() { # runbench <dir> <outfile>
	# -run '^$' skips tests; compile failures surface as infra errors
	# (exit 2), not regressions. Packages that do not exist at this
	# revision are skipped (a merge-base may predate a gated package;
	# its benchmarks then report as "new" on the head side).
	pkgs=""
	for p in $PKGS; do
		if [ -d "$1/$p" ]; then pkgs="$pkgs $p"; fi
	done
	# shellcheck disable=SC2086 # package list is intentionally word-split
	if ! (cd "$1" && go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$TIME" -count "$COUNT" $pkgs) >"$2" 2>&1; then
		cat "$2" >&2
		echo "bench_gate: benchmark run failed in $1" >&2
		exit 2
	fi
}

CLEANUP=""
WTPARENT=""
cleanup() {
	if [ -n "$CLEANUP" ]; then git worktree remove --force "$CLEANUP" >/dev/null 2>&1 || true; fi
	if [ -n "$WTPARENT" ]; then rm -rf "$WTPARENT" 2>/dev/null || true; fi
	rm -f "$TMPBASE" "$TMPHEAD" 2>/dev/null || true
}
TMPBASE=""
TMPHEAD=""

if [ -n "$BASEREF" ]; then
	[ -z "$BASEFILE$HEADFILE" ] || usage
	MB=$(git merge-base "$BASEREF" HEAD) || {
		echo "bench_gate: cannot resolve merge-base of $BASEREF and HEAD" >&2
		exit 2
	}
	TMPBASE=$(mktemp) && TMPHEAD=$(mktemp)
	WTPARENT=$(mktemp -d)
	CLEANUP=$WTPARENT/base
	trap cleanup EXIT
	echo "bench_gate: benchmarking base $MB ..."
	git worktree add --detach "$CLEANUP" "$MB" >/dev/null
	runbench "$CLEANUP" "$TMPBASE"
	echo "bench_gate: benchmarking HEAD ..."
	runbench "$(pwd)" "$TMPHEAD"
	BASEFILE=$TMPBASE
	HEADFILE=$TMPHEAD
else
	[ -n "$BASEFILE" ] && [ -n "$HEADFILE" ] || usage
	[ -f "$BASEFILE" ] || { echo "bench_gate: no such file: $BASEFILE" >&2; exit 2; }
	[ -f "$HEADFILE" ] || { echo "bench_gate: no such file: $HEADFILE" >&2; exit 2; }
fi

# The comparator: parse both outputs (package-qualified benchmark names,
# since bench names are only unique within a package), take per-name
# medians, and emit a benchstat-style table plus a PASS/FAIL verdict.
awk -v thresh="$THRESH" -v basefile="$BASEFILE" '
function median(arr, n,    i, j, tmp) {
	for (i = 2; i <= n; i++) {       # insertion sort; n is tiny (-count)
		tmp = arr[i]
		for (j = i - 1; j >= 1 && arr[j] > tmp; j--) arr[j + 1] = arr[j]
		arr[j + 1] = tmp
	}
	if (n % 2) return arr[(n + 1) / 2]
	return (arr[n / 2] + arr[n / 2 + 1]) / 2
}
$1 == "pkg:" { pkg = $2; next }
/^Benchmark/ && NF >= 4 {
	side = (FILENAME == basefile) ? "base" : "head"
	name = pkg "." $1
	for (i = 3; i <= NF; i++) {
		if ($i == "ns/op")     { ns[side, name, ++nsN[side, name]] = $(i - 1) }
		if ($i == "allocs/op") { al[side, name, ++alN[side, name]] = $(i - 1) }
	}
	seen[name] = 1
}
END {
	fails = 0
	printf "%-58s %14s %14s %9s  %s\n", "benchmark", "base ns/op", "head ns/op", "delta", "verdict"
	for (name in seen) names[++n] = name
	# Stable report order.
	for (i = 2; i <= n; i++) {
		tmp = names[i]
		for (j = i - 1; j >= 1 && names[j] > tmp; j--) names[j + 1] = names[j]
		names[j + 1] = tmp
	}
	compared = 0
	for (i = 1; i <= n; i++) {
		name = names[i]
		bn = nsN["base", name]; hn = nsN["head", name]
		mbase = 0; mhead = 0
		for (k = 1; k <= bn; k++) b[k] = ns["base", name, k] + 0
		for (k = 1; k <= hn; k++) h[k] = ns["head", name, k] + 0
		if (bn > 0) mbase = median(b, bn)
		if (hn > 0) mhead = median(h, hn)
		if (bn == 0 && hn > 0) {
			printf "%-58s %14s %14.0f %9s  %s\n", name, "-", mhead, "new", "ok (new benchmark)"
			continue
		}
		if (bn > 0 && hn == 0) {
			printf "%-58s %14.0f %14s %9s  %s\n", name, mbase, "-", "gone", "FAIL (benchmark disappeared)"
			fails++
			continue
		}
		delta = (mbase > 0) ? (mhead - mbase) / mbase : 0
		verdict = "ok"
		if (delta > thresh) { verdict = sprintf("FAIL (ns/op +%.1f%% > +%.0f%%)", delta * 100, thresh * 100); fails++ }
		ban = alN["base", name]; han = alN["head", name]
		if (ban > 0 && han > 0) {
			for (k = 1; k <= ban; k++) b[k] = al["base", name, k] + 0
			for (k = 1; k <= han; k++) h[k] = al["head", name, k] + 0
			abase = median(b, ban); ahead = median(h, han)
			if (ahead > abase) {
				verdict = sprintf("FAIL (allocs/op %d -> %d)", abase, ahead)
				fails++
			}
		}
		printf "%-58s %14.0f %14.0f %+8.1f%%  %s\n", name, mbase, mhead, delta * 100, verdict
		compared++
	}
	if (compared == 0 && fails == 0) {
		print "bench_gate: no benchmarks in common between base and head"
		exit 2
	}
	print ""
	if (fails) { printf "bench_gate: FAIL (%d regression(s), threshold +%.0f%% ns/op, any allocs/op growth)\n", fails, thresh * 100; exit 1 }
	printf "bench_gate: PASS (threshold +%.0f%% ns/op, no allocs/op growth)\n", thresh * 100
}
' "$BASEFILE" "$HEADFILE" | tee "$OUT"
# tee swallows awk's exit status; recover the verdict from the report.
if grep -q '^bench_gate: FAIL' "$OUT"; then
	exit 1
elif grep -q '^bench_gate: PASS' "$OUT"; then
	exit 0
else
	exit 2
fi

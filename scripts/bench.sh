#!/usr/bin/env sh
# Generalized benchmark artifact generator: runs the PR's benchmark list
# and emits BENCH_<N>.json — the committed per-PR perf trajectory, one
# schema for every PR (see EXPERIMENTS.md "BENCH_*.json schema").
#
# Usage: scripts/bench.sh <N> [output.json]     (default BENCH_<N>.json)
#
# The benchmark list lives in scripts/benchlists/bench<N>.list:
#   title: <artifact title>
#   <package> <benchmark regex>        # one line per go test invocation
#
# Every benchmark runs three times (-count 3) with one iteration each. The
# JSON takes the median ns/op and jobs/s, and the minimum allocs/op and B/op:
# the first run pays one-time warm-up (cold caches, runtime bookkeeping), so
# a single-shot count would read that warm-up instead of the steady state.
#
# Benchmarks named by an "allocs" rule of .github/bench-tolerance.txt (the
# allocation-gated ones) run a second time at -cpu 1, and their
# allocs_per_op comes from that pass: with more than one P the runtime's
# per-P caches make a one-iteration allocation count wobble by a few
# objects, which a 0% gate would read as a regression. ns/op, jobs/s and
# B/op still come from the default pass.
#
# The JSON also records the host's core count (nproc) and the GOMAXPROCS the
# default pass ran at (gomaxprocs, read from the -N suffix go test appends
# to benchmark names; no suffix means 1).
#
# Environment:
#   BENCH_SHORT=1       pass -short (skips the multi-minute scale gates —
#                       CI's quick artifact regeneration)
#   BENCH_REPO_DIR=dir  run the benchmarks from another checkout (the
#                       bench-regression job points this at the merge-base
#                       worktree while using HEAD's list and emitter)
#   BENCH_RAW_OUT=file  also save the raw `go test -bench` output (the
#                       input benchstat wants)
set -eu
cd "$(dirname "$0")/.."
n="${1:?usage: scripts/bench.sh <N> [output.json]}"
out="${2:-BENCH_${n}.json}"
list="scripts/benchlists/bench${n}.list"
[ -f "$list" ] || { echo "bench: no benchmark list $list" >&2; exit 1; }
repo="${BENCH_REPO_DIR:-.}"
short=""
[ "${BENCH_SHORT:-}" = "1" ] && short="-short"
title=$(sed -n 's/^title: *//p' "$list")
raw="${BENCH_RAW_OUT:-}"
[ -n "$raw" ] || raw=$(mktemp)
raw1=$(mktemp) # the -cpu 1 pass over the allocation-gated benchmarks
trap 'rm -f "$raw1"' EXIT
gated=$(awk '!/^#/ && $1 == "allocs" && NF >= 3 { printf "%s ", $2 }' .github/bench-tolerance.txt)

: >"$raw"
grep -Ev '^title:|^#|^[[:space:]]*$' "$list" | while read -r pkg regex; do
	echo "bench: go test $short -bench '$regex' $pkg (in $repo)" >&2
	(cd "$repo" && go test $short -run '^$' -bench "$regex" \
		-benchtime 1x -count 3 -benchmem -timeout 3600s "$pkg") >>"$raw"
	# The listed top-level benchmarks an allocs rule's prefix names.
	names=$(cd "$repo" && go test -list "$regex" "$pkg" | awk -v gated="$gated" '
		BEGIN { n = split(gated, g, " ") }
		/^Benchmark/ { for (i = 1; i <= n; i++) if (index($1, g[i]) == 1) { print $1; break } }' |
		paste -sd '|' -)
	[ -n "$names" ] || continue
	echo "bench: go test $short -cpu 1 -bench '^($names)\$' $pkg (in $repo)" >&2
	(cd "$repo" && go test $short -run '^$' -bench "^($names)\$" -cpu 1 \
		-benchtime 1x -count 3 -benchmem -timeout 3600s "$pkg") >>"$raw1"
done

awk -v q='"' -v title="$title" -v nproc="$(nproc)" '
# median and minimum pick among the n values v[name, 0..n-1] and return the
# chosen value as printed by go test (awk would reformat a computed number).
function median(v, name, n,    a, i, j, x) {
	for (i = 0; i < n; i++) a[i] = v[name, i]
	for (i = 1; i < n; i++) {
		x = a[i]
		for (j = i - 1; j >= 0 && a[j] + 0 > x + 0; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
	return a[int(n / 2)]
}
function minimum(v, name, n,    i, m) {
	m = v[name, 0]
	for (i = 1; i < n; i++) if (v[name, i] + 0 < m + 0) m = v[name, i]
	return m
}
FNR == 1 { pass++ }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	if (pass == 1 && match(name, /-[0-9]+$/)) gomaxprocs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)
	ns = ""; jobs = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op") ns = v
		else if (u == "jobs/s") jobs = v
		else if (u == "B/op") bytes = v
		else if (u == "allocs/op") allocs = v
	}
	if (ns == "") next
	if (pass == 2) {
		if (allocs != "") allocs1v[name, na1[name]++] = allocs
		next
	}
	if (!(name in runs)) order[bn++] = name
	k = runs[name]++
	nsv[name, k] = ns
	if (jobs != "") jobsv[name, nj[name]++] = jobs
	if (bytes != "") bytesv[name, nb[name]++] = bytes
	if (allocs != "") allocsv[name, na[name]++] = allocs
}
END {
	if (bn == 0) { print "bench: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
	print "{"
	print "  " q "bench" q ": " q title q ","
	print "  " q "goos" q ": " q goos q ", " q "goarch" q ": " q goarch q ","
	print "  " q "cpu" q ": " q cpu q ","
	print "  " q "nproc" q ": " nproc ", " q "gomaxprocs" q ": " (gomaxprocs == "" ? 1 : gomaxprocs) ","
	print "  " q "benchmarks" q ": ["
	for (i = 0; i < bn; i++) {
		name = order[i]
		line = "    {" q "name" q ": " q name q ", " q "ns_per_op" q ": " median(nsv, name, runs[name])
		if (nj[name]) line = line ", " q "jobs_per_s" q ": " median(jobsv, name, nj[name])
		if (nb[name]) line = line ", " q "bytes_per_op" q ": " minimum(bytesv, name, nb[name])
		if (na1[name]) line = line ", " q "allocs_per_op" q ": " minimum(allocs1v, name, na1[name])
		else if (na[name]) line = line ", " q "allocs_per_op" q ": " minimum(allocsv, name, na[name])
		if (match(name, /pacing=[a-z]+/)) {
			pacing = substr(name, RSTART + 7, RLENGTH - 7)
			line = line ", " q "pacing" q ": " q pacing q
		}
		print line "}" (i < bn - 1 ? "," : "")
	}
	print "  ]"
	print "}"
}' "$raw" "$raw1" >"$out"

echo "wrote $out:" >&2
cat "$out" >&2

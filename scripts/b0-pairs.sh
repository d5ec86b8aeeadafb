#!/usr/bin/env bash
# Alternating parent/change passes of the B0 benchmark (benchmark/), with
# a per-metric summary. Usually run through the Makefile:
#
#   make b0-pairs PARENT=<rev> PAIRS=10 SEED=7 SECONDS=10 WORKLOADS="stream_rules stream_hot"
#   scripts/b0-pairs.sh <rev> [pairs] [seed] [seconds] [workloads] [out]
#
# The parent's benchmark is built and run in a temporary git worktree of
# <rev>, the change's in this checkout (uncommitted edits included). Pair i
# runs, for every workload, the parent's end-to-end pass and the change's,
# the parent first in odd pairs and second in even ones. Every pass's
# stdout and stderr is kept under out (default .b0-pairs/<time>/), a
# failed pass included. The summary prints, per workload, the operations
# each side's passes failed and attempted and the passes that produced no
# result, and per end-to-end metric of BENCHMARK.json the parent's median
# and interquartile range, the change's median, the pairs the change won
# out of all pairs run (a pair with a failed pass counts for neither side,
# nor does a tie) and a verdict against the metric's bound in
# BENCHMARK.json, the first of these that holds:
#
#   gain        the change won at least 9 in 10 of the pairs run, its median
#               is better than the parent's by more than the parent's IQR,
#               and it failed no larger share of operations, nor more
#               passes, than the parent;
#   worse       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  the parent's IQR is wider than the bound, and some run of
#               the change reads no better than some run of the parent;
#   within      otherwise.
#
# The IQR and the worsening compare with the bound as fractions of the
# parent's median.
#
# After the pairs, each workload gets three traced passes (--trace 1) per
# side, alternating which side goes first as the pairs do, and a last
# table prints every per-layer metric of BENCHMARK.json as the median of
# the parent's three passes and of the change's. The medians place a
# change in a layer; they are no verdict.
set -euo pipefail
parent=${1:?usage: b0-pairs.sh <parent-rev> [pairs] [seed] [seconds] [workloads] [out]}
pairs=${2:-10} seed=${3:-7} secs=${4:-10} workloads=${5:-stream_rules}
root=$(git rev-parse --show-toplevel)
out=${6:-$root/.b0-pairs/$(date +%Y%m%d-%H%M%S)}
mkdir -p "$out"
tree=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tree"' EXIT
git -C "$root" worktree add --detach --quiet "$tree" "$parent"
echo "parent $(git -C "$tree" rev-parse --short HEAD), change $(git -C "$root" rev-parse --short HEAD)+edits; output in $out"

# pass <side> <dir> <workload> <pair> [trace]
pass() {
	local f="$out/$3.$1.$4"
	if ! (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$seed" --seconds "$secs" --trace "${5:-0}") >"$f.out" 2>"$f.err"; then
		echo "$1 pass $4 of $3 failed: see $f.err" >&2
	fi
}
for ((i = 1; i <= pairs; i++)); do
	for w in $workloads; do
		if ((i % 2)); then
			pass parent "$tree" "$w" "$i" && pass change "$root" "$w" "$i"
		else
			pass change "$root" "$w" "$i" && pass parent "$tree" "$w" "$i"
		fi
	done
done
for i in 1 2 3; do
	for w in $workloads; do
		if ((i % 2)); then
			pass parent "$tree" "$w" "trace$i" 1 && pass change "$root" "$w" "trace$i" 1
		else
			pass change "$root" "$w" "trace$i" 1 && pass parent "$tree" "$w" "trace$i" 1
		fi
	done
done

# value <side> <workload> <pair> <metric>: the metric of one pass, or nothing.
value() { tail -n 1 "$out/$2.$1.$3.out" | jq -r --arg m "$4" '.metrics[$m].value // empty' 2>/dev/null || true; }

# failures <side> <workload>: the operations the side's passes failed and
# attempted, and its passes without a result.
failures() {
	local i r
	for ((i = 1; i <= pairs; i++)); do
		r=$(tail -n 1 "$out/$2.$1.$i.out" 2>/dev/null | jq -er '"\(.failed) \(.attempted) 0"' 2>/dev/null) || r="0 0 1"
		echo "$r"
	done | awk '{ f += $1; a += $2; x += $3 } END { print f + 0, a + 0, x + 0 }'
}

printf '%-13s %-19s %13s %11s %13s %6s  %s\n' workload metric parent_median parent_IQR change_median won verdict
for w in $workloads; do
	read -r pf pa px < <(failures parent "$w")
	read -r cf ca cx < <(failures change "$w")
	printf '%-13s failed operations: parent %d of %d, change %d of %d; passes without a result: parent %d, change %d\n' \
		"$w" "$pf" "$pa" "$cf" "$ca" "$px" "$cx"
	# morefail: the change failed a larger share of operations, or more passes.
	morefail=$(( cf * pa > pf * ca || (pa == 0 && cf > 0) || cx > px ))
	jq -r '.end_to_end[] | "\(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" | while read -r m better bound; do
		for ((i = 1; i <= pairs; i++)); do
			p=$(value parent "$w" "$i" "$m") c=$(value change "$w" "$i" "$m")
			echo "${p:--} ${c:--}"
		done | awk -v w="$w" -v m="$m" -v better="$better" -v bound="$bound" -v morefail="$morefail" '
			function sort(a, n,   i, j, x) { for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j+1] = a[j]; a[j+1] = x } }
			function q(a, n, f,   h, k) { h = (n - 1) * f + 1; k = int(h); return k >= n ? a[n] : a[k] + (h - k) * (a[k+1] - a[k]) }
			# rel is x as a fraction of the parent median.
			function rel(x) { return pm != 0 ? x / (pm < 0 ? -pm : pm) : (x > 0 ? bound + 1 : 0) }
			{ run++ }
			$1 == "-" || $2 == "-" { next }
			{ n++; p[n] = $1; c[n] = $2; if ((better == "lower") ? $2 < $1 : $2 > $1) won++ }
			END {
				if (n == 0) { printf "%-13s %-19s %13s\n", w, m, "no pairs"; exit }
				sort(p, n); sort(c, n)
				pm = q(p, n, .5); iqr = q(p, n, .75) - q(p, n, .25); cm = q(c, n, .5)
				gained = (better == "lower") ? pm - cm : cm - pm # positive when the change is better
				dominates = (better == "lower") ? c[n] < p[1] : c[1] > p[n] # every change run reads better
				if (10 * won >= 9 * run && gained > iqr && !morefail) verdict = "gain"
				else if (rel(-gained) > bound) verdict = "worse"
				else if (rel(iqr) > bound && !dominates) verdict = "unresolved"
				else verdict = "within"
				printf "%-13s %-19s %13.6g %11.4g %13.6g %3d/%d  %s\n", w, m, pm, iqr, cm, won, run, verdict
			}'
	done
done

# The traced passes: every per-layer metric, the median of each side's
# passes side by side.
median() {
	local i
	for i in 1 2 3; do value "$1" "$2" "trace$i" "$3"; done |
		sort -g | awk '{ v[NR] = $1 } END { if (NR) printf "%.6g", NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; else printf "-" }'
}
printf '\ntraced passes, median of three per side\n%-13s %-34s %13s %13s\n' workload metric parent change
for w in $workloads; do
	jq -r '.per_layer[].name' "$root/BENCHMARK.json" | while read -r m; do
		printf '%-13s %-34s %13s %13s\n' "$w" "$m" "$(median parent "$w" "$m")" "$(median change "$w" "$m")"
	done
done

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
# failed pass included. The summary prints, per workload and end-to-end
# metric of BENCHMARK.json, the parent's median and interquartile range,
# the change's median and the pairs the change won; a pair with a failed
# pass counts in neither.
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

# pass <side> <dir> <workload> <pair>
pass() {
	local f="$out/$3.$1.$4"
	if ! (cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$seed" --seconds "$secs" --trace 0) >"$f.out" 2>"$f.err"; then
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

# value <side> <workload> <pair> <metric>: the metric of one pass, or nothing.
value() { tail -n 1 "$out/$2.$1.$3.out" | jq -r ".metrics.$4.value // empty" 2>/dev/null || true; }

printf '%-13s %-19s %13s %11s %13s %6s\n' workload metric parent_median parent_IQR change_median won
for w in $workloads; do
	jq -r '.end_to_end[] | "\(.name) \(.better)"' "$root/BENCHMARK.json" | while read -r m better; do
		for ((i = 1; i <= pairs; i++)); do
			p=$(value parent "$w" "$i" "$m") c=$(value change "$w" "$i" "$m")
			if [[ -n $p && -n $c ]]; then echo "$p $c"; fi
		done | awk -v w="$w" -v m="$m" -v better="$better" '
			function sort(a, n,   i, j, x) { for (i = 2; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && a[j] > x; j--) a[j+1] = a[j]; a[j+1] = x } }
			function q(a, n, f,   h, k) { h = (n - 1) * f + 1; k = int(h); return k >= n ? a[n] : a[k] + (h - k) * (a[k+1] - a[k]) }
			{ n++; p[n] = $1; c[n] = $2; if ((better == "lower") ? $2 < $1 : $2 > $1) won++ }
			END {
				if (n == 0) { printf "%-13s %-19s %13s\n", w, m, "no pairs"; exit }
				sort(p, n); sort(c, n)
				printf "%-13s %-19s %13.6g %11.4g %13.6g %3d/%d\n", w, m, q(p, n, .5), q(p, n, .75) - q(p, n, .25), q(c, n, .5), won, n
			}'
	done
done

#!/usr/bin/env bash
# Records paired benchmark runs of two checkouts for bench/compare.
#
#   bash bench/record.sh OUT.json DIR_A DIR_B "SEEDS_A" ["SEEDS_B"]
#
# For the i-th seed of each list and every workload (or only those in
# $WORKLOADS), it runs checkout A and checkout B back to back with
# `bash bench/run.sh` from each checkout's root, alternating which runs
# first, for the run_seconds of DIR_A's BENCHMARK.json. SEEDS_B defaults
# to SEEDS_A. Give the same directory twice to record two sets of the
# same code. OUT.json receives the machine description and every run's
# result line, tagged with set "a" or "b":
#
#   go run ./compare -parent OUT.json:a -change OUT.json:b   # from bench/
set -euo pipefail

if [ $# -lt 4 ]; then
	sed -n '2,/^set/p' "$0" | sed '$d' >&2
	exit 2
fi
out=$1
dir_a=$(cd "$2" && pwd)
dir_b=$(cd "$3" && pwd)
read -r -a seeds_a <<<"$4"
read -r -a seeds_b <<<"${5:-$4}"
if [ ${#seeds_a[@]} -ne ${#seeds_b[@]} ]; then
	echo "record.sh: the seed lists differ in length" >&2
	exit 2
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$dir_a/BENCHMARK.json")
workloads=${WORKLOADS:-$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' "$dir_a/BENCHMARK.json")}

# one SET DIR WORKLOAD SEED prints one run record.
one() {
	local line
	line=$(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1) || true
	case $line in
	'{"correct"'*) ;;
	*) line='{"correct":false,"attempted":0,"failed":1,"metrics":{}}' ;;
	esac
	printf '{"set":"%s","workload":"%s","seed":%s,"result":%s}' "$1" "$3" "$4" "$line"
}

{
	printf '{"machine":{"nproc":%s,"cpu":"%s","fs":"%s","kernel":"%s","go":"%s"},"run_seconds":%s,"runs":[\n' \
		"$(nproc)" "$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)" \
		"$(df -T "$dir_a" | awk 'NR == 2 { print $2 }')" "$(uname -r)" "$(go env GOVERSION)" "$seconds"
	sep=
	for i in "${!seeds_a[@]}"; do
		for w in $workloads; do
			if [ $((i % 2)) -eq 0 ]; then
				ra=$(one a "$dir_a" "$w" "${seeds_a[$i]}")
				rb=$(one b "$dir_b" "$w" "${seeds_b[$i]}")
			else
				rb=$(one b "$dir_b" "$w" "${seeds_b[$i]}")
				ra=$(one a "$dir_a" "$w" "${seeds_a[$i]}")
			fi
			printf '%s%s,\n%s' "$sep" "$ra" "$rb"
			sep=$',\n'
		done
	done
	printf '\n]}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"

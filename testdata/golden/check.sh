#!/bin/sh
# Regenerates the golden CLI outputs and diffs them against the committed
# copies in this directory. They pin what the sigbench golden does not: the
# ablation alternates, every cache-sweep row, the fetch sweep and the
# pipeline-diagram render. With -update the committed copies are rewritten.
#
#	testdata/golden/check.sh           # from the repo root
#	testdata/golden/check.sh -update
set -eu
dir=$(dirname "$0")
bin=$(mktemp -d)
out=$(mktemp -d)
trap 'rm -rf "$bin" "$out"' EXIT
go build -o "$bin/" ./cmd/sigtables ./cmd/sigsim
"$bin/sigtables" >"$out/sigtables.txt" 2>/dev/null
"$bin/sigtables" -exp fetch >"$out/sigtables-fetch.txt" 2>/dev/null
"$bin/sigtables" -json >"$out/sigtables.json" 2>/dev/null
"$bin/sigsim" -bench dijkstra -model skewed+bypass -pipe 12 >"$out/sigsim-dijkstra-skewed-bypass-pipe12.txt"
"$bin/sigsim" -bench dijkstra -model dualc4 -pipe 12 >"$out/sigsim-dijkstra-dualc4-pipe12.txt"
if [ "${1:-}" = "-update" ]; then
	cp "$out"/* "$dir/"
	exit 0
fi
status=0
for f in "$out"/*; do
	if ! diff -u "$dir/$(basename "$f")" "$f"; then
		status=1
	fi
done
exit $status

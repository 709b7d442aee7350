#!/bin/sh
# benchcheck.sh — same-machine perf gate for the engine hot paths:
#   sh scripts/benchcheck.sh BASE_REF
# Builds the root package's test binary twice, once from BASE_REF (extracted
# with `git archive`, so nothing is written into .git) and once from the
# working tree, then alternates 5 pairs of BenchmarkExchangeThroughput,
# BenchmarkSoCRunThroughput (BlitzCoin's SoC path) and
# BenchmarkSoCRunCentralized (the centralized schemes' SoC path) runs with
# -benchmem, flipping which side runs first every pair. benchjson gates the
# median per-pair ratio (working tree over base) of ns/op and allocs/op at
# 1.20 and names any benchmark and metric above it. Needs BASE_REF in the
# local history; run nothing else meanwhile.
set -eu

ref=${1:?usage: benchcheck.sh BASE_REF}
pairs=5
benches='^(BenchmarkExchangeThroughput|BenchmarkSoCRunThroughput|BenchmarkSoCRunCentralized)$'

workdir=$(mktemp -d)
trap 'status=$?; rm -rf "$workdir"; exit $status' EXIT INT TERM

sha=$(git rev-parse --short "$ref^{commit}")
echo "benchcheck: building base $sha and the working tree"
mkdir "$workdir/base"
git archive "$sha" | tar -x -C "$workdir/base"
(cd "$workdir/base" && go test -c -o "$workdir/base.test" .)
go test -c -o "$workdir/head.test" .
go build -o "$workdir/benchjson" ./cmd/benchjson

run() {
    "$workdir/$1.test" -test.run '^$' -test.bench "$benches" -test.benchmem \
        -test.count 1 | grep '^Benchmark' >>"$workdir/$1.txt"
}
i=1
while [ "$i" -le "$pairs" ]; do
    echo "benchcheck: pair $i/$pairs"
    if [ $((i % 2)) -eq 1 ]; then
        run base
        run head
    else
        run head
        run base
    fi
    i=$((i + 1))
done

"$workdir/benchjson" -sha "$sha" -out "$workdir/base.json" <"$workdir/base.txt" >/dev/null
"$workdir/benchjson" -baseline "$workdir/base.json" -max-regress 0.20 \
    -bench BenchmarkExchangeThroughput,BenchmarkSoCRunThroughput,BenchmarkSoCRunCentralized <"$workdir/head.txt"

#!/usr/bin/env bash
# Checks that the benchmark agrees with itself: two interleaved sets of N
# untraced runs of every workload on this checkout, compared by
# `bench -compare`, which prints ok, worse or unresolved per (workload,
# metric) and exits non-zero unless every pair is ok.
#
#   bash bench/agree.sh [N]    # N defaults to 5
#
# Run it from the repository root. Run i of both sets uses seed i, and
# the sets alternate which goes first, so host drift hits both alike.
set -euo pipefail

n=${1:-5}
out="$PWD/.bench_build/agree"
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$n"); do
    for w in corpus devil faults short; do
        if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
        for set in $order; do
            bash bench/run.sh --workload "$w" --seed "$i" --trace 0 \
                --out "$out/$set/$w-$i" > "$out.log" || { cat "$out.log"; exit 1; }
            tail -n 1 "$out.log"
        done
    done
done
bash bench/run.sh -compare "$out/a" "$out/b"

#!/bin/sh
# check_docs.sh — the docs smoke check CI runs:
#
#  1. every internal/ package must carry a package comment in a non-test
#     file, so `go doc` gives a one-paragraph orientation per package;
#  2. every examples/* binary must build and run cleanly against the
#     simulated hardware;
#  3. the driverlab -h banner must name every embedded driver, so the
#     corpus (including newly added pairs) stays discoverable from the
#     CLI without reading the source;
#  4. every metric family the instrumented stack can register (the
#     `driverlab metrics` list) must be documented in ARCHITECTURE.md's
#     Observability section, and every `driverlab_*` row of that
#     section's metric table must be in the list, so a deleted family
#     cannot linger in the docs;
#  5. every registered hardware scenario (the `driverlab scenarios
#     -names` list) must be named in both ARCHITECTURE.md and README.md,
#     so the matrix axis stays discoverable from the docs;
#  6. the fleet subcommands (serve, worker) must be named in the
#     driverlab -h banner, so the scale-out surface is discoverable
#     from the CLI;
#  7. every execution backend (block, interp) must be named
#     in the driverlab -h banner, ARCHITECTURE.md and README.md, so
#     the -backend axis stays discoverable from the docs.
#
# Run from the repository root.
set -e

fail=0
for d in $(find internal -type d | sort); do
    has_nontest=0
    found=0
    for f in "$d"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        has_nontest=1
        if grep -q '^// Package ' "$f"; then
            found=1
        fi
    done
    if [ "$has_nontest" -eq 1 ] && [ "$found" -eq 0 ]; then
        echo "missing package comment: $d" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "add a doc.go (or a package comment) to the packages above" >&2
    exit 1
fi
echo "package comments: ok"

for d in examples/*/; do
    printf 'running %s... ' "$d"
    go run "./$d" >/dev/null
    echo ok
done

usage=$(go run ./cmd/driverlab -h 2>&1)
fail=0
for src in internal/drivers/src/*.c; do
    name=$(basename "$src" .c)
    case "$usage" in
        *"$name"*) ;;
        *)
            echo "driverlab -h does not mention driver $name" >&2
            fail=1
            ;;
    esac
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "driver corpus in usage text: ok"

for cmd in serve worker -connect; do
    case "$usage" in
        *"$cmd"*) ;;
        *)
            echo "driverlab -h does not mention fleet surface $cmd" >&2
            fail=1
            ;;
    esac
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "fleet subcommands in usage text: ok"

arch=$(cat ARCHITECTURE.md)
metrics=$(go run ./cmd/driverlab metrics)
fail=0
for m in $metrics; do
    case "$arch" in
        *"$m"*) ;;
        *)
            echo "ARCHITECTURE.md does not document metric $m" >&2
            fail=1
            ;;
    esac
done
if [ "$fail" -ne 0 ]; then
    echo "add the metrics above to ARCHITECTURE.md's Observability section" >&2
    exit 1
fi
registered=" $(echo $metrics) "
for m in $(grep -o '^| `driverlab_[a-z0-9_]*`' ARCHITECTURE.md | tr -d '|` '); do
    case "$registered" in
        *" $m "*) ;;
        *)
            echo "ARCHITECTURE.md documents metric $m, which driverlab metrics does not list" >&2
            fail=1
            ;;
    esac
done
if [ "$fail" -ne 0 ]; then
    echo "remove the rows above from ARCHITECTURE.md's metric table" >&2
    exit 1
fi
echo "metric names in ARCHITECTURE.md: ok"

readme=$(cat README.md)
fail=0
for s in $(go run ./cmd/driverlab scenarios -names); do
    case "$arch" in
        *"$s"*) ;;
        *)
            echo "ARCHITECTURE.md does not document scenario $s" >&2
            fail=1
            ;;
    esac
    case "$readme" in
        *"$s"*) ;;
        *)
            echo "README.md does not document scenario $s" >&2
            fail=1
            ;;
    esac
done
if [ "$fail" -ne 0 ]; then
    echo "add the scenarios above to ARCHITECTURE.md's Scenario axes section and the README" >&2
    exit 1
fi
echo "scenario names in ARCHITECTURE.md and README.md: ok"

fail=0
for b in block interp; do
    for doc in usage arch readme; do
        eval "text=\$$doc"
        case "$text" in
            *"$b"*) ;;
            *)
                echo "$doc does not mention execution backend $b" >&2
                fail=1
                ;;
        esac
    done
done
if [ "$fail" -ne 0 ]; then
    echo "name every execution backend in driverlab -h, ARCHITECTURE.md and README.md" >&2
    exit 1
fi
echo "backend names in usage, ARCHITECTURE.md and README.md: ok"

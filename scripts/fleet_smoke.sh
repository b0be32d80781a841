#!/bin/sh
# fleet_smoke.sh — the end-to-end fleet exercise CI runs: build
# driverlab with the race detector, run one small campaign serially,
# then run the same spec as a fleet (one `serve` coordinator, two
# `worker` processes over loopback TCP) and require the report tables
# to be byte-identical.
#
# Run from the repository root.
set -e

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "building driverlab (-race)..."
go build -race -o "$tmp/driverlab" ./cmd/driverlab

echo "serial baseline..."
"$tmp/driverlab" campaign run -store "$tmp/serial.jsonl" \
    -drivers busmouse_c -sample 8 -seed 11 -quiet >/dev/null

echo "fleet run: 1 coordinator, 2 workers..."
"$tmp/driverlab" serve -store "$tmp/fleet.jsonl" \
    -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -drivers busmouse_c -sample 8 -seed 11 -shards 4 -quiet \
    >"$tmp/serve.out" 2>"$tmp/serve.err" &
serve_pid=$!

addr=
for _ in $(seq 1 200); do
    if [ -s "$tmp/addr" ]; then
        addr=$(cat "$tmp/addr")
        break
    fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "serve exited before binding:" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "serve never wrote its address file" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi

"$tmp/driverlab" worker -connect "$addr" -name smoke-w0 -quiet \
    >"$tmp/w0.out" 2>&1 &
w0=$!
"$tmp/driverlab" worker -connect "$addr" -name smoke-w1 -quiet \
    >"$tmp/w1.out" 2>&1 &
w1=$!

for p in "$w0" "$w1" "$serve_pid"; do
    if ! wait "$p"; then
        echo "fleet process $p failed:" >&2
        cat "$tmp/serve.err" "$tmp/w0.out" "$tmp/w1.out" >&2
        exit 1
    fi
done
cat "$tmp/serve.out"

echo "comparing report tables (serial vs fleet)..."
"$tmp/driverlab" campaign report -store "$tmp/serial.jsonl" >"$tmp/serial.report"
"$tmp/driverlab" campaign report -store "$tmp/fleet.jsonl" >"$tmp/fleet.report"
if ! diff -u "$tmp/serial.report" "$tmp/fleet.report"; then
    echo "fleet report tables differ from the serial baseline" >&2
    exit 1
fi

echo "fleet smoke: ok ($(wc -l <"$tmp/fleet.report") report lines byte-identical)"

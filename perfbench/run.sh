#!/usr/bin/env bash
# Builds cfqd and the benchmark from this checkout, then runs the benchmark:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Everything it builds or writes stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
[ -f "$root/perfbench/go.mod" ] && [ -d "$root/cmd/cfqd" ] || {
	echo "perfbench: run from the repository root (cmd/cfqd not found)" >&2
	exit 1
}
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) out="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
go build -o "$out/cfqd" ./cmd/cfqd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -cfqd "$out/cfqd" -workdir "$out/run" "$@"

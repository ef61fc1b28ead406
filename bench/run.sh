#!/usr/bin/env bash
# Builds the benchmark when its sources changed, then becomes it: the PID
# the caller started is the benchmark, and nothing is left behind it.
#   bash bench/run.sh --workload admit_rank --seed 7 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
bin="$here/.bin"
exe="$bin/lfobenchmark"

if [ ! -x "$exe" ] || [ -n "$(find "$root" -name .bin -prune -o \( -name '*.go' -o -name go.mod \) -newer "$exe" -print -quit)" ]; then
	# Everything the toolchain writes stays under bench/.bin, and the
	# telemetry mode file keeps it from starting its detached child.
	mkdir -p "$bin/cfg/go/telemetry" "$bin/tmp"
	echo off >"$bin/cfg/go/telemetry/mode"
	(cd "$here" && env XDG_CONFIG_HOME="$bin/cfg" GOCACHE="$bin/gocache" GOPATH="$bin/gopath" GOTMPDIR="$bin/tmp" \
		GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0 \
		go build -o "$exe" .) >&2
fi
exec "$exe" "$@"

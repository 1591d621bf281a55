#!/usr/bin/env bash
# Builds and runs kiffload from the root of a kiff checkout, keeping the
# Go build cache and every artifact under .bench_build/ in the checkout:
#
#   bash cmd/kiffload/run.sh --workload read-dense --seed 1 --seconds 20 --trace 0
#
# All arguments go to kiffload. Build output goes to stderr; the last
# line of stdout is kiffload's JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C cmd/kiffload -o "$build/kiffload" . >&2
exec "$build/kiffload" -workdir "$build/kiffload-work" "$@"

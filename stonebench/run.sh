#!/usr/bin/env bash
# Builds stonebench from the sources of the checkout it is run from and
# runs one workload. Run it from the checkout's root:
#
#   bash stonebench/run.sh --workload sync-large --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (binary, Go build cache and temporary
# files, spans of a traced run) stays under .bench_build/ in the
# checkout. An incomplete checkout fails the build and exits non-zero.
set -euo pipefail
root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C "$root/stonebench" build -o "$out/stonebench" .
exec "$out/stonebench" -spans "$out/spans.jsonl" "$@"

#!/usr/bin/env bash
# Builds the benchmark and the unischedd daemon from the checkout's source
# into .bench_build/, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-burst --seed 1 --seconds 20 --trace 0
#
# Every build artefact and cache stays inside .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"

go build -o "$out/unischedd" ./cmd/unischedd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/unischedd" -out "$out/runs" -root "$root" "$@"

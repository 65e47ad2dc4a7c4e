#!/usr/bin/env bash
# Builds the live-stack benchmark from source and runs it with the given
# flags, from the root of a checkout of the repository:
#
#	bash perfbench/run.sh --workload mem-read --seed 1 --seconds 15 --trace 0
#
# The build cache and the binary live in .bench_build at the checkout root,
# so nothing is read or written outside the checkout apart from the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -buildvcs=false -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

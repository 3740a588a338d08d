#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it from the checkout's root:
#
#   bash benchmark/run.sh --workload tcp-serial --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the traced run's span file all live under
# .bench_build/ (git-ignored). The module has no dependency outside the
# repository, so the build never reaches for the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root holds no go.mod: the harness is built against the repository's own packages and cannot run without them" >&2
	exit 1
fi
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/benchmark" .)
cd "$root"
exec "$out/benchmark" "$@"

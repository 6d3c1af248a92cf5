#!/usr/bin/env bash
# Builds the stack benchmark from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the root of the
# repository:
#
#   bash stackbench/run.sh --workload exhaust-short --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, the
# binary, scratch campaign stores, span files) stays under .bench_build/
# in that directory.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/stackbench/go.mod" ]; then
	echo "stackbench: $root is not a repository checkout (need go.mod, internal/ and stackbench/)" >&2
	exit 2
fi

out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go build -C "$root/stackbench" -o "$out/stackbench" .
exec "$out/stackbench" "$@"

#!/bin/sh
# Builds the perfbench command from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   sh perfbench/run.sh --workload precopy-xen --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory. A failed build exits non-zero
# before anything is measured.
set -eu

out="$(pwd)/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

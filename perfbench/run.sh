#!/usr/bin/env bash
# Builds the benchmark from the source checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload fig3-quorum --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache) goes under .bench_build/ at
# the checkout root, so the run reads and writes nothing outside the
# checkout apart from the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" ]]; then
	echo "perfbench: $root is not a cloudbench source checkout (no go.mod or internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
(
	# The go command keeps caches and telemetry counters under GOCACHE,
	# GOPATH and the user's home and config directories: point all of them
	# into the build directory, and forbid module and toolchain downloads.
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOFLAGS="" GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off GOSUMDB=off
	cd "$here"
	go build -o "$build/perfbench" .
) >&2
cd "$root"
exec "$build/perfbench" "$@"

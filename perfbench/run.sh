#!/usr/bin/env bash
# Builds the end-to-end job benchmark from the checkout it is run in and
# runs it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-edn --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

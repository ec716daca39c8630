#!/usr/bin/env bash
# Builds the matrix benchmark from source and runs it from the root of
# the checkout it sits in. Every build and run output stays under
# .bench_build/ there. Arguments pass through, e.g.
#
#   bash matrixbench/run.sh --workload osu-sweep --seed 1 --seconds 35 --trace 0
#
# Checkpoint images go to .bench_build/images. Where the system allows a
# private mount namespace, that directory is a tmpfs visible only to the
# benchmark's processes and gone when they exit, so image writes are
# measured without the disk under the checkout; otherwise the images go
# to that disk. The benchmark prints which filesystem it used.
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/images"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$bench_dir" && go build -o "$out/matrixbench" .)
cd "$root"
if unshare --mount --propagation private true 2>/dev/null; then
	exec unshare --mount --propagation private sh -c \
		'mount -t tmpfs -o size=1g,mode=0755 matrixbench-images "$0" ||
			echo "run.sh: no tmpfs for images; they go to disk" >&2
		exec "$@"' \
		"$out/images" "$out/matrixbench" "$@"
fi
exec "$out/matrixbench" "$@"

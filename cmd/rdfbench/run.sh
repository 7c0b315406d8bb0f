#!/usr/bin/env bash
# Builds rdfbench and rdfalignd from the checkout in the current directory
# and runs one benchmark workload:
#
#	bash cmd/rdfbench/run.sh --workload align-gtopdb --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's own state and
# temporary files stay under .bench_build in the current directory. The
# first run fills the build cache and takes about half a minute longer;
# later runs only check that the binaries are current.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

cd "$root/cmd/rdfbench"
go build -o "$out/rdfbench" .
go build -o "$out/rdfalignd" rdfalign/cmd/rdfalignd
cd "$root"
exec "$out/rdfbench" "$@"

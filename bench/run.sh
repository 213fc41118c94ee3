#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source with
# every go cache inside the checkout, then runs it. Outside a full checkout
# (no ../go.mod) the build fails and this exits non-zero without a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME=$build/config
go build -C "$root/bench" -o "$build/cfdbench" . >&2
exec "$build/cfdbench" -root "$root" "$@"

#!/usr/bin/env bash
# Builds the release `swact` CLI (the server the `serve` workload starts)
# and the `profile` benchmark from this checkout, then runs the benchmark
# with the given arguments. Build output goes to $CARGO_TARGET_DIR
# (default: target). Run from the repository root:
#
#   bash crates/bench/src/bin/profile/run.sh --workload update --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "run.sh: $root is not a swact checkout (no Cargo.toml or crates/cli)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline --quiet -p swact-cli >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/profile" --server-bin "$target/release/swact" "$@"

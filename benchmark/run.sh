#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run of one workload; the last line of standard output
#       is one JSON object (the contract in ../BENCHMARK.json)
#   run.sh [--seed N] [--out DIR]
#       every workload, every pass: the scorecard as readable tables
#   run.sh --selfcheck [--seed N]
#       the scorecard, with two interleaved timed passes compared, and a
#       sabotaged read-back per workload that the verifier must catch
#   run.sh --sabotage ...
#       either mode with one read-back byte flipped: must exit non-zero
#   run.sh --lint
#       cargo fmt --check, cargo clippy -D warnings and the unit tests
#
# Traces go to --out (default: out/ beside this script), never into the
# tree the binary was compiled in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
[[ "$target" == /* ]] || target="$PWD/$target"

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest" --release
    exit 0
fi

# Build chatter goes to standard error: standard output is the result.
cargo build --offline --release --manifest-path "$manifest" 1>&2

out_given=0
for arg in "$@"; do
    [[ "$arg" == "--out" ]] && out_given=1
done
if [[ $out_given -eq 0 ]]; then
    set -- "$@" --out "$here/out"
fi
exec "$target/release/purity-benchmark" "$@"

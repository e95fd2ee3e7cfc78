#!/usr/bin/env bash
# Local verification gate: what CI runs, runnable offline.
#
#   scripts/verify.sh          # build + test + fmt + clippy
#   scripts/verify.sh --quick  # build + test only
#
# fmt/clippy are skipped with a warning when the rustup components are
# not installed (minimal container images often lack them); the build
# and test steps are always required.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release"
cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

# Exhibit smoke + results gate: every gated exhibit is re-run with the
# arguments its committed results/ files were produced with, asserts
# the claim it reproduces (`exhibit --list` says which), and must
# reproduce those files byte for byte.
step "exhibit smoke + results gate (scripts/check_results.sh)"
scripts/check_results.sh

if [[ $quick -eq 1 ]]; then
  echo "--quick: skipping fmt/clippy"
  exit 0
fi

if cargo fmt --version >/dev/null 2>&1; then
  step "cargo fmt --check"
  cargo fmt --all --check
else
  echo "WARNING: rustfmt not installed; skipping cargo fmt --check" >&2
fi

if cargo clippy --version >/dev/null 2>&1; then
  step "cargo clippy -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "WARNING: clippy not installed; skipping cargo clippy" >&2
fi

echo
echo "verify: all checks passed"

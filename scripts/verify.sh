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

# Exhibit smoke + results gate. Every deterministic JSON exhibit is
# re-run in the mode its committed results/<name>.json was produced in.
# Each binary parses its own output back and asserts the claim it
# reproduces — QD-monotone IOPS/latency and zero lost acks across
# failover (exp_host_qd, exp_host_failover); a 10-seed power-loss sweep
# over all five crash phases plus the oracle's sabotage self-check
# (exp_torture; a failure leaves a one-line repro in
# results/exp_torture_repro.txt, see TESTING.md); exactly one SLO
# incident opened and closed by a forced interference window (exp_slo,
# fig7_fiveminute); bit-exact replicas over the bandwidth x flap grid
# (exp_replication); 100% acked ops through a member kill + rebuild
# (exp_cluster); die-stall tail blame with read-around off vs on
# (exp_blame); Figure 7's crossovers from the running 2Q cache and the
# migrator's demote/promote cycle (exp_fiveminute_live) — and then the
# files must match the committed ones byte for byte.
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

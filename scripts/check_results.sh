#!/usr/bin/env bash
# Results gate: the committed results/*.json are the exhibits' contract.
#
#   scripts/check_results.sh           # re-run, then fail on any diff
#   scripts/check_results.sh --regen   # re-run only (to commit new files)
#
# Re-runs every deterministic JSON exhibit in the mode its committed
# file was produced in (the "smoke"/"mode" field each file carries; the
# three without one take no flag) and requires `git diff results/` to
# stay empty: exhibit output is a pure function of the seed, so any
# byte that moves is a behaviour change CHANGES.md must explain. A
# deliberate change re-runs with --regen and commits the new files.
set -euo pipefail
cd "$(dirname "$0")/.."

exhibits=(
  "exp_blame --smoke"
  "exp_cluster --smoke"
  "exp_fiveminute_live --smoke"
  "exp_host_failover --smoke"
  "exp_host_qd --smoke"
  "exp_read_around"
  "exp_replication --smoke"
  "exp_slo --smoke"
  "exp_tail_latency"
  "exp_torture --seeds 10 --smoke"
  "exp_wear"
  "fig7_fiveminute --smoke"
)

cargo build -q --release -p purity-bench
for e in "${exhibits[@]}"; do
  read -r -a argv <<<"$e"
  printf '==> %s\n' "$e"
  cargo run -q --release -p purity-bench --bin "${argv[0]}" -- "${argv[@]:1}" >/dev/null
done

[[ "${1:-}" == "--regen" ]] && exit 0
git diff --exit-code --stat -- results/ || {
  echo "check_results: results/*.json drifted from the committed files" >&2
  exit 1
}
echo "check_results: results/*.json byte-identical"

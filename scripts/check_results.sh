#!/usr/bin/env bash
# Results gate: the committed results/ files are the exhibits' contract.
#
#   scripts/check_results.sh           # re-run, then fail on any change
#   scripts/check_results.sh --regen   # re-run only (to commit new files)
#
# `exhibit --gate` re-runs every gated entry of the registry
# (crates/bench/src/exhibits/mod.rs; `exhibit --list` prints it) with
# the arguments its committed files were produced with and rewrites
# results/<name>.txt and .json. Exhibit output is a pure function of the
# seed, so afterwards `git status` must show nothing under results/:
# a modified file is a behaviour change CHANGES.md must explain, an
# untracked one is a new exhibit without a committed contract. A
# deliberate change re-runs with --regen and commits the new files.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run -q --release -p purity-bench -- --gate

[[ "${1:-}" == "--regen" ]] && exit 0
changed=$(git status --porcelain -- results/)
if [[ -n "$changed" ]]; then
  echo "$changed"
  echo "check_results: results/ drifted from the committed files" >&2
  exit 1
fi
echo "check_results: results/ byte-identical"

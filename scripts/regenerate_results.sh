#!/usr/bin/env bash
# Regenerate every full-scale table in results/ plus the scorecard.
# One virtual year per run; about a minute in total on one core of a Xeon VM.
# Run from a checkout with PYTHONPATH=src (or the package installed).
# The fleet campaign is not a paper table and is left out.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

figures=$(python -m repro.experiments.cli list | awk '{print $1}' | grep -v -e '^validate$' -e '^fleet$')
for fig in $figures; do
    echo "=== $fig"
    python -m repro.experiments.cli "$fig" --quiet --output "results/$fig.txt"
done
echo "=== validate"
python -m repro.experiments.cli validate --quiet --output results/validate.txt
echo "done; see results/"

#!/usr/bin/env bash
# Demos: each script under demos/ must run to its end. Run from the repository
# root with the package importable, for example:
#   PYTHONPATH=src bash ci/demos.sh
set -euo pipefail

python demos/01_hash_centers.py
python demos/02_train_and_retrieve.py
python demos/03_ablations.py

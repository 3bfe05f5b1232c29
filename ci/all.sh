#!/usr/bin/env bash
# Every CI check that runs without installing the package, in the workflow's
# order, stopping at the first failure: tier-1, the retrieval and trainer tests
# on one CPU, the benchmark self-test, ci/bench.sh, ci/replay.sh and
# ci/demos.sh. Run from the repository root:
#   bash ci/all.sh
# replay.sh runs `${MVHASH:-mvhash}`; without an installed console script, set
#   MVHASH="python -m mvhash.cli" bash ci/all.sh
set -euo pipefail

export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors
taskset -c 0 python -m pytest -q tests/test_retrieval.py tests/test_trainer.py
python3 perfbench/selftest.py
bash ci/bench.sh
bash ci/replay.sh
bash ci/demos.sh

#!/usr/bin/env bash
# Every CI check, in order, stopping at the first failure. The workflow installs the
# test dependencies and the package, then runs this script alone. Run from the
# repository root:
#   bash ci/all.sh
# replay.sh runs `${MVHASH:-mvhash}`; without an installed console script, set
#   MVHASH="python -m mvhash.cli" bash ci/all.sh
set -euo pipefail

export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
python -m pytest -q --continue-on-collection-errors
# the retrieval and trainer tests on one CPU: with one usable CPU every scan and encode
# that a test does not pin to more CPUs runs its blocks on the calling thread alone,
# the serial path
taskset -c 0 python -m pytest -q tests/test_retrieval.py tests/test_trainer.py
python3 perfbench/selftest.py
# every workload reads `correct: true`, untraced and traced, and a traced
# eval-multilabel run's retrieval spans read above 0
bash ci/bench.sh
# every stage run and replayed from its manifest must write the same bytes
bash ci/replay.sh
bash ci/demos.sh

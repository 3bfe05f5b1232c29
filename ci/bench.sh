#!/usr/bin/env bash
# Benchmark checks: each workload of perfbench/run.py, untraced and traced, must
# read `correct: true`, and the retrieval spans of a traced eval-multilabel run
# must read above 0. Run from the repository root with numpy installed:
#   bash ci/bench.sh
set -euo pipefail

# Benchmark correctness smoke. run.py exits 0 even when an op fails its oracle:
# read `correct` from its last line (the 1M-row select against the brute-force
# oracle, the mAP oracles, bit-identical training repeats, the CLI walkthrough).
for workload in scan eval-multilabel train-multilabel cli-walkthrough; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)'
done

# Traced-span smoke. The retrieval spans of a traced eval-multilabel run must
# read above 0: a wrapped name that the mAP and curves path stops calling reads 0.
result="$(mktemp)"
trap 'rm -f "$result"' EXIT
python3 perfbench/run.py --workload eval-multilabel --seed 1 --seconds 2 --trace 1 \
  | tail -n 1 > "$result"
python3 - "$result" <<'EOF'
import json, sys
result = json.load(open(sys.argv[1]))
spans = ["retrieval.distances_ms", "retrieval.rank_ms", "retrieval.select_ms",
         "retrieval.relevance_ms", "retrieval.average_precision_ms"]
blind = [s for s in spans if not result["metrics"][s]["value"] > 0]
print("correct:", result["correct"], "spans at 0:", blind)
sys.exit(result["correct"] is not True or bool(blind))
EOF

# Traced runs are correct. The span hooks of a traced run read what each stage
# returns and writes (the train report's epoch times, the checkpoint sidecar's
# size): a hook that a change breaks fails only traced ops, which the untraced
# smoke skips.
for workload in scan train-multilabel cli-walkthrough; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1 \
    | python3 -c 'import json, sys; sys.exit(json.loads(sys.stdin.read())["correct"] is not True)'
done

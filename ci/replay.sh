#!/usr/bin/env bash
# Console script and manifest replay. Run from the repository root after the
# package is installed, or with MVHASH naming another command line for it:
#   PYTHONPATH="$PWD/src" MVHASH="python -m mvhash.cli" ci/replay.sh
#
# A stage without inputs (centers), one with inputs (train), one that loads the
# checkpoint and its sidecar (encode) and the retrieval stages (query, eval,
# curves) replayed from their manifests' argv into other output paths must
# write the same bytes (acceptance criterion 10 replays the loss ablations,
# --lam 0 and --quant-only). A dataset of several encode blocks is encoded, and
# a 64-wide dataset trained with a hidden width of 84 (where two BLAS threads
# sum the gate product in another order than one), once with
# OPENBLAS_NUM_THREADS=1 and once with the thread variables unset: train and
# encode hold BLAS at one thread themselves, so the codes, checkpoints and
# sidecars must be the same bytes. A train whose labels file holds 3 rows must
# exit 1 (a pipeline failure), name that file on stderr and write nothing.
# Everything is written in a temporary directory, removed when the script exits.
set -euo pipefail
read -r -a mvhash <<< "${MVHASH:-mvhash}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
"${mvhash[@]}" --version
"${mvhash[@]}" centers --classes 4 --bits 16 --seed 3 --out a.cshc
"${mvhash[@]}" synth --classes 4 --per-class 10 --d-img 8 --d-txt 8 --seed 3 --out-dir data
"${mvhash[@]}" train --image-features data/image_features.csft \
  --text-features data/text_features.csft --labels data/labels.cslb \
  --splits data/splits.json --centers a.cshc --out a.csmv \
  --epochs 1 --hidden-dim 8 --seed 3 --log-csv a.csv
"${mvhash[@]}" encode --checkpoint a.csmv --image-features data/image_features.csft \
  --text-features data/text_features.csft --labels data/labels.cslb --out a.cscd
python -c 'from mvhash import formats as f
f.save_labels(f.load_labels("data/labels.cslb")[:3], "short.cslb")'
status=0
"${mvhash[@]}" train --image-features data/image_features.csft \
  --text-features data/text_features.csft --labels short.cslb \
  --splits data/splits.json --centers a.cshc --out short.csmv 2> short.err || status=$?
cat short.err
test "$status" -eq 1
grep -qF short.cslb short.err
for left in short.csmv short.csmv.json short.csmv.manifest.json; do test ! -e "$left"; done
"${mvhash[@]}" synth --classes 4 --per-class 400 --d-img 8 --d-txt 8 --seed 4 --out-dir big
big=(--checkpoint a.csmv --image-features big/image_features.csft
     --text-features big/text_features.csft --labels big/labels.cslb)
OPENBLAS_NUM_THREADS=1 "${mvhash[@]}" encode "${big[@]}" --out pinned.cscd
env -u OPENBLAS_NUM_THREADS -u GOTO_NUM_THREADS -u OMP_NUM_THREADS \
  "${mvhash[@]}" encode "${big[@]}" --out unpinned.cscd
"${mvhash[@]}" centers --classes 4 --bits 64 --seed 5 --out w.cshc
"${mvhash[@]}" synth --classes 4 --per-class 40 --d-img 64 --d-txt 64 --seed 5 --out-dir wide
wide=(--image-features wide/image_features.csft --text-features wide/text_features.csft
      --labels wide/labels.cslb --splits wide/splits.json --centers w.cshc
      --epochs 2 --hidden-dim 84 --seed 5)
OPENBLAS_NUM_THREADS=1 "${mvhash[@]}" train "${wide[@]}" --out pinned.csmv
env -u OPENBLAS_NUM_THREADS -u GOTO_NUM_THREADS -u OMP_NUM_THREADS \
  "${mvhash[@]}" train "${wide[@]}" --out unpinned.csmv
"${mvhash[@]}" query --codes a.cscd --queries a.cscd --k 5 --out a.query.csv
"${mvhash[@]}" eval --codes a.cscd --queries a.cscd --out a.eval.csv
"${mvhash[@]}" curves --codes a.cscd --queries a.cscd --k-grid 1 5 20 40 --out a.curves.csv
python - <<'EOF'
import json, os, shlex, subprocess
for manifest, moves in [
    ("a.cshc", {"--out=a.cshc": "--out=b.cshc"}),
    ("a.csmv", {"--out=a.csmv": "--out=b.csmv", "--log-csv=a.csv": "--log-csv=b.csv"}),
    ("a.cscd", {"--out=a.cscd": "--out=b.cscd"}),
    ("pinned.cscd", {"--out=pinned.cscd": "--out=replayed.cscd"}),
    *((f"a.{stage}.csv", {f"--out=a.{stage}.csv": f"--out=b.{stage}.csv"})
      for stage in ("query", "eval", "curves")),
]:
    argv = json.load(open(manifest + ".manifest.json"))["argv"]
    mvhash = shlex.split(os.environ.get("MVHASH", "mvhash"))
    subprocess.run([*mvhash, *(moves.get(a, a) for a in argv)], check=True)
EOF
cmp a.cshc b.cshc
cmp a.csmv b.csmv
cmp a.csmv.json b.csmv.json
cmp a.csv b.csv
cmp a.cscd b.cscd
cmp pinned.cscd unpinned.cscd
cmp pinned.csmv unpinned.csmv
cmp pinned.csmv.json unpinned.csmv.json
cmp pinned.cscd replayed.cscd
cmp a.query.csv b.query.csv
cmp a.eval.csv b.eval.csv
cmp a.curves.csv b.curves.csv

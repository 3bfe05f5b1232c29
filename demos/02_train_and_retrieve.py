#!/usr/bin/env python3
"""Train the gated two-view hash network on synthetic data and query it."""

import numpy as np

from mvhash.centers import generate_centers
from mvhash.data import SynthSpec, make_synthetic
from mvhash.retrieval import RetrievalIndex, curves, mean_average_precision
from mvhash.trainer import TrainConfig, encode, train

# Two aligned views (think image features and text/tag features) of 6 classes.
# cross_view_consistency < 1 means some samples carry tags from the wrong
# class, which is exactly the noise the gated fusion is meant to absorb.
spec = SynthSpec(
    num_classes=6, samples_per_class=60, d_img=32, d_txt=32,
    cluster_spread=0.3, cross_view_consistency=0.9, seed=1,
)
ds = make_synthetic(spec)
print(f"dataset: {len(ds)} samples, {ds.num_classes} classes, "
      f"{ds.train_mask.sum()} train / {ds.retrieval_mask.sum()} retrieval / "
      f"{ds.query_mask.sum()} query")

# One fixed center per class; training pulls each sample's code toward the
# center of its class, so codes of the same class end up close in Hamming
# space without ever comparing samples pairwise.
centers = generate_centers(spec.num_classes, code_length=16, seed=1)

config = TrainConfig(epochs=60, seed=1, eval_every=10)
report = train(ds, centers, config)
print("\nepoch  loss      test mAP")
for ep, m in zip(report.eval_epochs, report.eval_maps):
    print(f"{ep:5d}  {report.epoch_losses[ep - 1].l_total:8.4f}  {m:.4f}")

# Inference: forward pass without dropout, then sign binarization.
ri, rt, rl = ds.subset(ds.retrieval_mask)
qi, qt, ql = ds.subset(ds.query_mask)
index = RetrievalIndex.from_signs(encode(report.params, ri, rt), rl)
q_codes = encode(report.params, qi, qt)

print(f"\nfull-R mAP: {mean_average_precision(q_codes, ql, index):.4f}")

# Top-5 neighbours of the first query; distances are exact popcounts.
res = index.query_topk(q_codes[0], k=5)
print("query 0 label:", np.flatnonzero(ql[0]).tolist())
for rank, (i, d) in enumerate(zip(res.ids, res.distances), 1):
    print(f"  rank {rank}: id {i:3d}  dist {d:2d}  label {np.flatnonzero(rl[i]).tolist()}")

# mAP@k / Recall@k over a k grid -- recall grows to 1.0 at k = R.
print("\n    k   mAP@k  Recall@k")
for k, m, r in curves(q_codes, ql, index, [1, 5, 10, 25, 50, index.size]):
    print(f"{k:5d}  {m:.4f}  {r:.4f}")

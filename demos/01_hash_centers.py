#!/usr/bin/env python3
"""Walk through hash-center construction and the separation guarantees."""

import numpy as np

from mvhash import generate_centers, sylvester_hadamard
from mvhash.centers import min_pairwise_distance

# A Sylvester-Hadamard matrix has mutually orthogonal +-1 rows, so any two
# rows disagree on exactly half their entries. That makes its rows (and their
# negations) ideal hash centers: maximally spread points on the Hamming cube.
H = sylvester_hadamard(8)
print("Hadamard 8x8:")
print(H)
print("row inner products (off-diagonal should be 0):")
print(H @ H.T)

# Inner product <a,b> and Hamming distance are two views of the same number:
# dist = (K - <a,b>)/2. Orthogonal rows at K=8 sit at distance 4.
print("\ndistance between rows 1 and 2:", (8 - int(H[1] @ H[2])) // 2)

# generate_centers picks the construction for you. Power-of-two K with few
# classes comes straight from the Hadamard stack:
cs = generate_centers(num_classes=10, code_length=16, seed=0)
print(f"\n10 classes at K=16 -> method={cs.method}, "
      f"min pairwise distance={min_pairwise_distance(cs)} (K/2 = 8)")

# When K is not a power of two there is no Hadamard matrix, so centers are
# Bernoulli-sampled under an acceptance rule: every accepted center keeps a
# minimum distance of ceil(K/4) to the others and the running sum of pairwise
# inner products stays <= 0.
cs = generate_centers(num_classes=12, code_length=24, seed=0)
print(f"12 classes at K=24 -> method={cs.method}, "
      f"min pairwise distance={min_pairwise_distance(cs)}, "
      f"mean pairwise inner={cs.mean_pairwise_inner():.4f} (<= 0)")

# The mean pairwise inner product stays non-positive across seeds -- this is
# the property the central-similarity loss relies on.
worst = max(
    generate_centers(12, 24, seed=s).mean_pairwise_inner() for s in range(20)
)
print(f"worst mean pairwise inner over 20 seeds: {worst:.4f}")

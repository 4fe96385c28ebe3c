#!/usr/bin/env python3
"""Detecting semantic shift between two snapshots of the same vocabulary.

Every word is paired with itself (identity lexicon) between an 'old' and
a 'new' space; words whose meaning moved violate the shared rotation and
surface at the top of the post-alignment cosine-distance ranking, labeled
Noise by the EM.
"""

import numpy as np

from noisy_align.align import random_orthogonal
from noisy_align.evaluation import rank_semantic_shift
from noisy_align.io import EmbeddingSet, build_identity_lexicon, gather_pairs
from noisy_align.mixture import em_fit

rng = np.random.default_rng(11)
d, vocab, n_shifted = 16, 500, 12

tokens = [f"word{i:03d}" for i in range(vocab)]
old_vec = rng.standard_normal((d, vocab))
drift = random_orthogonal(d, seed=3)   # global drift between periods
new_vec = drift @ old_vec
shifted = sorted(rng.choice(vocab, size=n_shifted, replace=False).tolist())
new_vec[:, shifted] = rng.standard_normal((d, n_shifted))  # meaning changed

old = EmbeddingSet(tokens=tokens, vectors=old_vec)
new = EmbeddingSet(tokens=tokens, vectors=new_vec)

lex = build_identity_lexicon(old, new)
X, Y = gather_pairs(lex, old, new)
model, resp, trace = em_fit(X, Y)

shared = [old.tokens[i] for i, _ in lex.pairs]
ranking, _ = rank_semantic_shift(model.Q, shared, X, Y, responsibilities=resp)

print(f"vocabulary {vocab}, planted shifts {n_shifted}, "
      f"EM noise fraction {float(np.mean(~resp.h)):.3f}")
print("\ntop of the shift ranking:")
print(f"{'token':<10} {'cos distance':>12}  label")
for token, dist, label in ranking[:n_shifted + 3]:
    mark = "*" if tokens.index(token) in shifted else " "
    print(f"{token:<10} {dist:>12.4f}  {label} {mark}")
print("\n(* = planted shift)")

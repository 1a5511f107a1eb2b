"""From per-hyperplane estimators to a full norm: the three-stage stack.

Stage 1 -- certifying tournament: split the coordinates with a pairwise
hash; a lopsided ratio between the halves' coarse estimates certifies a
dominant coordinate, whose sharp estimate is then trustworthy.

Stage 2 -- cover: many buckets, one tournament each; outputs approximate
distinct coordinates and include every significant one.

Stage 3 -- layered summation: covers of geometrically subsampled
coordinate sets, counted in multiplicative value layers, reassemble the
full L1 norm.

Exact sub-oracles are injected throughout, so what you see is the
combinatorial behaviour of the stack, not sketch noise. Each function
here builds the same plan classes the one-pass sketch pipeline evaluates,
with oracle calls in place of sketch banks at the leaves.

Run:  python demos/04_tournament_cover_layers.py
"""

import numpy as np

from indisketch import (
    CoverConfig,
    LayerConfig,
    TournamentConfig,
    cover_algorithm,
    dimension_reduce,
    layered_l1_estimate,
    tensor_tournament,
    vector_sub_oracles,
)

print("=== stage 1: the tournament fires only on dominant coordinates ===")
cfg = TournamentConfig.from_targets(0.1, 0.1, beta=2.0)
print(f"rounds={cfg.rounds}, certify ratio={cfg.ratio_threshold * cfg.beta**2:.0f}, "
      f"alpha={cfg.alpha:.2e}")

dominant = np.zeros(16)
dominant[3] = 100_000.0
dominant[[0, 5]] = 4.0
subs = vector_sub_oracles(dominant, beta=2.0)
hits = [tensor_tournament(np.ones(16, dtype=np.uint8), cfg, subs, seed=s) for s in range(5)]
print(f"dominant vector, outputs: {[f'{u:.0f}' for u in hits]} (true 100000)")

uniform = np.ones(64)
subs_u = vector_sub_oracles(uniform, beta=2.0)
outs = [tensor_tournament(np.ones(64, dtype=np.uint8), cfg, subs_u, seed=s) for s in range(20)]
print(f"uniform vector, nonzero outputs out of 20 runs: {sum(u > 0 for u in outs)}")

print()
print("=== stage 2: the cover finds every significant coordinate ===")
v = np.ones(64)
v[5] = 130.0
v[40] = 130.0
tcfg = TournamentConfig.from_targets(0.1, 0.01, beta=1.0)
ccfg = CoverConfig.from_targets(0.3, 0.1, tcfg.alpha, rho=127)
out = cover_algorithm(np.ones(64, dtype=np.uint8), ccfg, tcfg, vector_sub_oracles(v), seed=3)
found = sorted(round(u) for u in out.values())
print(f"{ccfg.rho} buckets, cover returned {len(out)} values; the large ones: "
      f"{[u for u in found if u > 50]}")

print()
print("=== stage 3: layered summation reassembles the norm ===")
lcfg = LayerConfig.from_targets(
    0.3, 1024, 1e6, count_threshold=64, base_count=40, phase_steps=32
)
ones = np.ones(1024)


def exact_cover(vec):
    def run(mask, _seed):
        return [float(x) for x, m in zip(vec, mask) if m and x > 0]
    return run


ests = [layered_l1_estimate(1024, lcfg, exact_cover(ones), seed=s) for s in range(8)]
print(f"1024 unit entries, estimates: {[f'{e:.0f}' for e in ests]} (true 1024)")

print()
print("=== all three composed: dimension reduction on a tensor ===")
from indisketch import DenseTensor, exact_sub_oracles, l1_norm  # noqa: E402

A = np.ones((8, 8), dtype=np.int64)
A[2] = 900
M = DenseTensor(A)
truth = l1_norm(M)
est = dimension_reduce(8, exact_sub_oracles(M), 0.3, 0.1, seed=1)
print(f"tensor norm {truth}, reduced estimate {est:.0f} "
      f"({est / truth:.1%} of truth)")

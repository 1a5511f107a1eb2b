"""One-pass product sketches of the independence tensor.

A product sketch keeps one running sum per repetition (its joint cell)
and the stream's value counts, from which each repetition's k margin
cells are formed after the pass; a sharp bank (s = s' = k - 1) keeps its
masked counts by last value instead, and forms each joint cell from
them. Then m^(k-1)*joint - prod(margins)
equals the contraction of the masked, collapsed independence tensor
against the per-coordinate Cauchy tables -- an exact polynomial
identity, shown here on a bank whose tables are replaced by small
integers, so that its float sums are exact. Median banks of such
sketches then estimate tensor norms. Because the sums and counts are
linear, two estimators fed disjoint parts of a stream merge into the
state of the whole stream.

Run:  python demos/03_product_sketches.py
"""

import numpy as np

from indisketch import (
    SketchBank,
    StreamDistanceEstimator,
    TupleStream,
    build_frequency_table,
    dense_independence_tensor,
    epsilon_l1_estimate,
    l1_norm,
    polylog_l1_estimate,
    prefix_zero,
    reference_sketch_value,
    suffix_sum,
)
from indisketch.sketches import required_epsilon_reps

stream = [(1, 1), (2, 2), (1, 2), (2, 2), (1, 1)]
table = build_frequency_table(TupleStream(2, 2, stream))

print("=== the coefficient identity, on a bank with integer tables ===")
probes = [[2, -3], [1, 5]]
bank = SketchBank(2, 2, 0, 0, [], repetitions=1, seed=0)
# the registry draws each block's Cauchy tables when a pass needs them;
# here it draws the probes as the one row's two tables
tables = np.array([[probes]], dtype=np.float64)
bank.registry.draw = lambda key, b0, b1, q0, q1: tables[b0:b1, q0:q1]
for rec in stream:
    bank.update(rec)
lhs = bank.values()[0]
rhs = reference_sketch_value(table, [], 0, probes)
print(f"streaming sketch value: {lhs}")
print(f"dense expansion       : {rhs}")
assert lhs == rhs

print()
print("=== linearity: sketch halves, then merge ===")


def estimator():
    return StreamDistanceEstimator(2, 2, epsilon=0.3, delta=0.1, seed=7)


a, b, whole = estimator(), estimator(), estimator()
a.consume(stream[:2])
b.consume(stream[2:])
# the plan's one group is sharp: its state is exact counts, so the
# merge equals the one-pass run wherever the stream was cut
whole.consume(stream)
a.merge(b.snapshot())
print(f"a merged with b: norm estimate {a.tensor_norm_estimate():.6f}, m = {a.m_seen}")
print(f"whole stream   : norm estimate {whole.tensor_norm_estimate():.6f}, m = {whole.m_seen}")
assert a.report().to_json() == whole.report().to_json()

print()
print("=== the sharp estimator: median of |sketch| over a bank ===")
rng = np.random.default_rng(1)
big = [(int(v), int(v)) for v in rng.integers(1, 9, size=300)]
big += [tuple(map(int, rng.integers(1, 9, size=2))) for _ in range(100)]
btable = build_frequency_table(TupleStream(2, 8, big))
mask = [1, 0, 1, 1, 0, 1, 0, 1]
target = l1_norm(suffix_sum(prefix_zero(dense_independence_tensor(btable), [mask]), 1))
eps, delta = 0.1, 0.05
reps = required_epsilon_reps(eps, delta)
bank = SketchBank(2, 8, 1, 1, [mask], repetitions=reps, seed=42)
bank.bulk_update(btable.joint)
est = epsilon_l1_estimate(bank, eps, delta)
print(f"target collapsed masked norm = {target}")
print(f"median-of-{reps} estimate = {est:.1f} (error {abs(est - target) / target:.1%})")

print()
print("=== the coarse estimator: a log^k(n) factor from few repetitions ===")
bank2 = SketchBank(2, 8, 1, 0, [mask], repetitions=192, seed=9)
bank2.bulk_update(btable.joint)
target2 = l1_norm(prefix_zero(dense_independence_tensor(btable), [mask]))
est2 = polylog_l1_estimate(bank2, 0.05)
print(f"target masked norm = {target2}")
print(f"coarse estimate = {est2:.1f} (ratio {est2 / target2:.2f}, allowed up to log^2 n = 9)")

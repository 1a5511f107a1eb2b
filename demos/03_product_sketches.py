"""One-pass product sketches of the independence tensor.

A product sketch keeps k+1 running sums (one joint cell, one margin cell
per dimension). After the pass, m^(k-1)*joint - prod(margins) equals the
contraction of the masked, collapsed independence tensor against the
per-coordinate Cauchy tables -- an exact polynomial identity, shown here
with rational probe values. Median banks of such sketches then estimate
tensor norms. Because the sums are linear, two estimators fed disjoint
parts of a stream merge into the state of the whole stream.

Run:  python demos/03_product_sketches.py
"""

from fractions import Fraction

import numpy as np

from indisketch import (
    ProductSketchState,
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

print("=== the coefficient identity, with exact rational probes ===")
probes = [[Fraction(2), Fraction(-3)], [Fraction(1, 2), Fraction(5)]]
state = ProductSketchState(k=2, n=2, s=0, s_prime=0, prefix=[], coeff=probes)
for rec in stream:
    state.update(rec)
lhs = state.value()
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
# consume ends with a flush, so whole sums the same two chunks
whole.consume(stream[:2])
whole.consume(stream[2:])
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

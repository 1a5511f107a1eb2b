"""The approximation stack over implicit tensors.

One stack, built as a plan tree and then evaluated. Composition, bottom
to top:

1. *Certifying tournament* (``_TournamentPlan``): given a coarse
   beta-factor estimator and a sharp (1 +- eps) estimator for the
   collapsed tensor, repeatedly split the masked coordinates in half with
   a pairwise hash and compare the two halves' coarse estimates. A
   lopsided ratio certifies a dominant hyperplane, in which case the sharp
   estimate of the heavy half approximates that hyperplane's norm. The
   result is a threshold-max: either 0 or an approximation of some masked
   coordinate, guaranteed to find any coordinate holding all but an alpha
   fraction of the masked mass.

2. *Cover* (``_CoverPlan``): hash coordinates into many buckets and run
   one tournament per bucket; the positive outputs approximate distinct
   coordinates and include every significant one.

3. *Layered summation* (``_AmpPlan``): run covers against geometrically
   subsampled coordinate sets, bucket the returned values into
   multiplicative layers, pick for each layer the deepest subsampling
   level whose count falls in a calibrated window, and sum the rescaled
   counts. This turns covers into an L1 estimate of the whole vector.

4. *Dimension reduction* (``_ReducePlan``): steps 1-3 applied to the
   absolute-hyperplane vector of a tensor turn per-hyperplane estimators
   into a full-norm estimator, with median amplification of the 2/3
   success probability.

``_build_reduce_plan`` builds the four stages as one tree of plan nodes
from one set of constants (``_stack_configs``) and a leaf factory, which
gives each non-empty tournament side a (coarse, sharp) pair of nodes.
Sketch leaves (``StreamDistanceEstimator`` / ``independence_distance``)
are product-sketch banks, all registered before the one pass, with a child
reduction as the sharp node above the last depth. Oracle leaves
(``tensor_tournament``, ``cover_algorithm``, ``dimension_reduce``) call
injected ``SubAlgorithms`` when evaluated; ``layered_l1_estimate`` takes a
caller's cover for each level. Exact sub-oracles built from the dense
tensor module let property tests isolate the combinatorial logic from
sketch noise while running the plan classes the sketch pipeline runs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass, replace as dataclass_replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyStreamError,
    MalformedInputError,
    MergeIncompatibleError,
    SubAlgorithmError,
)
from .hashing import (
    FOLD_BLOCK,
    BucketHash,
    ZeroOneHash,
    batched_cauchy_tables,
    counter_uniform,
    default_truncation,
    derive_key,
    zero_one_tables,
)
from .sketches import (
    _as_table,
    fold_counts,
    repetition_seeds,
    required_epsilon_reps,
    required_polylog_reps,
    row_medians,
)
from .stream import (
    EstimateReport,
    TupleKey,
    TupleStream,
    TupleTally,
    _integral,
    checked_tuple,
    record_blocks,
)

Mask = np.ndarray  # uint8 0/1 vector over [1, n], index 0 <-> coordinate 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubAlgorithms:
    """Injected per-hyperplane estimators for one tensor.

    ``approx_a(mask, delta)`` returns a beta-factor estimate of
    l1_norm(prefix_zero(M, [mask])); ``approx_b(mask, eps, delta)`` returns
    a (1 +- eps) estimate of l1_norm(suffix_sum(prefix_zero(M, [mask]), 1)).
    """

    approx_a: Callable[[Mask, float], float]
    approx_b: Callable[[Mask, float, float], float]
    beta: float

    def __post_init__(self):
        if self.beta < 1.0:
            raise ConfigurationError("beta must be >= 1")


@dataclass(frozen=True)
class TournamentConfig:
    """All constants of one certifying tournament."""

    epsilon: float
    delta: float
    beta: float
    detect_prob: float
    rounds: int
    subcall_delta: float
    base_ratio: float       # the split-comparison gap for this epsilon
    ratio_threshold: float  # (1 + epsilon) * base_ratio
    alpha: float            # significance threshold epsilon / (64 beta^2)

    @classmethod
    def from_targets(
        cls,
        epsilon: float,
        delta: float,
        beta: float,
        rounds: Optional[int] = None,
    ) -> "TournamentConfig":
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon={epsilon} outside (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ConfigurationError(f"delta={delta} outside (0, 1)")
        if beta < 1.0:
            raise ConfigurationError("beta must be >= 1")
        p = 1.0 - math.sqrt(1.0 - epsilon / 2.0)
        if rounds is None:
            rounds = max(1, math.ceil(math.log(1.0 / delta) / p))
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        subcall_delta = p * epsilon / (4.0 * math.log(1.0 / delta))
        root = (1.0 - epsilon) ** 0.25
        lam = 1.0 + 2.0 * root / (1.0 - root)
        return cls(
            epsilon=epsilon,
            delta=delta,
            beta=beta,
            detect_prob=p,
            rounds=int(rounds),
            subcall_delta=subcall_delta,
            base_ratio=lam,
            ratio_threshold=(1.0 + epsilon) * lam,
            alpha=epsilon / (64.0 * beta**2),
        )


@dataclass(frozen=True)
class CoverConfig:
    """Bucket layout of one cover run."""

    epsilon: float
    delta: float
    alpha: float
    significance: float  # epsilon' = epsilon^2 * delta / 3
    rho: int             # number of buckets

    @classmethod
    def from_targets(
        cls,
        epsilon: float,
        delta: float,
        alpha: float,
        rho: Optional[int] = None,
        rho_cap: int = 2**31 - 1,
    ) -> "CoverConfig":
        if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
            raise ConfigurationError("epsilon and delta must lie in (0, 1)")
        if alpha <= 0.0:
            raise ConfigurationError("alpha must be positive")
        eps_sig = epsilon**2 * delta / 3.0
        if rho is None:
            rho = min(rho_cap, math.ceil(1.0 / (eps_sig * alpha)))
        if rho < 1:
            raise ConfigurationError("bucket count must be >= 1")
        return cls(
            epsilon=epsilon,
            delta=delta,
            alpha=alpha,
            significance=eps_sig,
            rho=int(rho),
        )


@dataclass(frozen=True)
class LayerConfig:
    """Level/layer bookkeeping constants of the layered L1 estimator.

    ``scale_override`` multiplies the count threshold, the calibration
    base and the phase-step count down to desk scale; the achieved failure
    rates are then measured by the acceptance suite rather than assumed
    from the proofs.
    """

    epsilon: float
    levels: int            # number of geometric subsampling levels
    layers: int            # number of multiplicative value layers
    base_count: int        # failure/precision calibration constant
    count_threshold: int   # minimum windowed layer count
    phase_steps: int
    phase_ratio: float     # (1 + epsilon)^(1/phase_steps) - 1
    cover_precision: float
    cover_delta: float
    scale: float

    @classmethod
    def from_targets(
        cls,
        epsilon: float,
        n: int,
        value_bound: float,
        scale_override: Optional[float] = None,
        levels: Optional[int] = None,
        layers: Optional[int] = None,
        base_count: Optional[int] = None,
        count_threshold: Optional[int] = None,
        phase_steps: Optional[int] = None,
    ) -> "LayerConfig":
        if not 0.0 < epsilon < 1.0:
            raise ConfigurationError(f"epsilon={epsilon} outside (0, 1)")
        growth = math.log1p(epsilon)
        a = levels if levels is not None else max(1, math.ceil(math.log(max(n, 2)) / growth))
        b = (
            layers
            if layers is not None
            else max(1, math.ceil(math.log(max(value_bound, 2.0)) / growth))
        )
        scale = 1.0 if scale_override is None else float(scale_override)
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError("scale_override must lie in (0, 1]")
        cp = base_count if base_count is not None else 10 * (a + b)
        cp = max(2, math.ceil(cp * scale))
        chi = (
            count_threshold
            if count_threshold is not None
            else math.ceil(16.0 / epsilon**3 * cp)
        )
        chi = max(4, math.ceil(chi * scale)) if count_threshold is None else int(chi)
        q_steps = (
            phase_steps
            if phase_steps is not None
            else math.ceil(20.0 * cp / epsilon**2)
        )
        q_steps = max(2, math.ceil(q_steps * scale)) if phase_steps is None else int(q_steps)
        zeta = (1.0 + epsilon) ** (1.0 / q_steps) - 1.0
        if zeta < epsilon / (2.0 * q_steps) - 1e-12:
            raise ConfigurationError("phase ratio fell below epsilon / (2 * steps)")
        precision = min(zeta / (2.0 * (1.0 + zeta)), epsilon / (4.0 * chi * cp**2))
        return cls(
            epsilon=epsilon,
            levels=int(a),
            layers=int(b),
            base_count=int(cp),
            count_threshold=int(chi),
            phase_steps=int(q_steps),
            phase_ratio=zeta,
            cover_precision=precision,
            cover_delta=1.0 / cp,
            scale=scale,
        )


@dataclass(frozen=True)
class EstimatorOverrides:
    """Desk-scale knobs for the sketch-backed pipeline.

    The defaults form the documented desk profile: repetition counts,
    round counts and the amplification factor are fixed small numbers
    whose achieved accuracy the acceptance suite measures directly. A
    ``None`` means "use the analysis formula", which can be astronomically
    expensive; ``formula_profile()`` selects all of those at once. Every
    effective value lands in the run diagnostics so a report can be
    audited against the configuration formulas.
    """

    amplification: Optional[int] = 9      # median runs; formula: ceil(24*ln(1/delta))
    rounds: Optional[int] = 3             # tournament rounds per instance
    eps_reps: int = 200                   # repetitions per sharp-estimator bank
    polylog_reps: int = 24                # repetitions per coarse-estimator bank
    beta: Optional[float] = 2.0           # configured coarse factor; None: log2(n)^k
    cover_epsilon: Optional[float] = 0.3  # floor for the per-cover precision
    rho: Optional[int] = None
    rho_cap: int = 2**31 - 1
    scale_override: Optional[float] = None
    omega: Optional[float] = None
    value_bound: Optional[float] = None
    max_chunk: int = 8192

    def replace(self, **kw) -> "EstimatorOverrides":
        return dataclass_replace(self, **kw)

    @classmethod
    def formula_profile(cls) -> "EstimatorOverrides":
        """Formula-driven counts everywhere.

        The resulting round/amplification products are astronomically large;
        this profile exists so the formula values can be audited against the
        desk profile, not for execution.
        """
        return cls(
            amplification=None,
            rounds=None,
            beta=None,
            cover_epsilon=None,
        )


# ---------------------------------------------------------------------------
# pure decision helpers of the plan classes
# ---------------------------------------------------------------------------


def _decide_round(u0: float, u1: float, ratio: float) -> float:
    """One tournament round: the side beating the other by `ratio`, else 0."""
    win1 = u1 >= ratio * u0
    win0 = u0 >= ratio * u1
    if win0 and win1:
        return 0.0  # simultaneous wins only happen at u0 = u1 = 0
    if win1:
        return u1
    if win0:
        return u0
    return 0.0


def _median(values) -> float:
    """``np.median`` of a nonempty 1-D sequence, to the bit: the one-row
    case of ``row_medians``."""
    return float(row_medians(np.asarray(values, dtype=np.float64).reshape(1, -1))[0])


def _combine_rounds(round_values: Iterable[float]) -> float:
    """Raw minimum over all round outputs.

    A single null round certifies the absence of a dominant coordinate and
    zeroes the result; this is what drives the false-positive probability
    down exponentially in the round count. In the detection regime (one
    coordinate holding all but an alpha fraction of the mass) every round
    fires, so the minimum is a minimum over valid approximations.
    """
    vals = list(round_values)
    return min(vals) if vals else 0.0


def _assign_layer(value: float, shift: float, cfg: LayerConfig) -> Optional[int]:
    """Layer index l with shift*(1+eps)^l <= value < shift*(1+eps)^(l+1)."""
    if value <= 0.0:
        return None
    growth = 1.0 + cfg.epsilon
    x = value / shift
    l = math.floor(math.log(x) / math.log(growth) + 1e-12)
    while growth ** (l + 1) <= x:
        l += 1
    while growth**l > x:
        l -= 1
    if l < -1 or l > cfg.layers:
        return None
    return l


def _layer_sum(counts: Dict[Tuple[int, int], int], cfg: LayerConfig, shift: float) -> float:
    """Select the deepest in-window level per layer and sum the rescaled counts."""
    growth = 1.0 + cfg.epsilon
    chi = cfg.count_threshold
    lo, hi = chi / growth**2, (1.0 + 3.0 * cfg.epsilon) * chi  # the count window
    by_layer: Dict[int, Dict[int, int]] = defaultdict(dict)
    for (l, j), c in counts.items():
        by_layer[l][j] = c
    total = 0.0
    for l, per_level in by_layer.items():
        z = 0
        for j, c in per_level.items():
            if j > 0 and lo < c <= hi:
                z = max(z, j)
        c = per_level.get(z, 0)
        total += growth ** (z + l) * c
    return shift * total


# ---------------------------------------------------------------------------
# randomness derivation of the plan builders
# ---------------------------------------------------------------------------

_TAG_SPLIT = 0x7A01
_TAG_BUCKET = 0x7A02
_TAG_LEVEL = 0x7A03
_TAG_PHASE = 0x7A04
_TAG_AMP = 0x7A05
_TAG_TOURN = 0x7A06
_TAG_BANK_A = 0x7A07
_TAG_BANK_B = 0x7A08
_TAG_CHILD = 0x7A09


def _split_masks(H: Mask, rounds: int, seed: int):
    """Per-round halving masks (round, kept-by-1, kept-by-0); the split
    hashes of all rounds are tabulated in one step."""
    split = derive_key(seed, _TAG_SPLIT)
    seeds = [derive_key(split, r) for r in range(rounds)]  # = derive_key(seed, _TAG_SPLIT, r)
    kept1 = H * zero_one_tables(seeds, H.shape[0], 0.5)
    kept0 = H - kept1
    for r in range(rounds):
        yield r, kept0[r], kept1[r]


def _bucket_masks(H: Mask, rho: int, seed: int):
    """Occupied (bucket, mask) pairs; unoccupied buckets are exactly null."""
    n = H.shape[0]
    g = BucketHash(seed=int(derive_key(seed, _TAG_BUCKET)), n=n, buckets=rho).table(n)
    # a set rather than np.unique, which imports numpy.ma on its first call
    for s in sorted(set(g[H > 0].tolist())):
        yield s, (H * (g == s)).astype(np.uint8)


def _level_masks(n: int, cfg: LayerConfig, seed: int):
    """Subsampling levels (j, mask, level seed); levels that can never
    enter the count window are skipped (their counts are bounded by the
    selected-coordinate population, which already falls below the window).
    """
    floor = cfg.count_threshold / (1.0 + cfg.epsilon) ** 2
    yield 0, np.ones(n, dtype=np.uint8), int(derive_key(seed, _TAG_LEVEL, 0))
    if n <= floor:
        return
    for j in range(1, cfg.levels + 1):
        keep = (1.0 + cfg.epsilon) ** (-j)
        mask = ZeroOneHash(
            seed=int(derive_key(seed, _TAG_LEVEL, j, 1)), n=n, q=keep
        ).table(n)
        if int(mask.sum()) <= floor:
            continue
        yield j, mask, int(derive_key(seed, _TAG_LEVEL, j))


# ---------------------------------------------------------------------------
# vector helpers and the constants of one reduction
# ---------------------------------------------------------------------------


def split_compare_ratio(V, Z) -> Tuple[float, float]:
    """Exact halves (X, Y) of a nonnegative vector under a 0/1 split hash."""
    v = np.asarray(V, dtype=np.float64)
    if (v < 0).any():
        raise ConfigurationError("split comparison requires nonnegative entries")
    z = np.asarray(Z.table(v.shape[0]) if callable(Z) else Z, dtype=np.float64)
    x = float((v * z).sum())
    return x, float(v.sum() - x)


def sampling_level(x: float, cfg: LayerConfig) -> int:
    """Smallest level f with x <= threshold*(1+eps)^f (requires x > threshold)."""
    chi = cfg.count_threshold
    if x <= chi:
        raise ConfigurationError(f"sampling_level domain requires x > {chi}, got {x}")
    growth = 1.0 + cfg.epsilon
    f = math.ceil(math.log(x / chi) / math.log(growth) - 1e-12)
    while chi * growth**f < x:
        f += 1
    while f > 1 and chi * growth ** (f - 1) >= x:
        f -= 1
    return f


StackConfigs = Tuple[LayerConfig, TournamentConfig, CoverConfig, int]


def _stack_configs(
    n: int,
    epsilon: float,
    delta: float,
    beta: float,
    ov: EstimatorOverrides,
    value_bound: Optional[float] = None,
) -> StackConfigs:
    """The layer, tournament and cover configurations of one reduction and
    its amplification count, for either kind of leaf."""
    if not 0.0 < delta < 1.0:
        raise ConfigurationError(f"delta={delta} outside (0, 1)")
    if ov.amplification is not None and ov.amplification < 1:
        raise ConfigurationError("amplification must be >= 1")
    bound = value_bound if value_bound is not None else (ov.value_bound or 2.0**48)
    lcfg = LayerConfig.from_targets(epsilon, n, bound, scale_override=ov.scale_override)
    cover_eps = lcfg.cover_precision
    if ov.cover_epsilon is not None:
        cover_eps = max(cover_eps, ov.cover_epsilon)
    tcfg = TournamentConfig.from_targets(
        cover_eps / 3.0, max(lcfg.cover_delta / 4.0, 1e-9), beta, rounds=ov.rounds
    )
    ccfg = CoverConfig.from_targets(
        cover_eps, lcfg.cover_delta, tcfg.alpha, rho=ov.rho, rho_cap=ov.rho_cap
    )
    amp = ov.amplification
    if amp is None:
        amp = max(1, math.ceil(24.0 * math.log(1.0 / delta)))
    return lcfg, tcfg, ccfg, amp


# ---------------------------------------------------------------------------
# the plan tree; a node's evaluate(med) reads the registry's median table
# ---------------------------------------------------------------------------


@dataclass
class _LeafRef:
    """A registered bank, evaluated as its median |sketch value|."""

    handle: Tuple

    def evaluate(self, med) -> float:
        key, start, stop = self.handle
        return med[key][start // (stop - start)]


@dataclass
class _Call:
    """A node evaluated as ``fn(*args)``: a sub-oracle or a caller's cover."""

    fn: Callable
    args: Tuple

    def evaluate(self, _med):
        return self.fn(*self.args)


# leaves(mask, tournament config, tournament seed, round, side) -> (coarse, sharp)
Leaves = Callable[[Mask, TournamentConfig, int, int, int], Tuple[object, object]]


@dataclass
class _TournamentPlan:
    """Certifying tournament over the masked absolute-hyperplane vector.

    Evaluates to 0 or an approximation of some masked coordinate; any
    coordinate holding a (1 - alpha) fraction of the masked mass is found
    and approximated with probability 1 - delta. Output approximations
    carry a (1 +- 3*epsilon) guarantee in terms of the round epsilon.
    """

    cfg: TournamentConfig
    rounds: List[Tuple[Optional[Tuple[object, object]], Optional[Tuple[object, object]]]]

    def evaluate(self, med) -> float:
        beta = self.cfg.beta
        ratio = self.cfg.ratio_threshold * beta**2
        vals = []
        for rd, sides in enumerate(self.rounds):
            u = [0.0, 0.0]
            for side, pair in enumerate(sides):
                if pair is None:
                    continue
                try:
                    u[side] = max(pair[0].evaluate(med) / beta, pair[1].evaluate(med), 0.0)
                except Exception as e:  # annotate with round context
                    raise SubAlgorithmError(f"round {rd}, side {side}: {e}") from e
            vals.append(_decide_round(u[0], u[1], ratio))
        return _combine_rounds(vals)


@dataclass
class _CoverPlan:
    """One tournament per occupied hash bucket.

    With probability 1 - delta the positive outputs approximate distinct
    positive coordinates of the masked vector and include every
    epsilon-significant one.
    """

    buckets: Dict[int, _TournamentPlan]

    def outputs(self, med) -> Dict[int, float]:
        out = {}
        for s, plan in self.buckets.items():
            u = plan.evaluate(med)
            if u > 0.0:
                out[s] = u
        return out

    def evaluate(self, med) -> List[float]:
        return list(self.outputs(med).values())


@dataclass
class _AmpPlan:
    """Layered summation of cover outputs across subsampling levels."""

    q: int
    lcfg: LayerConfig
    levels: List[Tuple[int, object]]

    def evaluate(self, med) -> float:
        shift = (1.0 + self.lcfg.phase_ratio) ** self.q
        counts: Dict[Tuple[int, int], int] = defaultdict(int)
        for j, cover in self.levels:
            for value in cover.evaluate(med):
                l = _assign_layer(float(value), shift, self.lcfg)
                if l is not None:
                    counts[(l, j)] += 1
        return _layer_sum(counts, self.lcfg, shift)


@dataclass
class _ReducePlan:
    """The median of independent layered summations."""

    amps: List[_AmpPlan]

    def evaluate(self, med) -> float:
        return _median([a.evaluate(med) for a in self.amps])


def _tournament_plan(
    H: Mask, cfg: TournamentConfig, seed: int, leaves: Leaves
) -> _TournamentPlan:
    rounds = []
    for rd, m0, m1 in _split_masks(H, cfg.rounds, seed):
        # an empty side reads 0; count_nonzero is one C call, ndarray.any is not
        rounds.append((
            leaves(m0, cfg, seed, rd, 0) if np.count_nonzero(m0) else None,
            leaves(m1, cfg, seed, rd, 1) if np.count_nonzero(m1) else None,
        ))
    return _TournamentPlan(cfg=cfg, rounds=rounds)


def _cover_plan(
    H: Mask, cfg: CoverConfig, tcfg: TournamentConfig, seed: int, leaves: Leaves
) -> _CoverPlan:
    return _CoverPlan(buckets={
        s: _tournament_plan(mask, tcfg, int(derive_key(seed, _TAG_TOURN, s)), leaves)
        for s, mask in _bucket_masks(H, cfg.rho, seed)
    })


def _amp_plan(
    n: int, cfg: LayerConfig, seed: int, cover: Callable[[Mask, int], object]
) -> _AmpPlan:
    """``cover(mask, level_seed)`` gives the cover node of each level."""
    levels = [(j, cover(mask, lseed)) for j, mask, lseed in _level_masks(n, cfg, seed)]
    u = float(counter_uniform(derive_key(seed, _TAG_PHASE), 0))
    q = min(cfg.phase_steps - 1, int(u * cfg.phase_steps))  # the layer grid's phase
    return _AmpPlan(q=q, lcfg=cfg, levels=levels)


def _build_reduce_plan(n: int, configs: StackConfigs, seed: int, leaves: Leaves) -> _ReducePlan:
    """The tournament -> cover -> layer stack of one dimension reduction.
    Everything random is drawn here; a sketch-backed factory registers its
    banks as the plan is built, before the pass."""
    lcfg, tcfg, ccfg, amp = configs

    def cover(mask: Mask, level_seed: int) -> _CoverPlan:
        return _cover_plan(mask, ccfg, tcfg, level_seed, leaves)

    return _ReducePlan(
        amps=[_amp_plan(n, lcfg, int(derive_key(seed, _TAG_AMP, r)), cover) for r in range(amp)]
    )


def _oracle_leaves(subs: SubAlgorithms) -> Leaves:
    """Leaves that call the sub-oracles at the tournament's epsilon and failure rate."""

    def leaves(mask: Mask, cfg: TournamentConfig, *_seed) -> Tuple[_Call, _Call]:
        return (
            _Call(subs.approx_a, (mask, cfg.subcall_delta)),
            _Call(subs.approx_b, (mask, cfg.epsilon, cfg.subcall_delta)),
        )

    return leaves


# ---------------------------------------------------------------------------
# the public stack: thin drivers over the plan tree with oracle leaves
# ---------------------------------------------------------------------------


def _as_mask(H) -> Mask:
    m = np.asarray(H, dtype=np.uint8)
    if m.ndim != 1:
        raise ConfigurationError(f"mask must be one-dimensional, got shape {m.shape}")
    return m


def tensor_tournament(
    H, cfg: TournamentConfig, subs: SubAlgorithms, seed: int = 0
) -> float:
    """Certifying tournament (``_TournamentPlan``) over exact or injected sub-oracles."""
    return _tournament_plan(_as_mask(H), cfg, seed, _oracle_leaves(subs)).evaluate(None)


def cover_algorithm(
    H,
    cfg: CoverConfig,
    tcfg: TournamentConfig,
    subs: SubAlgorithms,
    seed: int = 0,
) -> Dict[int, float]:
    """Cover (``_CoverPlan``): the strictly positive tournament outputs by bucket."""
    return _cover_plan(_as_mask(H), cfg, tcfg, seed, _oracle_leaves(subs)).outputs(None)


def layered_l1_estimate(
    n: int,
    cfg: LayerConfig,
    run_cover: Callable[[Mask, int], Iterable[float]],
    seed: int = 0,
) -> float:
    """Layered summation (``_AmpPlan``) of a caller's covers.

    ``run_cover(mask, seed)`` must return the positive values of a cover
    of the vector restricted to the masked coordinates, at precision
    ``cfg.cover_precision`` and failure ``cfg.cover_delta``.
    """
    plan = _amp_plan(n, cfg, seed, lambda mask, lseed: _Call(run_cover, (mask, lseed)))
    return plan.evaluate(None)


def dimension_reduce(
    n: int,
    subs: SubAlgorithms,
    epsilon: float,
    delta: float,
    seed: int = 0,
    overrides: Optional[EstimatorOverrides] = None,
    value_bound: Optional[float] = None,
) -> float:
    """Full-norm estimate of a tensor from its per-hyperplane estimators.

    Builds the tournament -> cover -> layered-summation stack over the
    absolute-hyperplane vector and amplifies the 2/3 success probability
    by a median of independent runs.
    """
    configs = _stack_configs(
        n, epsilon, delta, subs.beta, overrides or EstimatorOverrides(), value_bound
    )
    return _build_reduce_plan(n, configs, seed, _oracle_leaves(subs)).evaluate(None)


def exact_sub_oracles(M, beta: float = 1.0) -> SubAlgorithms:
    """Exact dense-tensor sub-estimators for tests and demos.

    ``approx_a`` returns the exact masked norm (trivially a valid
    beta-factor estimate), ``approx_b`` the exact collapsed masked norm.
    """
    from . import tensor as tensor_ops

    def approx_a(mask: Mask, _delta: float) -> float:
        return float(tensor_ops.l1_norm(tensor_ops.prefix_zero(M, [mask])))

    def approx_b(mask: Mask, _eps: float, _delta: float) -> float:
        return float(
            tensor_ops.l1_norm(tensor_ops.suffix_sum(tensor_ops.prefix_zero(M, [mask]), 1))
        )

    return SubAlgorithms(approx_a=approx_a, approx_b=approx_b, beta=beta)


def vector_sub_oracles(v, beta: float = 1.0) -> SubAlgorithms:
    """Exact sub-estimators for an explicit nonnegative vector.

    Models the tensor whose hyperplanes are disjoint singletons holding the
    vector entries, for which both the masked norm and its collapse equal
    the masked entry sum. Fast path for vector-level tournament/cover tests.
    """
    vec = np.asarray(v, dtype=np.float64)
    if (vec < 0).any():
        raise ConfigurationError("vector oracles require nonnegative entries")

    def masked_sum(mask: Mask, *_eps_delta: float) -> float:
        return float(vec @ mask)

    return SubAlgorithms(approx_a=masked_sum, approx_b=masked_sum, beta=beta)


# ---------------------------------------------------------------------------
# sketch-backed one-pass pipeline
# ---------------------------------------------------------------------------


class _BankRegistry:
    """Flat storage for every product-sketch repetition of a run.

    Rows are grouped by (prefix depth s, collapse depth s'); each row is
    one repetition with its own Cauchy tables, and each bank's prefix masks
    are stored once with a row -> bank index. A flush folds the chunk's
    distinct tuple counts into every group with ``fold_counts``. All banks
    of a group have the same repetition count, so bank b of a group holds
    rows [b * reps, (b + 1) * reps).
    """

    def __init__(self, k: int, n: int, omega: float):
        self.k, self.n, self.omega = k, n, float(omega)
        self._pending: Dict[Tuple[int, int], List[Tuple[Sequence[Mask], int]]] = (
            defaultdict(list)
        )
        self._reps: Dict[Tuple[int, int], int] = {}
        self.groups: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}
        self.m_seen = 0
        self.frozen = False

    def add_bank(self, prefix: Sequence[Mask], s_prime: int, reps: int, seed: int):
        """Register `reps` repetitions; returns a handle for later medians."""
        if self.frozen:
            raise ConfigurationError("registry is frozen once the pass begins")
        if reps < 1:
            raise ConfigurationError("repetitions must be >= 1")
        key = (len(prefix), s_prime)
        if self._reps.setdefault(key, reps) != reps:
            raise ConfigurationError(
                f"group {key} has {self._reps[key]} repetitions per bank, not {reps}"
            )
        start = len(self._pending[key]) * reps
        self._pending[key].append((prefix, int(seed)))
        return (key, start, start + reps)

    def freeze(self):
        """Materialize all tables; no banks may be added afterwards.

        Row r of a bank draws exactly the Cauchy tables of
        ``ProductSketchState.from_seeds(..., seed=bank seed, rep=r)``, so
        any row can be cross-checked against the scalar reference.
        """
        for key, entries in self._pending.items():
            s, s_prime = key
            reps = self._reps[key]
            prefixes, seeds = zip(*entries)
            row_seeds = repetition_seeds(np.array(seeds, dtype=np.uint64), reps)
            self.groups[key] = {
                "prefix": np.array(prefixes, dtype=np.float64).reshape(len(entries), s, self.n),
                "bank": np.repeat(np.arange(len(entries), dtype=np.int32), reps),
                "coeff": batched_cauchy_tables(row_seeds, self.k - s_prime, self.n, self.omega),
                "joint": np.zeros(len(row_seeds), dtype=np.float64),
                "margins": np.zeros((len(row_seeds), self.k), dtype=np.float64),
            }
        self._pending.clear()
        self.frozen = True

    def bulk_update(self, tuples: np.ndarray, counts: np.ndarray):
        """Fold the distinct ``tuples`` (D, k) with their record ``counts`` into every row."""
        if not self.frozen:
            raise ConfigurationError("freeze the registry before streaming")
        fields = ("prefix", "bank", "coeff", "joint", "margins")
        groups = [(sp, *(g[f] for f in fields)) for (_s, sp), g in self.groups.items()]
        self.m_seen += fold_counts(tuples, counts, self.n, groups)

    def values(self, key: Tuple[int, int], lo: int, hi: int) -> np.ndarray:
        """m^(k-1) * joint - prod(margins) of rows [lo, hi) of a group, as a new array."""
        g = self.groups[key]
        v = float(self.m_seen) ** (self.k - 1) * g["joint"][lo:hi]
        v -= np.prod(g["margins"][lo:hi], axis=1)
        return v

    def medians(self) -> Dict[Tuple[int, int], List[float]]:
        """Each bank's median |m^(k-1) * joint - prod(margins)|, per group in bank order.

        Rows are taken in blocks of whole banks, so no temporary holds more
        than FOLD_BLOCK values, or one bank's when that is larger.
        """
        table = {}
        for key, g in self.groups.items():
            reps = self._reps[key]
            step = max(1, FOLD_BLOCK // reps) * reps
            med: List[float] = []
            for lo in range(0, len(g["joint"]), step):
                v = self.values(key, lo, lo + step)
                med += row_medians(np.abs(v, out=v).reshape(-1, reps)).tolist()
                del v  # else the next block is built while this one is held
            table[key] = med
        return table


class SketchBank:
    """One bank of product-sketch repetitions: a one-bank ``_BankRegistry``.

    The bank's s prefix masks are shared by all repetitions, and repetition
    r draws its Cauchy tables from ``seed`` as registry row r does.
    ``joint``, ``margins`` and ``m_seen`` are the registry's own.
    """

    def __init__(
        self,
        k: int,
        n: int,
        s: int,
        s_prime: int,
        prefix_hashes: Sequence,
        repetitions: int,
        seed: int,
        omega: Optional[float] = None,
    ):
        if not 0 <= s_prime <= s <= k:
            raise ConfigurationError(f"need 0 <= s'={s_prime} <= s={s} <= k={k}")
        masks = [_as_table(h, n) for h in prefix_hashes]
        if len(masks) != s:
            raise ConfigurationError(f"expected {s} prefix masks, got {len(masks)}")
        self.k, self.n, self.s, self.s_prime = k, n, s, s_prime
        self.repetitions = repetitions
        self.registry = _BankRegistry(k, n, default_truncation(k, n) if omega is None else omega)
        self.leaf = _LeafRef(self.registry.add_bank(masks, s_prime, repetitions, seed))
        self.registry.freeze()
        group = self.registry.groups[(s, s_prime)]
        self.joint, self.margins = group["joint"], group["margins"]

    @property
    def m_seen(self) -> int:
        return self.registry.m_seen

    def update(self, rec: TupleKey) -> None:
        self.bulk_update({tuple(rec): 1})

    def bulk_update(self, counts: Dict[TupleKey, int]) -> None:
        """Fold a dictionary of tuple -> nonnegative integral record count."""
        tuples, c = [], []
        for rec, x in counts.items():
            tuples.append(checked_tuple(rec, self.k, self.n))
            c.append(_integral(x, None, "count"))
            if c[-1] < 0:
                raise MalformedInputError(f"negative count {x!r} of tuple {tuples[-1]}")
        T = np.array(tuples, dtype=np.int64).reshape(len(tuples), self.k)
        self.registry.bulk_update(T, np.array(c, dtype=np.int64))

    def _check_seen(self):
        if self.m_seen < 1:
            raise EmptyStreamError("sketch values require at least one tuple")

    def values(self) -> np.ndarray:
        """Per-repetition sketch values m^(k-1)*joint - prod(margins)."""
        self._check_seen()
        return self.registry.values(*self.leaf.handle)

    def median(self) -> float:
        """The median |sketch value|, as the registry's medians() takes it."""
        self._check_seen()
        return self.leaf.evaluate(self.registry.medians())


def epsilon_l1_estimate(
    bank: SketchBank, epsilon: float, delta: float, c: float = 8.0
) -> float:
    """(1 +- eps)-estimate of the fully collapsed masked tensor norm.

    The bank must target s = s' = k-1 (a single untruncated Cauchy family)
    and carry at least c/eps^2 * ln(1/delta) repetitions.
    """
    if bank.s != bank.k - 1 or bank.s_prime != bank.k - 1:
        raise ConfigurationError(
            f"epsilon estimator needs s = s' = k-1, got s={bank.s}, s'={bank.s_prime}"
        )
    need = required_epsilon_reps(epsilon, delta, c)
    if bank.repetitions < need:
        raise ConfigurationError(
            f"bank has {bank.repetitions} repetitions, needs >= {need}"
        )
    return bank.median()


def polylog_l1_estimate(bank: SketchBank, delta: float, c: float = 64.0) -> float:
    """Median-amplified product-sketch magnitude for arbitrary (s, s').

    Within [target/beta, beta*target] for beta = log2(n)^k with probability
    at least 1-delta given c * ln(1/delta) repetitions.
    """
    need = required_polylog_reps(delta, c)
    if bank.repetitions < need:
        raise ConfigurationError(
            f"bank has {bank.repetitions} repetitions, needs >= {need}"
        )
    return bank.median()


def _bank_leaves(
    reg: _BankRegistry,
    depth: int,
    prefix: List[Mask],
    configs: StackConfigs,
    ov: EstimatorOverrides,
) -> Leaves:
    """Leaves of the sketch pipeline at ``depth``: a coarse bank, and a sharp
    bank at the last depth or a child reduction above it."""

    def leaves(mask: Mask, _cfg, seed: int, rd: int, side: int):
        banked = prefix + [mask]
        a_seed = int(derive_key(seed, _TAG_BANK_A, rd, side))
        coarse = _LeafRef(reg.add_bank(banked, depth, ov.polylog_reps, a_seed))
        if depth + 2 == reg.k:
            b_seed = int(derive_key(seed, _TAG_BANK_B, rd, side))
            return coarse, _LeafRef(reg.add_bank(banked, reg.k - 1, ov.eps_reps, b_seed))
        child_seed = int(derive_key(seed, _TAG_CHILD, rd, side))
        child = _bank_leaves(reg, depth + 1, banked, configs, ov)
        return coarse, _build_reduce_plan(reg.n, configs, child_seed, child)

    return leaves


SNAPSHOT_FORMAT = "indisketch-snapshot/1"


class StreamDistanceEstimator:
    """One-pass sketch pipeline for the independence-tensor norm.

    Construction draws every hash and Cauchy seed and registers every
    product-sketch bank; ``update``/``consume`` feed stream tuples exactly
    once; ``tensor_norm_estimate`` evaluates the tournament/cover/layer
    recursion on the final accumulators. ``snapshot`` and ``merge`` split
    a pass across estimators of one configuration.
    """

    def __init__(
        self,
        k: int,
        n: int,
        epsilon: float,
        delta: float,
        seed: int = 0,
        overrides: Optional[EstimatorOverrides] = None,
    ):
        if k < 2:
            raise ConfigurationError("arity k must be >= 2")
        self.k, self.n = k, n
        self.epsilon, self.delta = epsilon, delta
        self.seed = int(seed)
        ov = overrides or EstimatorOverrides()
        if ov.beta is None:
            ov = ov.replace(beta=max(2.0, math.log2(max(n, 4))) ** k)
        if ov.omega is None:
            ov = ov.replace(omega=default_truncation(k, n))
        elif not ov.omega > 0.0:
            raise ConfigurationError("omega must be positive")
        if ov.max_chunk < 1:
            raise ConfigurationError("max_chunk must be >= 1")
        self.overrides = ov
        self.configs = _stack_configs(n, epsilon, delta, ov.beta, ov)
        self.registry = _BankRegistry(k, n, ov.omega)
        self.plan = _build_reduce_plan(
            n, self.configs, self.seed, _bank_leaves(self.registry, 0, [], self.configs, ov)
        )
        self.registry.freeze()
        self.records_consumed = 0
        self._chunk = TupleTally(k, n)

    def update(self, rec: TupleKey) -> None:
        self._tally(record_blocks([rec], self.k, self.n, self.records_consumed))

    def consume(self, stream: Iterable) -> int:
        """Tally every record (tuple or 2-D block of rows) of ``stream``, then flush."""
        self._tally(record_blocks(stream, self.k, self.n, self.records_consumed))
        self._flush()
        return self.records_consumed

    def _tally(self, blocks: Iterable[np.ndarray]) -> None:
        """Count blocks into the chunk, flushing it the moment it holds
        ``max_chunk`` distinct tuples, as a record-at-a-time count would."""
        limit = self.overrides.max_chunk
        for block in blocks:
            while len(block):
                taken = self._chunk.add(block, limit)
                self.records_consumed += taken
                block = block[taken:]
                if len(self._chunk) >= limit:
                    self._flush()

    def _flush(self):
        if len(self._chunk):
            self.registry.bulk_update(self._chunk.tuples(), self._chunk.counts)
            self._chunk = TupleTally(self.k, self.n)

    def _configuration(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "n": self.n,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": self.seed,
            "overrides": asdict(self.overrides),
        }

    def snapshot(self) -> Dict[str, object]:
        """The pass so far, after a flush: a copy of every accumulator.

        An estimator of the same configuration (``k``, ``n``, ``epsilon``,
        ``delta``, ``seed``, effective overrides) draws the same
        randomness, so by linearity it can ``merge`` this snapshot: one
        restores a snapshot by merging it into a fresh estimator.
        """
        self._flush()
        return {
            "format": SNAPSHOT_FORMAT,
            "configuration": self._configuration(),
            "m_seen": self.registry.m_seen,
            "groups": {
                key: {"joint": g["joint"].copy(), "margins": g["margins"].copy()}
                for key, g in self.registry.groups.items()
            },
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add the accumulators of a snapshot taken over a disjoint part of
        the stream; the result is the state of the combined stream."""
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ConfigurationError(f"unknown snapshot format {snapshot.get('format')!r}")
        if snapshot["configuration"] != self._configuration():
            raise MergeIncompatibleError("snapshot was taken with another configuration")
        for key, g in self.registry.groups.items():
            g["joint"] += snapshot["groups"][key]["joint"]
            g["margins"] += snapshot["groups"][key]["margins"]
        self.registry.m_seen += snapshot["m_seen"]

    @property
    def m_seen(self) -> int:
        return self.registry.m_seen + self._chunk.m

    def tensor_norm_estimate(self) -> float:
        self._flush()
        if self.registry.m_seen < 1:
            raise EmptyStreamError("no tuples were consumed")
        return self.plan.evaluate(self.registry.medians())

    def bank_rows(self) -> int:
        return sum(g["joint"].shape[0] for g in self.registry.groups.values())

    def diagnostics(self) -> Dict[str, object]:
        lcfg, tcfg, ccfg, amp = self.configs
        ov = self.overrides
        return {
            "depth": 0,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "beta": ov.beta,
            "amplification": amp,
            "rounds": tcfg.rounds,
            "ratio_threshold": tcfg.ratio_threshold,
            "alpha": tcfg.alpha,
            "subcall_delta": tcfg.subcall_delta,
            "detect_prob": tcfg.detect_prob,
            "rho": ccfg.rho,
            "cover_epsilon": ccfg.epsilon,
            "cover_delta": lcfg.cover_delta,
            "count_threshold": lcfg.count_threshold,
            "base_count": lcfg.base_count,
            "phase_steps": lcfg.phase_steps,
            "phase_ratio": lcfg.phase_ratio,
            "cover_precision": lcfg.cover_precision,
            "levels": lcfg.levels,
            "layers": lcfg.layers,
            "scale_override": lcfg.scale,
            "bank_rows": self.bank_rows(),
            "eps_reps": ov.eps_reps,
            "polylog_reps": ov.polylog_reps,
            "omega": ov.omega,
            "seed": self.seed,
        }

    def report(
        self,
        diagnostics: Optional[Dict[str, object]] = None,
        exact_distance: Optional[float] = None,
    ) -> EstimateReport:
        """The distance report: norm / (2 m^k), clamped to [0, 1], with the
        run diagnostics after ``diagnostics``. Given the exact distance, the
        report is of mode "both" and carries the relative error."""
        norm = self.tensor_norm_estimate()
        raw = norm / (2.0 * float(self.m_seen) ** self.k)
        estimate = min(1.0, max(0.0, raw))
        diag = dict(diagnostics or {})
        diag.update(self.diagnostics())
        diag["tensor_norm_estimate"] = norm
        diag["raw_distance_estimate"] = raw
        if exact_distance is not None:
            diag["relative_error"] = (
                abs(estimate - exact_distance) / exact_distance if exact_distance > 0 else None
            )
        return EstimateReport(
            distance_estimate=estimate,
            exact_distance=exact_distance,
            m=self.m_seen,
            n=self.n,
            k=self.k,
            mode="sketch" if exact_distance is None else "both",
            seed=self.seed,
            diagnostics=diag,
        )


def independence_distance(
    stream: TupleStream,
    epsilon: float,
    delta: float,
    seed: int = 0,
    overrides: Optional[EstimatorOverrides] = None,
) -> EstimateReport:
    """End-to-end one-pass estimate of the joint/product statistical distance."""
    est = StreamDistanceEstimator(
        stream.k, stream.n, epsilon, delta, seed=seed, overrides=overrides
    )
    est.consume(stream)
    return est.report()

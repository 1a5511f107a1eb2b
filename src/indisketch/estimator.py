"""The approximation stack over implicit tensors.

One stack, built as index arrays one recursion depth at a time and then
evaluated one depth at a time. Composition, bottom to top:

1. *Certifying tournament* (``_tournaments``): given a coarse
   beta-factor estimator and a sharp (1 +- eps) estimator for the
   collapsed tensor, repeatedly split the masked coordinates in half with
   a pairwise hash (a mask of one value only once) and compare the two
   halves' coarse estimates. A lopsided ratio certifies a dominant
   hyperplane, in which case the sharp estimate of the heavy half
   approximates that hyperplane's norm. The result is a threshold-max:
   either 0 or an approximation of some masked coordinate, guaranteed to
   find any coordinate holding all but an alpha fraction of the masked
   mass.

2. *Cover* (``_buckets``): hash coordinates into many buckets and run
   one tournament per bucket; the positive outputs approximate distinct
   coordinates and include every significant one.

3. *Layered summation* (``_levels``, ``_layered_sums``): run covers
   against geometrically subsampled coordinate sets, bucket the returned
   values into multiplicative layers, pick for each layer the deepest
   subsampling level whose count falls in a calibrated window, and sum the
   rescaled counts. This turns covers into an L1 estimate of the whole
   vector. All outputs of a depth are layered as arrays: layer edges by
   search against Python's float powers, one count per (run, layer,
   level) cell, one reduction for the levels and one weighted count per
   run for the sums.

4. *Dimension reduction* (``_build_reduce_plan``, ``_evaluate_plan``):
   steps 1-3 applied to the absolute-hyperplane vector of a tensor turn
   per-hyperplane estimators into a full-norm estimator, with median
   amplification of the 2/3 success probability. Each median is divided
   by the mean ratio of a value's lower layer edge to the value, so the
   rounding down to layer edges does not compound over the depths.

``_build_reduce_plan`` builds the stack from one set of constants
(``_stack_configs``) as one ``_Depth`` of index arrays per recursion
depth: runs, kept levels, occupied buckets and nonempty tournament sides,
each with a leaf factory's (coarse, sharp) leaves. Sketch leaves
(``StreamDistanceEstimator`` / ``independence_distance``) are
product-sketch banks, all registered before the one pass, with the child
reductions of the next depth as the sharp leaves above the last depth;
only the sides of tournaments over two or more values get a coarse bank,
since a one-value tournament reads its sharp value alone. A sharp bank
keeps n exact masked counts, not one accumulator per row, and its rows
are projected from them at evaluation (``sketches`` module notes).
``_evaluate_plan`` works bottom-up: leaf values, then the round decisions,
the minimum over the rounds that ran and layered sums as array
expressions, then the calibrated median per reduction. Oracle leaves
(``tensor_tournament``, ``cover_algorithm``, ``dimension_reduce``) are
a depth's side masks as one table, evaluated by
one call of each injected ``SubAlgorithms`` estimator; ``layered_l1_estimate``
takes a caller's cover for each level. Exact sub-oracles built from the
dense tensor module let property tests isolate the combinatorial logic from
sketch noise while running the stage evaluators the sketch pipeline runs.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, replace as dataclass_replace
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    EmptyStreamError,
    MalformedInputError,
    MergeIncompatibleError,
    SubAlgorithmError,
)
from .hashing import (
    FOLD_BLOCK,
    CauchyWork,
    _word,
    batched_cauchy_tables,
    bucket_tables,
    checked_omega,
    counter_uniform,
    default_truncation,
    derive_key,
    hash_table,
    zero_one_tables,
)
from .sketches import (
    Fold,
    checked_depths,
    count_masked,
    fold_counts,
    plan_fold,
    read_chunk,
    repetition_seeds,
    required_epsilon_reps,
    required_polylog_reps,
    row_medians,
)
from .stream import (
    DENSE_CELLS,
    EstimateReport,
    TupleKey,
    TupleStream,
    TupleTally,
    _integral,
    checked_count,
    checked_domain,
    checked_tuple,
    checked_unit,
    record_blocks,
)
from .tensor import DenseTensor, absolute_vector, l1_norm

Mask = np.ndarray  # uint8 0/1 vector over [1, n], index 0 <-> coordinate 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _check_beta(beta: float) -> None:
    if not 1.0 <= beta < math.inf:
        raise ConfigurationError("beta must be finite and >= 1")


@dataclass(frozen=True)
class SubAlgorithms:
    """Injected per-hyperplane estimators for one tensor, over mask tables.

    Per row ``mask`` of an (S, n) uint8 table, ``approx_a(masks, delta)``
    estimates l1_norm(prefix_zero(M, [mask])) within a factor beta, and
    ``approx_b(masks, eps, delta)`` l1_norm(suffix_sum(prefix_zero(M, [mask]), 1))
    within 1 +- eps; each returns one float array of shape (S,)."""

    approx_a: Callable[[np.ndarray, float], np.ndarray]
    approx_b: Callable[[np.ndarray, float, float], np.ndarray]
    beta: float

    def __post_init__(self):
        _check_beta(self.beta)


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
        checked_unit("epsilon", epsilon)
        checked_unit("delta", delta)
        _check_beta(beta)
        p = 1.0 - math.sqrt(1.0 - epsilon / 2.0)
        if rounds is None:
            rounds = max(1, math.ceil(math.log(1.0 / delta) / p))
        rounds = checked_count("rounds", rounds)
        subcall_delta = p * epsilon / (4.0 * math.log(1.0 / delta))
        root = (1.0 - epsilon) ** 0.25
        lam = 1.0 + 2.0 * root / (1.0 - root)
        return cls(
            epsilon=epsilon,
            delta=delta,
            beta=beta,
            detect_prob=p,
            rounds=rounds,
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
    ) -> "CoverConfig":
        checked_unit("epsilon", epsilon)
        checked_unit("delta", delta)
        if not alpha > 0.0:
            raise ConfigurationError("alpha must be positive")
        eps_sig = epsilon**2 * delta / 3.0
        if rho is None:
            rho = min(2**31 - 1, math.ceil(1.0 / (eps_sig * alpha)))
        return cls(
            epsilon=epsilon,
            delta=delta,
            alpha=alpha,
            significance=eps_sig,
            rho=checked_count("rho", rho),
        )


@dataclass(frozen=True)
class LayerConfig:
    """Level/layer bookkeeping constants of the layered L1 estimator.

    ``scale_override`` multiplies the count threshold, the calibration
    base and the phase-step count down to desk scale; the achieved failure
    rates are then measured by the acceptance suite rather than assumed
    from the proofs. ``value_bound`` only sets the layer count that
    calibrates ``base_count``; the layer grid itself has no top.
    """

    epsilon: float
    levels: int            # number of geometric subsampling levels
    layers: int            # value layers up to value_bound, for base_count
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
        base_count: Optional[int] = None,
        count_threshold: Optional[int] = None,
        phase_steps: Optional[int] = None,
    ) -> "LayerConfig":
        checked_unit("epsilon", epsilon)
        if not -math.inf < value_bound < math.inf:
            raise ConfigurationError(f"value_bound={value_bound} must be finite")
        growth = math.log1p(epsilon)
        a = max(1, math.ceil(math.log(max(checked_count("n", n), 2)) / growth))
        b = max(1, math.ceil(math.log(max(value_bound, 2.0)) / growth))
        scale = 1.0 if scale_override is None else float(scale_override)
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError("scale_override must lie in (0, 1]")
        cp = 10 * (a + b) if base_count is None else checked_count("base_count", base_count)
        cp = max(2, math.ceil(cp * scale))
        if count_threshold is None:
            chi = max(4, math.ceil(math.ceil(16.0 / epsilon**3 * cp) * scale))
        else:
            chi = checked_count("count_threshold", count_threshold)
        if phase_steps is None:
            q_steps = max(2, math.ceil(math.ceil(20.0 * cp / epsilon**2) * scale))
        else:
            q_steps = checked_count("phase_steps", phase_steps)
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
    scale_override: Optional[float] = None
    omega: Optional[float] = None

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


def _seeds(seed) -> np.ndarray:
    """A caller's integral seed as a one-element uint64 array, mod 2^64 like ``derive_key``."""
    return np.array([_word(seed, "seed")])


def _split_masks(H: np.ndarray, rd, seeds) -> np.ndarray:
    """The halves (kept-by-0, kept-by-1) of the masks H (..., n) in the rounds
    rd of the tournaments seeded by ``seeds``, broadcast together, as
    (..., 2, n); the split hashes are tabulated in one step."""
    kept1 = H * zero_one_tables(derive_key(seeds, _TAG_SPLIT, rd), H.shape[-1], 0.5)
    return np.stack([H - kept1, kept1], axis=-2)


# ---------------------------------------------------------------------------
# vector helpers and the constants of one reduction
# ---------------------------------------------------------------------------


def split_compare_ratio(V, Z) -> Tuple[float, float]:
    """Exact halves (X, Y) of a nonnegative vector under a 0/1 split hash."""
    v = np.asarray(V, dtype=np.float64)
    if not ((v >= 0) & (v < math.inf)).all():
        raise ConfigurationError("split comparison requires finite nonnegative entries")
    z = hash_table(Z, v.shape[0]).astype(np.float64)
    x = float((v * z).sum())
    return x, float(v.sum() - x)


StackConfigs = Tuple[LayerConfig, TournamentConfig, CoverConfig, int]


def _stack_configs(
    n: int,
    epsilon: float,
    delta: float,
    beta: float,
    ov: EstimatorOverrides,
) -> Tuple[StackConfigs, EstimatorOverrides]:
    """The layer, tournament and cover configurations of one reduction and
    its amplification count, for either kind of leaf, with the overrides'
    counts as ints. ``delta`` and every override are checked here or by the
    config they feed; one outside its domain is a ``ConfigurationError``."""
    checked_unit("delta", delta)
    ov = ov.replace(**{
        name: checked_count(name, getattr(ov, name))
        for name in ("amplification", "eps_reps", "polylog_reps")
        if getattr(ov, name) is not None
    })
    if ov.beta is not None:
        _check_beta(ov.beta)
    if ov.cover_epsilon is not None and not 0.0 < ov.cover_epsilon < 1.0:
        raise ConfigurationError("cover_epsilon must lie in (0, 1)")
    if ov.omega is not None:
        checked_omega(ov.omega)
    # the value bound only sets the layer count that calibrates base_count
    lcfg = LayerConfig.from_targets(epsilon, n, 2.0**48, scale_override=ov.scale_override)
    cover_eps = lcfg.cover_precision
    if ov.cover_epsilon is not None:
        cover_eps = max(cover_eps, ov.cover_epsilon)
    tcfg = TournamentConfig.from_targets(
        cover_eps / 3.0, max(lcfg.cover_delta / 4.0, 1e-9), beta, rounds=ov.rounds
    )
    ccfg = CoverConfig.from_targets(cover_eps, lcfg.cover_delta, tcfg.alpha, rho=ov.rho)
    amp = ov.amplification
    if amp is None:
        amp = max(1, math.ceil(24.0 * math.log(1.0 / delta)))
    return (lcfg, tcfg, ccfg, amp), ov


# ---------------------------------------------------------------------------
# the plan: each stage of a depth as index arrays, in evaluation order
# ---------------------------------------------------------------------------


def _levels(n: int, cfg: LayerConfig, seeds):
    """The layered summations seeded by ``seeds``: each run's phase q, and
    its kept levels (run, j) with their masks and seeds. Levels that can
    never enter the count window are skipped (their counts are bounded by
    the selected-coordinate population, which already falls below it);
    level 0 keeps all."""
    level_seeds = derive_key(seeds[:, None], _TAG_LEVEL, np.arange(cfg.levels + 1, dtype=np.uint64))
    keep = [(1.0 + cfg.epsilon) ** (-j) for j in range(cfg.levels + 1)]
    masks = zero_one_tables(derive_key(level_seeds, 1), n, keep)
    kept = masks.sum(axis=2) > cfg.count_threshold / (1.0 + cfg.epsilon) ** 2
    kept[:, 0] = True
    run, j = np.nonzero(kept)
    u = counter_uniform(derive_key(seeds, _TAG_PHASE), 0)
    q = np.minimum(cfg.phase_steps - 1, (u * cfg.phase_steps).astype(np.int64))  # the grid's phase
    return q, run, j, masks[run, j], level_seeds[run, j]


def _buckets(H, seeds, cfg: CoverConfig):
    """The occupied buckets (cover, bucket) of the covers of the masks H
    (C, n) with seeds (C,), in order, with each one's mask and tournament
    seed. A cover runs one tournament per occupied bucket; unoccupied
    buckets are exactly null. Each mask is scattered from H's nonzero
    cells: no other (buckets, n) array is built."""
    g = bucket_tables(derive_key(seeds, _TAG_BUCKET), H.shape[1], cfg.rho)
    c, i = np.nonzero(H)
    # the (cover, bucket) pairs in order, and the pair of each nonzero cell
    keys, at = np.unique(c * cfg.rho + (g[c, i] - 1), return_inverse=True)
    owner, bucket = keys // cfg.rho, keys % cfg.rho + 1
    masks = np.zeros((len(keys), H.shape[1]), dtype=H.dtype)
    masks[at, i] = 1
    return owner, bucket, masks, derive_key(seeds[owner], _TAG_TOURN, bucket)


def _sides(H, seeds, cfg: TournamentConfig):
    """Whether each of the tournaments of the masks H (T, n) with seeds (T,)
    holds one value, and their nonempty sides (tournament, round, side) in
    order, with each one's mask; an empty side reads 0. A tournament whose
    mask holds one value runs round 0 only: every round splits it into
    that value and an empty side, so only the rounds that run are split."""
    single = H.sum(axis=1) == 1
    runs = np.where(single, 1, cfg.rounds)
    t, rd = np.nonzero(np.arange(cfg.rounds) < runs[:, None])  # the rounds that run
    halves = _split_masks(H[t], rd, seeds[t])
    i, side = np.nonzero(halves.any(axis=2))
    return single, t[i], rd[i], side, halves[i, side]


class _Depth(NamedTuple):
    """Every reduction of one recursion depth, as the index arrays of its
    stages in evaluation order. Run r belongs to reduction r // amp; below
    the first depth, reduction i is the sharp leaf of side i of the depth
    above."""

    q: np.ndarray             # each amplification run's phase
    level_run: np.ndarray     # the kept levels (run, j)
    level_j: np.ndarray
    bucket_level: np.ndarray  # the occupied buckets (level, bucket): one tournament each
    bucket: np.ndarray
    single: np.ndarray        # whether each tournament's mask holds one value
    side_t: np.ndarray        # the nonempty sides (tournament, round, side)
    side_rd: np.ndarray
    side_s: np.ndarray
    coarse: object            # the coarse leaf of the sides of multi-value tournaments
    sharp: object             # and each side's sharp leaf; None: the next depth's reductions


# leaves(prefix (S, depth + 1, n), seeds, rounds, sides, multi) -> (coarse, sharp) leaves of
# S sides; the coarse leaf holds only the sides flagged by multi (of multi-value tournaments)
Leaves = Callable[..., Tuple[object, object]]


def _build_reduce_plan(n: int, configs: StackConfigs, seed: int, leaves: Leaves) -> List[_Depth]:
    """The tournament -> cover -> layer stack of one dimension reduction, one
    ``_Depth`` per recursion depth. All reductions of one depth pass each
    stage together, drawing seeds and masks as arrays, and meet ``leaves``
    in one call with each side's masks from the first depth down; a side
    without a sharp leaf gets a child reduction at the next depth.
    Everything random is drawn here; sketch leaves register their banks
    before the pass."""
    lcfg, tcfg, ccfg, amp = configs
    plan, seeds, prefix = [], _seeds(seed), np.zeros((1, 0, n), dtype=np.uint8)
    while True:
        amp_seeds = derive_key(seeds[:, None], _TAG_AMP, np.arange(amp, dtype=np.uint64))
        q, level_run, level_j, masks, level_seeds = _levels(n, lcfg, amp_seeds.ravel())
        bucket_level, bucket, masks, tseeds = _buckets(masks, level_seeds, ccfg)
        single, t, rd, side, masks = _sides(masks, tseeds, tcfg)
        prefix = np.concatenate([prefix[level_run[bucket_level[t]] // amp], masks[:, None]], axis=1)
        coarse, sharp = leaves(prefix, tseeds[t], rd, side, ~single[t])
        plan.append(
            _Depth(q, level_run, level_j, bucket_level, bucket, single, t, rd, side, coarse, sharp)
        )
        if sharp is not None:
            return plan
        seeds = derive_key(tseeds[t], _TAG_CHILD, rd, side)


# ---------------------------------------------------------------------------
# stage evaluators: each takes one stage of a whole depth as arrays
# ---------------------------------------------------------------------------


def _decide_round(u0: np.ndarray, u1: np.ndarray, ratio: float) -> np.ndarray:
    """Each round's output: the side beating the other by `ratio`, else 0.
    Both sides win only at u0 = u1 = 0, which outputs 0."""
    win1, win0 = u1 >= ratio * u0, u0 >= ratio * u1
    return np.where(win1 & ~win0, u1, np.where(win0 & ~win1, u0, 0.0))


def _tournaments(cfg: TournamentConfig, single, t, rd, side, coarse, sharp) -> np.ndarray:
    """The outputs of certifying tournaments over the masked
    absolute-hyperplane vector, one per entry of ``single`` (whether the
    tournament's mask holds one value), from each nonempty side's
    (tournament, round, side) and its coarse beta-factor and sharp
    (1 +- eps) values.

    A side reads max(coarse / beta, sharp, 0), in that order as Python's
    max takes it, and the side of a one-value mask max(sharp, 0); an empty
    side reads 0. A tournament's output is the raw minimum over the
    rounds that ran: a single null round certifies the absence of a
    dominant coordinate and zeroes it, which drives the false-positive
    probability down exponentially in the round count. In
    the detection regime (one coordinate holding all but an alpha fraction
    of the masked mass) every round fires, so the output approximates that
    coordinate with probability 1 - delta, with a (1 +- 3*epsilon)
    guarantee in terms of the round epsilon. A round without sides did not
    run and repeats round 0's decision, so a tournament with no sides (an
    empty mask) outputs 0.

    A one-value mask runs round 0 only (``_sides``), and its output is
    round 0's decision to the bit. It has no false positive to drive down:
    its empty side reads exactly 0, so the round outputs either 0 or the
    sharp estimate of its value. The union bound over leaves then needs
    only that sub-estimate's failure probability (subcall_delta), not one
    such term per round, and the minimum of independent estimates of one
    coordinate, which reads low, is not taken. The coarse estimate is not
    read: with nothing to compare it only adds its over-reads (a
    beta-factor estimate above beta times the value), which the minimum
    over rounds used to remove. Sketch leaves give such a side no coarse
    bank, and its coarse value is NaN. A NaN that a side reads (its sharp
    value, or a multi-value side's coarse value) is a SubAlgorithmError.
    """
    bad = np.flatnonzero(np.isnan(sharp) | np.isnan(coarse) & ~single[t])
    if len(bad):
        raise SubAlgorithmError(f"tournament {t[bad[0]]}, round {rd[bad[0]]}: a side reads nan")
    beta = cfg.beta
    v = coarse / beta
    v = np.where(sharp > v, sharp, v)
    v = np.where(single[t], sharp, v)
    u = np.zeros((len(single), cfg.rounds, 2))
    u[t, rd, side] = np.where(0.0 > v, 0.0, v)
    out = _decide_round(u[..., 0], u[..., 1], cfg.ratio_threshold * beta**2)
    ran = np.zeros(out.shape, dtype=bool)
    ran[t, rd] = True
    return np.where(ran, out, out[:, :1]).min(axis=1)


def _layered_sums(cfg: LayerConfig, q: np.ndarray, run, j, value) -> np.ndarray:
    """The layered sum of each amplification run (phase q), from the cover
    outputs (run, level j, value) in evaluation order, as arrays.

    With growth = 1 + epsilon and a run's shift = (1 + phase_ratio)**q, a
    positive value lies in layer l >= -1 when shift * growth**l <= value <
    shift * growth**(l + 1), against edges of Python's float pow. The grid
    has no top: a value above ``cfg.layers`` is counted, one above the
    largest finite power in that power's layer. Each layer of a run takes
    its deepest level whose count falls in the window, else level 0, and
    adds growth**(z + l) times that count; the layers are added in the
    order they first appear. A non-finite output is a ``SubAlgorithmError``.
    """
    bad = value[~np.isfinite(value)]
    if len(bad):
        raise SubAlgorithmError(f"cover output {bad[0]} is not finite")
    growth = 1.0 + cfg.epsilon
    shifts = np.array([(1.0 + cfg.phase_ratio) ** x for x in q.tolist()])
    pos = value > 0.0
    run, j = run[pos], j[pos]
    x = value[pos] / shifts[run]
    # the edges pass the largest value by a layer and reach the deepest weight
    top = max(0, math.ceil(math.log(x.max(initial=1.0)) / math.log(growth))) + 1
    levels = int(j.max(initial=0)) + 1
    edges = np.full(top + levels + 1, math.inf)  # edges[i] = growth**(i - 1) while finite
    with suppress(OverflowError):
        for i in range(len(edges)):
            edges[i] = growth ** (i - 1)
    layer = np.searchsorted(edges, x, side="right") - 1  # l + 1; -1 below the grid
    ok = layer >= 0
    cells, first, count = np.unique(
        (run[ok] * len(edges) + layer[ok]) * levels + j[ok], return_index=True, return_counts=True
    )
    group, level = cells // levels, cells % levels  # each cell's (run, layer) and level
    new = np.diff(group, prepend=-1) != 0
    start, g = np.flatnonzero(new), np.cumsum(new) - 1
    lo, hi = cfg.count_threshold / growth**2, (1.0 + 3.0 * cfg.epsilon) * cfg.count_threshold
    z = np.maximum.reduceat(np.where((lo < count) & (count <= hi), level, 0), start)
    pick = np.flatnonzero(level == z[g])  # none where level 0 is empty: that layer adds 0
    pick = pick[np.argsort(np.minimum.reduceat(first, start)[g[pick]])]  # first-seen layers
    terms = edges[level[pick] + group[pick] % len(edges)] * count[pick]
    return shifts * np.bincount(group[pick] // len(edges), terms, minlength=len(q))


def _evaluate_plan(plan: List[_Depth], configs: StackConfigs, leaf_values: Callable) -> float:
    """The root reduction's value, bottom-up one depth at a time.

    ``leaf_values(depth, below)`` gives each side's coarse and sharp values,
    where ``below`` holds the values of the next depth's reductions; the
    coarse value of a one-value tournament's side is not read. A
    cover's outputs are its positive tournament outputs, which approximate
    distinct coordinates and include every significant one; each reduction
    is the median of its runs' layered sums over ``edge_mean``.

    A layered sum counts each value at its layer's lower edge. A run's
    random phase places a value v uniformly in its layer on the log scale,
    so that edge averages v * (1 - 1 / growth) / ln(growth), with growth =
    1 + epsilon: 0.880 v at epsilon 0.3. Dividing by that factor keeps it
    from compounding once per recursion depth.
    """
    lcfg, tcfg, _, amp = configs
    edge_mean = lcfg.epsilon / ((1.0 + lcfg.epsilon) * math.log1p(lcfg.epsilon))
    below = None
    for d in reversed(plan):
        coarse, sharp = leaf_values(d, below)
        out = _tournaments(tcfg, d.single, d.side_t, d.side_rd, d.side_s, coarse, sharp)
        fired = np.flatnonzero(out > 0.0)
        level = d.bucket_level[fired]
        sums = _layered_sums(lcfg, d.q, d.level_run[level], d.level_j[level], out[fired])
        below = row_medians(sums.reshape(-1, amp)) / edge_mean
    return float(below[0])


# ---------------------------------------------------------------------------
# the public stack: thin drivers over the stage evaluators with oracle leaves
# ---------------------------------------------------------------------------


def _oracle_values(subs: SubAlgorithms, cfg: TournamentConfig, masks, rd, side):
    """approx_a and approx_b of the side masks (S, n): one call and one float
    array (S,) each. A failed table is retried side by side, a then b, so the
    error names the first failing side's round and side."""
    calls = {"approx_a": [cfg.subcall_delta], "approx_b": [cfg.epsilon, cfg.subcall_delta]}
    try:
        values = [getattr(subs, name)(masks, *args) for name, args in calls.items()]
    except Exception as e:
        if len(masks) == 1:
            raise SubAlgorithmError(f"round {rd[0]}, side {side[0]}: {e}") from e
        for i in range(len(masks)):
            _oracle_values(subs, cfg, masks[i : i + 1], rd[i : i + 1], side[i : i + 1])
        raise SubAlgorithmError(f"a table of {len(masks)} sides: {e}") from e
    for name, v in zip(calls, values):
        if not (isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape == (len(masks),)):
            raise SubAlgorithmError(f"{name} must return a float array of shape ({len(masks)},)")
    return values


def _oracle_tournaments(H, seeds, cfg: TournamentConfig, subs: SubAlgorithms) -> np.ndarray:
    """The outputs of the tournaments of the masks H with seeds over the sub-oracles."""
    single, t, rd, side, masks = _sides(H, seeds, cfg)
    return _tournaments(cfg, single, t, rd, side, *_oracle_values(subs, cfg, masks, rd, side))


def _as_mask(H) -> Mask:
    m = np.asarray(H)
    if m.ndim != 1:
        raise ConfigurationError(f"mask must be one-dimensional, got shape {m.shape}")
    if not np.isin(m, (0, 1)).all():
        raise ConfigurationError("mask entries must be 0 or 1")
    return m.astype(np.uint8)


def tensor_tournament(H, cfg: TournamentConfig, subs: SubAlgorithms, seed: int = 0) -> float:
    """Certifying tournament (``_tournaments``) over exact or injected sub-oracles."""
    return float(_oracle_tournaments(_as_mask(H)[None], _seeds(seed), cfg, subs)[0])


def cover_algorithm(
    H,
    cfg: CoverConfig,
    tcfg: TournamentConfig,
    subs: SubAlgorithms,
    seed: int = 0,
) -> Dict[int, float]:
    """Cover: the strictly positive tournament outputs by bucket."""
    _, bucket, masks, seeds = _buckets(_as_mask(H)[None], _seeds(seed), cfg)
    out = _oracle_tournaments(masks, seeds, tcfg, subs)
    return {s: u for s, u in zip(bucket.tolist(), out.tolist()) if u > 0.0}


def layered_l1_estimate(
    n: int,
    cfg: LayerConfig,
    run_cover: Callable[[Mask, int], Iterable[float]],
    seed: int = 0,
) -> float:
    """Layered summation (``_layered_sums``) of a caller's covers.

    ``run_cover(mask, seed)`` must return the positive values of a cover
    of the vector restricted to the masked coordinates, at precision
    ``cfg.cover_precision`` and failure ``cfg.cover_delta``, as any
    iterable of floats; a non-finite value is a ``SubAlgorithmError``.
    """
    n = checked_count("n", n)
    q, run, level_j, masks, seeds = _levels(n, cfg, _seeds(seed))
    values = [np.fromiter(run_cover(m, s), np.float64) for m, s in zip(masks, seeds.tolist())]
    counts = [len(v) for v in values]
    run, j = run.repeat(counts), level_j.repeat(counts)
    return float(_layered_sums(cfg, q, run, j, np.concatenate(values))[0])


def dimension_reduce(
    n: int,
    subs: SubAlgorithms,
    epsilon: float,
    delta: float,
    seed: int = 0,
    overrides: Optional[EstimatorOverrides] = None,
) -> float:
    """Full-norm estimate of a tensor from its per-hyperplane estimators.

    Builds the tournament -> cover -> layered-summation stack over the
    absolute-hyperplane vector and amplifies the 2/3 success probability
    by a median of independent runs. Each side's mask is both its leaves.
    """
    n = checked_count("n", n)
    configs, _ = _stack_configs(n, epsilon, delta, subs.beta, overrides or EstimatorOverrides())
    plan = _build_reduce_plan(n, configs, seed, lambda prefix, *_: (prefix[:, -1],) * 2)

    def leaf_values(d: _Depth, _below):
        return _oracle_values(subs, configs[1], d.coarse, d.side_rd, d.side_s)

    return _evaluate_plan(plan, configs, leaf_values)


def exact_sub_oracles(M: DenseTensor, beta: float = 1.0) -> SubAlgorithms:
    """Exact dense-tensor sub-estimators for tests and demos, one int64
    contraction per table: ``approx_a`` gives each mask's exact masked norm
    (trivially a valid beta-factor estimate), ``approx_b`` its exact collapsed
    masked norm. Every partial sum of a masked row or column is bounded by
    l1_norm(M), which must stay below 2^63."""
    if l1_norm(M) >= 2**63:
        raise BudgetExceededError("l1_norm(M) >= 2^63 would overflow the int64 contraction")
    rows, hyperplanes = M.array.reshape(M.n, -1), absolute_vector(M).array

    def approx_a(masks: np.ndarray, _delta: float) -> np.ndarray:
        return (masks @ hyperplanes).astype(np.float64)

    def approx_b(masks: np.ndarray, _eps: float, _delta: float) -> np.ndarray:
        return np.abs(masks @ rows).sum(axis=1).astype(np.float64)

    return SubAlgorithms(approx_a=approx_a, approx_b=approx_b, beta=beta)


def vector_sub_oracles(v, beta: float = 1.0) -> SubAlgorithms:
    """Exact sub-estimators for an explicit nonnegative vector.

    Models the tensor whose hyperplanes are disjoint singletons holding the
    vector entries, whose masked norm and its collapse are both ``masks @ v``.
    Fast path for vector-level tournament/cover tests.
    """
    vec = np.asarray(v, dtype=np.float64)
    if not ((vec >= 0) & (vec < math.inf)).all():
        raise ConfigurationError("vector oracles require finite nonnegative entries")

    def masked_sums(masks: np.ndarray, *_eps_delta: float) -> np.ndarray:
        return masks @ vec

    return SubAlgorithms(approx_a=masked_sums, approx_b=masked_sums, beta=beta)


# ---------------------------------------------------------------------------
# sketch-backed one-pass pipeline
# ---------------------------------------------------------------------------


class _BankRegistry:
    """Flat storage for every product-sketch repetition of a run.

    Rows are grouped by (prefix depth s, collapse depth s'). Each group
    keeps its banks' prefix masks (banks, s, n) as uint8, one seed per
    bank (``coeff``), its rows' ``joint`` accumulators and ``margins``,
    the (k, n) counts of each coordinate's values. All banks of a group
    have the same repetition count, ``reps[key]``, so bank b holds rows
    [b * reps, (b + 1) * reps). A coarse group keeps one ``joint`` float
    per row. A sharp row (s = s' = k - 1) keeps none, so the sharp
    group's ``joint`` is (rows, 0); it keeps ``counts`` (banks, n)
    instead, each bank's masked record counts by last value, from which
    evaluation projects every row (``sketches`` module notes). No Cauchy
    table is stored: ``draw`` draws a block's tables from the bank seeds
    into one workspace, reserved by the first draw, whenever a pass
    needs them, the same values every time.
    ``bulk_update`` adds a chunk's value counts and the sharp group's
    counts at once and keeps the chunk pending for the coarse groups;
    their joint sums are folded, with ``fold_counts``, in the next pass
    over their tables: ``fold_pending``, the next ``bulk_update``, or
    ``medians``, which folds and evaluates each block of one draw.
    """

    def __init__(self, k: int, n: int, omega: float):
        self.k, self.n, self.omega = k, n, checked_omega(omega)
        self.groups: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}
        self.reps: Dict[Tuple[int, int], int] = {}
        self.m_seen = 0
        self._sharp = (k - 1, k - 1)
        self._pending: Optional[Dict[Tuple[int, int], Fold]] = None
        self._work = CauchyWork(n)

    def add_bank(self, prefix: np.ndarray, s_prime: int, reps: int, seeds) -> Tuple[int, int]:
        """Register the group of the banks of `reps` repetitions, one per
        row of ``prefix`` (banks, s, n) of 0/1 masks and of ``seeds``;
        returns the group's key (s, s'), whose ``medians()`` entry holds
        one median per bank in that order. A group is registered once,
        before any record is folded.

        Row r of a bank draws its Cauchy tables from ``repetition_seeds(bank
        seed, reps)[r]``, which does not depend on ``reps``: a bank of fewer
        repetitions with the same seed holds the same first rows.
        """
        key = (prefix.shape[1], s_prime)
        if key in self.groups or self.m_seen:
            raise ConfigurationError(f"group {key} must be registered once, before the pass")
        reps = checked_count("repetitions", reps)
        seeds = _word(np.asarray(seeds), "seed")
        sharp = key == self._sharp
        self.reps[key] = reps
        self.groups[key] = g = {
            "prefix": prefix.astype(np.uint8),
            "coeff": seeds,
            "joint": np.zeros((len(seeds) * reps, 0) if sharp else len(seeds) * reps),
            "margins": np.zeros((self.k, self.n)),
        }
        if sharp:
            g["counts"] = np.zeros((len(seeds), self.n))
        return key

    def rows(self) -> int:
        """The product-sketch rows of every group."""
        return sum(len(g["prefix"]) * self.reps[key] for key, g in self.groups.items())

    def _blocks(self, key: Tuple[int, int], lo: int = 0, hi: Optional[int] = None):
        """The blocks (b0, b1, q0, q1), repetitions q0..q1 of banks b0..b1,
        of banks lo..hi of a group: whole banks whose tables hold at most
        FOLD_BLOCK values (and whose rows at most FOLD_BLOCK), or blocks of
        one bank's rows when a bank's tables are larger."""
        banks = len(self.groups[key]["prefix"]) if hi is None else hi
        reps, row = self.reps[key], (self.k - key[1]) * self.n
        whole = FOLD_BLOCK // (reps * max(1, row))
        if whole:
            for b0 in range(lo, banks, whole):
                yield b0, min(b0 + whole, banks), 0, reps
            return
        step = max(1, FOLD_BLOCK // row)
        for b in range(lo, banks):
            for q0 in range(0, reps, step):
                yield b, b + 1, q0, min(q0 + step, reps)

    def draw(self, key: Tuple[int, int], b0: int, b1: int, q0: int, q1: int) -> np.ndarray:
        """The Cauchy tables (b1 - b0, q1 - q0, k - s', n) of repetitions
        q0..q1 of banks b0..b1 of a group, drawn into the workspace, where
        the next draw overwrites them."""
        rows = repetition_seeds(self.groups[key]["coeff"][b0:b1], q1 - q0, q0)
        d = self.k - key[1]
        self._work.reserve(len(rows) * d * self.n)
        tables = batched_cauchy_tables(rows, d, self.n, self.omega, self._work)
        return tables.reshape(b1 - b0, q1 - q0, d, self.n)

    def tables(self, key: Tuple[int, int]) -> np.ndarray:
        """A copy of all of a group's Cauchy tables, (rows, k - s', n)."""
        banks, reps = len(self.groups[key]["prefix"]), self.reps[key]
        out = np.empty((banks * reps, self.k - key[1], self.n))
        blocks = out.reshape(banks, reps, *out.shape[1:])
        for b0, b1, q0, q1 in self._blocks(key):
            blocks[b0:b1, q0:q1] = self.draw(key, b0, b1, q0, q1)
        return out

    def bulk_update(self, tuples: np.ndarray, counts: np.ndarray):
        """Add the distinct ``tuples`` (D, k) with their record ``counts``:
        their value counts, record count and the sharp group's masked
        counts at once, the coarse groups' joint sums in the next pass
        over their tables. The chunk pending before is folded first, in a
        pass of its own."""
        if not len(counts):
            return
        self.fold_pending()
        chunk = read_chunk(tuples, counts)
        for key, g in self.groups.items():
            for j in range(self.k):
                g["margins"][j, chunk.values[j]] += chunk.hists[j]
            if key == self._sharp:
                count_masked(chunk, g["prefix"], g["counts"])
        coarse = [key for key in self.groups if key != self._sharp]
        self._pending = {key: plan_fold(chunk, key[1], self.reps[key]) for key in coarse} or None
        self.m_seen += int(chunk.c.sum())

    def _pass(self, key: Tuple[int, int], blocks):
        """Each of ``blocks`` of a group with its tables, drawn once, into
        whose joint rows a coarse group's pending chunk is folded first."""
        g = self.groups[key]
        pending = self._pending and self._pending.get(key)
        joint = g["joint"].reshape(len(g["prefix"]), self.reps[key]) if pending else None
        for b0, b1, q0, q1 in blocks:
            tables = self.draw(key, b0, b1, q0, q1)
            if pending:
                fold_counts(pending, g["prefix"][b0:b1], tables, joint[b0:b1, q0:q1])
            yield (b0, b1, q0, q1), tables

    def fold_pending(self) -> None:
        """Fold the pending chunk into every coarse group's joint, a pass over their tables."""
        if self._pending:
            for key in self._pending:
                for _ in self._pass(key, self._blocks(key)):
                    pass
            self._pending = None

    def _margin(self, key: Tuple[int, int], j: int, b0: int, b1: int, tables) -> np.ndarray:
        """Margin j of a block's rows, given their tables (B, Q, d, n), as a new array."""
        (s, s_prime), g = key, self.groups[key]
        hist = g["margins"][j]
        if j >= s:
            return tables[:, :, j - s_prime].reshape(-1, self.n) @ hist
        P = g["prefix"][b0:b1, j]
        if j < s_prime:
            return np.repeat(P @ hist, tables.shape[1])
        return (tables[:, :, j - s_prime] @ (P * hist)[:, :, None]).reshape(-1)

    def _collapsed(self, b0: int, b1: int) -> np.ndarray:
        """g_b = m^(k-1) F_b - (prod_{j<k-1} H_bj . h_j) h_{k-1} of banks
        b0..b1 of the sharp group, (B, n): row r of bank b has the value C_r . g_b."""
        g = self.groups[self._sharp]
        P, hist = g["prefix"][b0:b1], g["margins"]
        mass = np.ones(b1 - b0)
        for j in range(self.k - 1):
            mass *= P[:, j] @ hist[j]
        out = float(self.m_seen) ** (self.k - 1) * g["counts"][b0:b1]
        out -= mass[:, None] * hist[-1]
        return out

    def _values(self, key: Tuple[int, int], block, tables) -> np.ndarray:
        """m^(k-1) * joint - prod(margins) of a block's rows, as a new array."""
        b0, b1, q0, q1 = block
        if key == self._sharp:
            return (tables[:, :, 0] @ self._collapsed(b0, b1)[:, :, None]).reshape(-1)
        prod = self._margin(key, 0, b0, b1, tables)
        for j in range(1, self.k):  # one margin at a time, in np.prod(axis=1)'s order
            prod *= self._margin(key, j, b0, b1, tables)
        joint = self.groups[key]["joint"].reshape(-1, self.reps[key])
        v = float(self.m_seen) ** (self.k - 1) * joint[b0:b1, q0:q1].reshape(-1)
        return np.subtract(v, prod, out=v)

    def _bank(self, key: Tuple[int, int], b: int):
        """Bank b's blocks of a group with their tables, after any pending fold."""
        self.fold_pending()
        return self._pass(key, self._blocks(key, b, b + 1))

    def joint(self, key: Tuple[int, int], b: int) -> np.ndarray:
        """The joint accumulators of bank b's rows of a group, (reps,): the
        sharp group's projected from the bank's counts, C_r . F_b."""
        g = self.groups[key]
        if key == self._sharp:
            return np.concatenate([t[0, :, 0] @ g["counts"][b] for _, t in self._bank(key, b)])
        self.fold_pending()
        return g["joint"].reshape(len(g["prefix"]), self.reps[key])[b].copy()

    def values(self, key: Tuple[int, int], b: int) -> np.ndarray:
        """The values of bank b's rows of a group, (reps,)."""
        return np.concatenate([self._values(key, at, t) for at, t in self._bank(key, b)])

    def margins(self, key: Tuple[int, int], b: int) -> np.ndarray:
        """The k margins of bank b's rows of a group, (reps, k)."""
        return np.concatenate([
            np.stack([self._margin(key, j, b, b + 1, t) for j in range(self.k)], 1)
            for _, t in self._bank(key, b)
        ])

    def medians(self) -> Dict[Tuple[int, int], np.ndarray]:
        """Each bank's median |m^(k-1) * joint - prod(margins)|, per group as
        one float64 array in bank order, in one pass over the tables that
        also folds the pending chunk.

        Rows are taken in the blocks of ``_blocks``, so every temporary
        holds at most FOLD_BLOCK values (or one row's tables); a bank split
        over blocks gathers its values into one row of reps.
        """
        table = {}
        for key, g in self.groups.items():
            reps = self.reps[key]
            med = table[key] = np.empty(len(g["prefix"]))
            row = np.empty(reps)
            for (b0, b1, q0, q1), tables in self._pass(key, self._blocks(key)):
                v = self._values(key, (b0, b1, q0, q1), tables)
                np.abs(v, out=v)
                if q1 - q0 == reps:
                    med[b0:b1] = row_medians(v.reshape(-1, reps))
                else:
                    row[q0:q1] = v
                    if q1 == reps:
                        med[b0] = row_medians(row[None])[0]
                del v  # else the next block is built while this one is held
        self._pending = None
        return table


class SketchBank:
    """One bank of product-sketch repetitions: a one-bank ``_BankRegistry``.

    The bank's s prefix masks are shared by all repetitions; repetition r
    draws its Cauchy tables from ``seed`` as registry row r does. ``m_seen``
    is the registry's own; ``joint``, ``margins`` and ``values`` are formed
    on each read, in a pass over the bank's tables. ``update`` and each
    ``bulk_update`` of a sharp bank (s = s' = k - 1) add to its masked
    counts and draw nothing; of any other bank they fold in a pass of their
    own.
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
        s, s_prime = checked_depths(k, s, s_prime)
        masks = [hash_table(h, n) for h in prefix_hashes]
        if len(masks) != s:
            raise ConfigurationError(f"expected {s} prefix masks, got {len(masks)}")
        self.k, self.n, self.s, self.s_prime, self.repetitions = k, n, s, s_prime, repetitions
        self.registry = _BankRegistry(k, n, default_truncation(k, n) if omega is None else omega)
        prefix = np.array(masks, dtype=np.float64).reshape(1, s, n)
        if not ((prefix == 0) | (prefix == 1)).all():
            raise ConfigurationError("prefix masks must hold only 0 and 1")
        self.registry.add_bank(prefix, s_prime, repetitions, [seed])

    @property
    def m_seen(self) -> int:
        return self.registry.m_seen

    @property
    def joint(self) -> np.ndarray:
        return self.registry.joint((self.s, self.s_prime), 0)

    @property
    def margins(self) -> np.ndarray:
        return self.registry.margins((self.s, self.s_prime), 0)

    def update(self, rec: TupleKey) -> None:
        self.bulk_update({checked_tuple(rec, self.k, self.n): 1})

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
        return self.registry.values((self.s, self.s_prime), 0)

    def median(self) -> float:
        """The median |sketch value|, as the registry's medians() takes it."""
        self._check_seen()
        return float(self.registry.medians()[(self.s, self.s_prime)][0])


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
    checked_count("repetitions", bank.repetitions, least=required_epsilon_reps(epsilon, delta, c))
    return bank.median()


def polylog_l1_estimate(bank: SketchBank, delta: float, c: float = 64.0) -> float:
    """Median-amplified product-sketch magnitude for arbitrary (s, s').

    Within [target/beta, beta*target] for beta = log2(n)^k with probability
    at least 1-delta given c * ln(1/delta) repetitions.
    """
    checked_count("repetitions", bank.repetitions, least=required_polylog_reps(delta, c))
    return bank.median()


def _bank_leaves(reg: _BankRegistry, ov: EstimatorOverrides) -> Leaves:
    """Leaves of the sketch pipeline: a coarse bank for each side flagged
    ``multi`` (``None`` when no side is: no group is registered), and each
    side's sharp bank at the last depth; above it, a child reduction is the
    sharp leaf. A leaf is a group's key: one depth's banks of one group are
    registered in one call, one bank per side in side order."""

    def leaves(prefix, seeds, rd, side, multi):
        depth = prefix.shape[1] - 1
        coarse = None
        if multi.any():
            a_seeds = derive_key(seeds[multi], _TAG_BANK_A, rd[multi], side[multi])
            coarse = reg.add_bank(prefix[multi], depth, ov.polylog_reps, a_seeds)
        if depth + 2 < reg.k:
            return coarse, None
        b_seeds = derive_key(seeds, _TAG_BANK_B, rd, side)
        return coarse, reg.add_bank(prefix, reg.k - 1, ov.eps_reps, b_seeds)

    return leaves


SNAPSHOT_FORMAT = "indisketch-snapshot/3"
_ACCUMULATORS = ("joint", "counts", "margins")  # the arrays of a group that a snapshot holds

# a sorted tally is flushed when it holds as many distinct tuples as the
# largest dense tally has cells, so a tally never outgrows 2^16 counts
_FOLD_TUPLES = DENSE_CELLS


class StreamDistanceEstimator:
    """One-pass sketch pipeline for the independence-tensor norm.

    Construction draws every hash and Cauchy seed and registers every
    product-sketch bank; ``update``/``consume`` count stream tuples exactly
    once into a tally, which is folded into the sketches at evaluation or
    at a snapshot (a sorted tally also whenever it holds 2^16 distinct
    tuples, ``_FOLD_TUPLES``); ``tensor_norm_estimate`` evaluates the
    tournament/cover/layer recursion on the final accumulators.
    ``snapshot`` and ``merge`` split a pass across estimators of one
    configuration.
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
        k, n = checked_domain(k, n)
        self.k, self.n = k, n
        self.epsilon, self.delta = epsilon, delta
        self.seed = checked_count("seed", seed, least=None)
        ov = overrides or EstimatorOverrides()
        if ov.beta is None:
            ov = ov.replace(beta=max(2.0, math.log2(max(n, 4))) ** k)
        if ov.omega is None:
            ov = ov.replace(omega=default_truncation(k, n))
        self.configs, ov = _stack_configs(n, epsilon, delta, ov.beta, ov)
        self.overrides = ov
        self.registry = _BankRegistry(k, n, ov.omega)
        self.plan = _build_reduce_plan(n, self.configs, self.seed, _bank_leaves(self.registry, ov))
        self.records_consumed = 0
        self._chunk = TupleTally(k, n)

    def update(self, rec: TupleKey) -> None:
        self._tally(record_blocks([rec], self.k, self.n, self.records_consumed))

    def consume(self, stream: Iterable) -> int:
        """Tally every record (tuple or 2-D block of rows) of ``stream``."""
        self._tally(record_blocks(stream, self.k, self.n, self.records_consumed))
        return self.records_consumed

    def _tally(self, blocks: Iterable[np.ndarray]) -> None:
        """Count blocks into the chunk. A dense tally is flushed only at
        evaluation or at a snapshot; a sorted one the moment it holds
        ``_FOLD_TUPLES`` distinct tuples, as a record-at-a-time count would."""
        limit = None if self._chunk.dense else _FOLD_TUPLES
        for block in blocks:
            while len(block):
                taken = self._chunk.add(block, limit)
                self.records_consumed += taken
                block = block[taken:]
                if limit is not None and len(self._chunk) >= limit:
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
        """The pass so far, after a flush and its fold: a copy of every accumulator.

        An estimator of the same configuration (``k``, ``n``, ``epsilon``,
        ``delta``, ``seed``, effective overrides) draws the same
        randomness, so by linearity it can ``merge`` this snapshot: one
        restores a snapshot by merging it into a fresh estimator.
        """
        self._flush()
        self.registry.fold_pending()
        return {
            "format": SNAPSHOT_FORMAT,
            "configuration": self._configuration(),
            "m_seen": self.registry.m_seen,
            "groups": {
                key: {f: g[f].copy() for f in _ACCUMULATORS if f in g}
                for key, g in self.registry.groups.items()
            },
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Add the accumulators of a snapshot taken over a disjoint part of
        the stream; the result is the state of the combined stream. The
        whole snapshot is checked before anything is added."""
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ConfigurationError(f"unknown snapshot format {snapshot.get('format')!r}")
        if snapshot.get("configuration") != self._configuration():
            raise MergeIncompatibleError("snapshot was taken with another configuration")
        groups, own = snapshot.get("groups"), self.registry.groups
        if not isinstance(groups, dict) or groups.keys() != own.keys():
            raise MergeIncompatibleError("snapshot holds other bank groups")
        adds = [
            (g[f], groups[key].get(f)) for key, g in own.items() for f in _ACCUMULATORS if f in g
        ]
        for mine, x in adds:
            if not isinstance(x, np.ndarray) or (x.dtype, x.shape) != (mine.dtype, mine.shape):
                raise MergeIncompatibleError(f"an accumulator is not float64 of shape {mine.shape}")
        m = snapshot.get("m_seen")
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise MergeIncompatibleError(f"m_seen {m!r} is not a count of records")
        for mine, x in adds:
            mine += x
        self.registry.m_seen += int(m)

    @property
    def m_seen(self) -> int:
        return self.registry.m_seen + self._chunk.m

    def tensor_norm_estimate(self) -> float:
        self._flush()
        if self.registry.m_seen < 1:
            raise EmptyStreamError("no tuples were consumed")
        med = self.registry.medians()

        def leaf_values(d: _Depth, below):
            coarse, sharp = np.full(len(d.side_t), math.nan), d.sharp  # NaN: no coarse bank
            if d.coarse is not None:
                coarse[~d.single[d.side_t]] = med[d.coarse]
            return coarse, below if sharp is None else med[sharp]

        return _evaluate_plan(self.plan, self.configs, leaf_values)

    def bank_rows(self) -> int:
        return self.registry.rows()

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

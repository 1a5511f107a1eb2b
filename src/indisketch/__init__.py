"""One-pass estimation of how far a stream of k-tuples is from independence.

The library measures the statistical (total variation) distance between
the empirical joint distribution of a tuple stream and the product of its
per-coordinate margins, either exactly (desk-scale oracle) or with a
single streaming pass of linear product sketches composed through
certifying tournaments, covers and layered summation.
"""

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    EmptyStreamError,
    IndisketchError,
    MalformedInputError,
    MergeIncompatibleError,
    SubAlgorithmError,
)
from .stream import (
    EstimateReport,
    FrequencyTable,
    TupleStream,
    build_frequency_table,
    distance_from_tensor_norm,
    exact_statistical_distance,
    independence_tensor_entry,
)
from .tensor import (
    DenseTensor,
    absolute_vector,
    dense_independence_tensor,
    hyperplane,
    is_significant,
    l1_norm,
    prefix_zero,
    suffix_sum,
)
from .hashing import BucketHash, CauchySource, ZeroOneHash
from .sketches import ProductSketchState, reference_sketch_value
from .estimator import (
    CoverConfig,
    EstimatorOverrides,
    LayerConfig,
    SketchBank,
    StreamDistanceEstimator,
    SubAlgorithms,
    TournamentConfig,
    cover_algorithm,
    dimension_reduce,
    epsilon_l1_estimate,
    exact_sub_oracles,
    independence_distance,
    polylog_l1_estimate,
    vector_sub_oracles,
    layered_l1_estimate,
    sampling_level,
    split_compare_ratio,
    tensor_tournament,
)
from .cli import RunConfig, generate_synthetic, parse_records, run

__version__ = "0.1.0"

__all__ = [
    "BucketHash",
    "BudgetExceededError",
    "CauchySource",
    "ConfigurationError",
    "CoverConfig",
    "DenseTensor",
    "EmptyStreamError",
    "EstimateReport",
    "EstimatorOverrides",
    "FrequencyTable",
    "IndisketchError",
    "LayerConfig",
    "MalformedInputError",
    "MergeIncompatibleError",
    "ProductSketchState",
    "RunConfig",
    "SketchBank",
    "StreamDistanceEstimator",
    "SubAlgorithmError",
    "SubAlgorithms",
    "TournamentConfig",
    "TupleStream",
    "ZeroOneHash",
    "absolute_vector",
    "build_frequency_table",
    "cover_algorithm",
    "dense_independence_tensor",
    "dimension_reduce",
    "distance_from_tensor_norm",
    "epsilon_l1_estimate",
    "exact_statistical_distance",
    "exact_sub_oracles",
    "generate_synthetic",
    "hyperplane",
    "independence_distance",
    "independence_tensor_entry",
    "is_significant",
    "l1_norm",
    "layered_l1_estimate",
    "parse_records",
    "polylog_l1_estimate",
    "prefix_zero",
    "reference_sketch_value",
    "run",
    "sampling_level",
    "split_compare_ratio",
    "suffix_sum",
    "tensor_tournament",
    "vector_sub_oracles",
]

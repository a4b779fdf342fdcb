"""Tunable information-leakage measures and hard-distortion privacy-utility
tradeoffs on finite alphabets."""

from .errors import (
    AlphaleakError,
    ConvergenceError,
    IncompatibleGeneratorError,
    ValidationError,
)
from .prob import (
    Alphabet,
    AlphaOrder,
    Channel,
    Dist,
    Joint,
    as_order,
    binary_channel,
    cascade,
    conditional_of,
    log_alpha_norm,
    make_joint,
    product_channel,
)
from .measures import (
    FGenerator,
    LogBase,
    alpha_norm_center,
    arimoto_cond_entropy,
    arimoto_mi,
    custom_generator,
    f_divergence,
    hellinger_generator,
    k_alpha,
    kl_generator,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from .leakage import (
    CapacityResult,
    StrategyResult,
    alpha_leakage,
    alpha_loss,
    binary_maximal_alpha_leakage,
    capacity_lower_bound,
    f_leakage,
    maximal_alpha_leakage,
    maximal_f_leakage,
    maximal_leakage,
    min_expected_alpha_loss,
    optimal_strategy,
    strategy_for,
)
from .put import (
    AvgHammingSolution,
    DistortionSpec,
    PutSolution,
    SensitiveJoint,
    avg_hamming_binary_put,
    optimal_mechanism,
    put_f_leakage,
    put_max_alpha_leakage,
    put_max_f_leakage,
    q_star,
    sensitive_lower_bound,
)
from .datasets import (
    HammingPutResult,
    TypeIndexSet,
    TypePutResult,
    UniformBallMechanism,
    hamming_ball_size,
    hamming_crosscheck,
    hamming_put,
    type_distance_crosscheck,
    type_distance_put,
    type_index_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

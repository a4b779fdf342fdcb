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
    Channel,
    Dist,
    Joint,
    binary_channel,
    cascade,
    conditional_of,
    log_alpha_norm,
    make_joint,
    product_channel,
)
from .measures import (
    FGenerator,
    arimoto_cond_entropy,
    arimoto_mi,
    custom_generator,
    f_divergence,
    hellinger_generator,
    kl_generator,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from .leakage import (
    CapacityResult,
    alpha_leakage,
    alpha_loss,
    binary_maximal_alpha_leakage,
    f_leakage,
    maximal_alpha_leakage,
    maximal_f_leakage,
    maximal_leakage,
    min_expected_alpha_loss,
    optimal_strategy,
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
    hamming_ball_size,
    hamming_crosscheck,
    hamming_put,
    type_distance_crosscheck,
    type_distance_put,
    type_index_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Tail concentration of sums of iid heavy-tailed losses.

Computes the ratio of the quantile of a sum of n iid losses to n times the
single-loss quantile, its limit as the level tends to one, a second-order
correction whose shape depends on how fast the model's quantile function
enters its power-law regime, a batched Monte Carlo estimator with
uncertainty bands, and a high-accuracy numerical convolution oracle.
"""

from .errors import (
    BoundaryCaseError,
    DomainError,
    GridRangeError,
    PoleError,
    PrecisionError,
    ResourceLimitError,
    TailconcError,
)
from .models import (
    Burr,
    ExactHall,
    GandH,
    LossModel,
    Pareto,
    SecondOrderInfo,
    model_from_dict,
    model_to_dict,
)
from .approx import (
    ApproachDirection,
    ApproxResult,
    Direction,
    Regime,
    RegimeTag,
    approach_direction,
    classify_regime,
    convolution_constant,
    correction_amplitude,
    correction_coefficient,
    crossover,
    first_order_limit,
    second_order_approx,
    second_order_kernel,
    tail_ratio_limit,
    tail_ratio_scale,
)
from .convolution import (
    ConvolutionGrid,
    GridSpec,
    convolve_tail,
    oracle_concentration,
    oracle_quantile,
    oracle_quantiles,
    tail_ratio_diagnostic,
)
from .montecarlo import (
    ConcentrationCurve,
    DenominatorMode,
    SimulationConfig,
    empirical_concentration,
    empirical_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TailconcError",
    "DomainError",
    "PoleError",
    "BoundaryCaseError",
    "PrecisionError",
    "GridRangeError",
    "ResourceLimitError",
    # models
    "LossModel",
    "SecondOrderInfo",
    "Pareto",
    "Burr",
    "GandH",
    "ExactHall",
    "model_from_dict",
    "model_to_dict",
    # approximations
    "RegimeTag",
    "Regime",
    "ApproxResult",
    "Direction",
    "ApproachDirection",
    "classify_regime",
    "convolution_constant",
    "tail_ratio_limit",
    "tail_ratio_scale",
    "second_order_kernel",
    "correction_coefficient",
    "correction_amplitude",
    "first_order_limit",
    "second_order_approx",
    "approach_direction",
    "crossover",
    # convolution oracle
    "GridSpec",
    "ConvolutionGrid",
    "convolve_tail",
    "oracle_quantile",
    "oracle_quantiles",
    "oracle_concentration",
    "tail_ratio_diagnostic",
    # Monte Carlo
    "DenominatorMode",
    "SimulationConfig",
    "ConcentrationCurve",
    "empirical_quantile",
    "empirical_concentration",
]

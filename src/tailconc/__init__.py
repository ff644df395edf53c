"""Tail concentration of sums of iid heavy-tailed losses.

Computes the ratio of the quantile of a sum of n iid losses to n times the
single-loss quantile, its limit as the level tends to one, a second-order
correction whose shape depends on how fast the model's quantile function
enters its power-law regime, a batched Monte Carlo estimator with
uncertainty bands, and a high-accuracy numerical convolution oracle.
"""

from . import approx, convolution, errors, models, montecarlo
from .approx import *
from .convolution import *
from .errors import *
from .models import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *models.__all__,
    *approx.__all__,
    *convolution.__all__,
    *montecarlo.__all__,
]

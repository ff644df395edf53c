"""Scalar special functions: gamma, beta, and the normal law.

``gamma`` and ``beta`` come from :func:`math.gamma`; the normal law
(``ndtr``, ``ndtri``) and the far range of ``beta`` come from
``scipy.special``, which only :func:`scipy_special` imports, on first use.
So a run loads scipy only for the g-and-h normal law, or for a ``beta``
with ``x + y >= 171`` or a subnormal argument. Every function adds the
package's error contract: an argument that is not one real number
(``bool``, a string, an array), NaN, or one outside the function's domain
raises :class:`DomainError`; 0 and the negative integers raise
:class:`PoleError` in :func:`gamma`; overflow returns ``inf``. Every
function returns a builtin ``float``.

They serve scalar calls (the convolution constants, the g-and-h closed
forms); the g-and-h model evaluates the normal law on arrays through the
same ``ndtr`` and ``ndtri``.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import PoleError, check_real, check_scalar

__all__ = [
    "gamma",
    "beta",
    "normal_cdf",
    "normal_inv_cdf",
    "scipy_special",
]

# Below this x + y, gamma(x + y) <= gamma(171) ~ 7.3e306, so gamma(x) / gamma(x + y)
# (gamma(x) >= 0.88) stays a normal float and the product form keeps full precision;
# with x and y normal floats too, no factor and no partial product overflows.
_BETA_GAMMA_MAX = 171.0


@functools.cache
def scipy_special():
    """``scipy.special``, imported on the first call: the package's only route to scipy."""
    from scipy import special

    return special


def gamma(x: float) -> float:
    """Gamma function on the real line. Raises :class:`PoleError` at 0 and the
    negative integers, and :class:`DomainError` at NaN and -inf."""
    x = check_scalar("gamma: x", x, -math.inf, strict=True)
    if x <= 0.0 and x.is_integer():
        raise PoleError(f"gamma: pole at non-positive integer x = {x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        # gamma overflows only above 171.6 and within ~1e-308 of 0, where it has the sign of x
        return math.copysign(math.inf, x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = gamma(x) gamma(y) / gamma(x + y), x, y > 0."""
    x = check_scalar("beta: x", x, 0.0, strict=True)
    y = check_scalar("beta: y", y, 0.0, strict=True)
    if x + y < _BETA_GAMMA_MAX and min(x, y) >= sys.float_info.min:
        return math.gamma(x) / math.gamma(x + y) * math.gamma(y)
    # scipy gives NaN where B underflows (both arguments above ~1e77, or one inf)
    b = float(scipy_special().beta(x, y))
    return 0.0 if math.isnan(b) else b


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    x = check_scalar("normal_cdf: x", x, -math.inf, strict=False)
    return float(scipy_special().ndtr(x))


def normal_inv_cdf(p: float) -> float:
    """Standard normal quantile for p in (0, 1)."""
    return float(scipy_special().ndtri(check_real("normal_inv_cdf: p", p, 0.0, 1.0)))

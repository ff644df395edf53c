"""Scalar special functions: gamma, beta, and the normal law.

Thin wrappers over ``scipy.special`` (``gamma``, ``beta``, ``ndtr``,
``ndtri``) that add the package's error contract: an argument that is
not one real number (``bool``, a string, an array), NaN, or one outside the
function's domain raises :class:`DomainError`; 0 and the
negative integers raise :class:`PoleError` in :func:`gamma`; overflow returns
``inf``. Every function returns a builtin ``float``.

They serve scalar calls (the convolution constants, the g-and-h closed
forms); the models evaluate the normal law on arrays through the same
``ndtr`` and ``ndtri``.
"""

from __future__ import annotations

import math

from scipy import special as _sc

from .errors import PoleError, check_real, check_scalar

__all__ = [
    "gamma",
    "beta",
    "normal_cdf",
    "normal_inv_cdf",
]


def gamma(x: float) -> float:
    """Gamma function on the real line. Raises :class:`PoleError` at 0 and the
    negative integers, and :class:`DomainError` at NaN and -inf."""
    x = check_scalar("gamma: x", x, -math.inf, strict=True)
    if x <= 0.0 and x.is_integer():
        raise PoleError(f"gamma: pole at non-positive integer x = {x:g}")
    return float(_sc.gamma(x))


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = gamma(x) gamma(y) / gamma(x + y), x, y > 0."""
    x = check_scalar("beta: x", x, 0.0, strict=True)
    y = check_scalar("beta: y", y, 0.0, strict=True)
    # scipy gives NaN where B underflows (both arguments above ~1e77, or one inf)
    b = float(_sc.beta(x, y))
    return 0.0 if math.isnan(b) else b


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    return float(_sc.ndtr(check_scalar("normal_cdf: x", x, -math.inf, strict=False)))


def normal_inv_cdf(p: float) -> float:
    """Standard normal quantile for p in (0, 1)."""
    return float(_sc.ndtri(check_real("normal_inv_cdf: p", p, 0.0, 1.0)))

"""Scalar special functions: gamma, beta, and the normal law.

Thin wrappers over ``scipy.special`` (``gamma``, ``beta``, ``ndtr``,
``ndtri``) that add the package's error contract: a NaN argument,
or one outside the function's domain, raises :class:`DomainError`; 0 and the
negative integers raise :class:`PoleError` in :func:`gamma`; overflow returns
``inf``. Every function returns a builtin ``float``.

They serve scalar calls (the convolution constants, the g-and-h closed
forms); the models evaluate the normal law on arrays through the same
``ndtr`` and ``ndtri``.
"""

from __future__ import annotations

import math

from scipy import special as _sc

from .errors import DomainError, PoleError

__all__ = [
    "gamma",
    "beta",
    "normal_cdf",
    "normal_inv_cdf",
]


def gamma(x: float) -> float:
    """Gamma function on the real line. Raises :class:`PoleError` at 0 and the
    negative integers, and :class:`DomainError` at NaN and -inf."""
    x = float(x)
    if math.isnan(x) or x == -math.inf:
        raise DomainError(f"gamma: argument must be a number above -inf, got {x:g}")
    if x <= 0.0 and x.is_integer():
        raise PoleError(f"gamma: pole at non-positive integer x = {x:g}")
    return float(_sc.gamma(x))


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = gamma(x) gamma(y) / gamma(x + y), x, y > 0."""
    x = float(x)
    y = float(y)
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta: requires x > 0 and y > 0, got ({x:g}, {y:g})")
    # scipy gives NaN where B underflows (both arguments above ~1e77, or one inf)
    b = float(_sc.beta(x, y))
    return 0.0 if math.isnan(b) else b


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate in both tails."""
    x = float(x)
    if math.isnan(x):
        raise DomainError("normal_cdf: argument is NaN")
    return float(_sc.ndtr(x))


def normal_inv_cdf(p: float) -> float:
    """Standard normal quantile for p in (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"normal_inv_cdf: requires 0 < p < 1, got {p:g}")
    return float(_sc.ndtri(p))

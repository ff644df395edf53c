"""First- and second-order approximations of the diversification ratio.

For n iid losses with tail quantile function U of index xi, the ratio of the
sum's value-at-risk to n times the single-loss value-at-risk tends to
n^(xi-1) as the level tends to 1. The module also provides the second-order
correction term K(n) * A(alpha), where the coefficient K depends on the
relation between the second-order index rho and xi (fast / slow / boundary
regimes) and the amplitude A(alpha) vanishes as alpha -> 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from scipy.special import exprel

from . import special
from .errors import BoundaryCaseError, DomainError
from .models import LossModel, SecondOrderInfo

__all__ = [
    "RegimeTag",
    "Regime",
    "ApproxResult",
    "Direction",
    "ApproachDirection",
    "convolution_constant",
    "tail_ratio_limit",
    "tail_ratio_scale",
    "second_order_kernel",
    "classify_regime",
    "correction_coefficient",
    "correction_amplitude",
    "first_order_limit",
    "second_order_approx",
    "approach_direction",
    "crossover",
]

_Q_PROBE_ALPHA = 1.0 - 1e-8


class RegimeTag(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"
    BOUNDARY = "boundary"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class Regime:
    """Classification of a model's second-order behaviour.

    ``q`` is the boundary balance constant (limit of the tail-ratio scale
    over the auxiliary function); it is populated only on the boundary.
    ``reason`` is a human-readable classification note.
    """

    tag: RegimeTag
    q: Optional[float] = None
    reason: str = ""


@dataclass(frozen=True, slots=True)
class ApproxResult:
    """Second-order approximation at a single level: c2 = c1 + correction."""

    c1: float
    c2: float
    correction: float
    regime: Regime
    degenerate: bool


class Direction(str, enum.Enum):
    FROM_ABOVE = "from_above"
    FROM_BELOW = "from_below"
    MODEL_DEPENDENT = "model_dependent"


@dataclass(frozen=True, slots=True)
class ApproachDirection:
    """Sign of the approach of the ratio to its limit, with the limiting
    value of the derivative of the correction with respect to alpha."""

    direction: Direction
    derivative_limit: float


def validate_n(n: int, max_n: Optional[int] = None) -> int:
    """Check a number of summands: an integer >= 2 and, if given, <= max_n."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if max_n is not None and n > max_n:
        raise DomainError(f"n must lie in [2, {max_n}], got {n}")
    return n


def _convolution_constant_upper(xi: float) -> float:
    """Pole-free form of the convolution constant for xi > 1 (finite at
    xi = 1 with value 1 and vanishing at xi = 2).

    Algebraically identical to (1 - xi) * Gamma(1 - 1/xi)^2 / (2 * Gamma(1 - 2/xi)),
    rewritten through the reflection formula so nothing blows up near xi = 1:
    c(xi) = xi^2 * Gamma(2 - 1/xi)^2 * Gamma(2/xi) * S(xi) / (2 pi),
    S(xi) = sin(2 pi (xi - 1)/xi) / (xi - 1).
    """
    u = xi - 1.0
    w = 2.0 * math.pi * u / xi
    if abs(u) < 1e-4:
        # sin(w)/u = (2 pi / xi) (1 - w^2/6 + w^4/120 - ...)
        s = (2.0 * math.pi / xi) * (1.0 - w * w / 6.0 + w**4 / 120.0)
    else:
        s = math.sin(w) / u
    g1 = special.gamma(2.0 - 1.0 / xi)
    g2 = special.gamma(2.0 / xi)
    return xi * xi * g1 * g1 * g2 * s / (2.0 * math.pi)


def convolution_constant(xi: float) -> float:
    """Constant governing the second-order term of the two-term expansion of
    an n-fold convolution tail: 1/xi for xi <= 1, and
    (1-xi) Gamma(1-1/xi)^2 / (2 Gamma(1-2/xi)) for xi > 1 (0 at xi = 2).

    The two branches agree (value 1) at xi = 1; the xi > 1 branch is
    evaluated in a pole-free form accurate near xi = 1 and exactly zero at
    xi = 2.
    """
    xi = float(xi)
    if not (math.isfinite(xi) and xi > 0.0):
        raise DomainError(f"convolution_constant: requires finite xi > 0, got {xi!r}")
    if xi <= 1.0:
        return 1.0 / xi
    if xi == 2.0:
        return 0.0
    return _convolution_constant_upper(xi)


def tail_ratio_limit(xi: float, n: int) -> float:
    """Limit of (G_bar(x)/F_bar(x) - n) / b(x) for the n-fold convolution
    tail G_bar: equals n (n - 1) times the convolution constant."""
    n = validate_n(n)
    return n * (n - 1) * convolution_constant(xi)


def tail_ratio_scale(model: LossModel, x: float) -> float:
    """Scale function b(x) of the second-order tail expansion.

    mu/x when the mean is finite and xi <= 1; the truncated mean over x in
    the infinite-mean xi = 1 case; F_bar(x)/(xi - 1) for xi > 1.
    """
    info = model.second_order_info()
    xi = info.xi
    x = float(x)
    if xi > 1.0:
        return model.tail(x) / (xi - 1.0)
    if xi == 1.0 and not info.mean_finite:
        return model.moments(x) / x
    return model.moments(math.inf) / x


def second_order_kernel(xi: float, rho: float, s: float) -> float:
    """Limit kernel of second-order regular variation:
    s^xi (s^rho - 1)/rho, with the rho = 0 limit s^xi log s."""
    s = float(s)
    xi = float(xi)
    rho = float(rho)
    if not s > 0.0:
        raise DomainError(f"second_order_kernel: requires s > 0, got {s!r}")
    if rho > 0.0:
        raise DomainError(f"second_order_kernel: requires rho <= 0, got {rho!r}")
    ls = math.log(s)
    return s**xi * ls * float(exprel(rho * ls))


def classify_regime(info: SecondOrderInfo, q: Optional[float] = None) -> Regime:
    """Classify (xi, rho) into fast / slow / boundary / degenerate.

    The boundary is the exact equality rho == -min(1, xi); floating-point
    inputs near (but not on) the boundary classify to the strict side.
    ``q`` (the boundary balance constant) is attached when supplied.
    """
    xi, rho = info.xi, info.rho
    if xi <= 0:
        raise DomainError(f"classify_regime: requires xi > 0, got {xi!r}")
    thr = -min(1.0, xi)
    if rho < thr:
        if xi == 2.0:
            return Regime(
                RegimeTag.DEGENERATE,
                reason="xi = 2: the fast-regime correction coefficient vanishes",
            )
        return Regime(RegimeTag.FAST, reason=f"rho = {rho:g} < -min(1, xi) = {thr:g}")
    if rho > thr:
        return Regime(RegimeTag.SLOW, reason=f"rho = {rho:g} > -min(1, xi) = {thr:g}")
    return Regime(
        RegimeTag.BOUNDARY, q=q, reason=f"rho = -min(1, xi) = {thr:g} exactly"
    )


def correction_coefficient(xi: float, rho: float, n: int) -> float:
    """Second-order coefficient K(n) off the boundary.

    Fast regime: (n-1)/n for xi <= 1, and n^(xi-2) (n-1) xi c(xi) for
    xi > 1. Slow regime: n^(xi-1) (n^rho - 1)/rho, with the rho = 0 limit
    n^(xi-1) log n. On the boundary this coefficient is undefined and
    :class:`BoundaryCaseError` is raised.
    """
    n = validate_n(n)
    xi = float(xi)
    rho = float(rho)
    if not (math.isfinite(xi) and xi > 0):
        raise DomainError(f"correction_coefficient: requires finite xi > 0, got {xi!r}")
    thr = -min(1.0, xi)
    if rho == thr:
        raise BoundaryCaseError(
            "correction_coefficient is undefined on the regime boundary "
            "rho = -min(1, xi); use second_order_approx, which applies the "
            "boundary expansion"
        )
    if rho < thr:
        if xi <= 1.0:
            return (n - 1.0) / n
        return n ** (xi - 2.0) * (n - 1.0) * xi * convolution_constant(xi)
    if rho == 0.0:
        return n ** (xi - 1.0) * math.log(n)
    return n ** (xi - 1.0) * math.expm1(rho * math.log(n)) / rho


def correction_amplitude(model: LossModel, alpha: float, closed_form: bool = False) -> float:
    """Amplitude A(alpha) of the second-order correction, vanishing as
    alpha -> 1.

    Fast regime: the tail-ratio scale b evaluated at the quantile (with
    optional closed forms for models with known Hall constants). Slow
    regime: the auxiliary function at 1/(1-alpha); for g-and-h this has the
    exact closed form g / normal_inv_cdf(alpha), which is always used.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"correction_amplitude: alpha must lie in (0, 1), got {alpha!r}")
    info = model.second_order_info()
    regime = classify_regime(info)
    if regime.tag is RegimeTag.BOUNDARY:
        raise BoundaryCaseError(
            "correction_amplitude is undefined on the regime boundary; "
            "use second_order_approx"
        )
    one_minus = 1.0 - alpha
    if regime.tag in (RegimeTag.FAST, RegimeTag.DEGENERATE):
        xi = info.xi
        if closed_form and info.hall_c is not None:
            c = info.hall_c
            if xi < 1.0:
                return model.moments(math.inf) / c * one_minus**xi
            if xi == 1.0:
                return -one_minus * math.log(one_minus)
            return one_minus / (xi - 1.0)
        return tail_ratio_scale(model, model.quantile(alpha))
    # slow regime
    if model.kind == "gandh":
        z = special.normal_inv_cdf(alpha)
        if z <= 0.0:
            raise DomainError(
                "correction_amplitude: the g-and-h closed form g/normal_inv_cdf(alpha) "
                "needs alpha > 1/2"
            )
        return model.g / z
    if closed_form and info.hall_d is not None:
        return info.hall_d * info.rho * one_minus ** (-info.rho)
    return model.auxiliary(1.0 / one_minus)


def first_order_limit(xi: float, n: int) -> float:
    """Limiting ratio n^(xi-1) of the sum quantile to n times the
    single-loss quantile."""
    n = validate_n(n)
    xi = float(xi)
    if not (math.isfinite(xi) and xi > 0):
        raise DomainError(f"first_order_limit: requires finite xi > 0, got {xi!r}")
    return float(n) ** (xi - 1.0)


def _boundary_q_estimate(model: LossModel) -> float:
    """Numeric estimate of the boundary balance constant q =
    lim b(Q(alpha)) / a(1/(1-alpha)), probed deep in the tail."""
    alpha = _Q_PROBE_ALPHA
    b_val = tail_ratio_scale(model, model.quantile(alpha))
    a_val = model.auxiliary(1.0 / (1.0 - alpha))
    return b_val / a_val


def _boundary_coefficient(info: SecondOrderInfo, n: int, q: float) -> float:
    """Coefficient multiplying the auxiliary function on the boundary:
    the fast-type term (weighted by q) plus the slow-type kernel term."""
    xi = info.xi
    j = tail_ratio_limit(xi, n)
    fast_part = xi * n ** (xi - 2.0) * n ** (-min(1.0, xi)) * j * q
    slow_part = second_order_kernel(xi, info.rho, float(n)) / n
    return fast_part + slow_part


def second_order_approx(
    model: LossModel,
    alpha: float,
    n: int,
    q: Optional[float] = None,
    closed_form: bool = False,
) -> ApproxResult:
    """First-order limit plus the regime-appropriate correction at a level.

    On the boundary the correction is coefficient(n, q) * a(1/(1-alpha)),
    with q estimated numerically from the model when not supplied. In the
    degenerate case (xi = 2 in the fast regime) the correction is zero and
    the degenerate flag is set.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"second_order_approx: alpha must lie in (0, 1), got {alpha!r}")
    n = validate_n(n)
    info = model.second_order_info()
    c1 = first_order_limit(info.xi, n)
    regime = classify_regime(info, q)
    if regime.tag is RegimeTag.DEGENERATE:
        return ApproxResult(c1=c1, c2=c1, correction=0.0, regime=regime, degenerate=True)
    if regime.tag is RegimeTag.BOUNDARY:
        q_eff = q if q is not None else _boundary_q_estimate(model)
        regime = Regime(RegimeTag.BOUNDARY, q=q_eff, reason=regime.reason)
        coeff = _boundary_coefficient(info, n, q_eff)
        corr = coeff * model.auxiliary(1.0 / (1.0 - alpha))
        return ApproxResult(c1=c1, c2=c1 + corr, correction=corr, regime=regime, degenerate=False)
    k = correction_coefficient(info.xi, info.rho, n)
    a = correction_amplitude(model, alpha, closed_form=closed_form)
    corr = k * a
    return ApproxResult(c1=c1, c2=c1 + corr, correction=corr, regime=regime, degenerate=False)


def approach_direction(model: LossModel, n: int) -> ApproachDirection:
    """Direction from which the ratio approaches its limit as alpha -> 1,
    read off the sign of the correction term, together with the limit of
    d(correction)/d(alpha).

    A positive correction near alpha = 1 means the ratio sits above its
    limit (approach from above); negative means from below. Where the sign
    depends on unavailable model constants the direction is reported as
    model-dependent.
    """
    n = validate_n(n)
    info = model.second_order_info()
    xi = info.xi
    regime = classify_regime(info)
    if regime.tag is RegimeTag.DEGENERATE:
        return ApproachDirection(Direction.MODEL_DEPENDENT, 0.0)
    if regime.tag is RegimeTag.FAST:
        if xi < 1.0:
            # correction ~ ((n-1)/n) mu (1-alpha)^xi / c > 0, slope -> -inf
            return ApproachDirection(Direction.FROM_ABOVE, -math.inf)
        if xi == 1.0:
            if not info.mean_finite:
                return ApproachDirection(Direction.FROM_ABOVE, -math.inf)
            c = info.hall_c if info.hall_c is not None else 1.0
            slope = -((n - 1.0) / n) * model.moments(math.inf) / c
            return ApproachDirection(Direction.FROM_ABOVE, slope)
        # xi > 1: correction = n^(xi-2) (n-1) xi c(xi) (1-alpha)/(xi-1) + o(1-alpha)
        slope = -(n ** (xi - 2.0)) * (n - 1.0) * xi * convolution_constant(xi) / (xi - 1.0)
        if xi < 2.0:
            return ApproachDirection(Direction.FROM_ABOVE, slope)
        return ApproachDirection(Direction.FROM_BELOW, slope)
    if regime.tag is RegimeTag.SLOW:
        k = correction_coefficient(xi, info.rho, n)
        if model.kind == "gandh":
            return ApproachDirection(Direction.FROM_ABOVE, -math.inf)
        if info.hall_d is not None:
            sign = math.copysign(1.0, info.hall_d * info.rho * k)
            # amplitude ~ d rho (1-alpha)^(-rho) with -1 < rho <= 0 here, so
            # its alpha-derivative diverges, opposite in sign to the correction
            direction = Direction.FROM_ABOVE if sign > 0 else Direction.FROM_BELOW
            return ApproachDirection(direction, -sign * math.inf)
        return ApproachDirection(Direction.MODEL_DEPENDENT, math.nan)
    # boundary
    q_eff = _boundary_q_estimate(model)
    coeff = _boundary_coefficient(info, n, q_eff)
    probe = model.auxiliary(1.0 / (1.0 - _Q_PROBE_ALPHA))
    sign = math.copysign(1.0, coeff * probe)
    direction = Direction.FROM_ABOVE if sign > 0 else Direction.FROM_BELOW
    if info.rho == -1.0 and info.hall_d is not None:
        # a(t) ~ d rho / t, so d(correction)/d(alpha) -> coeff * d * rho^2
        slope = coeff * info.hall_d * info.rho * info.rho
        return ApproachDirection(direction, slope)
    return ApproachDirection(direction, -math.inf if sign > 0 else math.inf)


def crossover(
    model: LossModel,
    n: int,
    alpha_lo: float = 0.9,
    alpha_hi: float = 1.0 - 1e-7,
) -> Optional[float]:
    """Level alpha* where the second-order approximation crosses 1, if one
    exists in [alpha_lo, alpha_hi]; None when the curve does not change
    side. Bisection to |delta alpha| <= 1e-7.
    """
    n = validate_n(n)
    alpha_lo = float(alpha_lo)
    alpha_hi = float(alpha_hi)
    if not (0.0 < alpha_lo < alpha_hi < 1.0):
        raise DomainError("crossover: need 0 < alpha_lo < alpha_hi < 1")

    def f(a: float) -> float:
        return second_order_approx(model, a, n).c2 - 1.0

    lo, hi = alpha_lo, alpha_hi
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        # scan a log-spaced grid in 1-alpha for a sign change
        import numpy as np

        grid = 1.0 - np.geomspace(1.0 - alpha_lo, 1.0 - alpha_hi, 257)
        vals = [f(float(a)) for a in grid]
        bracket = None
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                return float(grid[i])
            if vals[i] * vals[i + 1] < 0:
                bracket = (float(grid[i]), float(grid[i + 1]), vals[i])
                break
        if bracket is None:
            return None
        lo, hi, f_lo = bracket
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    return 0.5 * (lo + hi)

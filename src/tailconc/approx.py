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
from typing import Callable, Optional

import numpy as np

from . import special
from .errors import BoundaryCaseError, DomainError, PrecisionError, check_int, check_real, check_scalar
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
    xi = check_real("convolution_constant: xi", xi, 0.0)
    if xi <= 1.0:
        return 1.0 / xi
    if xi == 2.0:
        return 0.0
    return _convolution_constant_upper(xi)


def tail_ratio_limit(xi: float, n: int) -> float:
    """Limit of (G_bar(x)/F_bar(x) - n) / b(x) for the n-fold convolution
    tail G_bar: equals n (n - 1) times the convolution constant."""
    n = check_int("n", n, 2)
    return n * (n - 1) * convolution_constant(xi)


def tail_ratio_scale(model: LossModel, x: float) -> float:
    """Scale function b(x) of the second-order tail expansion.

    mu/x when the mean is finite and xi <= 1; the truncated mean over x in
    the infinite-mean xi = 1 case; F_bar(x)/(xi - 1) for xi > 1.
    """
    info = model.second_order_info()
    xi = info.xi
    x = check_scalar("tail_ratio_scale: x", x, model.support_min, strict=False)
    if xi > 1.0:
        return model.tail(x) / (xi - 1.0)
    if x == 0.0:
        raise DomainError("tail_ratio_scale: x must be nonzero for xi <= 1 (b(x) divides by x)")
    if xi == 1.0 and not info.mean_finite:
        return model.moments(x) / x
    return model.moments(math.inf) / x


def second_order_kernel(xi: float, rho: float, s: float) -> float:
    """Limit kernel of second-order regular variation:
    s^xi (s^rho - 1)/rho, with the rho = 0 limit s^xi log s."""
    xi = check_real("second_order_kernel: xi", xi, 0.0)
    rho = check_real("second_order_kernel: rho", rho)
    s = check_real("second_order_kernel: s", s, 0.0)
    if rho > 0.0:
        raise DomainError(f"second_order_kernel: requires rho <= 0, got {rho!r}")
    ls = math.log(s)
    return _in_range("second_order_kernel", s, xi, lambda: s**xi * ls * _exprel(rho * ls), "s")


def _exprel(x: float) -> float:
    """(exp(x) - 1)/x, 1 at x = 0; OverflowError above x ~ 709.78."""
    return math.expm1(x) / x if x else 1.0


def classify_regime(info: SecondOrderInfo, q: Optional[float] = None) -> Regime:
    """Classify (xi, rho) into fast / slow / boundary / degenerate.

    The boundary is the exact equality rho == -min(1, xi); floating-point
    inputs near (but not on) the boundary classify to the strict side.
    ``q`` (the boundary balance constant) is attached when supplied.
    """
    xi, rho = check_real("classify_regime: xi", info.xi, 0.0), info.rho
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
    n = check_int("n", n, 2)
    xi = check_real("correction_coefficient: xi", xi, 0.0)
    # rho = -inf (an eventually constant slowly varying part) is allowed
    rho = check_scalar("correction_coefficient: rho", rho, -math.inf, strict=False)
    if rho > 0.0:
        raise DomainError(f"correction_coefficient: requires rho <= 0, got {rho!r}")
    thr = -min(1.0, xi)
    if rho == thr:
        raise BoundaryCaseError(
            "correction_coefficient is undefined on the regime boundary "
            "rho = -min(1, xi); use second_order_approx, which applies the "
            "boundary expansion"
        )
    if rho < thr and xi <= 1.0:
        return (n - 1.0) / n

    def coefficient():
        if rho < thr:
            return n ** (xi - 2.0) * (n - 1.0) * xi * convolution_constant(xi)
        if rho == 0.0:
            return n ** (xi - 1.0) * math.log(n)
        return n ** (xi - 1.0) * math.expm1(rho * math.log(n)) / rho

    return _in_range("correction_coefficient", n, xi, coefficient)


def correction_amplitude(model: LossModel, alpha: float, closed_form: bool = False) -> float:
    """Amplitude A(alpha) of the second-order correction, vanishing as
    alpha -> 1.

    Fast regime: the tail-ratio scale b evaluated at the quantile. For
    xi > 1 that is (1 - alpha)/(xi - 1) for every model, since
    F_bar(Q(alpha)) = 1 - alpha; for xi <= 1 it is computed numerically, or
    with ``closed_form`` from the Hall constants where a model has them. Slow
    regime: the auxiliary function at 1/(1-alpha); for g-and-h always its
    leading term g / normal_inv_cdf(alpha), which ignores a and every
    higher-order term (1.216 where ``GandH(0, 1, 2, 0.5).auxiliary(20)`` is
    0.906).
    """
    alpha = check_real("correction_amplitude: alpha", alpha, 0.0, 1.0)
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
        if xi > 1.0:  # b(Q(alpha)) = F_bar(Q(alpha))/(xi - 1), and F_bar(Q(alpha)) = 1 - alpha
            return one_minus / (xi - 1.0)
        if closed_form and info.hall_c is not None:
            if xi < 1.0:
                return model.moments(math.inf) / info.hall_c * one_minus**xi
            return -one_minus * math.log(one_minus)
        return tail_ratio_scale(model, model.quantile(alpha))
    # slow regime
    if model.kind == "gandh":
        z = special.normal_inv_cdf(alpha)
        if z <= 0.0:
            raise DomainError(
                "correction_amplitude: the g-and-h leading term g/normal_inv_cdf(alpha) "
                "needs alpha > 1/2"
            )
        return model.g / z
    if closed_form and info.hall_d is not None:
        return info.hall_d * info.rho * one_minus ** (-info.rho)
    return model.auxiliary(1.0 / one_minus)


def first_order_limit(xi: float, n: int) -> float:
    """Limiting ratio n^(xi-1) of the sum quantile to n times the
    single-loss quantile."""
    n = check_int("n", n, 2)
    xi = check_real("first_order_limit: xi", xi, 0.0)
    return _in_range("first_order_limit", n, xi, lambda: float(n) ** (xi - 1.0))


def _in_range(caller: str, n: float, xi: float, value: Callable[[], float], name: str = "n") -> float:
    """value(), a power of its base n (called ``name``) that grows with xi,
    or :class:`DomainError` naming the base and xi where it leaves the
    double range."""
    try:
        out = value()
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"{caller}: the power of {name} overflows at {name} = {n:g}, xi = {xi:g}")
    return out


def _boundary_q_estimate(model: LossModel) -> float:
    """Numeric estimate of the boundary balance constant q =
    lim b(Q(alpha)) / a(1/(1-alpha)), probed deep in the tail. A probe
    quantile that overflows, or a b or a that is 0 or not finite, raises
    :class:`PrecisionError`: its ratio would not measure q."""
    alpha = _Q_PROBE_ALPHA
    with np.errstate(over="ignore"):
        x = float(model.quantile(alpha))
    if not math.isfinite(x):
        raise PrecisionError(f"boundary balance: the probe quantile Q({alpha!r}) overflows")
    b_val = tail_ratio_scale(model, x)
    a_val = model.auxiliary(1.0 / (1.0 - alpha))
    if not all(math.isfinite(v) and v != 0.0 for v in (b_val, a_val)):
        raise PrecisionError(
            f"boundary balance: b = {b_val!r} and a = {a_val!r} at the probe level {alpha!r} give no ratio"
        )
    return b_val / a_val


def _model_regime(model: LossModel, q: Optional[float] = None) -> Regime:
    """The model's regime; on the boundary it carries ``q``, estimated from
    the model when not supplied. The one place a regime and q are resolved."""
    info = model.second_order_info()
    if q is None and classify_regime(info).tag is RegimeTag.BOUNDARY:
        q = _boundary_q_estimate(model)
    return classify_regime(info, q)


def _boundary_coefficient(info: SecondOrderInfo, n: int, q: float) -> float:
    """Coefficient multiplying the auxiliary function on the boundary:
    the fast-type term (weighted by q) plus the slow-type kernel term."""
    xi = info.xi
    j = tail_ratio_limit(xi, n)

    def coefficient():
        fast_part = xi * n ** (xi - 2.0) * n ** (-min(1.0, xi)) * j * q
        return fast_part + second_order_kernel(xi, info.rho, float(n)) / n

    return _in_range("boundary coefficient", n, xi, coefficient)


def second_order_approx(
    model: LossModel,
    alpha: float,
    n: int,
    q: Optional[float] = None,
    closed_form: bool = False,
) -> ApproxResult:
    """First-order limit plus the regime-appropriate correction at a level.

    The regime and q come from ``_model_regime``. On the boundary the
    correction is coefficient(n, q) * a(1/(1-alpha)), with q estimated
    numerically from the model when not supplied. In the
    degenerate case (xi = 2 in the fast regime) the correction is zero and
    the degenerate flag is set.
    """
    alpha = check_real("second_order_approx: alpha", alpha, 0.0, 1.0)
    n = check_int("n", n, 2)
    q = None if q is None else check_real("second_order_approx: q", q)
    info = model.second_order_info()
    c1 = first_order_limit(info.xi, n)
    regime = _model_regime(model, q)
    degenerate = regime.tag is RegimeTag.DEGENERATE
    if degenerate:
        corr = 0.0
    elif regime.tag is RegimeTag.BOUNDARY:
        corr = _boundary_coefficient(info, n, regime.q) * model.auxiliary(1.0 / (1.0 - alpha))
    else:
        corr = correction_coefficient(info.xi, info.rho, n) * correction_amplitude(model, alpha, closed_form)
    return ApproxResult(c1=c1, c2=c1 + corr, correction=corr, regime=regime, degenerate=degenerate)


def second_order_column(
    model: LossModel, alphas, n: int, closed_form: bool = False
) -> tuple[float, np.ndarray, Regime, bool]:
    """A curve's approximation block: the first-order limit, the
    second-order value at each level (NaN where it is undefined), the
    regime, with q estimated on the boundary, and the degeneracy flag."""
    info = model.second_order_info()
    c1 = first_order_limit(info.xi, n)
    regime = _model_regime(model)
    c2 = np.empty(np.shape(alphas))
    for i, a in enumerate(alphas):
        try:
            c2[i] = second_order_approx(model, float(a), n, regime.q, closed_form).c2
        except DomainError:
            c2[i] = math.nan
    return c1, c2, regime, regime.tag is RegimeTag.DEGENERATE


def approach_direction(model: LossModel, n: int) -> ApproachDirection:
    """Direction from which the ratio approaches its limit as alpha -> 1,
    with the limit of d(correction)/d(alpha).

    The direction is the sign of the correction :func:`second_order_approx`
    gives at alpha = 1 - 1e-8 with closed-form amplitudes (for xi <= 1 a
    numeric one is 0 where the quantile overflows): positive is from above,
    negative from below, and the degenerate case is model-dependent. The
    slope is finite where the amplitude goes as 1 - alpha (the fast regime
    with xi > 1, and the boundary with rho = -1 and Hall constants);
    elsewhere it diverges, opposite in sign to the correction.
    """
    n = check_int("n", n, 2)
    info = model.second_order_info()
    xi, rho = info.xi, info.rho
    regime = _model_regime(model)
    if regime.tag is RegimeTag.DEGENERATE:
        return ApproachDirection(Direction.MODEL_DEPENDENT, 0.0)
    corr = second_order_approx(model, _Q_PROBE_ALPHA, n, regime.q, closed_form=True).correction
    sign = math.copysign(1.0, corr)
    direction = Direction.FROM_ABOVE if sign > 0 else Direction.FROM_BELOW
    if regime.tag is RegimeTag.FAST and xi > 1.0:
        # correction = K(n) (1-alpha)/(xi-1) + o(1-alpha)
        return ApproachDirection(direction, -correction_coefficient(xi, rho, n) / (xi - 1.0))
    if regime.tag is RegimeTag.BOUNDARY and rho == -1.0 and info.hall_d is not None:
        # a(t) ~ d rho / t, so d(correction)/d(alpha) -> coeff * d * rho^2
        slope = _boundary_coefficient(info, n, regime.q) * info.hall_d * rho * rho
        return ApproachDirection(direction, slope)
    return ApproachDirection(direction, -sign * math.inf)


def crossover(
    model: LossModel,
    n: int,
    alpha_lo: float = 0.9,
    alpha_hi: float = 1.0 - 1e-7,
) -> Optional[float]:
    """Level alpha* where the second-order approximation crosses 1, if one
    exists in [alpha_lo, alpha_hi]. c2 is monotone in alpha for every model
    family, because each amplitude is, so the endpoints decide: None when
    c2 - 1 has the same sign at both. Bisection to |delta alpha| <= 1e-7.
    """
    n = check_int("n", n, 2)
    alpha_lo = check_real("crossover: alpha_lo", alpha_lo, 0.0, 1.0)
    alpha_hi = check_real("crossover: alpha_hi", alpha_hi, alpha_lo, 1.0)
    q = _model_regime(model).q

    def f(a: float) -> float:
        return second_order_approx(model, a, n, q).c2 - 1.0

    lo, hi = alpha_lo, alpha_hi
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        return None
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

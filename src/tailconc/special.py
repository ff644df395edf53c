"""Special functions: gamma, beta, and the normal law.

``gamma`` and ``beta`` come from :func:`math.gamma`. The normal law is the
package's own numpy port: :func:`ndtr` and :func:`ndtri` take and return
arrays, and the g-and-h model evaluates its normal law through them. Only
the far range of ``beta`` (``x + y >= 171`` or a subnormal argument)
comes from ``scipy.special``, which only :func:`scipy_special` imports, on
first use; so no run loads scipy but through such a ``beta``.

The scalar functions (``gamma``, ``beta``, ``normal_cdf``,
``normal_inv_cdf``) serve scalar calls (the convolution constants, the
g-and-h closed forms) and add the package's error contract: an argument
that is not one real number (``bool``, a string, an array), NaN, or one
outside the function's domain raises :class:`DomainError`; 0 and the
negative integers raise :class:`PoleError` in :func:`gamma`; overflow
returns ``inf``. Each returns a builtin ``float``; the two normal-law
ones read the array functions, so the package has one normal law.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import PoleError, check_real, check_scalar

__all__ = [
    "gamma",
    "beta",
    "ndtr",
    "ndtri",
    "normal_cdf",
    "normal_inv_cdf",
    "scipy_special",
]

# Below this x + y, gamma(x + y) <= gamma(171) ~ 7.3e306, so gamma(x) / gamma(x + y)
# (gamma(x) >= 0.88) stays a normal float and the product form keeps full precision;
# with x and y normal floats too, no factor and no partial product overflows.
_BETA_GAMMA_MAX = 171.0

# erfc(z) = t exp(-z^2 + f(t)) for z >= 0, t = 2/(2 + z) in (0, 1], where
# f(t) = log(erfc(z)/t) + z^2 is smooth up to t = 0 (z = inf). f is the
# Chebyshev series sum' c_k T_k(2t - 1) in the layout of Numerical Recipes'
# ``erfccheb`` (Press et al. 2007, section 6.2): c_1..c_27 are fitted with
# mpmath at 40 digits on 56 Chebyshev nodes (the terms left out sum to under
# 4e-18), and c_0 is set so the series evaluates to 0 at t = 1 to rounding,
# which keeps erfc(0) = 1. tests/test_special.py refits them.
_ERFC_CHEB = (
    -1.3026537197817092,
    0.6419697923564902,
    0.019476473204185836,
    -0.009561514786808632,
    -0.0009465953444820369,
    0.00036683949785276145,
    4.252332480690777e-05,
    -2.0278578112534242e-05,
    -1.6242900046470256e-06,
    1.3036558355805232e-06,
    1.5626441722066142e-08,
    -8.523809591492654e-08,
    6.5290544390988515e-09,
    5.059343495551469e-09,
    -9.91364156493033e-10,
    -2.273651222931836e-10,
    9.646791102015527e-11,
    2.3940380830391146e-12,
    -6.886027526497553e-12,
    8.944879273090725e-13,
    3.130921399342958e-13,
    -1.1270822361367252e-13,
    3.810905255189232e-16,
    7.106097613609237e-15,
    -1.5230282014571043e-15,
    -9.457494571291233e-17,
    1.210237189224279e-16,
    -2.816663087747177e-17,
)
_SQRT_HALF = math.sqrt(0.5)

# Wichura's AS241 (PPND16), Appl. Statist. 37 (1988) 477-484, as in
# :func:`statistics.NormalDist.inv_cdf`: x = q A(r)/B(r) in r = 0.180625 - q^2
# for |q| = |p - 1/2| <= 0.425; beyond, |x| = C(s)/D(s) in s - 1.6 for
# s = sqrt(-log min(p, 1 - p)) <= 5, and in s - 5 above. Each pair is
# (numerator, denominator), highest power first.
_AS241_CENTRAL = (
    (2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4, 4.5921953931549871457e4,
     1.3731693765509461125e4, 1.9715909503065514427e3, 1.3314166789178437745e2, 3.3871328727963666080e0),
    (5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4, 2.1213794301586595867e4,
     5.3941960214247511077e3, 6.8718700749205790830e2, 4.2313330701600911252e1, 1.0),
)
_AS241_MID = (
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
     4.63033784615654529590e0, 1.42343711074968357734e0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
     2.05319162663775882187e0, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
     5.46378491116411436990e0, 6.65790464350110377720e0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


@functools.cache
def scipy_special():
    """``scipy.special``, imported on the first call: the package's only route
    to scipy, which only :func:`beta`'s far range takes."""
    from scipy import special

    return special


def ndtr(x) -> np.ndarray:
    """Standard normal CDF of the array ``x``: 0.5 erfc(|x|/sqrt 2),
    reflected for x > 0, with erfc in its Chebyshev form and z^2 formed as
    x^2/2 from x itself. Within 5e-13 relative wherever the result is a
    normal double; below about -37.5 it underflows gradually, through the
    subnormals, to 0 at about -38.5. NaN passes through."""
    x = np.asarray(x, dtype=float)
    t = 2.0 / (2.0 + np.abs(x) * _SQRT_HALF)
    ty = 4.0 * t - 2.0
    d = dd = 0.0
    for c in _ERFC_CHEB[:0:-1]:  # Clenshaw's recurrence, as erfccheb runs it
        d, dd = ty * d - dd + c, d
    with np.errstate(over="ignore"):
        r = 0.5 * t * np.exp(0.5 * (_ERFC_CHEB[0] + ty * d) - dd - 0.5 * x * x)
    return np.where(x > 0.0, 1.0 - r, r)


def _rational(coefs, r: np.ndarray) -> np.ndarray:
    (n, *num), (d, *den) = coefs
    for a, b in zip(num, den):  # Horner's rule
        n = n * r + a
        d = d * r + b
    return n / d


def ndtri(p, out=None) -> np.ndarray:
    """Standard normal quantile of the array ``p``, into ``out`` (which may
    be ``p``) where given, by AS241: -inf at 0, inf at 1, and NaN at NaN
    and outside [0, 1], as ``scipy.special.ndtri``."""
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    # every branch runs on every element: the package asks for few quantiles at a time
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
        tail = np.where(s <= 5.0, _rational(_AS241_MID, s - 1.6), _rational(_AS241_FAR, s - 5.0))
        central = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.copysign(np.where(s == math.inf, math.inf, tail), q)
    z = np.where(np.abs(q) <= 0.425, central, tail)
    if out is None:
        return z
    out[...] = z
    return out


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
    """Standard normal CDF (:func:`ndtr`), accurate in both tails."""
    return float(ndtr(check_scalar("normal_cdf: x", x, -math.inf, strict=False)))


def normal_inv_cdf(p: float) -> float:
    """Standard normal quantile (:func:`ndtri`) for p in (0, 1)."""
    return float(ndtri(check_real("normal_inv_cdf: p", p, 0.0, 1.0)))

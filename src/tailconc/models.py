"""Heavy-tailed loss models.

Each model is a frozen dataclass exposing the quantile function, tail
function, density, sampling, truncated first moments, the second-order
auxiliary function a(t) = t U'(t)/U(t) - xi (where U(t) is the tail
quantile function U(t) = Q(1 - 1/t)), and its second-order regular
variation indices. Pareto and Burr state their quantile law once, as the
loss U(e^s) at the log-tail s = -log F_bar (:meth:`LossModel.from_log_tails`).

Scalar-or-array convention: quantile/tail/density/auxiliary accept a float
or a numpy array and return the matching shape; scalars come back as
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import ClassVar, Optional

import numpy as np

from . import special
from .errors import DomainError, PoleError, PrecisionError, check_array, check_int, check_levels, check_real, check_scalar

__all__ = [
    "SecondOrderInfo",
    "LossModel",
    "Pareto",
    "Burr",
    "GandH",
    "ExactHall",
    "model_from_dict",
    "model_to_dict",
]


@dataclass(frozen=True, slots=True)
class SecondOrderInfo:
    """Second-order regular-variation description of a tail quantile function.

    ``xi`` is the tail index of U (heavier tails = larger xi); ``rho`` <= 0 is
    the second-order index, with ``-inf`` meaning the slowly varying part is
    eventually constant. ``hall_c``/``hall_d`` are the leading and correction
    coefficients when U(t) = c t^xi (1 + d t^rho + o(t^rho)) holds with known
    constants, else None. ``mean_finite`` records whether the model has a
    finite first moment.
    """

    xi: float
    rho: float
    hall_c: Optional[float]
    hall_d: Optional[float]
    mean_finite: bool


# Relative panel edges on (0, 1), clustered toward both endpoints, where
# the oracle's integrands in the log-tail and the normal score, and a
# truncated mean's quantile, steepen. The left edge at 1e-5 keeps a light
# tail's two-fold certified at n = 2 (Burr(4, 0.5) and Burr(4, 1) read
# 2e-10 and 7.5e-10 without it). No integrand has a boundary layer
# narrower than the last right edge, 1 - 1e-8; cut back to 1 - 1e-6 it
# moves n >= 3 quantiles by 5e-10, which no certificate sees, since both
# orders share the panels.
_REL_EDGES = np.concatenate(
    [
        np.array(
            [0.0, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.03,
             0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        ),
        1.0 - np.array([1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0]),
    ]
)
_MOMENT_ORDER = 24  # Gauss-Legendre nodes per panel of a truncated mean
_LOG_MAX = math.log(np.finfo(float).max)


@lru_cache(maxsize=8)
def panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1) over the clustered panels:
    the package's one quadrature rule, shared by truncated means and the
    convolution oracle."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(_REL_EDGES)[:, None]
    mid = 0.5 * (_REL_EDGES[:-1] + _REL_EDGES[1:])[:, None]
    return (mid + half * gl_x).ravel(), (half * gl_w).ravel()


def _like(out: np.ndarray, arg: np.ndarray):
    return float(out) if arg.ndim == 0 else out


def _block(like, out: Optional[np.ndarray]) -> np.ndarray:
    """``out``, or a fresh float array of ``like``'s shape where it is None."""
    return np.empty(np.shape(like)) if out is None else out


class LossModel:
    """Common interface for the model catalogue."""

    kind: ClassVar[str] = ""

    # ----- subclass hooks (array in, array out, no validation) -----
    def from_log_tails(self, s: np.ndarray, out=None) -> np.ndarray:
        """Losses U(e^s) at log-tails s = -log F_bar >= 0, one in-place
        ufunc chain into ``out`` as in :meth:`from_variates`; by default
        the quantile and the tail quantile are read from it."""
        raise NotImplementedError

    def _quantile(self, a: np.ndarray, out=None) -> np.ndarray:
        """Q(a) = :meth:`from_log_tails` at -log1p(-a), into ``out`` as in :meth:`from_variates`."""
        s = np.negative(a, out=_block(a, out))
        np.log1p(s, out=s)
        np.negative(s, out=s)
        return self.from_log_tails(s, s)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        s = np.log(t, out=_block(t, None))
        return self.from_log_tails(s, s)

    def variates(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """Base variates that :meth:`from_variates` maps to losses: uniforms,
        drawn into ``out`` (of shape ``size``) where given."""
        return rng.random(size, out=out)

    def from_variates(self, v: np.ndarray, out=None) -> np.ndarray:
        """Losses at base variates ``v`` (inverse transform), non-decreasing
        in ``v``: the k-th smallest loss is the map of the k-th smallest
        variate. The losses go into ``out`` (which may be ``v`` itself)
        where given, else into a fresh array, and ``v`` is left alone unless
        it is ``out``. Besides ``out``, a map allocates at most one
        temporary of v's size."""
        return self._quantile(v, out)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw losses using the supplied generator."""
        v = self.variates(rng, size)
        return self.from_variates(v, out=v)

    # ----- shared surface -----
    @property
    def support_min(self) -> float:
        raise NotImplementedError

    def quantile(self, alpha):
        a = check_levels(f"{self.kind} quantile: alpha", alpha)
        return _like(self._quantile(a), a)

    def tail(self, x):
        xs = check_array(f"{self.kind} tail: x", x, self.support_min)
        return _like(self._tail(xs), xs)

    def density(self, x):
        xs = check_array(f"{self.kind} density: x", x, self.support_min)
        return _like(self._density(xs), xs)

    def auxiliary(self, t):
        """Second-order auxiliary function a(t) = t U'(t)/U(t) - xi, t > 1.

        Raises :class:`PoleError` where U(t) = 0, which a g-and-h model
        reaches at its median when a = 0."""
        ts = check_array(f"{self.kind} auxiliary: t", t, 1.0, strict=True)
        return _like(self._auxiliary(ts), ts)

    def tail_quantile(self, t):
        """U(t) = quantile(1 - 1/t) for t > 1, evaluated from t itself:
        going through the level would round 1 - 1/t, an error that t
        amplifies."""
        ts = check_array(f"{self.kind} tail_quantile: t", t, 1.0, strict=True)
        return _like(self._tail_quantile(ts), ts)

    def sample(self, seed: int, count: int) -> np.ndarray:
        """Deterministic sample of ``count`` losses for the given seed."""
        seed = check_int("sample: seed", seed, 0)
        count = check_int("sample: count", count, 1)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        return self.draw(rng, count)

    def moments(self, x: float) -> float:
        """Truncated first moment: integral of t dF(t) from the lower end of
        the support up to x (x = inf gives the mean, possibly inf)."""
        return float(self._moments(check_scalar(f"{self.kind} moments: x", x, self.support_min, strict=False)))

    def _moments(self, x: float) -> float:
        raise NotImplementedError

    def tail_table(self, v: np.ndarray, x_hi: float):
        """The tail tabulated from its quantile side, for a family whose
        tail is a Newton solve: a pair of arrays, the nodes x and their
        tails, at base variates spaced as ``v`` (increasing from 0 to 1)
        from a point where the tail is 1 to double precision up to x_hi.
        Only x_hi is inverted. None for a family whose tail is closed form,
        which is cheaper to read directly."""
        return None

    def second_order_info(self) -> SecondOrderInfo:
        raise NotImplementedError

    # generic quadrature for truncated means, used where no closed form
    # exists: the integral of Q(u) du over [0, F(x)], taken in u up to the
    # median and above it in s = -log(1 - u), where it is the integral of
    # U(e^s) e^-s ds up to -log F_bar(x), so that no level rounds toward 1.
    # Levels above 1 - e^-709, where e^s overflows, are left out. The model
    # passes in F(x), formed without the cancellation of 1 - F_bar(x).
    def _truncated_mean_quad(self, x: float, cdf: float) -> float:
        tail = float(self._tail(np.asarray(x, dtype=float)))
        v, w = panel_rule(_MOMENT_ORDER)
        u_hi = min(cdf, 0.5)
        total = u_hi * float(w @ self._quantile(u_hi * v))
        if tail < 0.5:
            s_lo = math.log(2.0)
            s_hi = min(-math.log(tail), _LOG_MAX) if tail > 0.0 else _LOG_MAX
            s = s_lo + (s_hi - s_lo) * v
            with np.errstate(over="ignore"):
                q = self.from_log_tails(s)
            if not np.isfinite(q).all():
                raise PrecisionError(f"{self.kind} moments: the tail quantile overflows below x = {x:g}")
            total += (s_hi - s_lo) * float(w @ (q * np.exp(-s)))
        return total


@dataclass(frozen=True, slots=True)
class Pareto(LossModel):
    """Pareto losses on [1, inf): tail (1-F)(x) = x^(-1/xi), quantile
    (1-alpha)^(-xi). The slowly varying part of U is exactly constant."""

    xi: float
    kind: ClassVar[str] = "pareto"

    def __post_init__(self):
        object.__setattr__(self, "xi", check_real("pareto: xi", self.xi, 0.0))

    @property
    def support_min(self) -> float:
        return 1.0

    def from_log_tails(self, s: np.ndarray, out=None) -> np.ndarray:
        # exp(xi s)
        q = np.multiply(s, self.xi, out=_block(s, out))
        return np.exp(q, out=q)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return x ** (-1.0 / self.xi)

    def _density(self, x: np.ndarray) -> np.ndarray:
        inv = 1.0 / self.xi
        return inv * x ** (-inv - 1.0)

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)

    def _moments(self, x: float) -> float:
        xi = self.xi
        if math.isinf(x):
            return 1.0 / (1.0 - xi) if xi < 1.0 else math.inf
        if xi == 1.0:
            return math.log(x)
        return (x ** (1.0 - 1.0 / xi) - 1.0) / (xi - 1.0)

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=self.xi, rho=-math.inf, hall_c=1.0, hall_d=None, mean_finite=self.xi < 1.0
        )


@dataclass(frozen=True, slots=True)
class Burr(LossModel):
    """Burr losses on [0, inf): tail (1+x^tau)^(-kappa). Tail index
    xi = 1/(tau*kappa), second-order index rho = -1/kappa, and the tail
    quantile expands as t^xi (1 - (1/tau) t^rho + ...)."""

    tau: float
    kappa: float
    kind: ClassVar[str] = "burr"

    def __post_init__(self):
        for name in ("tau", "kappa"):
            object.__setattr__(self, name, check_real(f"burr: {name}", getattr(self, name), 0.0))

    @property
    def support_min(self) -> float:
        return 0.0

    def from_log_tails(self, s: np.ndarray, out=None) -> np.ndarray:
        # (e^(s/kappa) - 1)^(1/tau), by expm1 without cancellation near s = 0
        q = np.divide(s, self.kappa, out=_block(s, out))
        np.expm1(q, out=q)
        q **= 1.0 / self.tau
        return q

    # where x^tau overflows, 1 + x^tau is x^tau to double precision and the
    # tail and density take their power forms x^(-tau kappa) and
    # kappa tau x^(-tau kappa - 1)
    def _tail(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            xt = x**self.tau
            out = (1.0 + xt) ** (-self.kappa)
            big = np.isinf(xt)
            return np.where(big, x ** (-self.tau * self.kappa), out) if big.any() else out

    def _density(self, x: np.ndarray) -> np.ndarray:
        tau, kappa = self.tau, self.kappa
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            xt = x**tau
            out = kappa * tau * x ** (tau - 1.0) * (1.0 + xt) ** (-kappa - 1.0)
            big = np.isinf(xt)
            if big.any():
                out = np.where(big, kappa * tau * x ** (-tau * kappa - 1.0), out)
        return out

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        return (1.0 / (self.tau * self.kappa)) / np.expm1(np.log(t) / self.kappa)

    def _moments(self, x: float) -> float:
        tau, kappa = self.tau, self.kappa
        if math.isinf(x):
            if tau * kappa <= 1.0:
                return math.inf
            return special.beta(1.0 / tau, kappa - 1.0 / tau) / tau
        # F(x) on the small side, in numpy so that an overflowing x^tau gives 1
        with np.errstate(over="ignore"):
            cdf = -np.expm1(-kappa * np.log1p(np.float64(x) ** tau))
        return self._truncated_mean_quad(x, float(cdf))

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=1.0 / (self.tau * self.kappa),
            rho=-1.0 / self.kappa,
            hall_c=1.0,
            hall_d=-1.0 / self.tau,
            mean_finite=self.tau * self.kappa > 1.0,
        )


def gh_transform(z: np.ndarray, g: float, h: float, out=None) -> np.ndarray:
    """The g-and-h transform k(z) = (exp(g z) - 1)/g * exp(h z^2 / 2), into
    ``out`` (which may be ``z``) where given; one temporary of z's shape
    holds exp(h z^2 / 2)."""
    with np.errstate(over="ignore"):
        e = np.multiply(0.5 * h, z, out=_block(z, None))
        e *= z
        np.exp(e, out=e)
        k = np.multiply(g, z, out=_block(z, out))
        np.expm1(k, out=k)
        k /= g
        k *= e
        return k


def gh_transform_deriv(z: np.ndarray, g: float, h: float) -> np.ndarray:
    """Derivative k'(z) of :func:`gh_transform`."""
    with np.errstate(over="ignore"):
        return np.exp(0.5 * h * z * z) * (np.exp(g * z) + h * z * np.expm1(g * z) / g)


def normal_pdf(z: np.ndarray, out=None) -> np.ndarray:
    """The standard normal density exp(-z^2/2)/sqrt(2 pi), into ``out``
    (not ``z`` itself) where given."""
    p = np.multiply(-0.5, z, out=_block(z, out))
    p *= z
    np.exp(p, out=p)
    p /= math.sqrt(2.0 * math.pi)
    return p


# Newton inverses stop once a step is within a few ulp, or raise after this many steps
_NEWTON_TOL = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 100
# Bracketed roots stop once a bracket is this narrow, relative to max(|x|, 1),
# or raise after this many steps
_ROOT_RTOL = 1e-12
_ROOT_MAX_ITER = 100
# The g-and-h inverse's bracket: the standard normal tail is 1 at -60 and 0
# at 50 in double precision, so clamping to it loses nothing
_GH_INV_LO, _GH_INV_HI = -60.0, 50.0
# The least g-and-h score the package integrates or tabulates: the normal
# mass below it is about 2e-33, so its tail is 1 in double precision
GH_Z_LO = -12.0
BLOCK = 1 << 15  # elements per block of a vectorized kernel, so its temporaries stay in cache


def blockwise(fill, x: np.ndarray, out: np.ndarray, width: int = 1) -> np.ndarray:
    """``fill(x_block, out_block)`` over matching flat blocks of ``x`` and
    ``out``, arrays of one size, where ``fill`` works on ``width`` values
    per element: a block spans about ``BLOCK`` values, at most
    ceil(BLOCK / width) elements (one element where ``width`` exceeds
    ``BLOCK``); returns ``out``."""
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    width = min(width, BLOCK)
    for lo in range(0, flat_x.size * width, BLOCK):
        block = slice(lo // width, (lo + BLOCK) // width)
        fill(flat_x[block], flat_out[block])
    return out


def _newton(fun, z, lo, hi, scale, *args):
    """Root per element of ``fun(z, *args)``, a value monotone in z and its
    slope, by Newton from the 1-d ``z`` inside the running bracket [lo, hi]
    (which broadcast against z), bisecting where a step leaves it. An
    element leaves the working set, its ``args`` with it, once its step is
    at most 4 ulp of max(|z|, ``scale``) or it lands exactly on a bracket
    end (an earlier iterate), so its value does not depend on the array it
    is in; one still live after ``_NEWTON_MAX_STEPS`` raises PrecisionError."""
    out, idx = np.empty(z.shape), np.arange(z.size)
    for _ in range(_NEWTON_MAX_STEPS):
        f, slope = fun(z, *args)
        z_new = z - f / slope
        below = (f < 0.0) == (slope > 0.0)  # signs apart: the root lies above z
        lo = np.where(below, z, lo)
        hi = np.where(below, hi, z)
        stray = ~((z_new >= lo) & (z_new <= hi))
        if stray.any():
            z_new[stray] = 0.5 * (lo[stray] + hi[stray])
        done = np.abs(z_new - z) <= _NEWTON_TOL * np.maximum(np.abs(z_new), scale)
        done |= (z_new == lo) | (z_new == hi)
        if done.any():  # most steps finish no element: skip the copies
            out[idx[done]] = z_new[done]
            keep = np.flatnonzero(~done)
            idx, z_new, lo, hi, *args = (v[keep] for v in (idx, z_new, lo, hi, *args))
        if not idx.size:
            return out
        z = z_new
    raise PrecisionError(f"Newton inverse: {idx.size} elements live after {_NEWTON_MAX_STEPS} steps")


def bracketed_roots(f, x1, f1, x2, f2, *args):
    """Root per element of ``f(x, *args)``, a value that changes sign over
    each bracket of the 1-d ``x1`` and ``x2``, where it is ``f1`` and
    ``f2``, by Chandrupatla's hybrid of inverse quadratic interpolation and
    bisection (Adv. Eng. Software 28(3), 1997); each call of ``f`` takes
    one step on every live element, with its ``args``. An element stops
    when a residual is 0 (at once, with no call, where an end is a root)
    or its bracket is no wider than 1e-12 max(|x1|, |x2|, 1), and returns
    the bracket end with the smaller residual; one still live after
    ``_ROOT_MAX_ITER`` steps raises PrecisionError. Returns the roots and
    their residuals."""
    out, f_out, idx = np.empty(x1.shape), np.empty(x1.shape), np.arange(x1.size)
    # x1 is the newest iterate, x2 the other bracket end, x3 the end x1 replaced
    t = np.full(x1.shape, 0.5)
    for step in range(_ROOT_MAX_ITER + 1):
        dx = np.abs(x2 - x1)
        tol = _ROOT_RTOL * np.maximum(np.maximum(np.abs(x1), np.abs(x2)), 1.0)
        done = (f1 == 0.0) | (f2 == 0.0) | (dx <= tol)
        closer = np.abs(f1) < np.abs(f2)
        out[idx[done]] = np.where(closer, x1, x2)[done]
        f_out[idx[done]] = np.where(closer, f1, f2)[done]
        if np.all(done):
            return out, f_out
        if step == _ROOT_MAX_ITER:
            raise PrecisionError(f"bracketed_roots: {np.count_nonzero(~done)} roots live after {step} steps")
        idx, x1, f1, x2, f2, t, dx, tol, *args = (v[~done] for v in (idx, x1, f1, x2, f2, t, dx, tol, *args))
        tl = 0.5 * tol / dx  # keep each iterate tol/2 inside the bracket
        x_new = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        f_new = f(x_new, *args)
        same = np.sign(f_new) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x_new, f_new
        # inverse quadratic interpolation where it stays inside the bracket
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            r = (x3 - x1) / (x2 - x1)
            t_iqi = f1 / (f1 - f2) * f3 / (f3 - f2) - r * f1 / (f3 - f1) * f2 / (f2 - f3)
        t = np.where(iqi, t_iqi, 0.5)


def gh_inverse(w, g: float, h: float) -> np.ndarray:
    """Inverse of :func:`gh_transform` on the bracket [-60, 50], with the
    shape of ``w``; values of w outside the bracket's image clamp to its
    ends.

    :func:`_newton` solves log|k(z)| - log|w| = 0, which cannot overflow,
    from the root of g z + h z^2/2 = log1p(g w) for w >= 0 and
    max(log1p(g w)/g, -sqrt(2 log1p(g|w|)/h)) for w < 0, inside the part
    of the bracket on the side of 0 where w lies.
    """
    w = np.asarray(w, dtype=float)
    k_lo, k_hi = gh_transform(np.array(_GH_INV_LO), g, h), gh_transform(np.array(_GH_INV_HI), g, h)

    def log_k(z, g_sgn, log_w):
        em1 = np.expm1(g * z)
        return np.log(em1 / g_sgn) + 0.5 * h * z * z - log_w, g + g / em1 + h * z

    def solve(w, out):
        out[:] = np.where(w >= k_hi, _GH_INV_HI, _GH_INV_LO)
        out[np.isnan(w)] = np.nan
        inside = (w > k_lo) & (w < k_hi)
        # k(z) = z (1 + g z/2 + ...): where |w| min(g, 1) is below the
        # smallest normal double, w is the root to double precision, and
        # the Newton step would meet a subnormal or overflowing g/em1
        exact = inside & (np.abs(w) * min(g, 1.0) < np.finfo(float).tiny)
        out[exact] = w[exact]
        idx = np.flatnonzero(inside & ~exact)
        w = w[idx]
        pos = w > 0.0
        # |k| increases with |z| and k has the sign of z
        a, b = np.where(pos, 0.0, _GH_INV_LO), np.where(pos, _GH_INV_HI, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            log_gw = np.log1p(g * np.abs(w))
            z = np.where(
                pos,
                2.0 * log_gw / (g + np.sqrt(g * g + 2.0 * h * log_gw)),
                np.fmax(np.log1p(g * w) / g, -np.sqrt(2.0 * log_gw / h)),
            )
            np.clip(z, a, b, out=z)
            out[idx] = _newton(log_k, z, a, b, 0.0, np.where(pos, g, -g), np.log(np.abs(w)))

    return blockwise(solve, w, np.empty(w.shape))


@dataclass(frozen=True, slots=True)
class GandH(LossModel):
    """Tukey g-and-h losses: X = a + b*k(Z) with Z standard normal and
    k(z) = (exp(g z) - 1)/g * exp(h z^2 / 2), g > 0, h > 0.

    Support is the whole real line; the upper tail has index xi = h with
    second-order index rho = 0 (logarithmic slow variation).

    The normal law is the package's own, :func:`special.ndtr` and
    :func:`special.ndtri` on arrays, with the tail formed on the small side
    as ndtr(-z). ``tail`` and ``density`` invert k with :func:`gh_inverse`."""

    a: float
    b: float
    g: float
    h: float
    kind: ClassVar[str] = "gandh"

    def __post_init__(self):
        for name, lo in (("a", None), ("b", 0.0), ("g", 0.0), ("h", 0.0)):
            object.__setattr__(self, name, check_real(f"gandh: {name}", getattr(self, name), lo))

    @property
    def support_min(self) -> float:
        return -math.inf

    def _quantile(self, a: np.ndarray, out=None) -> np.ndarray:
        z = special.ndtri(a, out)
        return self.x_of_z(z, z)

    def x_of_z(self, z: np.ndarray, out=None) -> np.ndarray:
        """The loss a + b k(z) at normal score z; ``out`` as in :func:`gh_transform`."""
        x = gh_transform(z, self.g, self.h, out)
        x *= self.b
        x += self.a
        return x

    from_variates = x_of_z

    def variates(self, rng: np.random.Generator, size, out=None) -> np.ndarray:
        """Standard normal base variates, drawn into ``out`` where given."""
        return rng.standard_normal(size, out=out)

    def z_of_x(self, x: np.ndarray) -> np.ndarray:
        """The z with a + b k(z) = x, for an unvalidated array x."""
        return gh_inverse((x - self.a) / self.b, self.g, self.h)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return special.ndtr(-self.z_of_x(x))

    def dx_dz(self, z: np.ndarray) -> np.ndarray:
        """The slope b k'(z) of the loss in its normal score z."""
        return self.b * gh_transform_deriv(z, self.g, self.h)

    def _density(self, x: np.ndarray) -> np.ndarray:
        z = self.z_of_x(x)
        return normal_pdf(z) / self.dx_dz(z)

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        z = self._z_of_t(t)
        u = self.x_of_z(z)
        if np.any(u == 0.0):
            raise PoleError("gandh auxiliary: pole at a t where U(t) = a + b*k(z) = 0")
        num = self.dx_dz(z)
        with np.errstate(invalid="ignore"):  # t phi(z) is inf * 0 at t = inf
            aux = num / (t * normal_pdf(z) * u) - self.h
        return np.where(np.isinf(t), 0.0, aux)  # the limit at t = inf

    def _z_of_t(self, t: np.ndarray) -> np.ndarray:
        # z = -ndtri(1/t) keeps full precision deep in the tail, where
        # forming 1 - 1/t first would round away the level.
        return -special.ndtri(1.0 / t)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        return self.x_of_z(self._z_of_t(t))

    def tail_table(self, v: np.ndarray, x_hi: float):
        """Nodes x_of_z(z) and tails ndtr(-z) (:meth:`LossModel.tail_table`),
        z from -12, where the normal tail is 1 in double precision, up to
        z(x_hi)."""
        z = GH_Z_LO + v * (float(self.z_of_x(np.array(x_hi))) - GH_Z_LO)
        tails = special.ndtr(-z)
        return self.x_of_z(z, z), tails

    def _moments(self, x: float) -> float:
        g, h = self.g, self.h
        if h >= 1.0:
            if math.isinf(x) and x > 0:
                # The right tail dominates: E max(X, 0) = inf.
                return math.inf
            raise DomainError(
                "gandh moments: truncated first moment diverges for h >= 1 "
                "(the transform's normal integral has no finite value)"
            )
        s = math.sqrt(1.0 - h)
        bias = math.exp(g * g / (2.0 * (1.0 - h)))
        if math.isinf(x) and x > 0:
            return self.a + self.b / g * (bias - 1.0) / s
        z = float(self.z_of_x(np.asarray(x, dtype=float)))
        ndtr = special.ndtr
        term = bias * ndtr(s * z - g / s) - ndtr(s * z)
        return self.a * ndtr(z) + self.b / g * term / s

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=self.h, rho=0.0, hall_c=None, hall_d=None, mean_finite=self.h < 1.0
        )


@dataclass(frozen=True, slots=True)
class ExactHall(LossModel):
    """Losses defined directly through the tail quantile function
    U(t) = c t^xi (1 + d t^rho), i.e. quantile(alpha) = U(1/(1-alpha)).

    The two-term expansion is exact by construction, which makes this the
    reference model for validating second-order formulas. Construction
    rejects parameter combinations for which U is not strictly increasing
    or not positive on t >= 1."""

    c: float
    d: float
    xi: float
    rho: float
    kind: ClassVar[str] = "hall"

    def __post_init__(self):
        bounds = {"c": (0.0, None), "d": (None, None), "xi": (0.0, None), "rho": (None, 0.0)}
        for name, (lo, hi) in bounds.items():
            object.__setattr__(self, name, check_real(f"hall: {name}", getattr(self, name), lo, hi))
        if self.d == 0:
            raise DomainError("hall: d must be nonzero (use pareto for a pure power tail)")
        if 1.0 + self.d < 0:
            raise DomainError(
                f"hall: 1 + d must be >= 0 so the quantile stays positive, got d = {self.d:g}"
            )
        # Strict increase of U on t >= 1 holds where
        # psi(t) = xi + d (xi + rho) t^rho > 0 for all t > 1; psi is
        # monotone in t with limit xi > 0, so it suffices that psi(1) >= 0:
        # at psi(1) = 0, U'(t) vanishes at t = 1 alone.
        psi1 = self.xi + self.d * (self.xi + self.rho)
        if psi1 < 0:
            raise DomainError(
                "hall: quantile is not strictly increasing "
                f"(xi + d(xi + rho) = {psi1:g} < 0)"
            )

    @property
    def support_min(self) -> float:
        return self.c * (1.0 + self.d)

    def _quantile(self, a: np.ndarray, out=None) -> np.ndarray:
        t = np.subtract(1.0, a, out=_block(a, out))
        np.divide(1.0, t, out=t)
        return self._tail_quantile(t, t)

    def _t_of_x(self, x: np.ndarray) -> np.ndarray:
        """Invert U(t) = x for t >= 1.

        :func:`_newton` solves f(s) = log U(e^s) - log x = 0 in s = log t
        from s0 = max(log(x/c)/xi, 0) in the bracket [0, inf): f' is
        monotone between xi and f'(0) > 0 (f is convex for d > 0, concave
        for d < 0), so Newton converges from either side. With d = -1,
        U(1) = 0 and f'(0) is infinite, so s starts no lower than
        min(x/(c e |rho|), 1/xi), below the root as 1 - e^(rho s) <= |rho| s
        and e^(xi s) <= e there, and the bracket starts at ulp(1)/|rho|,
        where e^(rho s) rounds below 1 and so U > 0. Where log x is infinite
        (x = 0 or inf) the start, 0 or inf, is the answer and takes no step;
        t = e^s may overflow to inf."""
        c, d, xi, rho = self.c, self.d, self.xi, self.rho
        floor = math.ulp(1.0) / -rho if 1.0 + d == 0.0 else 0.0

        def log_u(s, log_x):
            tr = np.exp(rho * s)
            f = math.log(c) + xi * s + np.log1p(d * tr) - log_x
            return f, xi + d * rho * tr / (1.0 + d * tr)

        def solve(x, out):
            with np.errstate(divide="ignore"):
                log_x = np.log(x)
            s = np.maximum((log_x - math.log(c)) / xi, 0.0)
            todo = np.flatnonzero(np.isfinite(log_x))
            if floor:
                s_lo = np.minimum(x[todo] / (-c * math.e * rho), 1.0 / xi)
                s[todo] = np.maximum(s[todo], np.maximum(s_lo, floor))
            s[todo] = _newton(log_u, s[todo], floor, math.inf, 1.0, log_x[todo])
            with np.errstate(over="ignore"):
                np.exp(s, out=out)

        return blockwise(solve, x, np.empty(x.shape))

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / self._t_of_x(x)

    def _density(self, x: np.ndarray) -> np.ndarray:
        t = self._t_of_x(np.asarray(x, dtype=float))
        tr = t**self.rho
        psi = self.xi * (1.0 + self.d * tr) + self.d * self.rho * tr
        # dQ/dalpha = c t^(xi+1) psi, which overflows to inf (the density
        # to 0) far in the tail, and is 0 (the density inf) at t = 1 where
        # psi(1) = 0
        with np.errstate(over="ignore", divide="ignore"):
            dq = self.c * t ** (self.xi + 1.0) * psi
            return 1.0 / dq

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        tr = t**self.rho
        return self.d * self.rho * tr / (1.0 + self.d * tr)

    def from_log_tails(self, s: np.ndarray, out=None) -> np.ndarray:
        t = np.exp(s, out=_block(s, out))
        return self._tail_quantile(t, t)

    def _tail_quantile(self, t: np.ndarray, out=None) -> np.ndarray:
        # (c t^xi) (1 + d t^rho), into ``out`` (which may be ``t``) where
        # given; one temporary of t's shape holds 1 + d t^rho
        tr = np.power(t, self.rho, out=_block(t, None))
        tr *= self.d
        tr += 1.0
        u = np.power(t, self.xi, out=_block(t, out))
        u *= self.c
        u *= tr
        return u

    def tail_table(self, v: np.ndarray, x_hi: float):
        """Nodes U(t) and tails 1/t (:meth:`LossModel.tail_table`), log t
        from 0, the support, up to log t(x_hi)."""
        t = np.exp(v * math.log(float(self._t_of_x(np.array(x_hi)))))
        tails = 1.0 / t
        return self._tail_quantile(t, t), tails

    def _moments(self, x: float) -> float:
        c, d, xi, rho = self.c, self.d, self.xi, self.rho
        if math.isinf(x):
            if xi >= 1.0:
                return math.inf
            return c * (1.0 / (1.0 - xi) + d / (1.0 - xi - rho))
        t = float(self._t_of_x(np.asarray(x, dtype=float)))
        # integral of Q(u) du over [0, F(x)] with t = 1/(1-F(x)), exact:
        if xi == 1.0:
            first = math.log(t)
        else:
            first = (1.0 - t ** (xi - 1.0)) / (1.0 - xi)
        if xi + rho == 1.0:
            second = d * math.log(t)
        else:
            second = d * (1.0 - t ** (xi + rho - 1.0)) / (1.0 - xi - rho)
        return c * (first + second)

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=self.xi, rho=self.rho, hall_c=self.c, hall_d=self.d, mean_finite=self.xi < 1.0
        )


_MODEL_KINDS = {"pareto": Pareto, "burr": Burr, "gandh": GandH, "hall": ExactHall}


def model_from_dict(spec: dict) -> LossModel:
    """Build a model from a {"kind": ..., params...} mapping."""
    if not isinstance(spec, dict):
        raise DomainError(f"model spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _MODEL_KINDS:
        raise DomainError(
            f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KINDS)}"
        )
    wanted = [f.name for f in fields(_MODEL_KINDS[kind])]
    extra = set(spec) - {"kind", *wanted}
    if extra:
        raise DomainError(f"{kind}: unexpected parameters {sorted(extra)}")
    missing = [p for p in wanted if p not in spec]
    if missing:
        raise DomainError(f"{kind}: missing parameters {missing}")
    return _MODEL_KINDS[kind](**{p: spec[p] for p in wanted})


def model_to_dict(model: LossModel) -> dict:
    """Inverse of :func:`model_from_dict`."""
    out = {"kind": model.kind}
    for f in fields(model):
        out[f.name] = getattr(model, f.name)
    return out

"""Heavy-tailed loss models.

Each model is a frozen dataclass exposing the quantile function, tail
function, density, sampling, truncated first moments, the second-order
auxiliary function a(t) = t U'(t)/U(t) - xi (where U(t) is the tail
quantile function U(t) = Q(1 - 1/t)), and its second-order regular
variation indices.

Scalar-or-array convention: quantile/tail/density/auxiliary accept a float
or a numpy array and return the matching shape; scalars come back as
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from . import special
from .errors import DomainError, PoleError

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


def _as_array(v) -> tuple[np.ndarray, bool]:
    arr = np.asarray(v, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


class LossModel:
    """Common interface for the model catalogue."""

    kind: ClassVar[str] = ""

    # ----- subclass hooks (array in, array out, no validation) -----
    def _quantile(self, a: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _tail(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw variates using the supplied generator (inverse transform)."""
        raise NotImplementedError

    # ----- shared surface -----
    @property
    def support_min(self) -> float:
        raise NotImplementedError

    def quantile(self, alpha):
        a, scalar = _as_array(alpha)
        if a.size and (np.any(a <= 0.0) | np.any(a >= 1.0)):
            raise DomainError(f"{self.kind} quantile: alpha must lie in (0, 1)")
        return _maybe_scalar(self._quantile(a), scalar)

    def tail(self, x):
        xs, scalar = _as_array(x)
        if xs.size and np.any(xs < self.support_min):
            raise DomainError(
                f"{self.kind} tail: x below the support minimum {self.support_min:g}"
            )
        return _maybe_scalar(self._tail(xs), scalar)

    def density(self, x):
        xs, scalar = _as_array(x)
        if xs.size and np.any(xs < self.support_min):
            raise DomainError(
                f"{self.kind} density: x below the support minimum {self.support_min:g}"
            )
        return _maybe_scalar(self._density(xs), scalar)

    def auxiliary(self, t):
        """Second-order auxiliary function a(t) = t U'(t)/U(t) - xi, t > 1.

        Raises :class:`PoleError` where U(t) = 0, which a g-and-h model
        reaches at its median when a = 0."""
        ts, scalar = _as_array(t)
        if ts.size and np.any(ts <= 1.0):
            raise DomainError(f"{self.kind} auxiliary: requires t > 1")
        return _maybe_scalar(self._auxiliary(ts), scalar)

    def tail_quantile(self, t):
        """U(t) = quantile(1 - 1/t) for t > 1."""
        ts, scalar = _as_array(t)
        if ts.size and np.any(ts <= 1.0):
            raise DomainError(f"{self.kind} tail_quantile: requires t > 1")
        return _maybe_scalar(self._tail_quantile(ts), scalar)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        # Overridden where U(t) has a direct form: evaluating through the
        # alpha representation rounds 1 - 1/t, an error that t amplifies.
        return self._quantile(1.0 - 1.0 / t)

    def sample(self, seed: int, count: int) -> np.ndarray:
        """Deterministic sample of ``count`` losses for the given seed."""
        if count <= 0:
            raise DomainError("sample: count must be positive")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        return self.draw(rng, int(count))

    def moments(self, x: float) -> float:
        """Truncated first moment: integral of t dF(t) from the lower end of
        the support up to x (x = inf gives the mean, possibly inf)."""
        raise NotImplementedError

    def second_order_info(self) -> SecondOrderInfo:
        raise NotImplementedError

    # generic quantile-space quadrature for truncated means, used where no
    # closed form exists: integral of Q(u) du over [0, F(x)].
    def _truncated_mean_quad(self, x: float) -> float:
        u_hi = 1.0 - float(self._tail(np.asarray(x, dtype=float)))
        if u_hi <= 0.0:
            return 0.0
        edges = np.concatenate(
            [
                [0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9],
                1.0 - np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 0.0]),
            ]
        )
        gl_x, gl_w = np.polynomial.legendre.leggauss(24)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            a_lo, a_hi = lo * u_hi, hi * u_hi
            if a_hi <= a_lo:
                continue
            mid = 0.5 * (a_lo + a_hi)
            half = 0.5 * (a_hi - a_lo)
            nodes = mid + half * gl_x
            total += half * float(np.sum(gl_w * self._quantile(nodes)))
        return total


@dataclass(frozen=True, slots=True)
class Pareto(LossModel):
    """Pareto losses on [1, inf): tail (1-F)(x) = x^(-1/xi), quantile
    (1-alpha)^(-xi). The slowly varying part of U is exactly constant."""

    xi: float
    kind: ClassVar[str] = "pareto"

    def __post_init__(self):
        if not (isinstance(self.xi, (int, float)) and math.isfinite(self.xi) and self.xi > 0):
            raise DomainError(f"pareto: xi must be a finite number > 0, got {self.xi!r}")
        object.__setattr__(self, "xi", float(self.xi))

    @property
    def support_min(self) -> float:
        return 1.0

    def _quantile(self, a: np.ndarray) -> np.ndarray:
        return np.exp(-self.xi * np.log1p(-a))

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return x ** (-1.0 / self.xi)

    def _density(self, x: np.ndarray) -> np.ndarray:
        inv = 1.0 / self.xi
        return inv * x ** (-inv - 1.0)

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        return np.zeros_like(t)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        return t**self.xi

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return np.exp(-self.xi * np.log1p(-u))

    def moments(self, x: float) -> float:
        xi = self.xi
        x = float(x)
        if x < 1.0:
            raise DomainError("pareto moments: x below the support minimum 1")
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
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise DomainError(f"burr: {name} must be a finite number > 0, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def support_min(self) -> float:
        return 0.0

    @property
    def xi(self) -> float:
        return 1.0 / (self.tau * self.kappa)

    def _quantile(self, a: np.ndarray) -> np.ndarray:
        # (1-a)^(-1/kappa) - 1 computed without cancellation near a = 0
        core = np.expm1(-np.log1p(-a) / self.kappa)
        return core ** (1.0 / self.tau)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return (1.0 + x**self.tau) ** (-self.kappa)

    def _density(self, x: np.ndarray) -> np.ndarray:
        tau, kappa = self.tau, self.kappa
        with np.errstate(divide="ignore", over="ignore"):
            xt = x ** (tau - 1.0)
            out = kappa * tau * xt * (1.0 + x**tau) ** (-kappa - 1.0)
        if tau == 1.0:
            out = np.where(x == 0.0, kappa, out)
        return out

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        return (1.0 / (self.tau * self.kappa)) / np.expm1(np.log(t) / self.kappa)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        return np.expm1(np.log(t) / self.kappa) ** (1.0 / self.tau)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return np.expm1(-np.log1p(-u) / self.kappa) ** (1.0 / self.tau)

    def moments(self, x: float) -> float:
        tau, kappa = self.tau, self.kappa
        x = float(x)
        if x < 0.0:
            raise DomainError("burr moments: x below the support minimum 0")
        if math.isinf(x):
            if tau * kappa <= 1.0:
                return math.inf
            return special.beta(1.0 / tau, kappa - 1.0 / tau) / tau
        return self._truncated_mean_quad(x)

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=1.0 / (self.tau * self.kappa),
            rho=-1.0 / self.kappa,
            hall_c=1.0,
            hall_d=-1.0 / self.tau,
            mean_finite=self.tau * self.kappa > 1.0,
        )


def gh_transform(z: np.ndarray, g: float, h: float) -> np.ndarray:
    """The g-and-h transform k(z) = (exp(g z) - 1)/g * exp(h z^2 / 2)."""
    with np.errstate(over="ignore"):
        return np.expm1(g * z) / g * np.exp(0.5 * h * z * z)


def gh_transform_deriv(z: np.ndarray, g: float, h: float) -> np.ndarray:
    """Derivative k'(z) of :func:`gh_transform`."""
    with np.errstate(over="ignore"):
        return np.exp(0.5 * h * z * z) * (np.exp(g * z) + h * z * np.expm1(g * z) / g)


# Newton inverses stop once a step is within a few ulp, or after this many steps
_NEWTON_TOL = 4.0 * np.finfo(float).eps
_NEWTON_MAX_STEPS = 100
_GH_BLOCK = 1 << 16  # elements solved at once; bounds the working arrays


def gh_inverse(w, g: float, h: float, lo=-60.0, hi=50.0) -> np.ndarray:
    """Inverse of :func:`gh_transform` on the bracket [lo, hi].

    ``lo`` and ``hi`` broadcast against ``w`` (an array ``lo`` gives each
    element its own floor); values of w outside the bracket's image clamp to
    its endpoints. The result has the shape of ``w``. The default bracket
    loses nothing by clamping: the standard normal tail is 1 at -60 and 0
    at 50 in double precision.

    Each element starts from the analytic guess, the root of
    g z + h z^2/2 = log1p(g w) for w >= 0 and
    max(log1p(g w)/g, -sqrt(2 log1p(g|w|)/h)) for w < 0, and takes Newton
    steps on log|k(z)| - log|w|, which cannot overflow, inside a running
    bracket. A step that leaves the bracket is replaced by bisection, and an
    element leaves the working set once its step is within a few ulp. The
    elements are solved in blocks of 2^16 so the working arrays stay small.
    """
    w = np.asarray(w, dtype=float)
    if not w.size:
        return np.empty(w.shape)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    k_lo = np.broadcast_to(gh_transform(lo, g, h), w.shape)
    k_hi = np.broadcast_to(gh_transform(hi, g, h), w.shape)
    lo = np.broadcast_to(lo, w.shape)
    hi = np.broadcast_to(hi, w.shape)
    rows = w.shape[0] if w.ndim else 1
    per_row = w.size // rows if rows else 0
    step = max(1, _GH_BLOCK // max(per_row, 1))
    out = np.empty((rows, per_row))
    views = [v.reshape(rows, per_row) for v in (w, lo, hi, k_lo, k_hi)]
    for r0 in range(0, rows, step):
        block = [v[r0 : r0 + step].ravel() for v in views]
        out[r0 : r0 + step] = _gh_inverse_block(*block, g, h).reshape(-1, per_row)
    return out.reshape(w.shape)


def _gh_inverse_block(w, lo, hi, k_lo, k_hi, g: float, h: float) -> np.ndarray:
    out = np.where(w >= k_hi, hi, lo)
    out[np.isnan(w)] = np.nan
    inside = (w > k_lo) & (w < k_hi)
    out[inside & (w == 0.0)] = 0.0
    idx = np.flatnonzero(inside & (w != 0.0))
    if not idx.size:
        return out
    w = w[idx]
    pos = w > 0.0
    # |k| increases with |z| and k has the sign of z, so the root lies
    # between the bracket edge and 0 on the side of w
    a = np.where(pos, np.maximum(lo[idx], 0.0), lo[idx])
    b = np.where(pos, hi[idx], np.minimum(hi[idx], 0.0))
    g_sgn = np.where(pos, g, -g)
    log_w = np.log(np.abs(w))
    with np.errstate(invalid="ignore", divide="ignore"):
        log_gw = np.log1p(g * np.abs(w))
        z = np.where(
            pos,
            2.0 * log_gw / (g + np.sqrt(g * g + 2.0 * h * log_gw)),
            np.fmax(np.log1p(g * w) / g, -np.sqrt(2.0 * log_gw / h)),
        )
        np.clip(z, a, b, out=z)
        for _ in range(_NEWTON_MAX_STEPS):
            em1 = np.expm1(g * z)
            phi = np.log(em1 / g_sgn) + 0.5 * h * z * z - log_w
            z_new = z - phi / (g + g / em1 + h * z)
            # phi * g_sgn increases with z: its sign says which side the root is on
            below = phi * g_sgn < 0.0
            np.copyto(a, z, where=below)
            np.copyto(b, z, where=~below)
            stray = ~((z_new >= a) & (z_new <= b))
            if stray.any():
                z_new[stray] = 0.5 * (a[stray] + b[stray])
            done = np.abs(z_new - z) <= _NEWTON_TOL * np.abs(z_new)
            out[idx[done]] = z_new[done]
            keep = ~done
            if not keep.any():
                break
            idx, z, a, b, g_sgn, log_w = (v[keep] for v in (idx, z_new, a, b, g_sgn, log_w))
        else:
            out[idx] = z
    return out


@dataclass(frozen=True, slots=True)
class GandH(LossModel):
    """Tukey g-and-h losses: X = a + b*k(Z) with Z standard normal and
    k(z) = (exp(g z) - 1)/g * exp(h z^2 / 2), g > 0, h > 0.

    Support is the whole real line; the upper tail has index xi = h with
    second-order index rho = 0 (logarithmic slow variation).

    The normal law is vectorized through ``scipy.special.ndtr`` and
    ``ndtri``, with the tail formed on the small side as ndtr(-z). ``tail``
    and ``density`` invert k with :func:`gh_inverse`."""

    a: float
    b: float
    g: float
    h: float
    kind: ClassVar[str] = "gandh"

    def __post_init__(self):
        for name in ("a", "b", "g", "h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"gandh: {name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.b <= 0:
            raise DomainError(f"gandh: b must be > 0, got {self.b:g}")
        if self.g <= 0:
            raise DomainError(f"gandh: g must be > 0, got {self.g:g}")
        if self.h <= 0:
            raise DomainError(f"gandh: h must be > 0, got {self.h:g}")

    @property
    def support_min(self) -> float:
        return -math.inf

    def _quantile(self, a: np.ndarray) -> np.ndarray:
        return self.a + self.b * gh_transform(ndtri(a), self.g, self.h)

    def _z_of_x(self, x: np.ndarray) -> np.ndarray:
        return gh_inverse((x - self.a) / self.b, self.g, self.h)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return ndtr(-self._z_of_x(x))

    def _density(self, x: np.ndarray) -> np.ndarray:
        z = self._z_of_x(x)
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return phi / (self.b * gh_transform_deriv(z, self.g, self.h))

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        z = self._z_of_t(t)
        u = self.a + self.b * gh_transform(z, self.g, self.h)
        if np.any(u == 0.0):
            raise PoleError("gandh auxiliary: pole at a t where U(t) = a + b*k(z) = 0")
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        num = self.b * gh_transform_deriv(z, self.g, self.h)
        return num / (t * phi * u) - self.h

    def _z_of_t(self, t: np.ndarray) -> np.ndarray:
        # z = -ndtri(1/t) keeps full precision deep in the tail, where
        # forming 1 - 1/t first would round away the level.
        return -ndtri(1.0 / t)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        return self.a + self.b * gh_transform(self._z_of_t(t), self.g, self.h)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        z = rng.standard_normal(size)
        return self.a + self.b * gh_transform(z, self.g, self.h)

    def moments(self, x: float) -> float:
        g, h = self.g, self.h
        x = float(x)
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
        z = float(self._z_of_x(np.asarray(x, dtype=float)))
        term = bias * special.normal_cdf(s * z - g / s) - special.normal_cdf(s * z)
        return self.a * special.normal_cdf(z) + self.b / g * term / s

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
        for name in ("c", "d", "xi", "rho"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"hall: {name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.c <= 0:
            raise DomainError(f"hall: c must be > 0, got {self.c:g}")
        if self.d == 0:
            raise DomainError("hall: d must be nonzero (use pareto for a pure power tail)")
        if self.xi <= 0:
            raise DomainError(f"hall: xi must be > 0, got {self.xi:g}")
        if self.rho >= 0:
            raise DomainError(f"hall: rho must be < 0, got {self.rho:g}")
        if 1.0 + self.d < 0:
            raise DomainError(
                f"hall: 1 + d must be >= 0 so the quantile stays positive, got d = {self.d:g}"
            )
        # Strict increase of U on t >= 1 is equivalent to
        # psi(t) = xi + d (xi + rho) t^rho > 0 for all t >= 1; psi is
        # monotone in t with limit xi > 0, so it suffices to check psi(1).
        psi1 = self.xi + self.d * (self.xi + self.rho)
        if psi1 <= 0 and self.d * (self.xi + self.rho) < 0:
            raise DomainError(
                "hall: quantile is not strictly increasing "
                f"(xi + d(xi + rho) = {psi1:g} <= 0)"
            )
        # Defensive grid check on t in [1, 1e12]: positive and strictly increasing.
        t = np.logspace(0.0, 12.0, 1000)
        u = self.c * t**self.xi * (1.0 + self.d * t**self.rho)
        if np.any(u < 0) or np.any(np.diff(u) <= 0):
            raise DomainError("hall: quantile fails the positivity/monotonicity grid check")

    @property
    def support_min(self) -> float:
        return self.c * (1.0 + self.d)

    def _u_of_t(self, t: np.ndarray) -> np.ndarray:
        return self.c * t**self.xi * (1.0 + self.d * t**self.rho)

    def _quantile(self, a: np.ndarray) -> np.ndarray:
        t = 1.0 / (1.0 - a)
        return self._u_of_t(t)

    def _t_of_x(self, x: np.ndarray) -> np.ndarray:
        """Invert U(t) = x for t >= 1.

        Newton in s = log t on f(s) = log U(e^s) - log x, from
        s0 = max(log(x/c)/xi, 0) and clipped at s >= 0. f' lies between xi
        and f'(0) > 0 and is monotone (f is convex for d > 0 and concave
        for d < 0), so the iteration converges from either side; it stops
        once every step is within a few ulp of max(s, 1)."""
        x = np.asarray(x, dtype=float)
        c, d, xi, rho = self.c, self.d, self.xi, self.rho
        log_x = np.log(x)
        s = np.maximum((log_x - math.log(c)) / xi, 0.0)
        for _ in range(_NEWTON_MAX_STEPS):
            tr = np.exp(rho * s)
            f = math.log(c) + xi * s + np.log1p(d * tr) - log_x
            s_new = np.maximum(s - f / (xi + d * rho * tr / (1.0 + d * tr)), 0.0)
            converged = np.all(np.abs(s_new - s) <= _NEWTON_TOL * np.maximum(s_new, 1.0))
            s = s_new
            if converged:
                break
        return np.exp(s)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / self._t_of_x(x)

    def _density(self, x: np.ndarray) -> np.ndarray:
        t = self._t_of_x(np.asarray(x, dtype=float))
        tr = t**self.rho
        # dQ/dalpha = c t^(xi+1) (xi (1 + d t^rho) + d rho t^rho)
        dq = self.c * t ** (self.xi + 1.0) * (self.xi * (1.0 + self.d * tr) + self.d * self.rho * tr)
        return 1.0 / dq

    def _auxiliary(self, t: np.ndarray) -> np.ndarray:
        tr = t**self.rho
        return self.d * self.rho * tr / (1.0 + self.d * tr)

    def _tail_quantile(self, t: np.ndarray) -> np.ndarray:
        return self._u_of_t(t)

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        u = rng.random(size)
        return self._quantile(u)

    def moments(self, x: float) -> float:
        c, d, xi, rho = self.c, self.d, self.xi, self.rho
        x = float(x)
        if x < self.support_min:
            raise DomainError(
                f"hall moments: x below the support minimum {self.support_min:g}"
            )
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
_MODEL_PARAMS = {
    "pareto": ("xi",),
    "burr": ("tau", "kappa"),
    "gandh": ("a", "b", "g", "h"),
    "hall": ("c", "d", "xi", "rho"),
}


def model_from_dict(spec: dict) -> LossModel:
    """Build a model from a {"kind": ..., params...} mapping."""
    if not isinstance(spec, dict):
        raise DomainError(f"model spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _MODEL_KINDS:
        raise DomainError(
            f"unknown model kind {kind!r}; expected one of {sorted(_MODEL_KINDS)}"
        )
    wanted = _MODEL_PARAMS[kind]
    extra = set(spec) - {"kind", *wanted}
    if extra:
        raise DomainError(f"{kind}: unexpected parameters {sorted(extra)}")
    missing = [p for p in wanted if p not in spec]
    if missing:
        raise DomainError(f"{kind}: missing parameters {missing}")
    kwargs = {}
    for p in wanted:
        v = spec[p]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise DomainError(f"{kind}: parameter {p} must be a number, got {v!r}")
        kwargs[p] = float(v)
    return _MODEL_KINDS[kind](**kwargs)


def model_to_dict(model: LossModel) -> dict:
    """Inverse of :func:`model_from_dict`."""
    out = {"kind": model.kind}
    for p in _MODEL_PARAMS[model.kind]:
        out[p] = getattr(model, p)
    return out

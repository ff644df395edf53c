"""Numerical oracle for the tail of a sum of n iid losses.

For positive-support models the two-fold tail is computed from the exact
symmetric split

    G2(x) = F(x/2)^2 + 2 * integral_0^{F(x/2)} F(x - Q(u)) du

(written with survival functions), evaluated in quantile space so density
singularities never enter the integrand. Higher n uses the exact pairwise
recursion G_{k+1}(x) = F(x - m_k) + integral_0^{F(x - m_k)} G_k(x - Q(u)) du
with m_k the lower support point of the k-fold sum. Quadrature uses fixed
panels clustered geometrically toward both endpoints (the upper boundary
layer has width F(x/2), far too narrow for generic adaptive rules) with
Gauss-Legendre nodes per panel; a lower-order re-run provides an error
estimate, and :class:`PrecisionError` is raised when it exceeds the grid
tolerance.

The g-and-h model lives on the whole real line, so its two-fold tail is
computed in the Gaussian z-coordinate,

    G2(x) = Phi(z*)^2 + 2 * integral_{-12}^{z*} Phi(k^{-1}((x-2a)/b - k(z))) phi(z) dz

with z* = k^{-1}((x/2 - a)/b), and the pairwise step integrates the
previous level against the Gaussian weight over z in [-12, 12]. A separate
head grid (z from -10 upward) stores values below the main grid so that the
recursion sees the left tail; the truncation error is bounded by n*Phi(-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import ndtr

from . import approx
from .errors import DomainError, GridRangeError, PrecisionError
from .models import GandH, LossModel, gh_inverse, gh_transform, gh_transform_deriv

__all__ = [
    "GridSpec",
    "ConvolutionGrid",
    "convolve_tail",
    "oracle_quantile",
    "oracle_concentration",
    "tail_ratio_diagnostic",
]

_MAX_N = 8
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_GH_Z_LO = -12.0  # Gaussian integration floor; mass below is ~2e-33
_GH_HEAD_Z_LO = -10.0
_GH_HEAD_POINTS = 512


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Configuration of the oracle grid.

    ``points`` total nodes, of which ``head_points`` are linearly spaced
    from the support minimum (for g-and-h: the 0.6-quantile) up to the
    ``head_level`` quantile; the rest are log-spaced up to the ``max_level``
    quantile. ``tol`` bounds the certified relative quadrature error of the
    direct two-fold computation; ``pairwise_tol`` bounds the certificate of
    the iterated gridded chain used for n > 2, whose error compounds
    per level and cannot honestly be pushed to the direct-quadrature tier.
    """

    points: int = 4096
    head_points: int = 1024
    head_level: float = 0.99
    max_level: float = 1.0 - 1e-10
    tol: float = 1e-10
    pairwise_tol: float = 1e-6
    order: int = 14
    check_order: int = 10

    def __post_init__(self):
        if self.points < 64 or self.head_points < 16 or self.head_points >= self.points:
            raise DomainError("GridSpec: need points >= 64 and 16 <= head_points < points")
        if not (0.5 < self.head_level < self.max_level < 1.0):
            raise DomainError("GridSpec: need 0.5 < head_level < max_level < 1")
        if not (0.0 < self.tol < 1.0):
            raise DomainError("GridSpec: tol must lie in (0, 1)")
        if not (0.0 < self.pairwise_tol < 1.0):
            raise DomainError("GridSpec: pairwise_tol must lie in (0, 1)")
        if not (2 <= self.check_order < self.order <= 64):
            raise DomainError("GridSpec: need 2 <= check_order < order <= 64")

    def certify_threshold(self, n: int) -> float:
        return self.tol if n == 2 else max(self.tol, self.pairwise_tol)


# Relative panel edges on (0, 1), clustered toward both endpoints. The
# right-end clustering resolves the boundary layer of width ~F(x/2)/u_hi;
# the left end covers integrable steepness of Q near u = 0.
_REL_EDGES = np.concatenate(
    [
        np.array(
            [0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.03,
             0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        ),
        1.0
        - np.array(
            [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-7,
             1e-8, 1e-9, 1e-10, 1e-12, 1e-14, 0.0]
        ),
    ]
)


@lru_cache(maxsize=8)
def _panel_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on (0, 1) over the clustered panels."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    nodes = []
    weights = []
    for lo, hi in zip(_REL_EDGES[:-1], _REL_EDGES[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes.append(mid + half * gl_x)
        weights.append(half * gl_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _gbar2_positive(model: LossModel, x: np.ndarray, order: int) -> np.ndarray:
    """Two-fold convolution tail for a positive-support model, vectorized."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    smin = model.support_min
    out = np.ones(x.shape)
    live = x > 2.0 * smin
    if not np.any(live):
        return out
    xl = x[live]
    half_tail = np.asarray(model.tail(xl / 2.0))
    u_hi = 1.0 - half_tail
    v, wts = _panel_rule(order)
    u_nodes = u_hi[:, None] * v[None, :]
    args = xl[:, None] - np.asarray(model.quantile(u_nodes))
    np.maximum(args, smin, out=args)
    vals = np.asarray(model.tail(args))
    integral = u_hi * np.sum(vals * wts[None, :], axis=1)
    out[live] = half_tail**2 + 2.0 * integral
    return out


def _gbar_step_positive(
    model: LossModel,
    prev_eval: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    k_prev: int,
    order: int,
) -> np.ndarray:
    """One pairwise convolution step: k_prev-fold sum plus one more loss.

    Split at s so neither conditioning variable carries an O(1) boundary
    layer: condition on the single loss where it is below s and on the
    partial sum where the loss exceeds s. With s = x/2 each integrand then
    varies by a bounded factor (~2^(1/xi)) instead of collapsing many
    decades into the last quadrature panels. Near the support onset
    (x < 2 * m_prev) the split degenerates to s = x - m_prev, recovering
    the plain conditioning form, which is harmless there because the tail
    is O(1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    smin = model.support_min
    m_prev = k_prev * smin
    out = np.ones(x.shape)
    live = x > m_prev + smin
    if not np.any(live):
        return out
    xl = x[live]
    split = np.where(xl >= 2.0 * m_prev, 0.5 * xl, xl - m_prev)
    first = np.asarray(model.tail(np.maximum(xl - m_prev, smin)))
    v, wts = _panel_rule(order)
    # single loss below the split point, previous-level tail inside
    u_hi = 1.0 - np.asarray(model.tail(np.maximum(split, smin)))
    u_nodes = u_hi[:, None] * v[None, :]
    args = xl[:, None] - np.asarray(model.quantile(u_nodes))
    np.maximum(args, m_prev, out=args)
    piece_small = u_hi * np.sum(prev_eval(args) * wts[None, :], axis=1)
    # single loss above the split point: integrate the previous-level tail
    # against the single-loss density over y in [m_prev, x - split]
    span = np.maximum(xl - split - m_prev, 0.0)
    y_nodes = m_prev + span[:, None] * v[None, :]
    dens_args = np.maximum(xl[:, None] - y_nodes, smin)
    dens = np.asarray(model.density(dens_args))
    piece_large = span * np.sum(prev_eval(y_nodes) * dens * wts[None, :], axis=1)
    out[live] = piece_small + piece_large + first
    return out


def _gbar2_gandh(model: GandH, x: np.ndarray, order: int) -> np.ndarray:
    """Two-fold convolution tail for g-and-h, computed in z-space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b, g, h = model.a, model.b, model.g, model.h
    z_star = gh_inverse((0.5 * x - a) / b, g, h, lo=-60.0, hi=50.0)
    v, wts = _panel_rule(order)
    span = np.maximum(z_star - _GH_Z_LO, 0.0)
    z_nodes = _GH_Z_LO + span[:, None] * v[None, :]
    rem = (x[:, None] - 2.0 * a) / b - gh_transform(z_nodes, g, h)
    zz = gh_inverse(rem, g, h, lo=z_star[:, None], hi=50.0)
    integrand = ndtr(-zz) * np.exp(-0.5 * z_nodes * z_nodes) / _SQRT_TWO_PI
    integral = span * np.sum(integrand * wts[None, :], axis=1)
    tail_half = ndtr(-z_star)
    return tail_half**2 + 2.0 * integral


def _gbar_step_gandh(
    model: GandH,
    prev_eval: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    order: int,
) -> np.ndarray:
    """One pairwise step for g-and-h, split at x/2 like the direct two-fold
    form so neither conditioning variable carries a boundary layer.

    Piece 1 conditions on the single loss where it stays below x/2 (the
    previous level is evaluated at arguments >= x/2, so its value varies by
    a bounded factor). Piece 2 conditions on the previous-level sum where
    the single loss exceeds x/2, written as an integral of the level tail
    against the single-loss density and parameterized by the level's
    z-coordinate, where its decay unfolds on unit scale; below the level's
    numerical support floor the tail is 1 to double precision and the
    remaining single-loss mass is added in closed form.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b, g, h = model.a, model.b, model.g, model.h
    v, wts = _panel_rule(order)
    z_split = gh_inverse((0.5 * x - a) / b, g, h, -60.0, 50.0)
    z_floor = getattr(prev_eval, "z_floor", _GH_HEAD_Z_LO)
    w_floor = getattr(prev_eval, "w_floor", a + b * gh_transform(_GH_HEAD_Z_LO, g, h))
    out = np.empty(x.shape)

    # Arguments to the right of the single-loss median: the density factor
    # stays in its upper tail on the level side, so each conditioning
    # variable is integrated in the coordinate where the other factor is
    # slowly varying.
    pos = z_split >= 0.0
    if np.any(pos):
        xp = x[pos]
        zs = z_split[pos]
        span1 = np.maximum(zs - _GH_Z_LO, 0.0)
        z_nodes = _GH_Z_LO + span1[:, None] * v[None, :]
        args = xp[:, None] - (a + b * gh_transform(z_nodes, g, h))
        phi1 = np.exp(-0.5 * z_nodes * z_nodes) / _SQRT_TWO_PI
        piece1 = span1 * np.sum(prev_eval(args) * phi1 * wts[None, :], axis=1)

        span2 = np.maximum(zs - z_floor, 0.0)
        t_nodes = z_floor + span2[:, None] * v[None, :]
        y_vals = a + b * gh_transform(t_nodes, g, h)
        zeta = gh_inverse((xp[:, None] - y_vals - a) / b, g, h, -60.0, 50.0)
        dens = np.exp(-0.5 * zeta * zeta) / _SQRT_TWO_PI / np.maximum(
            gh_transform_deriv(zeta, g, h), 1e-300
        )
        jac = gh_transform_deriv(t_nodes, g, h)
        piece2 = span2 * np.sum(prev_eval(y_vals) * dens * jac * wts[None, :], axis=1)

        zeta_floor = gh_inverse((xp - w_floor - a) / b, g, h, -60.0, 50.0)
        out[pos] = piece1 + piece2 + ndtr(-zeta_floor)

    # Arguments to the left of the single-loss median: mirrored treatment.
    # Below the split the level tail is 1 to within its own left tail, so
    # the single-loss z-coordinate is smooth there; above the split the
    # level tail decays while the density factor stays in its lower tail.
    neg = ~pos
    if np.any(neg):
        xn = x[neg]
        zs = z_split[neg]
        span = np.maximum(-_GH_Z_LO - zs, 0.0)
        nodes = zs[:, None] + span[:, None] * v[None, :]
        xv = a + b * gh_transform(nodes, g, h)
        args = xn[:, None] - xv
        phi = np.exp(-0.5 * nodes * nodes) / _SQRT_TWO_PI
        low_piece = span * np.sum(prev_eval(args) * phi * wts[None, :], axis=1)

        zeta = gh_inverse((args - a) / b, g, h, -60.0, 50.0)
        dens = np.exp(-0.5 * zeta * zeta) / _SQRT_TWO_PI / np.maximum(
            gh_transform_deriv(zeta, g, h), 1e-300
        )
        jac = gh_transform_deriv(nodes, g, h)
        up_piece = span * np.sum(prev_eval(xv) * dens * jac * wts[None, :], axis=1)
        out[neg] = low_piece + up_piece
    return out


class ConvolutionGrid:
    """Precomputed tail of the n-fold convolution on a log-tailed grid.

    Attributes ``x`` (nodes), ``g_tail`` (survival values), ``n``, ``model``,
    ``spec``. Evaluation between nodes uses monotone piecewise-cubic
    interpolation of log survival (linear x over the head, log x over the
    tail); beyond the last node the tail extends by the power law of index
    -1/xi. ``tail_at`` returns 1 below the sum's support for positive-support
    models and raises :class:`GridRangeError` below the grid floor for
    g-and-h (whose grid deliberately starts at the 0.6 quantile).
    """

    __slots__ = (
        "model",
        "n",
        "spec",
        "x",
        "g_tail",
        "_support_sum",
        "_xi",
        "_head_interp",
        "_log_interp",
        "_head_hi",
        "_fresh",
        "_err_estimate",
    )

    def __init__(
        self,
        model: LossModel,
        n: int,
        spec: GridSpec,
        x: np.ndarray,
        g_tail: np.ndarray,
        fresh: Callable[[np.ndarray], np.ndarray],
        err_estimate: float,
    ):
        self.model = model
        self.n = n
        self.spec = spec
        self.x = x
        self.g_tail = g_tail
        self._fresh = fresh
        self._err_estimate = err_estimate
        self._xi = model.second_order_info().xi
        smin = model.support_min
        self._support_sum = n * smin if math.isfinite(smin) else -math.inf
        head_hi = float(model.quantile(spec.head_level))
        self._head_hi = head_hi

        # interpolation domain: from the last node where the tail is still 1
        # (positive-support head) through the end of the grid
        ones = np.nonzero(g_tail >= 1.0)[0]
        j0 = int(ones[-1]) if ones.size else 0
        xs = x[j0:]
        gs = g_tail[j0:]
        if np.any(np.diff(gs) >= 0):
            raise PrecisionError(
                "convolution grid failed its monotonicity self-check; "
                "tighten the grid or tolerance"
            )
        log_g = np.log(gs)
        head_mask = xs <= head_hi
        n_head = int(np.sum(head_mask))
        if n_head >= 2:
            self._head_interp = PchipInterpolator(
                xs[:n_head], log_g[:n_head], extrapolate=False
            )
        else:
            self._head_interp = None
        tail_lo = max(n_head - 1, 0)
        self._log_interp = PchipInterpolator(
            np.log(xs[tail_lo:]), log_g[tail_lo:], extrapolate=False
        )

    @property
    def certified_error(self) -> float:
        """Relative disagreement between the two quadrature orders at build."""
        return self._err_estimate

    def tail_at(self, w):
        """Interpolated tail of the n-fold sum at w (scalar or array)."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        out = np.empty(arr.shape)
        below_grid = arr < self.x[0]
        if np.any(below_grid):
            if math.isfinite(self._support_sum):
                out[below_grid] = 1.0
            else:
                raise GridRangeError(
                    f"tail_at: argument below the grid floor {self.x[0]:g} "
                    "(the g-and-h grid does not cover the left tail)"
                )
        inside = ~below_grid
        if np.any(inside):
            wi = arr[inside]
            vi = np.empty(wi.shape)
            flat = wi <= self._support_sum
            vi[flat] = 1.0
            top = wi > self.x[-1]
            vi[top] = self.g_tail[-1] * (wi[top] / self.x[-1]) ** (-1.0 / self._xi)
            mid = ~(flat | top)
            if np.any(mid):
                wm = wi[mid]
                vm = np.empty(wm.shape)
                use_head = (
                    (wm <= self._head_hi) if self._head_interp is not None else np.zeros(wm.shape, bool)
                )
                if self._head_interp is not None and np.any(use_head):
                    vm[use_head] = np.exp(self._head_interp(wm[use_head]))
                rest = ~use_head
                if np.any(rest):
                    vm[rest] = np.exp(self._log_interp(np.log(wm[rest])))
                vi[mid] = vm
            out[inside] = vi
        # interpolation inside the flat-to-decreasing transition cell can
        # only produce values in [g(x1), 1]; clamp defensively
        np.clip(out, 0.0, 1.0, out=out)
        if np.any(np.isnan(out)):
            raise GridRangeError("tail_at: argument outside the interpolable range")
        return float(out[0]) if np.asarray(w).ndim == 0 else out

    def fresh_tail(self, w):
        """Tail recomputed by direct quadrature (no grid interpolation in the
        outermost integral); used for quantile refinement and diagnostics."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        out = self._fresh(arr)
        return float(out[0]) if np.asarray(w).ndim == 0 else out


def _build_positive(model: LossModel, n: int, spec: GridSpec) -> ConvolutionGrid:
    smin = model.support_min
    head_hi = float(model.quantile(spec.head_level))
    top = float(model.quantile(spec.max_level))
    if not head_hi > smin:
        raise DomainError("convolve_tail: degenerate grid (head level too low)")
    head = np.linspace(smin, head_hi, spec.head_points, endpoint=False)
    tail_pts = np.geomspace(max(head_hi, 1e-300), top, spec.points - spec.head_points)
    x = np.concatenate([head, tail_pts])
    g_hi = _gbar2_positive(model, x, spec.order)
    g_lo = _gbar2_positive(model, x, spec.check_order)
    level = 2
    prev_hi = g_hi
    while level < n:
        interp = _interp_from(model, x, prev_hi, level * smin)
        g_hi = _gbar_step_positive(model, interp, x, level, spec.order)
        g_lo = _gbar_step_positive(model, interp, x, level, spec.check_order)
        prev_hi = g_hi
        level += 1
    err = _relative_err(g_hi, g_lo)
    threshold = spec.certify_threshold(n)
    if err > threshold:
        raise PrecisionError(
            f"convolve_tail: certified relative quadrature error {err:.3e} "
            f"exceeds tol {threshold:g}"
        )
    if n == 2:
        fresh = lambda w: _gbar2_positive(model, w, spec.order)  # noqa: E731
    else:
        # the loop exits with the level-(n-1) interpolant, which is exactly
        # what a fresh off-grid evaluation of the final step needs
        final_interp = interp
        fresh = lambda w: _gbar_step_positive(model, final_interp, w, n - 1, spec.order)  # noqa: E731
    return ConvolutionGrid(model, n, spec, x, g_hi, fresh, err)


def _interp_from(
    model: LossModel, x: np.ndarray, g: np.ndarray, support_sum: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Monotone log-space interpolant of grid values, with power-law
    extension above the grid and exact 1 below the sum's support."""
    xi = model.second_order_info().xi
    ones = np.nonzero(g >= 1.0)[0]
    j0 = int(ones[-1]) if ones.size else 0
    xs = x[j0:]
    log_g = np.log(g[j0:])
    # single log-log interpolant suffices for internal use when the grid
    # starts at a positive abscissa; fall back to linear-x near zero
    if xs[0] > 0:
        interp = PchipInterpolator(np.log(xs), log_g, extrapolate=False)

        def evaluate(w: np.ndarray) -> np.ndarray:
            w = np.asarray(w, dtype=float)
            out = np.empty(w.shape)
            low = w <= xs[0]
            out[low] = 1.0
            high = w > x[-1]
            out[high] = g[-1] * (w[high] / x[-1]) ** (-1.0 / xi)
            mid = ~(low | high)
            if np.any(mid):
                out[mid] = np.exp(interp(np.log(w[mid])))
            np.clip(out, 0.0, 1.0, out=out)
            return out

    else:
        interp_lin = PchipInterpolator(xs, log_g, extrapolate=False)

        def evaluate(w: np.ndarray) -> np.ndarray:
            w = np.asarray(w, dtype=float)
            out = np.empty(w.shape)
            low = w <= xs[0]
            out[low] = 1.0
            high = w > x[-1]
            out[high] = g[-1] * (w[high] / x[-1]) ** (-1.0 / xi)
            mid = ~(low | high)
            if np.any(mid):
                out[mid] = np.exp(interp_lin(w[mid]))
            np.clip(out, 0.0, 1.0, out=out)
            return out

    return evaluate


def _relative_err(hi: np.ndarray, lo: np.ndarray) -> float:
    denom = np.maximum(np.abs(hi), 1e-300)
    return float(np.max(np.abs(hi - lo) / denom))


def _build_gandh(model: GandH, n: int, spec: GridSpec) -> ConvolutionGrid:
    a, b, g, h = model.a, model.b, model.g, model.h
    z60 = 0.2533471031357997  # standard normal 0.6-quantile
    grid_lo = float(model.quantile(0.6))
    head_hi = float(model.quantile(spec.head_level))
    top = float(model.quantile(spec.max_level))
    head = np.linspace(grid_lo, head_hi, spec.head_points, endpoint=False)
    tail_pts = np.geomspace(head_hi, top, spec.points - spec.head_points)
    x = np.concatenate([head, tail_pts])
    # auxiliary head in z-space for the recursion's left tail
    z_head = np.linspace(_GH_HEAD_Z_LO, z60, _GH_HEAD_POINTS, endpoint=False)
    w_head = a + b * gh_transform(z_head, g, h)
    x_eval = np.concatenate([w_head, x])
    z_eval = np.concatenate([z_head, gh_inverse((x - a) / b, g, h, -60.0, 50.0)])

    g_hi = _gbar2_gandh(model, x_eval, spec.order)
    g_lo = _gbar2_gandh(model, x_eval, spec.check_order)
    level = 2
    prev_hi = g_hi
    while level < n:
        interp = _gh_interp_from(model, z_eval, x_eval, prev_hi)
        g_hi = _gbar_step_gandh(model, interp, x_eval, spec.order)
        g_lo = _gbar_step_gandh(model, interp, x_eval, spec.check_order)
        prev_hi = g_hi
        level += 1
    main_hi = g_hi[_GH_HEAD_POINTS:]
    main_lo = g_lo[_GH_HEAD_POINTS:]
    err = _relative_err(main_hi, main_lo)
    threshold = spec.certify_threshold(n)
    if err > threshold:
        raise PrecisionError(
            f"convolve_tail: certified relative quadrature error {err:.3e} "
            f"exceeds tol {threshold:g}"
        )
    if n == 2:
        fresh = lambda w: _gbar2_gandh(model, w, spec.order)  # noqa: E731
    else:
        final_interp = interp
        fresh = lambda w: _gbar_step_gandh(model, final_interp, w, spec.order)  # noqa: E731
    return ConvolutionGrid(model, n, spec, x, main_hi, fresh, err)


def _gh_interp_from(
    model: GandH, z_pts: np.ndarray, x_pts: np.ndarray, g_vals: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Interpolant of a g-and-h convolution level, parameterized by the
    single-loss z-coordinate (monotone in the real argument)."""
    a, b, g, h = model.a, model.b, model.g, model.h
    xi = model.h
    gv = np.minimum(g_vals, 1.0)
    interp = PchipInterpolator(z_pts, np.log(np.maximum(gv, 1e-300)), extrapolate=False)
    z_top = z_pts[-1]
    x_top = x_pts[-1]
    g_top = gv[-1]

    def evaluate(w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        out = np.empty(w.shape)
        neg_inf = ~np.isfinite(w)
        finite = ~neg_inf
        out[neg_inf] = 1.0
        if np.any(finite):
            wf = w[finite]
            zz = gh_inverse((wf - a) / b, g, h, -60.0, 50.0)
            of = np.empty(wf.shape)
            low = zz <= z_pts[0]
            of[low] = 1.0
            high = zz > z_top
            if np.any(high):
                of[high] = g_top * (wf[high] / x_top) ** (-1.0 / xi)
            mid = ~(low | high)
            if np.any(mid):
                of[mid] = np.exp(interp(zz[mid]))
            out[finite] = of
        np.clip(out, 0.0, 1.0, out=out)
        return out

    # record where the stored level is still 1 to double precision; the
    # pairwise step integrates the level tail only above this floor and adds
    # the remaining single-loss mass in closed form
    flat = np.nonzero(gv >= 1.0 - 1e-15)[0]
    floor_idx = int(flat[-1]) if flat.size else 0
    evaluate.z_floor = float(z_pts[floor_idx])
    evaluate.w_floor = float(x_pts[floor_idx])
    return evaluate


@lru_cache(maxsize=8)
def _build_grid(model: LossModel, n: int, spec: GridSpec) -> ConvolutionGrid:
    if isinstance(model, GandH):
        return _build_gandh(model, n, spec)
    return _build_positive(model, n, spec)


def convolve_tail(model: LossModel, n: int, spec: Optional[GridSpec] = None) -> ConvolutionGrid:
    """Build (or fetch from cache) the n-fold convolution tail grid."""
    n = approx.validate_n(n, _MAX_N)
    if spec is None:
        spec = GridSpec()
    return _build_grid(model, n, spec)


def oracle_quantile(grid: ConvolutionGrid, alpha: float) -> float:
    """Quantile of the n-fold sum at level alpha, from the oracle grid.

    An exact hit on a stored tail value returns that node's abscissa;
    otherwise the grid brackets the root and bisection refines it against
    fresh direct quadrature evaluations.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"oracle_quantile: alpha must lie in (0, 1), got {alpha!r}")
    p = 1.0 - alpha
    g = grid.g_tail
    x = grid.x
    if p < g[-1]:
        raise GridRangeError(
            f"oracle_quantile: level {alpha:g} is deeper than the grid covers "
            f"(smallest stored tail {g[-1]:.3e}); rebuild with a larger max_level"
        )
    if p > g[0]:
        # positive-support grids start at the single-loss support point where
        # the stored tail is exactly 1, so only the g-and-h grid (floored at
        # the 0.6 quantile) can be entered above its first stored value
        raise GridRangeError(
            f"oracle_quantile: level {alpha:g} lies below the grid floor "
            f"(first stored tail value {g[0]:.6g})"
        )
    hit = np.nonzero(g == p)[0]
    if hit.size:
        return float(x[hit[0]])
    # g is non-increasing; find the bracketing cell
    idx = int(np.searchsorted(-g, -p, side="left"))
    idx = min(max(idx, 1), len(x) - 1)
    return _refine_root(grid, x[idx], p, lo=x[idx - 1])


def _refine_root(grid: ConvolutionGrid, hi: float, p: float, lo: float) -> float:
    f_lo = grid.fresh_tail(lo) - p if math.isfinite(lo) else 1.0 - p
    f_hi = grid.fresh_tail(hi) - p
    if f_lo == 0.0:
        return float(lo)
    if f_hi == 0.0:
        return float(hi)
    # widen defensively if fresh quadrature disagrees with the stored bracket
    attempts = 0
    width = hi - lo
    while f_lo * f_hi > 0 and attempts < 8:
        lo -= width
        hi += width
        lo = max(lo, grid._support_sum) if math.isfinite(grid._support_sum) else lo
        f_lo = grid.fresh_tail(lo) - p
        f_hi = grid.fresh_tail(hi) - p
        attempts += 1
    if f_lo * f_hi > 0:
        raise PrecisionError("oracle_quantile: failed to bracket the root")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(abs(lo), abs(hi), 1.0):
            break
        f_mid = grid.fresh_tail(mid) - p
        if f_mid == 0.0:
            return float(mid)
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo = mid
            f_lo = f_mid
    return 0.5 * (lo + hi)


def oracle_concentration(
    model: LossModel, n: int, alpha: float, spec: Optional[GridSpec] = None
) -> float:
    """Oracle value of the concentration ratio: the sum's quantile over n
    times the single-loss quantile."""
    grid = convolve_tail(model, n, spec)
    x_sum = oracle_quantile(grid, alpha)
    return x_sum / (n * float(model.quantile(alpha)))


def tail_ratio_diagnostic(model: LossModel, n: int, x) -> np.ndarray:
    """Diagnostic (G_bar(x)/F_bar(x) - n) / b(x) that converges to the
    tail-ratio limit as x grows; evaluated by fresh quadrature so the
    cancellation in the numerator is not polluted by interpolation error."""
    n = approx.validate_n(n, _MAX_N)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    grid = convolve_tail(model, n)
    g_vals = grid.fresh_tail(arr)
    f_vals = np.asarray(model.tail(arr))
    b_vals = np.array([approx.tail_ratio_scale(model, float(w)) for w in arr])
    out = (g_vals / f_vals - n) / b_vals
    return float(out[0]) if np.asarray(x).ndim == 0 else out

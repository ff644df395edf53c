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

Between and beyond its nodes every stored level, the final one included, is
read by one log-tail interpolant, :class:`_LogTail`.
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
_GH_Z_FLOOR = 0.2533471031357997  # standard normal 0.6-quantile: z of the grid floor
_FLAT = 1.0 - 1e-15  # a stored tail at or above this is 1 to double precision


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
    prev: _LogTail,
    x: np.ndarray,
    order: int,
) -> np.ndarray:
    """One pairwise convolution step: the level ``prev`` plus one more loss.

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
    m_prev = prev.support
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
    piece_small = u_hi * np.sum(prev(args) * wts[None, :], axis=1)
    # single loss above the split point: integrate the previous-level tail
    # against the single-loss density over y in [m_prev, x - split]
    span = np.maximum(xl - split - m_prev, 0.0)
    y_nodes = m_prev + span[:, None] * v[None, :]
    dens_args = np.maximum(xl[:, None] - y_nodes, smin)
    dens = np.asarray(model.density(dens_args))
    piece_large = span * np.sum(prev(y_nodes) * dens * wts[None, :], axis=1)
    out[live] = piece_small + piece_large + first
    return out


def _gbar2_gandh(model: GandH, x: np.ndarray, order: int) -> np.ndarray:
    """Two-fold convolution tail for g-and-h, computed in z-space."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b, g, h = model.a, model.b, model.g, model.h
    z_star = gh_inverse((0.5 * x - a) / b, g, h)
    v, wts = _panel_rule(order)
    span = np.maximum(z_star - _GH_Z_LO, 0.0)
    z_nodes = _GH_Z_LO + span[:, None] * v[None, :]
    rem = (x[:, None] - 2.0 * a) / b - gh_transform(z_nodes, g, h)
    zz = gh_inverse(rem, g, h, lo=z_star[:, None])
    integrand = ndtr(-zz) * np.exp(-0.5 * z_nodes * z_nodes) / _SQRT_TWO_PI
    integral = span * np.sum(integrand * wts[None, :], axis=1)
    tail_half = ndtr(-z_star)
    return tail_half**2 + 2.0 * integral


def _gbar_step_gandh(
    model: GandH,
    prev: _LogTail,
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
    remaining single-loss mass is added in closed form. Where the level is
    evaluated at a + b k(t) for known t, t is passed as its coordinate.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    a, b, g, h = model.a, model.b, model.g, model.h
    v, wts = _panel_rule(order)
    z_split = gh_inverse((0.5 * x - a) / b, g, h)
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
        piece1 = span1 * np.sum(prev(args) * phi1 * wts[None, :], axis=1)

        span2 = np.maximum(zs - prev.c_floor, 0.0)
        t_nodes = prev.c_floor + span2[:, None] * v[None, :]
        y_vals = a + b * gh_transform(t_nodes, g, h)
        zeta = gh_inverse((xp[:, None] - y_vals - a) / b, g, h)
        dens = np.exp(-0.5 * zeta * zeta) / _SQRT_TWO_PI / np.maximum(
            gh_transform_deriv(zeta, g, h), 1e-300
        )
        jac = gh_transform_deriv(t_nodes, g, h)
        piece2 = span2 * np.sum(prev(y_vals, t_nodes) * dens * jac * wts[None, :], axis=1)

        zeta_floor = gh_inverse((xp - prev.w_floor - a) / b, g, h)
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
        low_piece = span * np.sum(prev(args) * phi * wts[None, :], axis=1)

        zeta = gh_inverse((args - a) / b, g, h)
        dens = np.exp(-0.5 * zeta * zeta) / _SQRT_TWO_PI / np.maximum(
            gh_transform_deriv(zeta, g, h), 1e-300
        )
        jac = gh_transform_deriv(nodes, g, h)
        up_piece = span * np.sum(prev(xv, nodes) * dens * jac * wts[None, :], axis=1)
        out[neg] = low_piece + up_piece
    return out


class _LogTail:
    """Tail of one convolution level between and beyond its stored nodes.

    Built from the map ``coord`` from an argument to the coordinate the
    interpolation runs in (log x, x, or the single-loss z of g-and-h), and
    the nodes as coordinates ``node_c``, as arguments ``node_x`` and as
    stored tails ``node_g``. The tail is exactly 1 at or below the larger of
    ``support`` and the last node whose stored tail is 1 (below the first
    node if none is). Above the last node it follows the power law of index
    -1/xi; in between it is exp(PCHIP(log g)) in the coordinate, clipped to
    [0, 1]. ``split = k`` breaks the spline at node k, which must lie above
    0, and reads the nodes from k on with a second spline in log x.

    ``c_floor`` and ``w_floor`` are the coordinate and the argument of the
    last node whose stored tail is 1 to double precision (the first node if
    none is): the floor above which the g-and-h step integrates the level.
    """

    __slots__ = (
        "support",
        "c_floor",
        "w_floor",
        "_coord",
        "_spline",
        "_upper",
        "_w_one",
        "_x_top",
        "_g_top",
        "_power",
    )

    def __init__(
        self,
        coord: Callable[[np.ndarray], np.ndarray],
        node_c: np.ndarray,
        node_x: np.ndarray,
        node_g: np.ndarray,
        xi: float,
        support: float,
        split: Optional[int] = None,
    ):
        ones = np.flatnonzero(node_g >= 1.0)
        j = int(ones[-1]) if ones.size else 0
        flat = np.flatnonzero(node_g >= _FLAT)
        f = int(flat[-1]) if flat.size else 0
        self.support = support
        self.c_floor = float(node_c[f])
        self.w_floor = float(node_x[f])
        # with no such node, strictly below the first node
        x_one = float(node_x[j]) if ones.size else float(np.nextafter(node_x[0], -np.inf))
        self._w_one = max(support, x_one)
        log_g = np.log(np.minimum(node_g, 1.0))
        k = node_g.size if split is None else split
        if k <= j:  # the flat region reaches the split: one spline in log x
            k, coord = node_g.size, np.log
            with np.errstate(divide="ignore"):
                node_c = np.log(node_x)
        self._coord = coord
        self._spline = PchipInterpolator(node_c[j : k + 1], log_g[j : k + 1], extrapolate=False)
        self._upper = None
        if k < node_g.size - 1:
            spline = PchipInterpolator(np.log(node_x[k:]), log_g[k:], extrapolate=False)
            self._upper = (spline, float(node_x[k]))
        self._x_top = float(node_x[-1])
        self._g_top = float(node_g[-1])
        self._power = -1.0 / xi

    def __call__(self, w, c: Optional[np.ndarray] = None) -> np.ndarray:
        """Tail at the arguments ``w``; ``c`` gives their coordinates when
        the caller already has them (for the spline below any split)."""
        w = np.asarray(w, dtype=float)
        # arguments at or below the support (log 0, log of a negative) get
        # a meaningless coordinate; the floor overwrites their value
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._spline(self._coord(w) if c is None else c)
            if self._upper is not None:
                spline, w_split = self._upper
                up = w > w_split
                out[up] = spline(np.log(w[up]))
        np.exp(out, out=out)
        out[w <= self._w_one] = 1.0
        top = w > self._x_top
        out[top] = self._g_top * (w[top] / self._x_top) ** self._power
        return np.clip(out, 0.0, 1.0, out=out)


class ConvolutionGrid:
    """Precomputed tail of the n-fold convolution on a log-tailed grid.

    Attributes ``x`` (nodes), ``g_tail`` (survival values), ``n``, ``model``,
    ``spec``. ``tail_at`` reads the stored tail with the interpolant class
    the recursion uses between levels, on the main nodes: monotone
    piecewise-cubic interpolation of log survival in x over the linearly
    spaced head and in log x over the geometric tail, with the spline broken
    between the two; beyond the last node the tail extends by the power law
    of index -1/xi. ``tail_at``
    returns 1 at or below the sum's support for positive-support models and
    raises :class:`GridRangeError` below the grid floor for g-and-h (whose
    grid deliberately starts at the 0.6 quantile).
    """

    __slots__ = (
        "model",
        "n",
        "spec",
        "x",
        "g_tail",
        "_tail",
        "_fresh",
        "_err_estimate",
    )

    def __init__(
        self,
        model: LossModel,
        n: int,
        spec: GridSpec,
        tail: _LogTail,
        x: np.ndarray,
        g_tail: np.ndarray,
        fresh: Callable[[np.ndarray], np.ndarray],
        err_estimate: float,
    ):
        if np.any(np.diff(g_tail[g_tail < 1.0]) >= 0):
            raise PrecisionError(
                "convolution grid failed its monotonicity self-check; "
                "tighten the grid or tolerance"
            )
        self.model = model
        self.n = n
        self.spec = spec
        self.x = x
        self.g_tail = g_tail
        self._tail = tail
        self._fresh = fresh
        self._err_estimate = err_estimate

    @property
    def certified_error(self) -> float:
        """Relative disagreement between the two quadrature orders at build."""
        return self._err_estimate

    def tail_at(self, w):
        """Interpolated tail of the n-fold sum at w (scalar or array)."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        if self.model.support_min == -math.inf and np.any(arr < self.x[0]):
            raise GridRangeError(
                f"tail_at: argument below the grid floor {self.x[0]:g} "
                "(the g-and-h grid does not cover the left tail)"
            )
        out = self._tail(arr)
        if np.any(np.isnan(out)):
            raise GridRangeError("tail_at: argument outside the interpolable range")
        return float(out[0]) if np.asarray(w).ndim == 0 else out

    def fresh_tail(self, w):
        """Tail recomputed by direct quadrature (no grid interpolation in the
        outermost integral); used for quantile refinement and diagnostics."""
        arr = np.atleast_1d(np.asarray(w, dtype=float))
        out = self._fresh(arr)
        return float(out[0]) if np.asarray(w).ndim == 0 else out


@lru_cache(maxsize=8)
def _build_grid(model: LossModel, n: int, spec: GridSpec) -> ConvolutionGrid:
    """Tabulate the two-fold tail, then add one loss per level up to n.

    Per family: the grid floor, the two-fold and pairwise-step quadratures,
    and the interpolation coordinate. g-and-h runs in the single-loss z and
    carries an auxiliary head (z from -10 up to the grid floor) through the
    recursion so each step sees the left tail of the previous level.
    Positive-support models run in log x, or in x where the level's last
    node whose tail is exactly 1 lies at 0.
    """
    smin = model.support_min
    xi = model.second_order_info().xi
    gandh = isinstance(model, GandH)
    floor = float(model.quantile(0.6)) if gandh else smin
    head_hi = float(model.quantile(spec.head_level))
    if not head_hi > floor:
        raise DomainError("convolve_tail: degenerate grid (head level too low)")
    head = np.linspace(floor, head_hi, spec.head_points, endpoint=False)
    top = float(model.quantile(spec.max_level))
    x = np.concatenate([head, np.geomspace(head_hi, top, spec.points - spec.head_points)])
    if gandh:
        a, b, g, h = model.a, model.b, model.g, model.h
        two_fold, step = _gbar2_gandh, _gbar_step_gandh
        z_head = np.linspace(_GH_HEAD_Z_LO, _GH_Z_FLOOR, _GH_HEAD_POINTS, endpoint=False)
        nodes = np.concatenate([a + b * gh_transform(z_head, g, h), x])

        def z_of(w):
            return gh_inverse((w - a) / b, g, h)

        family = (z_of, np.concatenate([z_head, z_of(x)]))
    else:
        two_fold, step = _gbar2_positive, _gbar_step_positive
        nodes = x
        with np.errstate(divide="ignore"):
            family = (np.log, np.log(x))

    def level_tail(vals, k):
        coord, node_c = family
        if not gandh and x[np.flatnonzero(vals >= 1.0)[-1]] == 0:
            coord, node_c = np.asarray, x  # the identity on float arrays
        return _LogTail(coord, node_c, nodes, vals, xi, k * smin)

    g_hi = two_fold(model, nodes, spec.order)
    g_lo = two_fold(model, nodes, spec.check_order)
    prev = None
    for k in range(2, n):
        prev = level_tail(g_hi, k)
        g_hi = step(model, prev, nodes, spec.order)
        g_lo = step(model, prev, nodes, spec.check_order)
    main = slice(nodes.size - x.size, None)
    g_tail = g_hi[main]
    err = float(np.max(np.abs(g_tail - g_lo[main]) / np.maximum(np.abs(g_tail), 1e-300)))
    threshold = spec.certify_threshold(n)
    if err > threshold:
        raise PrecisionError(
            f"convolve_tail: certified relative quadrature error {err:.3e} "
            f"exceeds tol {threshold:g}"
        )
    if prev is None:
        fresh = lambda w: two_fold(model, w, spec.order)  # noqa: E731
    else:
        # the final step against the level-(n-1) interpolant, off the grid
        fresh = lambda w: step(model, prev, w, spec.order)  # noqa: E731
    # the final level is read on its main nodes in x over the linear head and
    # in log x over the geometric tail, with a break in the spline between
    split = spec.head_points if head_hi > 0 else None
    tail = _LogTail(np.asarray, x, x, g_tail, xi, n * smin, split)
    return ConvolutionGrid(model, n, spec, tail, x, g_tail, fresh, err)


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
        lo = max(lo, grid.n * grid.model.support_min)
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

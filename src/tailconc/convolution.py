"""Numerical oracle for the tail of a sum of n iid losses.

Every family's two-fold tail is computed from the exact symmetric split

    G2(x) = F(x/2)^2 + 2 * integral over the single loss X below x/2 of F(x - X)

(written with survival functions). The integral is :func:`_single_loss`,
which runs in the loss's base variate, mapped by ``model.from_variates``:
in quantile space, X = Q(u) with u up to F(x/2), for positive-support
models, so density singularities never enter the integrand; in the
Gaussian score z, X = a + b k(z) with weight phi(z) and z from -12 up to
z(x/2), for g-and-h, whose support is the whole real line. Higher n adds
one loss per level. For positive support it keeps the split: the same
single-loss piece with the previous level inside, plus the previous level
against the single-loss density where the loss exceeds x/2. g-and-h
conditions on the single loss alone, over its whole score range, in three
single-loss pieces cut at z(x/2) and z(x); it builds at a = 0 and shifts
by n a. A head grid (z from -10 upward) stores values below the main grid
so that the recursion sees the left tail; the truncation error is bounded
by n*Phi(-10).

Every piece is one call of :func:`_integrate` over all its rows: fixed
panels clustered geometrically toward both endpoints (the upper boundary
layer has width F(x/2), far too narrow for generic adaptive rules) with
Gauss-Legendre nodes per panel. Every intermediate level is stored on the
grid's nodes and read between and beyond them by one log-tail interpolant,
:class:`_LogTail`, in the closed-form coordinate log x, x, or asinh x
(g-and-h), in blocks of ``models.BLOCK`` elements (:func:`models.blockwise`)
so that a read's temporaries stay in cache. Its monotone cubic,
:class:`_Pchip`, is an in-package port of scipy's ``PchipInterpolator``
that reproduces its values bit for bit, so the package never imports
``scipy.interpolate``. The final level is never interpolated: it is
scanned on every ``_SCAN_STRIDE``-th node and the top one, where a
lower-order re-run certifies it, and the quantile solver brackets each
level in the scan and refines it against fresh quadrature, then certifies
the quantiles it returns by one more lower-order re-run there.
:class:`PrecisionError` is raised where a re-run disagrees by more than
the grid tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import approx, special
from .errors import DomainError, GridRangeError, PrecisionError, check_int, check_levels, check_real, check_reals
from .models import GandH, LossModel, blockwise, normal_pdf, panel_rule

__all__ = [
    "GridSpec",
    "ConvolutionGrid",
    "convolve_tail",
    "oracle_quantile",
    "oracle_quantiles",
    "oracle_concentration",
    "tail_ratio_diagnostic",
]

_MAX_N = 8
_GH_Z_LO = -12.0  # Gaussian integration floor; mass below is ~2e-33
_GH_HEAD_Z_LO = -10.0
_GH_HEAD_POINTS = 512
_GH_FLOOR_LEVEL = 0.6  # g-and-h grids start at this quantile
_FLAT = 1.0 - 1e-14  # a stored tail at or above this is 1 to double precision
_ROOT_RTOL = 1e-12  # quantile bracket width at convergence, relative to max(|x|, 1)
_ROOT_MAX_ITER = 100


# The oracle grid: _POINTS nodes, of which _HEAD_POINTS are linearly spaced
# from the support minimum (for g-and-h: the 0.6-quantile) up to the
# _HEAD_LEVEL quantile; the rest are log-spaced up to the _MAX_LEVEL quantile.
_POINTS = 4096
_HEAD_POINTS = 1024
_HEAD_LEVEL = 0.99
_MAX_LEVEL = 1.0 - 1e-10
# Bound on the certificate of the iterated gridded chain used for n > 2,
# whose error compounds per level and cannot honestly be pushed to the
# direct-quadrature tier.
_PAIRWISE_TOL = 1e-6
_ORDER = 14  # Gauss-Legendre nodes per panel
_CHECK_ORDER = 10  # the lower-order re-run that certifies the final level and the quantiles
_SCAN_STRIDE = 64  # the final level is scanned on every 64th node, and the top one


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Accuracy target of the oracle: ``tol`` bounds the certified relative
    quadrature error of the direct two-fold computation, and n > 2 is held
    to the larger of ``tol`` and the pairwise tier ``_PAIRWISE_TOL``. The
    grid itself is fixed by the module constants above."""

    tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "tol", check_real("GridSpec: tol", self.tol, 0.0, 1.0))

    def certify_threshold(self, n: int) -> float:
        return self.tol if n == 2 else max(self.tol, _PAIRWISE_TOL)


def _integrate(integrand: Callable[[np.ndarray], np.ndarray], lo, hi, order: int) -> np.ndarray:
    """Per row, the integral of ``integrand`` over [lo, hi] (0 where hi <= lo)
    by the clustered panel rule; ``integrand`` maps the nodes, one row per
    interval, to its values. ``lo`` is a scalar or one value per row."""
    v, w = panel_rule(order)
    span = np.maximum(hi - lo, 0.0)
    nodes = np.expand_dims(lo, -1) + span[:, None] * v
    return span * np.sum(integrand(nodes) * w, axis=1)


def _single_loss(model: LossModel, level, floor: float, x: np.ndarray, lo, hi, order: int) -> np.ndarray:
    """The single loss against a level: per row, the integral of
    level(max(x - loss, floor)) over the base variate on [lo, hi] that
    ``model.from_variates`` maps to the loss: u, with the loss Q(u), for
    positive-support models, and the normal score z, with the loss x_of_z(z)
    and the weight phi(z), for g-and-h. An empty range adds 0."""
    gandh = isinstance(model, GandH)

    def integrand(c):
        args = x[:, None] - model.from_variates(c)
        np.maximum(args, floor, out=args)
        return level(args) * normal_pdf(c) if gandh else level(args)

    return _integrate(integrand, lo, hi, order)


def _two_fold(model: LossModel, x: np.ndarray, order: int) -> np.ndarray:
    """Two-fold convolution tail from the symmetric split at x/2, for every
    family: F(x/2)^2 plus twice the single loss below x/2 against the tail
    (survival functions throughout); 1 at or below twice the support."""
    smin = model.support_min
    out = np.ones(x.shape)
    live = x > 2.0 * smin
    half = x[live] / 2.0
    half_tail = np.asarray(model.tail(half))
    lo, hi = (_GH_Z_LO, model.z_of_x(half)) if isinstance(model, GandH) else (0.0, 1.0 - half_tail)
    out[live] = half_tail**2 + 2.0 * _single_loss(model, model.tail, smin, x[live], lo, hi, order)
    return out


def _gbar_step_positive(model: LossModel, prev: _LogTail, x: np.ndarray, order: int) -> np.ndarray:
    """One pairwise convolution step: the level ``prev`` plus one more loss.

    Split at s so neither conditioning variable carries an O(1) boundary
    layer: condition on the single loss where it is below s and on the
    partial sum where the loss exceeds s. With s = x/2 each integrand then
    varies by a bounded factor (~2^(1/xi)) instead of collapsing many
    decades into the last quadrature panels. Near the level's floor m
    (x < 2m) the split degenerates to s = x - m, recovering the plain
    conditioning form, which is harmless there because the tail is O(1).
    The partial sum's piece runs from m, and the single-loss mass F(x - m),
    where the level is 1, is added in closed form, as in the g-and-h step.
    """
    m = prev.w_floor
    out = np.ones(x.shape)
    live = x > m + model.support_min
    xl = x[live]
    split = np.where(xl >= 2.0 * m, 0.5 * xl, xl - m)
    small = _single_loss(model, prev, m, xl, 0.0, 1.0 - model.tail(split), order)

    def above(y):  # the previous-level tail against the single-loss density
        # the floor guards rounding at the top node of the range
        dens = np.asarray(model.density(np.maximum(xl[:, None] - y, model.support_min)))
        return prev(y) * dens

    out[live] = small + _integrate(above, m, xl - split, order) + model.tail(xl - m)
    return out


def _gbar_step_gandh(model: GandH, prev: _LogTail, x: np.ndarray, order: int) -> np.ndarray:
    """One pairwise step for g-and-h (built at a = 0), conditioned on the
    single loss X alone: in closed form the single-loss mass F(x - m) where
    the level is 1 (m its floor ``w_floor``), plus the level at x - X over
    the score z of X in [-12, top], top = z(x - m) clipped to [-12, 12].
    The range is cut at z(x/2), where X becomes the larger term, and at
    z(x), where x - X is 0, the single-loss median, around which the level
    has its body. The cuts are clipped into the range, since past top they
    would count the mass above x - m twice, and sorted per row.
    """
    m = prev.w_floor
    top = np.clip(model.z_of_x(x - m), _GH_Z_LO, -_GH_Z_LO)
    cuts = np.sort(np.clip(model.z_of_x(np.stack([0.5 * x, x])), _GH_Z_LO, top), axis=0)
    ends = (_GH_Z_LO, *cuts, top)
    out = model.tail(x - m)
    for lo, hi in zip(ends[:-1], ends[1:]):
        out += _single_loss(model, prev, m, x, lo, hi, order)
    return out


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of (x, y), x strictly
    increasing (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17(2)).

    A port of scipy 1.17.1's ``PchipInterpolator(x, y, extrapolate=False)``
    that reproduces its values bit for bit: the same node slopes (the
    weighted harmonic mean of the neighbouring secants, 0 where they differ
    in sign or one is 0; Moler's one-sided end rule; the secant itself for
    two nodes), the same cubic coefficients, and the same evaluation order,
    ``c3 + c2 s + c1 (s s) + c0 ((s s) s)`` with ``s = u - x_i`` on the
    interval ``x_i <= u < x_{i+1}`` (the last one for ``u == x_N``). The
    value is NaN outside [x_0, x_N] and at NaN.
    """

    __slots__ = ("_x", "_ramp", "_left", "_c")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        m = np.diff(y) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            d = np.empty(x.size)
            with np.errstate(divide="ignore", invalid="ignore"):  # flat entries are discarded
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = self._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # + 0.0 turns a -0.0 node value into the +0.0 scipy's sum starts from
        c = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1] + 0.0)
        # interval N (one past the last) holds NaN: queries outside
        # [x_0, x_N] and NaN queries read it
        self._c = tuple(np.append(ck, np.nan) for ck in c)
        self._left = np.append(x[:-1], np.nan)
        self._x = x
        # node k sits at position k, except x_N, which starts no interval
        self._ramp = np.minimum(np.arange(x.size, dtype=float), x.size - 2)

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        """Moler's one-sided three-point end slope, kept shape-preserving."""
        d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The interpolant at the 1-d ``u``, written into ``out`` if given."""
        if out is None:
            out = np.empty(u.shape)
        nan_interval = self._x.size - 1
        # np.interp's position on the ramp rounds at most one interval high;
        # outside the nodes it is the NaN interval, and fmin sends NaN there
        pos = np.interp(u, self._x, self._ramp, nan_interval, nan_interval)
        i = np.fmin(pos, nan_interval, out=pos).astype(np.intp)
        left = self._left
        i -= left.take(i) > u
        s = u - left.take(i)
        c0, c1, c2, c3 = self._c
        np.multiply(c2.take(i), s, out=out)
        out += c3.take(i)
        ss = s * s
        out += c1.take(i) * ss
        ss *= s
        out += c0.take(i) * ss
        return out


class _LogTail:
    """Tail of one intermediate convolution level between and beyond its
    stored nodes.

    Built from the closed-form map ``coord`` from an argument to the
    coordinate the interpolation runs in (log x, x, or asinh x), the nodes
    ``node_x`` and their stored tails ``node_g``, the last of which lies
    below ``_FLAT``. A stored tail at or above ``_FLAT`` is 1 to double
    precision. The tail is exactly 1 at or below ``w_floor``, the larger
    of ``support`` and the last such node; with no such node ``w_floor`` is
    ``support``, and reads between it and the first node are NaN.
    ``w_floor`` is the level's only floor; the support serves only to
    compute it. Above the last node the tail follows the power law of index
    -1/xi; in between it is exp(PCHIP(log g)) in the coordinate, clipped to
    [0, 1]. Both pairwise steps integrate the level above ``w_floor`` and
    add the single-loss mass below it in closed form.
    """

    __slots__ = ("w_floor", "_coord", "_spline", "_x_top", "_g_top", "_power")

    def __init__(
        self,
        coord: Callable[[np.ndarray], np.ndarray],
        node_x: np.ndarray,
        node_g: np.ndarray,
        xi: float,
        support: float,
    ):
        flat = np.flatnonzero(node_g >= _FLAT)
        j = int(flat[-1]) if flat.size else 0
        self.w_floor = max(support, float(node_x[j])) if flat.size else support
        self._coord = coord
        self._spline = _Pchip(coord(node_x[j:]), np.log(np.minimum(node_g[j:], 1.0)))
        self._x_top = float(node_x[-1])
        self._g_top = float(node_g[-1])
        self._power = -1.0 / xi

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Tail at the float array ``w``, read block by block."""
        return blockwise(self._read, w, np.empty(w.shape))

    def _read(self, w: np.ndarray, out: np.ndarray) -> None:
        # arguments at or below the support (log 0, log of a negative) get
        # a meaningless coordinate; the floor overwrites their value
        with np.errstate(divide="ignore", invalid="ignore"):
            c = self._coord(w)
        self._spline(c, out)
        np.exp(out, out=out)
        out[w <= self.w_floor] = 1.0
        top = w > self._x_top
        out[top] = self._g_top * (w[top] / self._x_top) ** self._power
        np.clip(out, 0.0, 1.0, out=out)


@dataclass(slots=True, eq=False)
class ConvolutionGrid:
    """The n-fold convolution tail: intermediate levels stored on a
    log-tailed grid, and the final level scanned for the quantile solver.

    Fields ``model``, ``n``, ``spec``, ``x`` (the final level's scan nodes:
    every ``_SCAN_STRIDE``-th grid node and the top one), ``g_tail`` (its
    survival values there) and ``certified_error``: the largest relative
    disagreement, over those nodes, between the final level at the working
    quadrature order and its re-run at the lower check order. The final
    level is not interpolated; :meth:`fresh_tail` is the one read of the
    sum's tail, and its value at a scan node is the stored one, bit for bit.
    """

    model: LossModel
    n: int
    spec: GridSpec
    x: np.ndarray
    g_tail: np.ndarray
    certified_error: float
    _fresh: Callable[[np.ndarray], np.ndarray]

    def fresh_tail(self, w, *, order: int = _ORDER):
        """Tail recomputed by direct quadrature (no grid interpolation in the
        outermost integral), bit for bit the stored tail at a node; 0 at +inf
        and 1 at -inf with no quadrature. NaN raises :class:`GridRangeError`.
        ``order`` is the outermost integral's Gauss-Legendre order per
        panel: by default the working order, and ``_CHECK_ORDER`` for the
        re-run that certifies a value."""
        order = check_int("fresh_tail: order", order, 1)
        arr = np.atleast_1d(check_reals("fresh_tail: w", w))
        if np.any(np.isnan(arr)):
            raise GridRangeError("fresh_tail: argument NaN")
        out = np.where(arr > 0, 0.0, 1.0)  # the tail at +-inf
        finite = np.isfinite(arr)
        out[finite] = self._fresh(arr[finite], order=order)
        return float(out[0]) if np.asarray(w).ndim == 0 else out


def _finite(vals: np.ndarray, caller: str = "convolve_tail") -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise PrecisionError(f"{caller}: fresh quadrature returned a non-finite tail")
    return vals


def _certify(caller: str, g: np.ndarray, g_lo: np.ndarray, threshold: float) -> float:
    """The largest relative disagreement of the check-order tails ``g_lo``
    with the working-order tails ``g``; above ``threshold``, or NaN, it
    raises :class:`PrecisionError`."""
    err = float(np.max(np.abs(g - g_lo) / np.maximum(np.abs(g), 1e-300)))
    if not err <= threshold:
        raise PrecisionError(
            f"{caller}: certified relative quadrature error {err:.3e} exceeds tol {threshold:g}"
        )
    return err


@lru_cache(maxsize=8)
def _build_grid(model: LossModel, n: int, spec: GridSpec) -> ConvolutionGrid:
    """Tabulate the two-fold tail, add one loss per level up to n - 1, and
    scan the final level n.

    One two-fold serves every family. Per family: the grid floor, the
    pairwise step and the closed-form coordinate each intermediate level is
    read in. g-and-h reads in asinh x, which is linear near 0 and
    logarithmic in both tails, and carries an auxiliary head (z from -10 up
    to the grid floor) through the recursion so each step sees the left
    tail of the previous level. Positive-support models read in x where the
    support starts at 0 and in log x otherwise. Every level, the final one
    on its scan included, passes one self-check: its stored tails are
    finite, do not rise below ``_FLAT``, and fall below it at the top node.

    A g-and-h sum of n losses a + b k(Z) is n a plus the sum at a = 0, so
    g-and-h builds at a = 0, where the grid floor lies right of the
    single-loss median, and shifts the scan and the fresh tail by n a.
    """
    gandh = isinstance(model, GandH)
    shift = n * model.a if gandh else 0.0
    base = replace(model, a=0.0) if gandh else model
    smin = base.support_min
    xi = base.second_order_info().xi
    floor = float(base.quantile(_GH_FLOOR_LEVEL)) if gandh else smin
    head_hi = float(base.quantile(_HEAD_LEVEL))
    if not head_hi > floor:
        raise DomainError("convolve_tail: degenerate grid (the 0.99 quantile is the grid floor)")
    head = np.linspace(floor, head_hi, _HEAD_POINTS, endpoint=False)
    top = float(base.quantile(_MAX_LEVEL))
    x = np.concatenate([head, np.geomspace(head_hi, top, _POINTS - _HEAD_POINTS)])
    if gandh:
        step = _gbar_step_gandh
        z_top = special.normal_inv_cdf(_GH_FLOOR_LEVEL)
        z_head = np.linspace(_GH_HEAD_Z_LO, z_top, _GH_HEAD_POINTS, endpoint=False)
        nodes = np.concatenate([base.x_of_z(z_head), x])
    else:
        step = _gbar_step_positive
        nodes = x

    # the level coordinate: asinh x for g-and-h, else x (np.asarray, the
    # identity on float arrays) from a support at 0 and log x above one
    coord = np.arcsinh if gandh else np.asarray if smin == 0 else np.log

    def checked(vals, k):
        # a stored tail at or above _FLAT is 1; below it no level may rise
        if np.any(np.diff(np.minimum(_finite(vals), _FLAT)) > 0):
            raise PrecisionError(f"convolve_tail: level {k} failed its monotonicity self-check")
        if vals[-1] >= _FLAT:
            raise GridRangeError(
                f"convolve_tail: the grid ends at {top:g}, where level {k}'s tail is "
                f"still 1 (its support starts at {k * smin:g})"
            )
        return vals

    # each level is the quadrature (a functools.partial) over the interpolant
    # of the level below; the last one is fresh_tail, and g_tail is its value
    # on the scan, so the stored and the fresh tail agree bit for bit there
    fresh = partial(_two_fold, base, order=_ORDER)
    for k in range(2, n):
        level = _LogTail(coord, nodes, checked(fresh(nodes), k), xi, k * smin)
        fresh = partial(step, base, level, order=_ORDER)
    x = np.append(x[:-1:_SCAN_STRIDE], top)
    if shift:
        x, unshifted = x + shift, fresh

        def fresh(w, order=_ORDER):
            return unshifted(w - shift, order=order)

    g_tail = checked(fresh(x), n)
    # the certificate: the final level re-run at the check order (a call's
    # keyword overrides the one the partial holds)
    err = _certify("convolve_tail", g_tail, fresh(x, order=_CHECK_ORDER), spec.certify_threshold(n))
    return ConvolutionGrid(model, n, spec, x, g_tail, err, fresh)


def convolve_tail(model: LossModel, n: int, spec: Optional[GridSpec] = None) -> ConvolutionGrid:
    """Build (or fetch from cache) the n-fold convolution tail grid."""
    n = check_int("n", n, 2, _MAX_N)
    if spec is None:
        spec = GridSpec()
    return _build_grid(model, n, spec)


def oracle_quantile(grid: ConvolutionGrid, alpha: float) -> float:
    """Quantile of the n-fold sum at level alpha; :func:`oracle_quantiles` on one level.

    The level's cell of the final level's scan brackets the root, since
    every stored tail is bit for bit the fresh quadrature at its node, and
    Chandrupatla's hybrid of inverse quadratic interpolation and bisection
    (Adv. Eng. Software 28(3), 1997) refines it against fresh quadrature.
    It stops when the residual is 0 (on an exact hit on a stored tail, at
    once, with that node) or the bracket is no wider than
    1e-12 max(|lo|, |hi|, 1), and returns the bracket end with the smaller
    residual. The returned quantile is then certified: the fresh
    tail there, re-run at the lower check order, may differ from the
    working-order tail (the level plus that residual) by at most
    ``grid.spec.certify_threshold(n)`` relative. A larger difference, a
    non-finite fresh value or no convergence in ``_ROOT_MAX_ITER`` steps
    raises :class:`PrecisionError`.
    """
    return float(oracle_quantiles(grid, alpha))


def oracle_quantiles(grid: ConvolutionGrid, alphas) -> np.ndarray:
    """Quantiles of the n-fold sum at every level in ``alphas``, solved by
    the rules of :func:`oracle_quantile` jointly: every level is checked
    before any quadrature runs, the brackets' residuals are stored tails,
    each fresh call takes one Chandrupatla step on every live level, and
    one check-order call certifies every returned quantile."""
    alphas = check_levels("oracle_quantile: alpha", alphas)
    p = 1.0 - alphas.ravel()
    g, x = grid.g_tail, grid.x
    if np.any(p < g[-1]):
        raise GridRangeError(
            f"oracle_quantile: level {alphas.max():g} is deeper than the grid covers "
            f"(smallest stored tail {g[-1]:.3e})"
        )
    if np.any(p > g[0]):
        # positive-support grids start at the single-loss support point where
        # the stored tail is exactly 1, so only the g-and-h grid (floored at
        # the 0.6 quantile) can be entered above its first stored value
        raise GridRangeError(
            f"oracle_quantile: level {alphas.min():g} lies below the grid floor "
            f"(first stored tail value {g[0]:.6g})"
        )
    # g is non-increasing: i is the first node whose tail is at or below p
    i = np.searchsorted(-g, -p, side="left")
    out, g_out = x[i], g[i]  # g_out: the working-order tail at out
    live = np.arange(p.size)

    # the cell brackets the level, g[i - 1] > p >= g[i]; x1 is the newest
    # iterate, x2 the other bracket end, x3 the end x1 replaced. An exact
    # hit, g[i] == p, stops at step 0 on node i.
    x1, f1, x2, f2, t = x[i - 1], g[i - 1] - p, x[i], g[i] - p, np.full(p.size, 0.5)
    for step in range(_ROOT_MAX_ITER + 1):
        dx = np.abs(x2 - x1)
        tol = _ROOT_RTOL * np.maximum(np.maximum(np.abs(x1), np.abs(x2)), 1.0)
        done = (f1 == 0.0) | (f2 == 0.0) | (dx <= tol)
        closer = np.abs(f1) < np.abs(f2)
        out[live[done]] = np.where(closer, x1, x2)[done]
        g_out[live[done]] = (p + np.where(closer, f1, f2))[done]
        if np.all(done):
            break
        if step == _ROOT_MAX_ITER:
            raise PrecisionError(f"oracle_quantile: unconverged after {step} steps")
        live, p, x1, f1, x2, f2, t, dx, tol = (
            v[~done] for v in (live, p, x1, f1, x2, f2, t, dx, tol)
        )
        tl = 0.5 * tol / dx  # keep each iterate tol/2 inside the bracket
        x_new = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        f_new = _finite(grid.fresh_tail(x_new) - p, "oracle_quantile")
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
    if out.size:
        g_lo = grid.fresh_tail(out, order=_CHECK_ORDER)
        _certify("oracle_quantile", g_out, g_lo, grid.spec.certify_threshold(grid.n))
    return out.reshape(alphas.shape)


def oracle_concentration(model: LossModel, n: int, alpha, spec: Optional[GridSpec] = None):
    """Oracle value of the concentration ratio: the sum's quantile over n
    times the single-loss quantile; a float for a scalar alpha, else an array."""
    x_sum = oracle_quantiles(convolve_tail(model, n, spec), alpha)
    c = x_sum / (n * np.asarray(model.quantile(alpha), dtype=float))
    return float(c) if np.ndim(alpha) == 0 else c


def tail_ratio_diagnostic(model: LossModel, n: int, x) -> np.ndarray:
    """Diagnostic (G_bar(x)/F_bar(x) - n) / b(x) that converges to the
    tail-ratio limit as x grows; evaluated by fresh quadrature so the
    cancellation in the numerator is not polluted by interpolation error.
    An x where the single-loss tail underflows to 0 raises
    :class:`PrecisionError`, and so does an x where the rounding of
    G_bar/F_bar alone, about n eps / |b(x)|, exceeds 1e-3: there the
    cancellation leaves the result no reliable digit."""
    n = check_int("n", n, 2, _MAX_N)
    arr = np.atleast_1d(check_reals("tail_ratio_diagnostic: x", x))
    f_vals = np.asarray(model.tail(arr))
    under = arr[f_vals == 0.0]
    if under.size:
        raise PrecisionError(
            f"tail_ratio_diagnostic: the single-loss tail underflows to 0 at x = {under[0]:g}"
        )
    b_vals = np.array([approx.tail_ratio_scale(model, float(w)) for w in arr])
    noisy = arr[n * np.finfo(float).eps > 1e-3 * np.abs(b_vals)]
    if noisy.size:
        raise PrecisionError(
            f"tail_ratio_diagnostic: G_bar/F_bar - n cancels to rounding noise at x = {noisy[0]:g}"
        )
    g_vals = convolve_tail(model, n).fresh_tail(arr)
    out = (g_vals / f_vals - n) / b_vals
    return float(out[0]) if np.asarray(x).ndim == 0 else out

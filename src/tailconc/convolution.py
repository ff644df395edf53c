"""Numerical oracle for the tail of a sum of n iid losses.

Every family's two-fold tail is computed from the exact symmetric split

    G2(x) = F(x/2)^2 + 2 * integral over the single loss X below x/2 of F(x - X)

(written with survival functions), where F is read as a level: the exact
``model.tail`` at n = 2, where the two-fold is the final level, and for
families whose tail is closed form; below the final level of a family
whose tail is a Newton solve (g-and-h, Hall), a stored level 1, the
model's tail table (:meth:`models.LossModel.tail_table`), which costs no
inversion per quadrature node. The integral is :func:`_single_loss`,
which runs in one variable per family: for positive support the log-tail
s = -log F(X), X = ``model.from_log_tails(s)`` with weight e^-s and s
from 0 up to s(x/2); for g-and-h, whose support is the whole real line,
the Gaussian score z, X = a + b k(z) with weight phi(z) and z from
``models.GH_Z_LO`` (-12) up to z(x/2). No density enters the integrand.
Higher n adds one loss per level by one pairwise step, :func:`_gbar_step`,
conditioned on the single loss alone in the same variable, cut at x/2
and, for g-and-h, at z(x). g-and-h builds at a = 0 and shifts by n a.
A head grid (z from -10 upward) stores values below the main grid so
that the recursion sees the left tail; the truncation error is bounded
by n*Phi(-10). Past the grid top the g-and-h intermediate levels carry
nodes out to where the next step reads them, top - x_of_z(-12).

Every piece is one call of :func:`_integrate`: fixed panels clustered
geometrically toward both endpoints with Gauss-Legendre nodes per panel,
run over the rows in blocks of about ``models.BLOCK`` values
(:func:`models.blockwise`), so that a build's memory does not grow with
its number of rows. Every intermediate level is stored on the grid's
nodes and read between and beyond them by one log-tail interpolant,
:class:`_LogTail`, in the closed-form coordinate log x, x, or asinh x
(g-and-h), one block or one row vector per read. Its monotone cubic,
:class:`_Pchip`, is an in-package port of scipy's ``PchipInterpolator``
that reproduces its values bit for bit, so the package never imports
``scipy.interpolate``. The final level is never interpolated: it is
scanned on every ``_SCAN_STRIDE``-th node and the top one, where a
lower-order re-run certifies it, and the quantile solver brackets each
level in the scan and refines it against fresh quadrature
(:func:`models.bracketed_roots`), then certifies the quantiles it returns
by one more lower-order re-run there.
:class:`PrecisionError` is raised where a re-run disagrees by more than
the grid tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import approx, models, special
from .errors import DomainError, GridRangeError, PrecisionError, check_int, check_levels, check_real, check_reals
from .models import GH_Z_LO, GandH, LossModel, blockwise, bracketed_roots, normal_pdf, panel_rule

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
_GH_HEAD_Z_LO = -10.0
_GH_HEAD_POINTS = 512
_GH_FLOOR_LEVEL = 0.6  # g-and-h grids start at this quantile
_FLAT = 1.0 - 1e-14  # a stored tail at or above this is 1 to double precision


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
# g-and-h intermediate levels add nodes past the grid top, out to where the
# next step reads them, each log-step this factor times the one below
_GH_BEYOND_GROWTH = 1.02
# A single-loss tail table (n > 2, families whose tail is a Newton solve):
# _TABLE_POINTS nodes, uniform in the family's base variate but for cells
# that shrink smoothly toward both ends, to 1 - _TABLE_END_SHRINK of the
# rest at the ends over about _TABLE_END_WIDTH of the range
_TABLE_POINTS = 8192
_TABLE_END_SHRINK = 0.92
_TABLE_END_WIDTH = 0.02


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


def _integrate(integrand: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi, order: int) -> np.ndarray:
    """Per row, the integral of ``integrand`` over [lo, hi] (0 where hi <= lo)
    by the clustered panel rule. ``integrand(nodes, rows)`` maps the nodes
    of the rows with indices ``rows``, one row per interval, to its values,
    and may overwrite ``nodes``. ``lo`` is a scalar or one value per row.

    The rows run in blocks (:func:`models.blockwise`) through one node
    buffer, so memory does not grow with the number of rows. A block spans
    about ``models.BLOCK`` values at five per node: the single-loss
    integrand keeps its nodes, for the weight, beside the losses, and at
    four glibc trimmed its blocks off the heap and faulted them back in,
    block after block (30K minor faults in a Pareto n = 4 process, not
    5.5K). Each row's sum is its own, so every value is bit for bit the
    one a pass over all rows at once gives."""
    v, w = panel_rule(order)
    width = 5 * v.size
    span = np.maximum(hi - lo, 0.0)
    lo = np.broadcast_to(lo, span.shape)
    buf = np.empty((min(span.size, -(-models.BLOCK // width)), v.size))

    def fill(rows, out):
        nodes = np.multiply(span[rows, None], v, out=buf[: rows.size])
        nodes += lo[rows, None]
        vals = integrand(nodes, rows)
        vals *= w
        np.multiply(span[rows], vals.sum(axis=1), out=out)

    return blockwise(fill, np.arange(span.size), np.empty(span.shape), width)


def _single_loss(model: LossModel, level, floor: float, x: np.ndarray, lo, hi, order: int) -> np.ndarray:
    """The single loss against a level: per row, the integral of
    level(max(x - X, floor)) over X's integration variable on [lo, hi],
    one per family: for positive support the log-tail s = -log F(X), with
    X = ``model.from_log_tails(s)`` and the weight e^-s; for g-and-h the
    normal score z, with X = ``model.x_of_z(z)`` and the weight phi(z).
    Past an overflowing X the level is 1. An empty range adds 0."""
    gandh = isinstance(model, GandH)

    def integrand(c, rows):
        with np.errstate(over="ignore"):
            args = model.x_of_z(c) if gandh else model.from_log_tails(c)
        np.subtract(x[rows, None], args, out=args)
        np.maximum(args, floor, out=args)
        vals = level(args)
        # the weight overwrites the losses, or the nodes once they are spent
        vals *= normal_pdf(c, out=args) if gandh else np.exp(np.negative(c, out=c), out=c)
        return vals

    return _integrate(integrand, lo, hi, order)


def _two_fold(model: LossModel, level, x: np.ndarray, order: int) -> np.ndarray:
    """Two-fold convolution tail from the symmetric split at x/2, for every
    family: F(x/2)^2 plus twice the single loss below x/2 against the tail
    (survival functions throughout), up to the variable of x/2, whose
    log-tail is floored as in :func:`_gbar_step`; 1 at or below twice the
    support. The single-loss tail F is read as ``level``: ``model.tail``,
    or the model's tail table (:meth:`models.LossModel.tail_table`) as a
    stored level."""
    smin = model.support_min
    out = np.ones(x.shape)
    live = x > 2.0 * smin
    half = x[live] / 2.0
    half_tail = np.asarray(level(half))
    if isinstance(model, GandH):
        lo, hi = GH_Z_LO, model.z_of_x(half)
    else:
        lo, hi = 0.0, -np.log(np.maximum(half_tail, np.finfo(float).tiny))
    out[live] = half_tail**2 + 2.0 * _single_loss(model, level, smin, x[live], lo, hi, order)
    return out


def _table_spacing() -> np.ndarray:
    """The spacing of a tail table: ``_TABLE_POINTS`` values increasing from
    0 to 1 whose cells shrink toward both ends, where the spline's
    one-sided end slopes are least accurate (measured on uniform cells: an
    end cell 1e-9 off the tail against 1e-12 inside). The density
    1 - c/(1 + (u/w)^2) - c/(1 + ((1 - u)/w)^2) in the uniform u changes by
    about 1/(w _TABLE_POINTS) per cell, smoothly enough that the spline
    keeps its accuracy on the graded cells."""
    c, w = _TABLE_END_SHRINK, _TABLE_END_WIDTH
    u = np.linspace(0.0, 1.0, _TABLE_POINTS)
    v = u - c * w * (np.arctan(u / w) - np.arctan((1.0 - u) / w))
    v -= v[0]
    return v / v[-1]


def _gbar_step(model: LossModel, prev: _LogTail, x: np.ndarray, order: int) -> np.ndarray:
    """One pairwise step, conditioned on the single loss X alone: the
    single-loss mass F(x - m) where the level is 1 (m its floor
    ``w_floor``), plus the level at x - X over X's integration variable
    (:func:`_single_loss`) from its floor up to top, the variable of x - m.
    The range is cut where X becomes the larger term, at x/2, and for
    g-and-h also where x - X is 0, the single-loss median around which the
    level has its body; the cuts are clipped into the range, since past top
    they would count the mass above x - m twice, and sorted per row. The
    log-tail of an underflowing tail is that of the least normal double;
    g-and-h scores are clipped to [-12, 12]."""
    m = prev.w_floor
    out = np.ones(x.shape)
    live = x > m + model.support_min
    xl = x[live]
    if isinstance(model, GandH):
        lo = GH_Z_LO
        top = np.clip(model.z_of_x(xl - m), GH_Z_LO, -GH_Z_LO)
        cuts = model.z_of_x(np.stack([0.5 * xl, xl]))
        total = model.tail(xl - m)
    else:
        lo = 0.0
        tails = model.tail(np.stack([xl - m, 0.5 * xl]))
        top, *cuts = -np.log(np.maximum(tails, np.finfo(float).tiny))
        total = tails[0]
    ends = (lo, *np.sort(np.clip(cuts, lo, top), axis=0), top)
    for a, b in zip(ends[:-1], ends[1:]):
        total += _single_loss(model, prev, m, xl, a, b, order)
    out[live] = total
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
        """The interpolant at the 1-d ``u``, written into ``out`` (which may
        be ``u``) if given."""
        if out is None:
            out = np.empty(u.shape)
        nan_interval = self._x.size - 1
        # np.interp's position on the ramp rounds at most one interval high;
        # outside the nodes it is the NaN interval, and fmin sends NaN there
        s = np.interp(u, self._x, self._ramp, nan_interval, nan_interval)
        i = np.fmin(s, nan_interval, out=s).astype(np.intp)
        # every index is in range, so "clip" only spares take's copy of out
        left = self._left
        i -= left.take(i, out=s, mode="clip") > u
        np.subtract(u, left.take(i, out=s, mode="clip"), out=s)  # u's last read
        c0, c1, c2, c3 = self._c
        np.multiply(c2.take(i, out=out, mode="clip"), s, out=out)
        t = c3.take(i)
        out += t
        ss = s * s
        out += np.multiply(c1.take(i, out=t, mode="clip"), ss, out=t)
        ss *= s
        out += np.multiply(c0.take(i, out=t, mode="clip"), ss, out=t)
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
    [0, 1]. The pairwise step integrates the level above ``w_floor`` and
    adds the single-loss mass below it in closed form.
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
        """Tail at the float array ``w`` in one pass: every read in a build
        is one block of :func:`_integrate` or one row vector."""
        out = np.empty(w.shape)
        flat, w = out.reshape(-1), w.reshape(-1)
        # arguments at or below the support (log 0, log of a negative) get
        # a meaningless coordinate; the floor overwrites their value
        with np.errstate(divide="ignore", invalid="ignore"):
            self._coord(w, out=flat)
        self._spline(flat, flat)
        np.exp(flat, out=flat)
        flat[w <= self.w_floor] = 1.0
        top = w > self._x_top
        flat[top] = self._g_top * (w[top] / self._x_top) ** self._power
        np.clip(flat, 0.0, 1.0, out=flat)
        return out


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

    One two-fold and one pairwise step serve every family. Per family: the
    grid floor and the closed-form coordinate each intermediate level is
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

    Below the final level the two-fold reads level 1 as a stored level
    where the model supplies a tail table (:meth:`models.LossModel.tail_table`),
    spaced by :func:`_table_spacing` out to the largest argument the
    two-fold reads, the top node minus the least single loss; otherwise,
    and always at n = 2, it reads ``model.tail``. For g-and-h and Hall
    that takes the Newton solves out of the intermediate two-fold.
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
        z_top = special.normal_inv_cdf(_GH_FLOOR_LEVEL)
        z_head = np.linspace(_GH_HEAD_Z_LO, z_top, _GH_HEAD_POINTS, endpoint=False)
        # the least single loss a step integrates: a level is read up to its
        # top node minus it. Nodes past top cover that span, log-spaced from
        # the grid's own log-step up, each step _GH_BEYOND_GROWTH times the one
        # below, and scaled to end there
        low = float(base.x_of_z(np.array(GH_Z_LO)))
        span = math.log1p(-low / top)  # log((top - low) / top)
        step0 = math.log(top / head_hi) / (_POINTS - _HEAD_POINTS - 1)
        growth = math.log(_GH_BEYOND_GROWTH)
        steps = math.ceil(math.log1p(span * (_GH_BEYOND_GROWTH - 1.0) / step0) / growth)
        y = np.expm1(growth * np.arange(1, steps + 1))  # sums of the steps, in units of step0 (q - 1)
        beyond = top * np.exp(y * (span / y[-1]))
        nodes = np.concatenate([base.x_of_z(z_head), x, beyond])
    else:
        low = smin
        nodes = x

    # the level coordinate, a ufunc: asinh x for g-and-h, else x
    # (np.positive, the identity) from a support at 0 and log x above one
    coord = np.arcsinh if gandh else np.positive if smin == 0 else np.log

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
    level = base.tail
    table = base.tail_table(_table_spacing(), float(nodes[-1] - low)) if n > 2 else None
    if table is not None:
        level = _LogTail(coord, *table, xi, smin)
    fresh = partial(_two_fold, base, level, order=_ORDER)
    for k in range(2, n):
        level = _LogTail(coord, nodes, checked(fresh(nodes), k), xi, k * smin)
        fresh = partial(_gbar_step, base, level, order=_ORDER)
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
    """Quantile of the n-fold sum at level alpha: :func:`oracle_quantiles` on one level."""
    return float(oracle_quantiles(grid, alpha))


def oracle_quantiles(grid: ConvolutionGrid, alphas) -> np.ndarray:
    """Quantiles of the n-fold sum at every level in ``alphas``.

    Every level is checked against the grid before any quadrature runs.
    Its cell of the final level's scan brackets the root, since every
    stored tail is bit for bit the fresh quadrature at its node, so the
    brackets' residuals are stored tails; :func:`models.bracketed_roots`
    refines them against fresh quadrature, one fresh call per step on
    every live level (an exact hit on a stored tail stops at once, with
    that node). One check-order call then certifies every returned
    quantile: the fresh tail there, re-run at the lower check order, may
    differ from the working-order tail (the level plus its residual) by at
    most ``grid.spec.certify_threshold(n)`` relative. A larger difference,
    a non-finite fresh value or a root that does not converge raises
    :class:`PrecisionError`.
    """
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
    # g is non-increasing: i is the first node whose tail is at or below p,
    # so the cell brackets the level, g[i - 1] > p >= g[i]
    i = np.searchsorted(-g, -p, side="left")

    def residual(w, p_live):
        return _finite(grid.fresh_tail(w) - p_live, "oracle_quantile")

    out, res = bracketed_roots(residual, x[i - 1], g[i - 1] - p, x[i], g[i] - p, p)
    if out.size:
        g_lo = grid.fresh_tail(out, order=_CHECK_ORDER)
        _certify("oracle_quantile", p + res, g_lo, grid.spec.certify_threshold(grid.n))
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

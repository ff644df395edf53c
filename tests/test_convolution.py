import math
import re
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from tailconc import convolution, models
from tailconc.convolution import (
    ConvolutionGrid,
    GridSpec,
    convolve_tail,
    oracle_concentration,
    oracle_quantile,
    oracle_quantiles,
    tail_ratio_diagnostic,
)
from tailconc.errors import DomainError, GridRangeError, PrecisionError
from tailconc.models import Burr, ExactHall, GandH, Pareto

PARETO05 = Pareto(xi=0.5)
BURR11 = Burr(tau=1.0, kappa=1.0)
BURR12 = Burr(tau=1.0, kappa=2.0)
BURR2508 = Burr(tau=0.25, kappa=8.0)
GANDH = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
HALL = ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)

# Reference tails computed with 40-digit quadrature.
PARETO05_G2 = [
    (3.0, 0.54713291563851041621),
    (6.0, 0.10379109178179722569),
    (50.0, 0.00087081923374788260717),
    (1000.0, 2.0080788770533397786e-6),
]
PARETO05_G3 = [
    (6.0, 0.29692432374229207264),
    (10.0, 0.071729471355958647588),
    (100.0, 0.00032637246262309890572),
    (1e4, 3.0024039181615054282e-8),
]
PARETO05_G4 = [
    (8.0, 0.30771688652707070262),
    (12.0, 0.089238419218908877786),
    (100.0, 0.00045452424320617606863),
    (1e4, 4.0048092820698249888e-8),
]


def burr11_two_fold_tail(x: float) -> float:
    """Closed form for the two-fold tail of the tau=1, kappa=1 model:
    2/(2+x) + 2 log(1+x)/(2+x)^2."""
    return 2.0 / (2.0 + x) + 2.0 * math.log1p(x) / (2.0 + x) ** 2


def test_two_fold_matches_closed_form_fresh():
    grid = convolve_tail(BURR11, 2)
    xs = np.array([0.5, 2.0, 10.0, 50.0, 400.0, 3000.0])
    got = grid.fresh_tail(xs)
    want = np.array([burr11_two_fold_tail(float(x)) for x in xs])
    assert np.allclose(got, want, rtol=2e-10)


def test_two_fold_matches_closed_form_interpolated():
    """The stored two-fold, read by the interpolant the n = 3 recursion
    reads it with (measured 6.3e-6 overall, 6.1e-7 from x = 2 on)."""
    level = convolve_tail(BURR11, 3)._fresh.args[1]
    # off-node points stress the interpolant rather than the quadrature;
    # interpolation is coarsest where the survival curve bends near the bulk
    xs = np.geomspace(0.7, 5000.0, 173)
    got = level(xs)
    want = np.array([burr11_two_fold_tail(float(x)) for x in xs])
    assert np.allclose(got, want, rtol=1e-5)
    deep = xs >= 2.0
    assert np.allclose(got[deep], want[deep], rtol=1e-6)


@pytest.mark.parametrize(("x", "expected"), PARETO05_G2)
def test_pareto_two_fold_reference(x, expected):
    grid = convolve_tail(PARETO05, 2)
    assert grid.fresh_tail(x) == pytest.approx(expected, rel=2e-10)


@pytest.mark.parametrize(("x", "expected"), PARETO05_G3)
def test_pareto_three_fold_reference(x, expected):
    grid = convolve_tail(PARETO05, 3)
    assert grid.fresh_tail(x) == pytest.approx(expected, rel=1e-7)
    level = convolve_tail(PARETO05, 4)._fresh.args[1]
    assert level(np.array([x]))[0] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(("x", "expected"), PARETO05_G4)
def test_pareto_four_fold_reference(x, expected):
    grid = convolve_tail(PARETO05, 4)
    assert grid.fresh_tail(x) == pytest.approx(expected, rel=1e-7)


def test_fresh_tail_agrees_with_stored_nodes_two_fold():
    grid = convolve_tail(PARETO05, 2)
    idx = [1, 11, 31, 63]
    got = grid.fresh_tail(grid.x[idx])
    assert np.allclose(got, grid.g_tail[idx], rtol=1e-12)


def test_component_shift_identity_across_n():
    """tau=1, kappa=2 losses are unit-shifted xi=1/2 power-law losses, so the
    n-fold quantiles differ by exactly n."""
    for n in (2, 3, 4):
        gp = convolve_tail(PARETO05, n)
        gb = convolve_tail(BURR12, n)
        for alpha in (0.9, 0.999, 0.99999):
            qp = oracle_quantile(gp, alpha)
            qb = oracle_quantile(gb, alpha)
            assert qb == pytest.approx(qp - n, rel=1e-6)


def test_oracle_concentration_frozen_values():
    assert oracle_concentration(PARETO05, 2, 1.0 - 1e-8) == pytest.approx(
        0.70720686, abs=5e-7
    )
    assert oracle_concentration(Pareto(xi=1.25), 2, 1.0 - 1e-8) == pytest.approx(
        1.189207136, abs=5e-6
    )
    assert oracle_concentration(GANDH, 2, 0.9999) == pytest.approx(
        0.9771766, abs=5e-6
    )
    # models whose tails invert by Newton, at 0.9997 as in bench/reference.json
    for model, n, alpha, value in (
        (GANDH, 3, 0.99, 1.20015649),
        (GANDH, 3, 0.9997, 0.99161016),
        (HALL, 2, 0.99, 0.91920180),
        (HALL, 2, 0.9997, 0.87594817),
    ):
        assert oracle_concentration(model, n, alpha) == pytest.approx(value, abs=5e-6)


def test_oracle_concentration_approaches_first_order_limit():
    values = [oracle_concentration(PARETO05, 2, a) for a in (0.99, 0.999, 0.9999)]
    assert all(v > 2.0 ** -0.5 for v in values)
    assert values[0] > values[1] > values[2]


def test_oracle_quantile_exact_node_hit():
    grid = convolve_tail(PARETO05, 2)
    # for stored tails in [0.5, 1) the level round-trips bit-exactly, so the
    # lookup must return the node abscissa itself
    idx = int(np.argmin(np.abs(grid.g_tail - 0.75)))
    alpha = 1.0 - float(grid.g_tail[idx])
    assert oracle_quantile(grid, alpha) == float(grid.x[idx])
    # smaller tails do not round-trip exactly: 1 - alpha is off g by up to
    # eps/4, eps/(4 g) relative, which moves the root by about half that on
    # this x^-2 tail (1.5e-11 measured at 1e-6); on top of that the
    # Chandrupatla refinement lands within its 1e-12 bracket
    for target in (0.01, 1e-6):
        idx = int(np.argmin(np.abs(grid.g_tail - target)))
        g = float(grid.g_tail[idx])
        assert oracle_quantile(grid, 1.0 - g) == pytest.approx(
            float(grid.x[idx]), rel=np.finfo(float).eps / (4.0 * g) + 1e-12
        )


def test_oracle_quantile_matches_tail_inversion():
    grid = convolve_tail(BURR11, 2)
    for alpha in (0.9, 0.999, 0.999999):
        q = oracle_quantile(grid, alpha)
        assert burr11_two_fold_tail(q) == pytest.approx(1.0 - alpha, rel=1e-8)


def test_oracle_quantile_rejects_uncovered_levels():
    grid = convolve_tail(PARETO05, 2)
    with pytest.raises(GridRangeError):
        oracle_quantile(grid, 1.0 - 1e-12)
    with pytest.raises(DomainError):
        oracle_quantile(grid, 1.0)
    with pytest.raises(DomainError):
        oracle_quantile(grid, 0.0)


# the CLI's default levels: 40 from 0.95 to 0.9997, geometric in 1 - alpha
CLI_LEVELS = 1.0 - np.geomspace(0.05, 3e-4, 40)


@pytest.mark.parametrize(("model", "n"), [(PARETO05, 2), (PARETO05, 3), (GANDH, 2), (HALL, 2)])
def test_oracle_quantiles_matches_one_level_at_a_time(model, n):
    grid = convolve_tail(model, n)
    got = oracle_quantiles(grid, CLI_LEVELS)
    want = np.array([oracle_quantile(grid, a) for a in CLI_LEVELS])
    assert np.array_equal(got, want)
    ratios = oracle_concentration(model, n, CLI_LEVELS)
    singles = [oracle_concentration(model, n, a) for a in CLI_LEVELS]
    assert np.allclose(ratios, singles, rtol=1e-15, atol=0.0)
    assert isinstance(oracle_concentration(model, n, 0.99), float)


def test_oracle_quantiles_node_hits_are_exact_in_a_mixed_vector():
    grid = convolve_tail(PARETO05, 2)
    hits = [int(np.argmin(np.abs(grid.g_tail - target))) for target in (0.75, 0.6)]
    alphas = np.concatenate([CLI_LEVELS[:5], [1.0 - grid.g_tail[hits[0]]], CLI_LEVELS[5:]])
    alphas = np.append(alphas, 1.0 - grid.g_tail[hits[1]])
    got = oracle_quantiles(grid, alphas)
    assert got[5] == grid.x[hits[0]] and got[-1] == grid.x[hits[1]]
    rest = np.delete(np.arange(alphas.size), [5, alphas.size - 1])
    assert np.array_equal(got[rest], oracle_quantiles(grid, CLI_LEVELS))


@pytest.mark.parametrize(
    ("model", "bad", "error"),
    [
        (PARETO05, 1.0 - 1e-12, GridRangeError),
        (PARETO05, 1.0, DomainError),
        (PARETO05, 0.0, DomainError),
        (PARETO05, math.nan, DomainError),
        (GANDH, 0.05, GridRangeError),  # below the g-and-h grid floor
    ],
)
@pytest.mark.parametrize("where", [0, 17, 40])
def test_oracle_quantiles_rejects_one_bad_level(model, bad, error, where):
    grid = convolve_tail(model, 2)
    with pytest.raises(error):
        oracle_quantiles(grid, np.insert(CLI_LEVELS, where, bad))


def test_oracle_quantiles_empty_input():
    got = oracle_quantiles(convolve_tail(PARETO05, 2), [])
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def _nan_after(calls, fresh):
    """``fresh`` for the first ``calls`` calls, then all-NaN tails."""
    seen = [0]

    def wrapped(w, **kwargs):
        seen[0] += 1
        return fresh(w, **kwargs) if seen[0] <= calls else np.full(np.shape(w), math.nan)

    return wrapped


@pytest.mark.parametrize("calls", [0, 1, 3])
def test_oracle_quantiles_non_finite_fresh_raises(monkeypatch, calls):
    # the brackets come from the stored tails, so no fresh call touches a
    # bracket end: every case fails at an iterate (the first, second or fourth)
    grid = convolve_tail(PARETO05, 2)
    monkeypatch.setattr(grid, "_fresh", _nan_after(calls, grid._fresh))
    with pytest.raises(PrecisionError):
        oracle_quantiles(grid, CLI_LEVELS)


def test_oracle_quantiles_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(convolution, "_ROOT_MAX_ITER", 1)
    with pytest.raises(PrecisionError):
        oracle_quantiles(convolve_tail(PARETO05, 2), CLI_LEVELS)


@pytest.mark.parametrize(("model", "n"), [(PARETO05, 3), (GANDH, 2)])
def test_oracle_quantiles_few_fresh_calls(monkeypatch, model, n):
    grid = convolve_tail(model, n)
    calls = []
    fresh = grid._fresh
    monkeypatch.setattr(grid, "_fresh", lambda w, **kw: calls.append(np.size(w)) or fresh(w, **kw))
    q = oracle_quantiles(grid, CLI_LEVELS)
    # six Chandrupatla steps (measured on every catalogue job) and the
    # check-order call that certifies the quantiles
    assert len(calls) <= 7
    monkeypatch.undo()
    assert np.allclose(grid.fresh_tail(q), 1.0 - CLI_LEVELS, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(("model", "n"), [(PARETO05, 2), (PARETO05, 3), (GANDH, 2)])
def test_returned_quantiles_are_certified(monkeypatch, model, n):
    """One check-order re-run at the returned quantiles: a disagreement
    with the working order there of half the threshold passes, and one of
    twice the threshold raises, though the solve itself is untouched."""
    grid = convolve_tail(model, n)
    want = oracle_quantiles(grid, CLI_LEVELS)
    threshold = grid.spec.certify_threshold(n)
    fresh = grid._fresh
    for scale, fails in ((0.5, False), (2.0, True)):

        def skewed(w, order=convolution._ORDER, _scale=scale):
            out = fresh(w, order=order)
            return out * (1.0 + _scale * threshold) if order == convolution._CHECK_ORDER else out

        monkeypatch.setattr(grid, "_fresh", skewed)
        if fails:
            with pytest.raises(PrecisionError, match="oracle_quantile: certified"):
                oracle_quantiles(grid, CLI_LEVELS)
        else:
            assert np.array_equal(oracle_quantiles(grid, CLI_LEVELS), want)


@pytest.mark.parametrize(
    ("model", "n", "name"),
    [(PARETO05, 2, "_two_fold"), (PARETO05, 3, "_gbar_step_positive"), (GANDH, 3, "_gbar_step_gandh")],
)
def test_final_level_cost(monkeypatch, model, n, name):
    """A build and the 40 CLI levels evaluate the final level at 512
    points at most, over both orders: its 65-node scan twice, the solve
    and the certificate at the returned quantiles (about 395 measured;
    the whole grid twice was 8349)."""
    points = []
    quadrature = getattr(convolution, name)

    def counted(model, *args, **kwargs):
        points.append(np.size(args[-1]))
        return quadrature(model, *args, **kwargs)

    monkeypatch.setattr(convolution, name, counted)
    grid = convolution._build_grid.__wrapped__(model, n, GridSpec())
    oracle_quantiles(grid, CLI_LEVELS)
    assert sum(points) <= 512
    assert grid.x.size == 65


def test_fresh_tail_order():
    """``order`` sets the outermost rule: the working order by default, a
    positive integer otherwise."""
    grid = convolve_tail(PARETO05, 2)
    assert grid.fresh_tail(25.0, order=convolution._ORDER) == grid.fresh_tail(25.0)
    assert grid.fresh_tail(25.0, order=convolution._CHECK_ORDER) == pytest.approx(
        grid.fresh_tail(25.0), rel=1e-10
    )
    for bad in (0, 2.0, True):
        with pytest.raises(DomainError):
            grid.fresh_tail(25.0, order=bad)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "model", [PARETO05, BURR2508, GANDH, HALL], ids=["pareto05", "burr2508", "gandh", "hall"]
)
def test_stored_tails_are_fresh_tails(model, n):
    """The invariant the quantile solver brackets with: every stored tail is,
    bit for bit, what fresh quadrature returns at its node."""
    grid = convolve_tail(model, n)
    assert np.array_equal(grid.fresh_tail(grid.x), grid.g_tail)
    idx = np.sort(np.random.default_rng(n).choice(grid.x.size, 17, replace=False))
    assert np.array_equal(grid.fresh_tail(grid.x[idx]), grid.g_tail[idx])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize(
    "model", [PARETO05, BURR2508, GANDH, HALL], ids=["pareto05", "burr2508", "gandh", "hall"]
)
def test_fresh_tail_at_non_finite_arguments(model, n):
    """+inf reads 0 and -inf reads 1 without quadrature (so without a
    warning), next to finite arguments too; NaN raises, as in ``tail_at``."""
    grid = convolve_tail(model, n)
    assert grid.fresh_tail(math.inf) == 0.0
    assert grid.fresh_tail(-math.inf) == 1.0
    got = grid.fresh_tail(np.array([grid.x[7], math.inf, -math.inf]))
    assert np.array_equal(got, [grid.g_tail[7], 0.0, 1.0])
    for w in (math.nan, np.array([grid.x[7], math.nan])):
        with pytest.raises(GridRangeError):
            grid.fresh_tail(w)


@pytest.mark.parametrize("n", [3, 4])
def test_gandh_step_is_elementwise_on_both_sides_of_the_median(n):
    """The g-and-h step runs the rows left and right of the single-loss
    median (x = 0 here) in one pass, each row with its side's bounds: a
    mixed vector gives, bit for bit, what each argument gives alone."""
    grid = convolve_tail(GANDH, n)
    w = np.array([-3.0, -0.5, 0.0, 0.2, 1.0, 7.0, 400.0])
    assert np.array_equal(grid.fresh_tail(w), [grid.fresh_tail(v) for v in w])


def test_gandh_step_is_one_pass(monkeypatch):
    """One g-and-h step on rows left and right of the single-loss median
    conditions on the single loss alone: three single-loss pieces, each
    over all rows, and no density, slope or quadrature of its own."""
    model, level = convolve_tail(GANDH, 3)._fresh.args
    calls = []

    def single_loss(model, level, floor, x, *args):
        calls.append(x.shape)
        return np.zeros(x.shape)

    def forbidden(*args, **kwargs):
        raise AssertionError("the g-and-h step ran a piece other than the single loss")

    monkeypatch.setattr(convolution, "_single_loss", single_loss)
    monkeypatch.setattr(convolution, "_integrate", forbidden)
    monkeypatch.setattr(GandH, "density", forbidden)
    monkeypatch.setattr(GandH, "dx_dz", forbidden)
    convolution._gbar_step_gandh(model, level, np.array([-3.0, -0.5, 1.0, 7.0]), convolution._ORDER)
    assert calls == [(4,)] * 3


@pytest.mark.parametrize(
    "model", [GandH(0.0, 1.0, 2.0, 0.25), GandH(0.0, 1.0, 3.0, 0.1)], ids=["g2-h025", "g3-h01"]
)
def test_gandh_four_fold_builds(model):
    """Two g-and-h laws whose four-fold grid used to fail, one at its
    level-3 self-check and one at its certificate (3.8e-6), build, certify
    within the pairwise tier and solve the CLI's levels; the fresh tail at
    each quantile is its level."""
    grid = convolution._build_grid.__wrapped__(model, 4, GridSpec())
    assert grid.certified_error <= grid.spec.certify_threshold(4)
    q = oracle_quantiles(grid, CLI_LEVELS)
    assert np.all(np.diff(q) > 0)
    assert np.allclose(grid.fresh_tail(q), 1.0 - CLI_LEVELS, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("a", [3.0, 10.0, -5.0])
def test_shifted_gandh_is_the_unshifted_sum_plus_n_a(a, n):
    """The sum of n losses a + b k(Z) is n a plus the sum at a = 0: a
    shifted g-and-h grid builds, its stored tails are its fresh tails, and
    its certificate and quantiles are those at a = 0, plus n a for the
    quantiles, up to the rounding of (x + n a) - n a."""
    base = convolve_tail(GANDH, n)
    grid = convolve_tail(GandH(a=a, b=1.0, g=2.0, h=0.5), n)
    assert grid.certified_error == pytest.approx(base.certified_error, rel=1e-6)
    assert np.array_equal(grid.x, base.x + n * a)
    assert np.array_equal(grid.fresh_tail(grid.x), grid.g_tail)
    got = oracle_quantiles(grid, CLI_LEVELS)
    assert np.allclose(got, oracle_quantiles(base, CLI_LEVELS) + n * a, rtol=1e-11, atol=0.0)


def test_oracle_quantile_hit_on_the_first_node():
    """A level whose tail is the first stored one returns the first node
    at step 0: no working-order quadrature, only the certificate's."""
    grid = convolution._build_grid.__wrapped__(GANDH, 2, GridSpec())
    orders = []
    fresh = grid._fresh

    def counted(w, order=convolution._ORDER):
        orders.append(order)
        return fresh(w, order=order)

    grid._fresh = counted
    assert oracle_quantile(grid, 1.0 - grid.g_tail[0]) == grid.x[0]
    assert orders == [convolution._CHECK_ORDER]


@pytest.mark.parametrize(
    ("name", "n"), [("_two_fold", 2), ("_gbar_step_positive", 3)]
)
def test_non_finite_level_raises(monkeypatch, name, n):
    """A NaN in any convolution level fails the build with PrecisionError,
    not with the interpolant's ValueError."""
    quadrature = getattr(convolution, name)

    def poisoned(*args, **kwargs):
        out = quadrature(*args, **kwargs)
        out[out.size // 2] = math.nan
        return out

    monkeypatch.setattr(convolution, name, poisoned)
    convolution._build_grid.cache_clear()  # a build that raises is not cached
    with pytest.raises(PrecisionError):
        convolve_tail(PARETO05, n)


@pytest.mark.parametrize(
    ("name", "n", "level"),
    [("_two_fold", 3, 2), ("_gbar_step_positive", 4, 3), ("_two_fold", 2, 2), ("_gbar_step_positive", 3, 3)],
)
def test_rising_intermediate_level_raises(monkeypatch, name, n, level):
    """A one-ulp rise below _FLAT in any level, an intermediate one or the
    final one, fails the build with PrecisionError naming that level."""
    quadrature = getattr(convolution, name)

    def rising(*args, **kwargs):
        out = quadrature(*args, **kwargs)
        i = int(np.argmax(out < 0.5))
        out[i + 1] = np.nextafter(out[i], 1.0)
        return out

    monkeypatch.setattr(convolution, name, rising)
    convolution._build_grid.cache_clear()  # a build that raises is not cached
    with pytest.raises(PrecisionError, match=f"level {level} failed its monotonicity"):
        convolve_tail(PARETO05, n)


def test_level_flat_to_double_precision_builds():
    """Burr(8, 4) at n = 2: near 0 the two-fold tail is 1 - O(x^16), so its
    first stored tails below 1 lie within an ulp or two of 1, where they
    repeat and rise by an ulp. The one _FLAT rule reads them as 1, and the
    grid builds."""
    grid = convolve_tail(Burr(tau=8.0, kappa=4.0), 2)
    q = oracle_quantile(grid, 0.99)
    assert grid.fresh_tail(q) == pytest.approx(0.01, rel=1e-10)


def test_gandh_grid_floor():
    grid = convolve_tail(GANDH, 2)
    # the grid deliberately starts near the sum's bulk, not at -inf
    with pytest.raises(GridRangeError):
        oracle_quantile(grid, 0.05)
    with pytest.raises(GridRangeError):
        grid.fresh_tail(math.nan)
    # well inside the covered range everything works
    q = oracle_quantile(grid, 0.99)
    assert grid.fresh_tail(q) == pytest.approx(0.01, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.7, 0.99, 0.9999, 1.0 - 1e-8])
def test_gandh_two_fold_against_adaptive_quadrature(alpha):
    """An independent check of the g-and-h two-fold: scipy's adaptive
    quadrature of P(X1 + X2 > x) as the integral of F(x - X(z)) phi(z) over
    z in [-40, 40] (survival function), split at z(x/2), at the sum's
    alpha-quantile."""
    grid = convolve_tail(GANDH, 2)
    x = oracle_quantile(grid, alpha)

    def integrand(z):
        return GANDH.tail(x - GANDH.x_of_z(z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    z_half = float(GANDH.z_of_x(np.array(x / 2.0)))
    pieces = [quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for lo, hi in ((-40.0, z_half), (z_half, 40.0))]
    assert grid.fresh_tail(x) == pytest.approx(sum(pieces), rel=1e-12, abs=0.0)


def test_grid_ending_below_the_support_of_the_sum_raises():
    """Pareto(0.05): the grid ends at Q(1 - 1e-10) = 3.16, below the
    4-fold support 4, so the level's tail is 1 at every node."""
    with pytest.raises(GridRangeError, match="grid ends at 3.16228"):
        convolve_tail(Pareto(xi=0.05), 4)


def test_single_loss_skips_an_empty_range():
    """A row whose range is empty adds exactly 0 (its nodes all sit at
    u = 0); the other rows are what they are alone."""
    x, hi = np.array([3.0, 5.0]), np.array([0.0, 0.5])
    out = convolution._single_loss(PARETO05, PARETO05.tail, 1.0, x, 0.0, hi, 14)
    alone = convolution._single_loss(PARETO05, PARETO05.tail, 1.0, x[1:], 0.0, hi[1:], 14)
    assert out[0] == 0.0
    assert out[1] == alone[0] > 0.0


def test_positive_support_below_grid_is_one():
    grid = convolve_tail(PARETO05, 2)
    assert grid.fresh_tail(1.5) == 1.0
    assert grid.fresh_tail(0.0) == 1.0
    assert float(grid.fresh_tail(np.array([2.0]))[0]) == 1.0
    with pytest.raises(GridRangeError):
        grid.fresh_tail(np.array([3.0, math.nan]))


def test_tail_at_with_support_above_the_head():
    """Pareto(0.2) at n = 3: the sum's support 3 lies above the single-loss
    0.99 quantile (2.51), so the tail is 1 over the whole linear head, both
    fresh and as the stored level 3 of the n = 4 build, whose interpolant
    runs in log x from the support on."""
    model = Pareto(xi=0.2)
    grid = convolve_tail(model, 3)
    level = convolve_tail(model, 4)._fresh.args[1]
    assert float(model.quantile(0.99)) < 3.0
    below = np.array([1.0, 2.5, 3.0])
    assert np.all(grid.fresh_tail(below) == 1.0) and np.all(level(below) == 1.0)
    x = level_nodes(model, grid)
    x = x[x > 3.0]
    mid = 0.5 * (x[:-1] + x[1:])
    got = level(mid)
    assert np.all(got < 1.0) and np.all(np.diff(got) < 0)
    # measured 6e-8 in the first cell, where the tail leaves 1
    assert np.all(np.abs(got / grid.fresh_tail(mid) - 1.0) <= 1e-7)


def test_unachievable_tolerance_raises():
    with pytest.raises(PrecisionError):
        convolve_tail(PARETO05, 2, GridSpec(tol=1e-16))


@pytest.mark.parametrize("bad_n", [1, 9, 2.5, True, "2"])
def test_n_validation(bad_n):
    with pytest.raises(DomainError):
        convolve_tail(PARETO05, bad_n)


def test_gridspec_validation():
    with pytest.raises(DomainError):
        GridSpec(tol=0.0)
    with pytest.raises(DomainError):
        GridSpec(tol=math.nan)


def test_numpy_scalars_are_numbers():
    assert GridSpec(tol=np.float64(1e-10)) == GridSpec()
    assert convolve_tail(PARETO05, np.int64(2)) is convolve_tail(PARETO05, 2)


def test_certify_threshold_tiers():
    spec = GridSpec()
    assert spec.certify_threshold(2) == spec.tol
    assert spec.certify_threshold(3) == 1e-6
    assert spec.certify_threshold(8) == 1e-6


@pytest.mark.parametrize(
    "model", [PARETO05, BURR11, BURR12, GANDH], ids=lambda m: m.kind + repr(m)
)
def test_certified_error_within_tier(model):
    g2 = convolve_tail(model, 2)
    assert g2.certified_error <= 1e-10
    g3 = convolve_tail(model, 3)
    assert g3.certified_error <= 1e-6


@pytest.mark.parametrize(
    "model, n, err",
    [
        (PARETO05, 2, 9.856316103725665e-12),
        (PARETO05, 3, 4.466711636971103e-09),
        (PARETO05, 4, 3.0209507497178845e-09),
        (GANDH, 3, 4.9807306930543456e-08),
        (HALL, 2, 5.1264061110219885e-12),
        (HALL, 3, 3.209380064733835e-08),
    ],
)
def test_certified_error_pinned(model, n, err):
    assert convolve_tail(model, n).certified_error == pytest.approx(err, rel=1e-12)


def test_build_runs_check_order_once(monkeypatch):
    """Only the final level is re-run at the check order, whatever n is: at
    n = 4 the build makes three order-14 passes and one order-10 pass."""
    orders = []
    for name in ("_two_fold", "_gbar_step_positive"):

        def counted(*args, _fn=getattr(convolution, name), **kwargs):
            orders.append(kwargs["order"] if "order" in kwargs else args[-1])
            return _fn(*args, **kwargs)

        monkeypatch.setattr(convolution, name, counted)
    # the uncached build, so an earlier test's grid is not reused
    convolution._build_grid.__wrapped__(PARETO05, 4, GridSpec())
    assert sorted(orders) == [10, 14, 14, 14]


def test_gandh_three_fold_converges_under_node_doubling(monkeypatch):
    """g-and-h at n = 3: the default grid's quantiles at the CLI levels lie
    within 2e-8 relative of a grid with twice the nodes in every segment
    (8.2e-9 measured). The final level's scan doubles with them."""
    grid = convolve_tail(GANDH, 3)
    for name in ("_POINTS", "_HEAD_POINTS", "_GH_HEAD_POINTS"):
        monkeypatch.setattr(convolution, name, 2 * getattr(convolution, name))
    fine = convolution._build_grid.__wrapped__(GANDH, 3, GridSpec())
    assert fine.x.size - 1 == 2 * (grid.x.size - 1)
    got, want = oracle_quantiles(fine, CLI_LEVELS), oracle_quantiles(grid, CLI_LEVELS)
    assert np.max(np.abs(got / want - 1.0)) <= 2e-8


def test_gandh_level_read_makes_no_newton_solve(monkeypatch):
    """An intermediate g-and-h level is read in the closed-form asinh x:
    reading level 2 across its whole range never inverts the transform."""
    level = convolve_tail(GANDH, 3)._fresh.args[1]
    assert isinstance(level, convolution._LogTail)
    calls = []

    def counted(fn):
        return lambda *args, **kwargs: calls.append(fn) or fn(*args, **kwargs)

    monkeypatch.setattr(models, "gh_inverse", counted(models.gh_inverse))
    monkeypatch.setattr(GandH, "z_of_x", counted(GandH.z_of_x))
    w = np.sinh(np.linspace(np.arcsinh(-1e10), np.arcsinh(1e10), 1000))
    vals = level(w)
    assert calls == []
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) <= 1e-15)  # an ulp of quadrature noise where the tail is ~1


@settings(deadline=None, max_examples=25)
@given(
    x=st.lists(st.floats(min_value=0.1, max_value=1e8), min_size=1, max_size=20),
    n=st.sampled_from([2, 3]),
)
def test_tail_at_invariants(x, n):
    grid = convolve_tail(PARETO05, n)
    xs = np.sort(np.asarray(x, dtype=float))
    vals = grid.fresh_tail(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-14)


def test_tail_at_scalar_round_trip():
    grid = convolve_tail(PARETO05, 2)
    v = grid.fresh_tail(25.0)
    assert isinstance(v, float)
    arr = grid.fresh_tail(np.array([25.0]))
    assert arr.shape == (1,)
    assert float(arr[0]) == v


def test_diagnostic_converges_to_limit():
    # tau = kappa = 1: limit J = n(n-1) c(1) = 2 at n = 2
    val = float(tail_ratio_diagnostic(BURR11, 2, 1e6 - 1.0))
    assert val == pytest.approx(2.0, rel=0.01)
    # deeper is closer: improvement over the last decade
    prev = float(tail_ratio_diagnostic(BURR11, 2, 1e5 - 1.0))
    assert abs(val - 2.0) < abs(prev - 2.0)


def test_diagnostic_heavy_index():
    x = (6.3e-8) ** -1.25
    j = 2.0 * 0.7126126042413276
    val = float(tail_ratio_diagnostic(Pareto(xi=1.25), 2, x))
    assert val / j == pytest.approx(0.9822, abs=0.03)


@pytest.mark.parametrize("model", [PARETO05, BURR2508, GANDH, HALL], ids=lambda m: m.kind)
@pytest.mark.parametrize("x", [1e300, math.inf])
def test_diagnostic_raises_where_the_single_loss_tail_underflows(model, x):
    # G_bar(x)/F_bar(x) would be 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=re.escape(f"x = {x:g}")):
            tail_ratio_diagnostic(model, 2, x)
        with pytest.raises(PrecisionError, match=re.escape(f"x = {x:g}")):
            tail_ratio_diagnostic(model, 2, np.array([10.0, x]))


@pytest.mark.parametrize(
    "model", [PARETO05, Pareto(xi=1.25), BURR2508, BURR12, GANDH, HALL], ids=lambda m: repr(m)
)
def test_diagnostic_raises_where_the_cancellation_leaves_no_digit(model, monkeypatch):
    """At x = 1e20 every catalogue model has n eps / |b(x)| > 1e-3 at n = 2
    (b(x) = 4e-16 for Pareto(1.25), at most 4e-19 for the others), so the
    result would be rounding noise; it raises, naming x, before any grid
    is built."""

    def no_grid(*args):
        raise AssertionError("the diagnostic built a grid")

    monkeypatch.setattr(convolution, "convolve_tail", no_grid)
    for x in (1e20, np.array([10.0, 1e20])):
        with pytest.raises(PrecisionError, match=re.escape("x = 1e+20")):
            tail_ratio_diagnostic(model, 2, x)


def test_grid_reads_and_the_diagnostic_refuse_non_numbers():
    """``bool`` and strings are not numbers: a plain DomainError, where NaN
    is a GridRangeError (test_fresh_tail_at_non_finite_arguments)."""
    grid = convolve_tail(PARETO05, 2)
    for read in (grid.fresh_tail, lambda w: tail_ratio_diagnostic(PARETO05, 2, w)):
        for w in (True, "30", np.array(["30", "40"])):
            with pytest.raises(DomainError) as caught:
                read(w)
            assert caught.type is DomainError


def test_convolve_tail_caches_grids():
    a = convolve_tail(PARETO05, 2)
    b = convolve_tail(PARETO05, 2)
    assert a is b
    c = convolve_tail(PARETO05, 2, GridSpec(tol=1e-9))
    assert c is not a
    assert isinstance(c, ConvolutionGrid)


def level_nodes(model, grid):
    """The nodes of an intermediate level at or above the single-loss 0.99
    quantile: the geometric part of the grid that ``grid.x`` scans."""
    head_hi = float(model.quantile(convolution._HEAD_LEVEL))
    return np.geomspace(head_hi, grid.x[-1], convolution._POINTS - convolution._HEAD_POINTS)


@pytest.mark.parametrize(
    "model, n, exempt",
    [
        # every exempt cell is FOUND 11's: each level is read by one spline
        # across the jump from the linear head spacing to the geometric tail
        # spacing (in x for Burr), so a few cells lose accuracy. Measured:
        # cell 0 3.1e-8 and 4.4e-8 for Pareto at n = 2 and 3, 1.9e-7 and
        # 1.0e-7 for Burr, 2.7e-8 and 2.8e-8 for g-and-h; Burr's last cell
        # 8.6e-9 and 2.9e-9, and its cell 1 4.1e-9 at n = 3
        (PARETO05, 2, {0: 5e-8}),
        (PARETO05, 3, {0: 5e-8}),
        (BURR2508, 2, {0: 2e-7, -1: 1e-8}),
        (BURR2508, 3, {0: 2e-7, 1: 1e-8, -1: 1e-8}),
        (GANDH, 2, {0: 5e-8}),
        (GANDH, 3, {0: 5e-8}),
    ],
    ids=["pareto-2", "pareto-3", "burr-2", "burr-3", "gandh-2", "gandh-3"],
)
def test_tail_at_matches_fresh_between_nodes(model, n, exempt):
    """Level n as the n + 1 recursion reads it, between its stored nodes:
    at the midpoint of every cell at or above the single-loss 0.99
    quantile, against the fresh n-fold tail there."""
    grid = convolve_tail(model, n)
    level = convolve_tail(model, n + 1)._fresh.args[1]
    x = level_nodes(model, grid)
    mid = 0.5 * (x[:-1] + x[1:])
    err = np.abs(level(mid) / grid.fresh_tail(mid) - 1.0)
    bound = np.full(err.shape, 1e-9)
    for cell, b in exempt.items():
        bound[cell] = b
    assert np.all(err <= bound)


def test_power_law_extension_beyond_grid():
    """Above its top node a level follows the power law of index -1/xi:
    the stored two-fold read at 4 times the top, against fresh quadrature
    there (3.0e-5 measured)."""
    grid = convolve_tail(PARETO05, 2)
    top = float(grid.x[-1])
    level = convolve_tail(PARETO05, 3)._fresh.args[1]
    assert level(np.array([4.0 * top]))[0] == pytest.approx(grid.fresh_tail(4.0 * top), rel=1e-4)


def same_bits(got, want):
    """Bit for bit, NaN where NaN (a NaN's payload aside)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    )


class ScipyPchip:
    """scipy's PCHIP behind the in-package interpolant's call signature."""

    def __init__(self, x, y):
        self.spline = PchipInterpolator(x, y, extrapolate=False)

    def __call__(self, u, out=None):
        if out is None:
            return self.spline(u)
        out[...] = self.spline(u)
        return out


@st.composite
def pchip_cases(draw):
    """Nodes, values and queries: 2, 3 or many nodes; values from a small
    pool as often as not, so flat runs, zero slopes and sign changes are
    common; queries at the nodes and ends, outside the range, at NaN and
    +-inf, and, in some cases, a query array longer than one block."""
    size = draw(st.sampled_from([2, 3, draw(st.integers(4, 40))]))
    gaps = draw(st.lists(st.floats(1e-3, 1e3), min_size=size - 1, max_size=size - 1))
    x = draw(st.floats(-1e3, 1e3)) + np.concatenate([[0.0], np.cumsum(gaps)])
    # a nonzero value below 1e-20 in size would overflow scipy's slopes too
    finite = st.floats(-50.0, 50.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-20)
    level = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0, -20.0]), finite)
    y = np.array(draw(st.lists(level, min_size=size, max_size=size)))
    if draw(st.booleans()):
        y = -np.sort(-y)  # non-increasing, like a log tail
    inside = draw(st.lists(st.floats(x[0], x[-1]), max_size=30))
    outside = [x[0] - 1.0, x[-1] + 1.0, -1e300, 1e300, math.inf, -math.inf, math.nan]
    u = np.concatenate([x, inside, outside, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)])
    if draw(st.booleans()):
        u = np.resize(draw(st.permutations(u)), models.BLOCK + 17)
    return x, y, u


@settings(deadline=None, max_examples=300)
@given(case=pchip_cases())
# at a node whose value is -0.0, scipy's sum, which starts from +0.0, reads +0.0
@example(case=(np.array([0.0, 1.0, 5.0, 9.0, 9.5]), np.array([-0.0, -0.5, -4.5, -6.5, -7.0]), np.zeros(1)))
def test_pchip_matches_scipy_bit_for_bit(case):
    x, y, u = case
    want = PchipInterpolator(x, y, extrapolate=False)(u)
    got = convolution._Pchip(x, y)(u)
    assert same_bits(got, want)


@pytest.mark.parametrize("model", [PARETO05, BURR2508, GANDH], ids=lambda m: m.kind)
def test_build_matches_a_scipy_pchip_build_bit_for_bit(monkeypatch, model):
    """n = 3 built with scipy's PCHIP, every level read in one piece, gives
    the same stored tails, certificate, level-2 reads and quantiles as the
    in-package PCHIP read in blocks, bit for bit. The reads cover more than
    one block, the ends and the out-of-range points."""
    grid = convolution._build_grid.__wrapped__(model, 3, GridSpec())
    span = np.arcsinh([grid.x[0], 2.0 * grid.x[-1]])
    w = np.concatenate([
        np.sinh(np.linspace(*span, 3 * models.BLOCK)),
        grid.x,
        [0.0, -1.0, 1e300, -1e300, math.nan],
    ])
    with monkeypatch.context() as patch:
        patch.setattr(convolution, "_Pchip", ScipyPchip)
        patch.setattr(models, "BLOCK", w.size)
        ref = convolution._build_grid.__wrapped__(model, 3, GridSpec())
        want_level = ref._fresh.args[1](w)
    assert same_bits(grid.g_tail, ref.g_tail)
    assert grid.certified_error == ref.certified_error
    assert same_bits(grid._fresh.args[1](w), want_level)
    assert same_bits(oracle_quantiles(grid, CLI_LEVELS), oracle_quantiles(ref, CLI_LEVELS))


@pytest.mark.parametrize("model", [PARETO05, BURR2508, GANDH], ids=lambda m: m.kind)
def test_reads_out_of_range_emit_no_warning(model):
    """-1e300, -1, 0 and 1e300 are read without an overflow or invalid-value
    warning (which the test configuration makes an error), by a level and by
    fresh quadrature; a level reads NaN as NaN, and fresh_tail reports it as
    out of range."""
    grid = convolve_tail(model, 3)
    vals = grid._fresh.args[1](np.array([-1e300, -1.0, 0.0, 1e300, math.nan]))
    if model is GANDH:
        assert vals[0] == 1.0 >= vals[1] >= vals[2] > 0.0
    else:
        assert vals[0] == vals[1] == vals[2] == 1.0
    assert 0.0 <= vals[3] < 1e-200 and math.isnan(vals[4])
    fresh = grid.fresh_tail(np.array([-1e300, -1.0, 0.0, 1e300]))
    if model is GANDH:
        assert fresh[0] == 1.0 >= fresh[1] >= fresh[2] > 0.0
    else:
        assert fresh[0] == fresh[1] == fresh[2] == 1.0
    assert 0.0 <= fresh[3] < 1e-200
    with pytest.raises(GridRangeError):
        grid.fresh_tail(math.nan)


@pytest.mark.parametrize("n", [3, 4])
def test_gandh_fresh_tail_is_one_far_left_of_the_grid(n):
    """Far left of the grid the g-and-h sum's tail is 1 to double precision
    (its left tail falls like x^-2); the pairwise step's split score is
    floored at the Gaussian integration floor, so its quadrature reads it
    so, neither short of 1 nor above it."""
    w = np.array([-1e300, -1e100, -1e30, -1e10])
    assert np.all(convolve_tail(GANDH, n).fresh_tail(w) == 1.0)


def test_grid_whose_head_collapses_onto_its_floor_raises():
    # Q(0.99) = 100^(1e-17) rounds to the support minimum 1.0
    with pytest.raises(DomainError, match="degenerate grid"):
        convolve_tail(Pareto(xi=1e-17), 2)

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tailconc.convolution import (
    ConvolutionGrid,
    GridSpec,
    convolve_tail,
    oracle_concentration,
    oracle_quantile,
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
    grid = convolve_tail(BURR11, 2)
    # off-node points stress the interpolant rather than the quadrature;
    # interpolation is coarsest where the survival curve bends near the bulk
    xs = np.geomspace(0.7, 5000.0, 173)
    got = grid.tail_at(xs)
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
    assert grid.tail_at(x) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(("x", "expected"), PARETO05_G4)
def test_pareto_four_fold_reference(x, expected):
    grid = convolve_tail(PARETO05, 4)
    assert grid.fresh_tail(x) == pytest.approx(expected, rel=1e-7)


def test_fresh_tail_agrees_with_stored_nodes_two_fold():
    grid = convolve_tail(PARETO05, 2)
    idx = [10, 700, 2000, 4000]
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
    # bisection-inverse values, at 0.9997 as in bench/reference.json
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
    # smaller tails do not round-trip exactly; bisection lands within 1e-11
    for target in (0.01, 1e-6):
        idx = int(np.argmin(np.abs(grid.g_tail - target)))
        alpha = 1.0 - float(grid.g_tail[idx])
        assert oracle_quantile(grid, alpha) == pytest.approx(
            float(grid.x[idx]), rel=1e-11
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


def test_gandh_grid_floor():
    grid = convolve_tail(GANDH, 2)
    # the grid deliberately starts near the sum's bulk, not at -inf
    with pytest.raises(GridRangeError):
        grid.tail_at(float(GANDH.quantile(0.5)))
    with pytest.raises(GridRangeError):
        oracle_quantile(grid, 0.05)
    with pytest.raises(GridRangeError):
        grid.tail_at(math.nan)
    # well inside the covered range everything works
    q = oracle_quantile(grid, 0.99)
    assert grid.tail_at(q) == pytest.approx(0.01, rel=1e-6)


def test_positive_support_below_grid_is_one():
    grid = convolve_tail(PARETO05, 2)
    assert grid.tail_at(1.5) == 1.0
    assert grid.tail_at(0.0) == 1.0
    assert float(grid.tail_at(np.array([2.0]))[0]) == 1.0
    with pytest.raises(GridRangeError):
        grid.tail_at(np.array([3.0, math.nan]))


def test_tail_at_with_support_above_the_head():
    """Pareto(0.2) at n = 3: the sum's support 3 lies above the single-loss
    0.99 quantile (2.51), so the tail is 1 over the whole linear head and
    the interpolant runs in log x from the support on."""
    model = Pareto(xi=0.2)
    grid = convolve_tail(model, 3)
    assert float(model.quantile(0.99)) < 3.0
    assert np.all(grid.tail_at(np.array([1.0, 2.5, 3.0])) == 1.0)
    x = grid.x[grid.x > 3.0]
    mid = 0.5 * (x[:-1] + x[1:])
    got = grid.tail_at(mid)
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
        GridSpec(points=32)
    with pytest.raises(DomainError):
        GridSpec(head_points=5000)
    with pytest.raises(DomainError):
        GridSpec(head_level=0.3)
    with pytest.raises(DomainError):
        GridSpec(max_level=1.0)
    with pytest.raises(DomainError):
        GridSpec(tol=0.0)
    with pytest.raises(DomainError):
        GridSpec(order=8, check_order=10)


def test_certify_threshold_tiers():
    spec = GridSpec()
    assert spec.certify_threshold(2) == spec.tol
    assert spec.certify_threshold(3) == spec.pairwise_tol
    assert spec.certify_threshold(8) == spec.pairwise_tol


@pytest.mark.parametrize(
    "model", [PARETO05, BURR11, BURR12, GANDH], ids=lambda m: m.kind + repr(m)
)
def test_certified_error_within_tier(model):
    g2 = convolve_tail(model, 2)
    assert g2.certified_error <= 1e-10
    g3 = convolve_tail(model, 3)
    assert g3.certified_error <= 1e-6


@settings(deadline=None, max_examples=25)
@given(
    x=st.lists(st.floats(min_value=0.1, max_value=1e8), min_size=1, max_size=20),
    n=st.sampled_from([2, 3]),
)
def test_tail_at_invariants(x, n):
    grid = convolve_tail(PARETO05, n)
    xs = np.sort(np.asarray(x, dtype=float))
    vals = grid.tail_at(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) <= 1e-14)


def test_tail_at_scalar_round_trip():
    grid = convolve_tail(PARETO05, 2)
    v = grid.tail_at(25.0)
    assert isinstance(v, float)
    arr = grid.tail_at(np.array([25.0]))
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


def test_convolve_tail_caches_grids():
    a = convolve_tail(PARETO05, 2)
    b = convolve_tail(PARETO05, 2)
    assert a is b
    c = convolve_tail(PARETO05, 2, GridSpec(points=512, head_points=128))
    assert c is not a
    assert isinstance(c, ConvolutionGrid)


@pytest.mark.parametrize(
    "model, n, exempt",
    [
        (PARETO05, 2, {}),
        # n = 3: the recursion reads level 2 with one spline across the jump
        # from the linear head spacing to the geometric tail spacing (in x for
        # Burr), which moves the stored level-3 values and fresh quadrature
        # in a few cells; measured there: Pareto cell 0 1.4e-9, Burr cells 0,
        # 1 and the last 8.2e-8, 4.1e-9 and 5.8e-9
        (PARETO05, 3, {0: 2e-9}),
        (BURR2508, 2, {}),
        (BURR2508, 3, {0: 1e-7, 1: 1e-8, -1: 1e-8}),
        (GANDH, 2, {}),
        (GANDH, 3, {}),
    ],
    ids=["pareto-2", "pareto-3", "burr-2", "burr-3", "gandh-2", "gandh-3"],
)
def test_tail_at_matches_fresh_between_nodes(model, n, exempt):
    """The interpolant, read at the midpoint of every stored cell at or above
    the single-loss 0.99 quantile, against fresh quadrature there."""
    grid = convolve_tail(model, n)
    x = grid.x[grid.x >= model.quantile(0.99)]
    mid = 0.5 * (x[:-1] + x[1:])
    err = np.abs(grid.tail_at(mid) / grid.fresh_tail(mid) - 1.0)
    bound = np.full(err.shape, 1e-9)
    for cell, b in exempt.items():
        bound[cell] = b
    assert np.all(err <= bound)


def test_power_law_extension_beyond_grid():
    grid = convolve_tail(PARETO05, 2)
    top = float(grid.x[-1])
    g_top = float(grid.g_tail[-1])
    got = grid.tail_at(4.0 * top)
    assert got == pytest.approx(g_top * 4.0 ** -2.0, rel=1e-2)

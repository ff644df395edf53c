import dataclasses
import importlib.util
import math
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from tailconc import approx
from tailconc.approx import (
    ApproachDirection,
    Direction,
    RegimeTag,
    approach_direction,
    classify_regime,
    convolution_constant,
    correction_amplitude,
    correction_coefficient,
    crossover,
    first_order_limit,
    second_order_approx,
    second_order_kernel,
    tail_ratio_limit,
    tail_ratio_scale,
)
from tailconc.errors import BoundaryCaseError, DomainError, PrecisionError
from tailconc.models import Burr, ExactHall, GandH, Pareto, SecondOrderInfo

GANDH = GandH(a=0.0, b=1.0, g=2.0, h=0.5)

# Reference values computed with 40-digit arithmetic from
# (1-xi) Gamma(1-1/xi)^2 / (2 Gamma(1-2/xi)).
CONSTANT_GRID = [
    (0.25, 4.0),
    (0.5, 2.0),
    (1.0, 1.0),
    (1.25, 0.7126126042413275561273),
    (1.5, 0.4416596875713624893284),
    (1.75, 0.2070930562155841219126),
    (2.0, 0.0),
    (2.5, -0.362301631200370773189),
    (3.0, -0.6844634059797257270111),
]


@pytest.mark.parametrize(("xi", "expected"), CONSTANT_GRID)
def test_convolution_constant_grid(xi, expected):
    assert convolution_constant(xi) == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_convolution_constant_branches_agree_at_one():
    assert convolution_constant(1.0) == 1.0
    assert approx._convolution_constant_upper(1.0) == pytest.approx(1.0, abs=1e-10)
    # the pole-free form stays smooth through the removable singularity
    for xi in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-9):
        assert approx._convolution_constant_upper(xi) == pytest.approx(1.0, abs=1e-5)


def test_convolution_constant_strictly_decreasing():
    values = [convolution_constant(xi) for xi, _ in CONSTANT_GRID]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_convolution_constant_vanishes_at_two():
    assert convolution_constant(2.0) == 0.0


def test_convolution_constant_domain():
    for xi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            convolution_constant(xi)


def test_tail_ratio_limit_values():
    assert tail_ratio_limit(0.5, 2) == pytest.approx(4.0, rel=1e-14)
    assert tail_ratio_limit(1.0, 2) == pytest.approx(2.0, rel=1e-14)
    assert tail_ratio_limit(1.25, 3) == pytest.approx(6.0 * 0.7126126042413276, rel=1e-12)
    assert tail_ratio_limit(2.0, 5) == 0.0


def test_tail_ratio_scale_closed_forms():
    # finite mean, xi < 1: mu / x
    assert tail_ratio_scale(Pareto(xi=0.5), 10.0) == pytest.approx(0.2, rel=1e-13)
    # xi > 1: tail(x) / (xi - 1)
    assert tail_ratio_scale(Pareto(xi=1.25), 32.0) == pytest.approx(
        32.0 ** -0.8 / 0.25, rel=1e-13
    )
    # xi = 1 with infinite mean: truncated mean over x
    assert tail_ratio_scale(Pareto(xi=1.0), 100.0) == pytest.approx(
        math.log(100.0) / 100.0, rel=1e-13
    )


@pytest.mark.parametrize("model", [Burr(tau=1.0, kappa=2.0), Burr(tau=1.0, kappa=1.0)])
def test_tail_ratio_scale_at_zero_raises(model):
    # support from 0 and xi <= 1: b(x) = mu/x (finite mean) or the
    # truncated mean over x (xi = 1, infinite mean) divides by x
    with pytest.raises(DomainError):
        tail_ratio_scale(model, 0.0)


def test_second_order_kernel_values():
    assert second_order_kernel(0.5, -0.5, 1.0) == 0.0
    assert second_order_kernel(1.0, -1.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    # rho = 0 limit is s^xi log s, approached continuously from rho < 0
    s = 3.7
    exact = s**0.5 * math.log(s)
    assert second_order_kernel(0.5, 0.0, s) == pytest.approx(exact, rel=1e-14)
    assert second_order_kernel(0.5, -1e-9, s) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize(
    ("rho", "s"),
    [(-0.5, 1.0), (0.0, 3.7), (-1e-300, 2.0), (-1e-17, 2.0), (-1e-9, 0.5), (-2.0, math.exp(350.0)),
     (-2.0, math.exp(-350.0)), (-1.0, math.exp(-709.0)), (-1.0, math.exp(700.0))],
    ids=["x-0-at-s-1", "x-0-at-rho-0", "x-7e-301", "x-7e-18", "x-7e-10", "x-minus-700", "x-700", "x-709",
         "x-minus-700-rho-1"],
)
def test_second_order_kernel_matches_scipy_exprel(rho, s):
    # exprel(x) = expm1(x)/x, 1 at x = 0, for x = rho log s: 0, tiny, or near +-700
    from scipy.special import exprel

    xi = 0.5
    ls = math.log(s)
    assert second_order_kernel(xi, rho, s) == s**xi * ls * float(exprel(rho * ls))


def test_second_order_kernel_raises_where_exprel_overflows():
    # rho log s = 720 > 709.78: exp overflows, as scipy's exprel does (inf)
    with pytest.raises(DomainError, match="xi = 0.5"):
        second_order_kernel(0.5, -2.0, math.exp(-360.0))


def test_second_order_kernel_domain():
    with pytest.raises(DomainError):
        second_order_kernel(0.5, -0.5, 0.0)
    with pytest.raises(DomainError):
        second_order_kernel(0.5, 0.25, 2.0)
    with pytest.raises(DomainError):
        second_order_kernel(math.nan, -1.0, 2.0)
    # s^xi leaves the double range: a DomainError naming s and xi
    with pytest.raises(DomainError, match="s = 8, xi = 400"):
        second_order_kernel(400.0, -0.5, 8.0)


def test_nan_and_infinite_arguments_raise():
    with pytest.raises(DomainError):
        tail_ratio_scale(Pareto(xi=0.5), math.nan)
    for rho in (math.nan, 0.5):
        with pytest.raises(DomainError):
            correction_coefficient(0.5, rho, 2)
    with pytest.raises(DomainError):
        classify_regime(SecondOrderInfo(math.inf, -1.0, None, None, False))
    with pytest.raises(DomainError):
        second_order_approx(Pareto(xi=0.5), math.nan, 2)


@settings(deadline=None)
@given(
    xi=st.floats(min_value=0.1, max_value=3.0),
    rho=st.floats(min_value=-4.0, max_value=0.0),
    s=st.floats(min_value=0.01, max_value=100.0),
)
@example(xi=1.0, rho=-5e-324, s=0.5)  # s**xi * expm1(rho log s) underflowed before / rho
def test_second_order_kernel_sign(xi, rho, s):
    """The kernel shares the sign of log s (nonpositive rho)."""
    value = second_order_kernel(xi, rho, s)
    if s > 1.0:
        assert value > 0.0
    elif s < 1.0:
        assert value < 0.0
    else:
        assert value == 0.0


@pytest.mark.parametrize(
    ("model", "tag"),
    [
        (Pareto(xi=0.5), RegimeTag.FAST),
        (Pareto(xi=1.25), RegimeTag.FAST),
        (Pareto(xi=2.0), RegimeTag.DEGENERATE),
        (Burr(tau=0.5, kappa=3.0), RegimeTag.SLOW),
        (Burr(tau=0.25, kappa=8.0), RegimeTag.SLOW),
        (Burr(tau=1.0, kappa=2.0), RegimeTag.BOUNDARY),
        (Burr(tau=1.0, kappa=1.0), RegimeTag.BOUNDARY),
        (Burr(tau=2.0, kappa=0.5), RegimeTag.FAST),
        (Burr(tau=2.0, kappa=0.25), RegimeTag.DEGENERATE),
        (GANDH, RegimeTag.SLOW),
        (ExactHall(c=1.0, d=0.5, xi=1.0, rho=-0.5), RegimeTag.SLOW),
        (ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4), RegimeTag.SLOW),
        (ExactHall(c=1.0, d=0.5, xi=0.5, rho=-0.5), RegimeTag.BOUNDARY),
        (ExactHall(c=1.0, d=0.5, xi=0.7, rho=-2.0), RegimeTag.FAST),
    ],
)
def test_classify_regime(model, tag):
    assert classify_regime(model.second_order_info()).tag is tag


def test_classify_regime_attaches_q():
    info = Burr(tau=1.0, kappa=2.0).second_order_info()
    assert classify_regime(info).q is None
    assert classify_regime(info, q=2.0).q == 2.0


def test_correction_coefficient_fast_small_xi():
    # below xi = 1 the coefficient is (n-1)/n for every model in the regime
    assert correction_coefficient(0.5, -2.0, 2) == pytest.approx(0.5, rel=1e-14)
    assert correction_coefficient(0.8, -math.inf, 4) == pytest.approx(0.75, rel=1e-14)


def test_correction_coefficient_fast_large_xi():
    expected = 2.0 ** -0.75 * 1.0 * 1.25 * 0.7126126042413276
    assert correction_coefficient(1.25, -math.inf, 2) == pytest.approx(expected, rel=1e-12)


def test_correction_coefficient_slow():
    expected = 2.0 ** -0.5 * (2.0 ** -0.125 - 1.0) / -0.125
    assert correction_coefficient(0.5, -0.125, 2) == pytest.approx(expected, rel=1e-13)
    assert correction_coefficient(0.5, 0.0, 2) == pytest.approx(
        2.0 ** -0.5 * math.log(2.0), rel=1e-14
    )


def test_correction_coefficient_boundary_raises():
    with pytest.raises(BoundaryCaseError):
        correction_coefficient(0.5, -0.5, 2)
    with pytest.raises(BoundaryCaseError):
        correction_coefficient(1.5, -1.0, 3)


@pytest.mark.parametrize("bad_n", [1, 0, -2, 2.5, True])
def test_n_validation(bad_n):
    with pytest.raises(DomainError):
        first_order_limit(0.5, bad_n)
    with pytest.raises(DomainError):
        correction_coefficient(0.5, -2.0, bad_n)
    with pytest.raises(DomainError):
        tail_ratio_limit(0.5, bad_n)


def test_numpy_integers_are_integers():
    assert first_order_limit(0.5, np.int64(3)) == first_order_limit(0.5, 3)
    assert second_order_approx(Pareto(xi=0.5), 0.99, np.int32(2)) == second_order_approx(
        Pareto(xi=0.5), 0.99, 2
    )


def test_first_order_limit_values():
    assert first_order_limit(0.5, 2) == pytest.approx(2.0 ** -0.5, rel=1e-15)
    assert first_order_limit(1.0, 7) == 1.0
    assert first_order_limit(1.25, 2) == pytest.approx(2.0 ** 0.25, rel=1e-15)


def test_correction_amplitude_fast_pareto():
    m = Pareto(xi=0.5)
    for alpha in (0.9, 0.99, 0.9999):
        expected = 2.0 * (1.0 - alpha) ** 0.5
        assert correction_amplitude(m, alpha) == pytest.approx(expected, rel=1e-12)
        assert correction_amplitude(m, alpha, closed_form=True) == pytest.approx(
            expected, rel=1e-12
        )


def test_correction_amplitude_fast_large_xi():
    m = Pareto(xi=1.25)
    assert correction_amplitude(m, 0.999) == pytest.approx(0.001 / 0.25, rel=1e-10)
    assert correction_amplitude(m, 0.999, closed_form=True) == pytest.approx(
        0.001 / 0.25, rel=1e-13
    )


def test_correction_amplitude_slow_burr():
    m = Burr(tau=0.25, kappa=8.0)
    alpha = 0.999
    t = 1.0 / (1.0 - alpha)
    assert correction_amplitude(m, alpha) == pytest.approx(
        float(m.auxiliary(t)), rel=1e-13
    )
    # closed form uses the leading Hall term d * rho * (1-alpha)^(-rho)
    assert correction_amplitude(m, alpha, closed_form=True) == pytest.approx(
        0.5 * (1.0 - alpha) ** 0.125, rel=1e-13
    )


def test_correction_amplitude_gandh_closed_form_always():
    from tailconc.special import normal_inv_cdf

    for alpha in (0.9, 0.9999):
        assert correction_amplitude(GANDH, alpha) == pytest.approx(
            2.0 / normal_inv_cdf(alpha), rel=1e-14
        )
    with pytest.raises(DomainError):
        correction_amplitude(GANDH, 0.5)
    with pytest.raises(DomainError):
        correction_amplitude(GANDH, 0.3)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the g-and-h slow-regime amplitude is the leading term g / z(alpha) of the "
    "auxiliary function: 1.216 at 0.95 where a(20) is 0.906; the value stays until "
    "bench/reference.json's g-and-h c2 is re-recorded",
)
def test_correction_amplitude_gandh_is_the_auxiliary_function():
    assert correction_amplitude(GANDH, 0.95) == pytest.approx(GANDH.auxiliary(20.0), rel=1e-6)


def test_correction_amplitude_boundary_raises():
    with pytest.raises(BoundaryCaseError):
        correction_amplitude(Burr(tau=1.0, kappa=2.0), 0.99)


def test_correction_amplitude_alpha_domain():
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            correction_amplitude(Pareto(xi=0.5), alpha)


def test_second_order_approx_gandh_closed_identity():
    """c2 for the g-and-h pair reduces to 2^(h-1) (1 + 2 log 2 / z(alpha))."""
    from tailconc.special import normal_inv_cdf

    for alpha in (0.9, 0.99, 0.999, 0.9999, 1.0 - 1e-6):
        r = second_order_approx(GANDH, alpha, 2)
        z = normal_inv_cdf(alpha)
        expected = 2.0 ** -0.5 * (1.0 + 2.0 * math.log(2.0) / z)
        assert r.c2 == pytest.approx(expected, rel=1e-12)
        assert r.regime.tag is RegimeTag.SLOW
        assert r.c1 == pytest.approx(2.0 ** -0.5, rel=1e-15)


def test_second_order_approx_degenerate():
    r = second_order_approx(Pareto(xi=2.0), 0.999, 2)
    assert r.degenerate
    assert r.correction == 0.0
    assert r.c2 == r.c1 == pytest.approx(2.0, rel=1e-15)
    assert r.regime.tag is RegimeTag.DEGENERATE


def test_second_order_approx_boundary_coefficient():
    """With q supplied, the boundary coefficient for this pair is sqrt(2)."""
    m = Burr(tau=1.0, kappa=2.0)
    alpha = 0.999
    r = second_order_approx(m, alpha, 2, q=2.0)
    coeff = r.correction / float(m.auxiliary(1.0 / (1.0 - alpha)))
    assert coeff == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert r.regime.tag is RegimeTag.BOUNDARY
    assert r.regime.q == 2.0


def test_second_order_approx_boundary_estimates_q():
    r = second_order_approx(Burr(tau=1.0, kappa=2.0), 0.999, 2)
    assert r.regime.q == pytest.approx(2.0, rel=1e-10)
    r2 = second_order_approx(ExactHall(c=1.0, d=0.5, xi=0.5, rho=-0.5), 0.999, 2)
    assert r2.regime.q == pytest.approx(-10.0, rel=1e-10)


def test_second_order_approx_alpha_domain():
    with pytest.raises(DomainError):
        second_order_approx(Pareto(xi=0.5), 1.0, 2)
    with pytest.raises(DomainError):
        second_order_approx(Pareto(xi=0.5), 0.0, 2)


def test_boundary_q_estimates():
    assert approx._boundary_q_estimate(Burr(tau=1.0, kappa=2.0)) == pytest.approx(
        2.0, rel=1e-10
    )
    assert approx._boundary_q_estimate(
        ExactHall(c=1.0, d=0.5, xi=0.5, rho=-0.5)
    ) == pytest.approx(-10.0, rel=1e-10)


def test_overflowing_power_of_n_raises_domain_error():
    """Where a power of n leaves the double range, the first-order limit and
    the coefficients raise DomainError naming n and xi, not OverflowError."""
    with pytest.raises(DomainError, match="n = 8, xi = 400"):
        first_order_limit(400.0, 8)
    for rho in (-math.inf, 0.0, -0.5):
        with pytest.raises(DomainError, match="n = 8, xi = 400"):
            correction_coefficient(400.0, rho, 8)
    # n^(xi - 1) fits, but the fast coefficient's product does not
    assert math.isfinite(first_order_limit(340.0, 8))
    with pytest.raises(DomainError, match="n = 8, xi = 340"):
        correction_coefficient(340.0, -math.inf, 8)
    # on the boundary (rho = -1 = -min(1, xi)) with q supplied
    with pytest.raises(DomainError, match="boundary coefficient.*n = 8, xi = 340"):
        second_order_approx(Burr(tau=1.0 / 340.0, kappa=1.0), 0.99, 8, q=1.0)


def test_boundary_balance_from_an_overflowing_probe_raises():
    """Burr(0.01, 1) (xi = 100, rho = -1) has Q(1 - 1e-8) = inf, so the probe
    measures no balance and every user of it raises PrecisionError."""
    model = Burr(tau=0.01, kappa=1.0)
    for call in (
        lambda: approx._boundary_q_estimate(model),
        lambda: second_order_approx(model, 0.99, 2),
        lambda: approach_direction(model, 2),
        lambda: crossover(model, 2),
    ):
        with pytest.raises(PrecisionError, match="probe quantile"):
            call()


@pytest.mark.parametrize("b_val", [0.0, math.inf, math.nan])
def test_boundary_balance_without_a_ratio_raises(monkeypatch, b_val):
    monkeypatch.setattr(approx, "tail_ratio_scale", lambda model, x: b_val)
    with pytest.raises(PrecisionError, match="give no ratio"):
        approx._boundary_q_estimate(Burr(tau=1.0, kappa=2.0))


@pytest.mark.parametrize(
    ("model", "direction"),
    [
        (Pareto(xi=0.5), Direction.FROM_ABOVE),
        (Pareto(xi=1.0), Direction.FROM_ABOVE),
        (Pareto(xi=1.25), Direction.FROM_ABOVE),
        (Pareto(xi=3.0), Direction.FROM_BELOW),
        (GANDH, Direction.FROM_ABOVE),
        (ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4), Direction.FROM_ABOVE),
        (ExactHall(c=1.0, d=0.3, xi=0.8, rho=-0.4), Direction.FROM_BELOW),
        (Burr(tau=1.0, kappa=2.0), Direction.FROM_ABOVE),
    ],
)
def test_approach_direction(model, direction):
    result = approach_direction(model, 2)
    assert isinstance(result, ApproachDirection)
    assert result.direction is direction


def test_approach_direction_derivatives():
    assert approach_direction(Pareto(xi=0.5), 2).derivative_limit == -math.inf
    r = approach_direction(Pareto(xi=1.25), 2)
    expected = -(2.0 ** -0.75) * 1.25 * 0.7126126042413276 / 0.25
    assert r.derivative_limit == pytest.approx(expected, rel=1e-12)
    assert approach_direction(Pareto(xi=3.0), 2).derivative_limit > 0.0
    assert approach_direction(Pareto(xi=2.0), 2).direction is Direction.MODEL_DEPENDENT


class _BareBurr(Burr):
    """Burr(0.25, 8), a slow model, without its Hall constants."""

    def second_order_info(self):
        return dataclasses.replace(super().second_order_info(), hall_c=None, hall_d=None)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_slow_model_without_hall_constants_has_a_direction(n):
    # the sign comes from the numeric auxiliary function, and agrees with
    # the one the Hall constants give
    bare = approach_direction(_BareBurr(tau=0.25, kappa=8.0), n)
    assert bare == approach_direction(Burr(tau=0.25, kappa=8.0), n)
    assert bare == ApproachDirection(Direction.FROM_ABOVE, -math.inf)


def test_crossover_values():
    # g-and-h: second-order curve crosses 1 just inside alpha = 0.9996
    x = crossover(GANDH, 2)
    assert x is not None
    assert x == pytest.approx(0.99959126, abs=2e-7)
    # light-tail-side Pareto: crossing at 1 - (1 - 2^(-1/2))^2
    y = crossover(Pareto(xi=0.5), 2)
    assert y is not None
    assert y == pytest.approx(1.0 - (1.0 - 2.0 ** -0.5) ** 2, abs=1e-6)


def test_crossover_none_when_no_crossing():
    assert crossover(Pareto(xi=1.25), 2) is None


def test_crossover_argument_validation():
    with pytest.raises(DomainError):
        crossover(GANDH, 2, 0.99, 0.9)
    with pytest.raises(DomainError):
        crossover(GANDH, 2, 0.0, 0.999)


def test_boundary_q_is_estimated_once_per_call(monkeypatch):
    # crossover evaluates the second-order curve at its two ends and at
    # each bisection step, all with the same boundary balance q, so q is
    # estimated once
    calls = []
    estimate = approx._boundary_q_estimate
    monkeypatch.setattr(approx, "_boundary_q_estimate", lambda m: calls.append(m) or estimate(m))
    model = Burr(tau=1.0, kappa=1.0)
    crossover(model, 2)
    assert len(calls) == 1
    approach_direction(model, 2)
    assert len(calls) == 2


def test_crossover_decides_from_its_endpoints(monkeypatch):
    """Without a sign change between the ends there is no crossing, so the
    curve is evaluated at the two ends only."""
    calls = []
    evaluate = approx.second_order_approx
    monkeypatch.setattr(approx, "second_order_approx", lambda *a, **k: calls.append(a) or evaluate(*a, **k))
    assert crossover(Pareto(xi=1.25), 2) is None
    assert len(calls) <= 2


# crossover's default range, 257 levels log-spaced in 1 - alpha
_CROSSOVER_LEVELS = 1.0 - np.geomspace(0.1, 1e-7, 257)

CATALOGUE = {
    "pareto05": Pareto(xi=0.5),
    "pareto125": Pareto(xi=1.25),
    "burr2508": Burr(tau=0.25, kappa=8.0),
    "burr12": Burr(tau=1.0, kappa=2.0),
    "gandh": GANDH,
    "hall": ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4),
}


def _crossover_study_cases() -> dict:
    path = Path(__file__).resolve().parents[1] / "scripts" / "crossover_study.py"
    spec = importlib.util.spec_from_file_location("crossover_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.CASES)


# the study's cases share their labels, and models, with the catalogue's
MONOTONE_CASES = CATALOGUE | _crossover_study_cases()


def assert_c2_monotone(model, n):
    """c2 - 1 is monotone in alpha over crossover's range, so a crossing,
    if there is one, shows as a sign change between the ends."""
    _, c2, _, _ = approx.second_order_column(model, _CROSSOVER_LEVELS, n)
    step = np.diff(c2 - 1.0)
    assert np.all(step >= 0.0) or np.all(step <= 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("model", MONOTONE_CASES.values(), ids=MONOTONE_CASES)
def test_second_order_curve_is_monotone(model, n):
    assert_c2_monotone(model, n)


_NS = st.sampled_from([2, 3, 4, 8])


@settings(deadline=None, max_examples=30)
@given(xi=st.floats(0.1, 3.0), n=_NS)
def test_pareto_second_order_curve_is_monotone(xi, n):
    assert_c2_monotone(Pareto(xi=xi), n)


@settings(deadline=None, max_examples=30)
@given(tau=st.floats(0.25, 4.0), kappa=st.floats(0.25, 4.0), n=_NS)
def test_burr_second_order_curve_is_monotone(tau, kappa, n):
    assert_c2_monotone(Burr(tau=tau, kappa=kappa), n)


@settings(deadline=None, max_examples=30)
@given(a=st.floats(-1.0, 1.0), b=st.floats(0.5, 2.0), g=st.floats(0.1, 3.0), h=st.floats(0.05, 0.95), n=_NS)
def test_gandh_second_order_curve_is_monotone(a, b, g, h, n):
    assert_c2_monotone(GandH(a=a, b=b, g=g, h=h), n)


@settings(deadline=None, max_examples=30)
@given(
    c=st.floats(0.5, 2.0), d=st.floats(-0.9, 2.0), xi=st.floats(0.1, 2.0), rho=st.floats(-2.0, -0.01), n=_NS
)
def test_hall_second_order_curve_is_monotone(c, d, xi, rho, n):
    assume(d != 0.0 and xi + d * (xi + rho) > 0.0)
    assert_c2_monotone(ExactHall(c=c, d=d, xi=xi, rho=rho), n)


def test_fast_amplitude_above_unit_index_needs_no_quantile():
    """For xi > 1 the amplitude b(Q(alpha)) is (1 - alpha)/(xi - 1) whatever
    Q(alpha) is. Burr(0.1, 0.1) has xi = 100, and its quantile overflows at
    0.9999, yet the correction is the closed form's, with no overflow
    warning (which the test configuration makes an error)."""
    model = Burr(tau=0.1, kappa=0.1)
    numeric = second_order_approx(model, 0.9999, 2).correction
    closed = second_order_approx(model, 0.9999, 2, closed_form=True).correction
    assert numeric < 0.0
    assert numeric == pytest.approx(closed, rel=1e-12)


def test_scalar_entry_points_refuse_arrays():
    """An array of any shape but 0-d is not one number: a DomainError, not
    numpy's TypeError."""
    with pytest.raises(DomainError, match="shape"):
        tail_ratio_scale(Pareto(xi=0.5), np.array([5.0]))
    with pytest.raises(DomainError, match="shape"):
        correction_coefficient(0.5, np.array([-1.0]), 2)
    assert tail_ratio_scale(Pareto(xi=0.5), np.array(5.0)) == tail_ratio_scale(Pareto(xi=0.5), 5.0)
    assert correction_coefficient(0.5, -math.inf, 2) == 0.5


@pytest.mark.parametrize(
    "q", [math.nan, math.inf, "1", np.array([1.0]), True], ids=["nan", "inf", "str", "array", "bool"]
)
@pytest.mark.parametrize("model", [Burr(tau=1.0, kappa=2.0), Pareto(xi=0.5)], ids=["boundary", "fast"])
def test_second_order_approx_validates_q(model, q):
    """A given q must be a finite number, on the boundary (where it is used)
    and off it (where it is not)."""
    with pytest.raises(DomainError, match="q must be a finite number"):
        second_order_approx(model, 0.99, 2, q=q)

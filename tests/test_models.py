import math
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from scipy.integrate import quad
from scipy.special import ndtr

from tailconc import models, special
from tailconc.errors import DomainError, PoleError, PrecisionError
from tailconc.models import (
    BLOCK,
    Burr,
    ExactHall,
    GandH,
    LossModel,
    Pareto,
    gh_inverse,
    gh_transform,
    gh_transform_deriv,
    model_from_dict,
    model_to_dict,
)

ALL_MODELS = [
    Pareto(xi=0.5),
    Pareto(xi=1.25),
    Burr(tau=1.0, kappa=1.0),
    Burr(tau=1.0, kappa=2.0),
    Burr(tau=0.25, kappa=8.0),
    ExactHall(c=1.0, d=0.5, xi=1.0, rho=-0.5),
    GandH(a=0.0, b=1.0, g=2.0, h=0.5),
]

alphas = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
@settings(deadline=None)
@given(alpha=alphas)
def test_quantile_tail_round_trip(model: LossModel, alpha: float):
    x = model.quantile(alpha)
    assert np.isfinite(x)
    assert model.tail(x) == pytest.approx(1.0 - alpha, rel=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_quantile_monotone(model: LossModel):
    a = np.linspace(0.01, 0.999999, 400)
    q = model.quantile(a)
    assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_density_is_tail_derivative(model: LossModel):
    # central differences of the survival function against the density
    lo = model.support_min if math.isfinite(model.support_min) else -3.0
    xs = np.linspace(lo + 0.5, lo + 20.5, 9)
    h = 1e-5
    numeric = (model.tail(xs - h) - model.tail(xs + h)) / (2.0 * h)
    assert np.allclose(numeric, model.density(xs), rtol=1e-6, atol=1e-10)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
@settings(deadline=None)
@given(log_x=st.floats(min_value=math.log(1.5), max_value=math.log(1e15)))
def test_density_matches_tail_differences_to_1e15(model: LossModel, log_x: float):
    # relative step r: the truncation error is about r^2 (1/xi + 1)(1/xi + 2)/6,
    # at most 2e-8 for xi >= 1/2, and rounding adds about 1e-14/r
    r = 1e-4
    x = math.exp(log_x)
    assume(x * (1.0 - r) > model.support_min)
    h = r * x
    numeric = (model.tail(x - h) - model.tail(x + h)) / (2.0 * h)
    assert numeric == pytest.approx(float(model.density(x)), rel=1e-7)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_quantile_rejects_bad_levels(model: LossModel):
    for alpha in (0.0, 1.0, -0.3, 1.5, math.nan, np.array([0.5, math.nan]), True):
        with pytest.raises(DomainError):
            model.quantile(alpha)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_entry_points_reject_nan(model: LossModel):
    for method in (model.tail, model.density, model.auxiliary, model.tail_quantile):
        for arg in (math.nan, np.array([3.0, math.nan])):
            with pytest.raises(DomainError):
                method(arg)
    with pytest.raises(DomainError):
        model.moments(math.nan)


def test_tail_rejects_x_below_support():
    with pytest.raises(DomainError):
        Pareto(xi=0.5).tail(0.5)
    with pytest.raises(DomainError):
        Burr(tau=1.0, kappa=2.0).density(-0.1)


def test_pareto_closed_forms():
    m = Pareto(xi=0.5)
    assert m.quantile(0.99) == pytest.approx(100.0 ** 0.5, rel=1e-14)
    assert m.tail(100.0) == pytest.approx(1e-4, rel=1e-14)
    assert m.support_min == 1.0
    assert m.moments(math.inf) == pytest.approx(2.0, rel=1e-14)
    # truncated first moment (xi - 1)^(-1) (x^(1-1/xi) - 1)
    assert m.moments(9.0) == pytest.approx((9.0 ** -1.0 - 1.0) / -0.5, rel=1e-13)


def test_pareto_unit_tail_index_moments():
    m = Pareto(xi=1.0)
    assert m.moments(math.e) == pytest.approx(1.0, rel=1e-13)
    assert m.moments(math.inf) == math.inf


def test_burr_truncated_mean_closed_form():
    # tau=1, kappa=2: integral of t * 2(1+t)^(-3) from 0 to x is (x/(1+x))^2
    m = Burr(tau=1.0, kappa=2.0)
    for x in (0.5, 3.0, 50.0, 1e4, 1e6, 1e9, 1e15):
        assert m.moments(x) == pytest.approx((x / (1.0 + x)) ** 2, rel=1e-12)
    assert m.moments(math.inf) == pytest.approx(1.0, rel=1e-12)


def test_burr_infinite_mean_truncated_mean_closed_form():
    # tau=kappa=1: integral of t (1+t)^(-2) from 0 to x is log1p(x) - x/(1+x),
    # the b(x) that the boundary balance of Burr(1, 1) reads at x ~ 1e8
    m = Burr(tau=1.0, kappa=1.0)
    for x in (0.5, 3.0, 1e4, 1e8, 1e15, 1e30, 1e300):
        assert m.moments(x) == pytest.approx(math.log1p(x) - x / (1.0 + x), rel=1e-12)


def test_burr_truncated_mean_reaches_the_mean_deep_in_the_tail():
    # F(1e15) rounds to 1; the mean B(4, 4)/0.25 = 1/35 is reached in tail space
    value = Burr(tau=0.25, kappa=8.0).moments(1e15)
    assert type(value) is float
    assert value == pytest.approx(1.0 / 35.0, rel=1e-12)


def test_burr_truncated_mean_near_the_support_minimum():
    # F(x) is formed on the small side, not as 1 - F_bar(x), which lost up
    # to 1.5e-8 of the mean's relative accuracy at x = 1e-8
    m = Burr(tau=1.0, kappa=2.0)
    for x in np.logspace(-12.0, -2.0, 21):
        assert m.moments(x) == pytest.approx((x / (1.0 + x)) ** 2, rel=2e-15, abs=0.0)


def test_truncated_mean_raises_where_the_tail_rounds_to_zero():
    # the tail of 1e200 is 1e-200, but U(t) = expm1(2 log t)^(1/2) overflows
    # in expm1 before it reaches x
    with pytest.raises(PrecisionError):
        Burr(tau=2.0, kappa=0.5).moments(1e200)


def test_burr_unit_mean_is_exact():
    # B(1, 1) / 1 = 1 exactly through scipy's beta
    assert Burr(tau=1.0, kappa=2.0).moments(math.inf) == 1.0


def test_burr_mean_via_beta_function():
    assert Burr(tau=1.0, kappa=1.0).moments(math.inf) == math.inf
    assert Burr(tau=0.5, kappa=1.0).moments(math.inf) == math.inf
    # integral of (1 + x^(1/4))^(-8) over x > 0 is 4 B(4, 4) = 1/35
    assert Burr(tau=0.25, kappa=8.0).moments(math.inf) == pytest.approx(1.0 / 35.0, rel=1e-12)


def test_burr_matches_shifted_pareto():
    # tau=1, kappa=2 is a unit shift of the xi=1/2 Pareto
    b = Burr(tau=1.0, kappa=2.0)
    p = Pareto(xi=0.5)
    a = np.array([0.3, 0.9, 0.999, 1.0 - 1e-8])
    assert np.allclose(b.quantile(a), p.quantile(a) - 1.0, rtol=1e-12)


def test_burr_tail_and_density_where_x_tau_overflows():
    # x^tau is inf there, yet the tail is x^(-tau kappa) and the density
    # kappa tau x^(-tau kappa - 1), both normal doubles
    b = Burr(tau=4.0, kappa=0.1)
    assert b.tail(1e100) == pytest.approx(1e-40, rel=1e-12, abs=0.0)
    assert b.density(1e100) == pytest.approx(4e-141, rel=1e-12, abs=0.0)
    assert Burr(tau=2.0, kappa=0.5).tail(1e200) == pytest.approx(1e-200, rel=1e-12, abs=0.0)
    # where x^tau is finite the closed forms are evaluated as written
    x = np.array([0.0, 0.5, 3.0, 1e30, 1e77])
    assert np.array_equal(b.tail(x), (1.0 + x**4.0) ** -0.1)
    assert np.array_equal(b.density(x), 0.1 * 4.0 * x**3.0 * (1.0 + x**4.0) ** -1.1)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
@settings(deadline=None, max_examples=30)
@given(t=st.floats(min_value=1.5, max_value=1e4))
@example(t=2.0)
def test_auxiliary_matches_log_derivative(model: LossModel, t: float):
    """a(t) = t U'(t)/U(t) - xi, checked by central differences of U; at a
    zero of U (the g-and-h median when a = 0) a(t) has a pole and raises."""
    u0 = model.tail_quantile(t)
    if u0 == 0.0:
        with pytest.raises(PoleError):
            model.auxiliary(t)
        return
    info = model.second_order_info()
    h = t * 1e-6
    du = (model.tail_quantile(t + h) - model.tail_quantile(t - h)) / (2.0 * h)
    numeric = t * du / u0 - info.xi
    assert model.auxiliary(t) == pytest.approx(numeric, rel=5e-4, abs=1e-6)


def test_pareto_auxiliary_is_zero():
    assert Pareto(xi=0.5).auxiliary(1e6) == 0.0


def test_gandh_auxiliary_pole_raises():
    model = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
    with pytest.raises(DomainError):
        model.auxiliary(2.0)
    with pytest.raises(PoleError):
        model.auxiliary(np.array([1.5, 2.0, 3.0]))
    assert np.all(np.isfinite(model.auxiliary(np.array([1.5, 2.0 + 1e-6, 3.0]))))


@pytest.mark.parametrize(
    "model",
    [
        Pareto(xi=0.5),
        Burr(tau=0.25, kappa=8.0),
        GandH(a=0.0, b=1.0, g=2.0, h=0.5),
        ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4),
    ],
    ids=lambda m: m.kind,
)
def test_auxiliary_at_infinity_is_its_limit(model):
    """a(t) tends to 0 as t grows, and a(inf) is that 0, with no warning,
    also inside an array of finite t."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.auxiliary(math.inf) == 0.0
        t = np.array([3.0, math.inf, 1e300])
        got = model.auxiliary(t)
        assert got[1] == 0.0
        assert got[0] == model.auxiliary(3.0) and got[2] == model.auxiliary(1e300)


def test_exact_hall_tail_at_infinity():
    """Far tail of the catalogue Hall model: 0, with no overflow warning."""
    m = ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)
    for x in (math.inf, 1e300):
        assert m.tail(x) == 0.0
        assert m.density(x) == 0.0
        xs = np.array([2.0, x])
        assert np.array_equal(m.tail(xs), [m.tail(2.0), 0.0])
        assert np.array_equal(m.density(xs), [m.density(2.0), 0.0])


def test_auxiliary_rejects_small_t():
    with pytest.raises(DomainError):
        Burr(tau=1.0, kappa=2.0).auxiliary(1.0)


def test_sample_rejects_non_integers():
    for seed, count in ((1, 10.5), (1, 0), (1, True), (-1, 10), (1.5, 10)):
        with pytest.raises(DomainError):
            Pareto(xi=0.5).sample(seed, count)
    m = Pareto(xi=0.5)
    assert np.array_equal(m.sample(np.int64(1), np.int64(10)), m.sample(1, 10))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_sample_deterministic(model: LossModel):
    a = model.sample(123, 1000)
    b = model.sample(123, 1000)
    c = model.sample(124, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    lo = model.support_min
    if math.isfinite(lo):
        assert np.all(a >= lo)


@pytest.mark.parametrize(
    "model, inverse",
    [
        (Pareto(xi=0.5), lambda u: np.exp(-0.5 * np.log1p(-u))),
        (Pareto(xi=1.25), lambda u: np.exp(-1.25 * np.log1p(-u))),
        (Burr(tau=0.25, kappa=8.0), lambda u: np.expm1(-np.log1p(-u) / 8.0) ** 4.0),
        (Burr(tau=1.0, kappa=2.0), lambda u: np.expm1(-np.log1p(-u) / 2.0) ** 1.0),
        (ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4),
         lambda u: (1.0 / (1.0 - u)) ** 0.8 * (1.0 - 0.3 * (1.0 / (1.0 - u)) ** -0.4)),
    ],
    ids=lambda v: repr(v) if isinstance(v, LossModel) else "",
)
def test_draw_is_the_inverse_transform(model, inverse):
    """Draws are the model quantile of uniforms, bit for bit: Monte Carlo
    output depends on these exact operations."""
    draws = model.draw(np.random.Generator(np.random.PCG64(5)), (1000, 3))
    u = np.random.Generator(np.random.PCG64(5)).random((1000, 3))
    assert np.array_equal(draws, inverse(u))


@pytest.mark.parametrize(
    "model", [*ALL_MODELS, ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)], ids=lambda m: m.kind + repr(m)
)
def test_from_variates_is_non_decreasing(model):
    """``from_variates`` never decreases, so the k-th smallest loss is the
    map of the k-th smallest base variate: checked on 1e6 sorted variates
    plus the extremes of their range."""
    v = model.variates(np.random.Generator(np.random.PCG64(3)), 1_000_000)
    ends = [-38.0, -8.0, 8.0, 38.0] if model.kind == "gandh" else [0.0, 5e-324, 1.0 - 2.0**-53]
    x = model.from_variates(np.sort(np.concatenate([v, ends])))
    assert np.all(x[1:] >= x[:-1])


def allocating_map(model: LossModel, v: np.ndarray) -> np.ndarray:
    """Each family's inverse transform as one allocating expression."""
    if model.kind == "pareto":
        return np.exp(-model.xi * np.log1p(-v))
    if model.kind == "burr":
        return np.expm1(-np.log1p(-v) / model.kappa) ** (1.0 / model.tau)
    if model.kind == "hall":
        t = 1.0 / (1.0 - v)
        return model.c * t**model.xi * (1.0 + model.d * t**model.rho)
    with np.errstate(over="ignore"):
        return model.a + model.b * (np.expm1(model.g * v) / model.g * np.exp(0.5 * model.h * v * v))


@pytest.mark.parametrize(
    "model", [*ALL_MODELS, ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)], ids=lambda m: m.kind + repr(m)
)
def test_in_place_map_is_the_allocating_map(model):
    """The inverse transform run in place on its variates gives the
    allocating ``from_variates`` and ``quantile`` bit for bit, and those
    give the one-expression formula, on 1e6 variates plus the extremes of
    their range; the caller's arrays are left alone. The g-and-h formula
    reads :func:`special.ndtri`, whose accuracy against scipy and mpmath is
    checked in ``tests/test_special.py::test_ndtri_matches_mpmath_and_scipy``."""
    rng = np.random.Generator(np.random.PCG64(9))
    u = np.concatenate([rng.random(1_000_000), [np.nextafter(1.0, 0.0), 1e-300, 0.0]])
    levels = u[:-1]  # quantile takes levels inside (0, 1)
    gandh = model.kind == "gandh"
    v = np.concatenate([model.variates(rng, 1_000_000), [-38.0, 38.0]]) if gandh else u
    for values, fresh, hook, formula_at in (
        (v, model.from_variates, model.from_variates, v),
        (levels, model.quantile, model._quantile, special.ndtri(levels) if gandh else levels),
    ):
        before = values.copy()
        want = fresh(values)
        assert np.array_equal(values, before)
        assert np.array_equal(want, allocating_map(model, formula_at))
        buf = values.copy()
        assert hook(buf, buf) is buf
        assert np.array_equal(buf, want)


@pytest.mark.parametrize("model", [Pareto(xi=0.5), GandH(a=0.0, b=1.0, g=2.0, h=0.5)], ids=lambda m: m.kind)
def test_variates_into_a_buffer_keep_the_stream(model):
    want = model.variates(np.random.Generator(np.random.PCG64(4)), (1000, 3))
    buf = np.full((1000, 3), np.nan)
    assert model.variates(np.random.Generator(np.random.PCG64(4)), (1000, 3), out=buf) is buf
    assert np.array_equal(buf, want)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
def test_draws_match_distribution(model: LossModel):
    """Empirical survival frequencies at fixed quantiles, 200k draws."""
    x = model.sample(42, 200_000)
    for alpha in (0.5, 0.9, 0.99):
        q = model.quantile(alpha)
        freq = float(np.mean(x > q))
        assert freq == pytest.approx(1.0 - alpha, abs=4.5 * math.sqrt(alpha * (1 - alpha) / x.size))


def test_uniform_ks_bound():
    m = Pareto(xi=0.5)
    x = m.sample(7, 1_000_000)
    u = np.sort(1.0 - np.asarray(m.tail(x)))
    grid = np.arange(1, u.size + 1) / u.size
    ks = float(np.max(np.abs(u - grid)))
    assert ks < 0.002


def test_gandh_transform_shape():
    m = GandH(a=1.0, b=2.0, g=0.5, h=0.3)
    # quantile at the median is the location parameter
    assert m.quantile(0.5) == pytest.approx(1.0, abs=1e-12)
    assert m.support_min == -math.inf
    z = 1.7
    from tailconc.special import normal_cdf

    expected = 1.0 + 2.0 * math.expm1(0.5 * z) / 0.5 * math.exp(0.15 * z * z)
    assert m.quantile(normal_cdf(z)) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("g, h", [(2.0, 0.5), (0.1, 0.01), (1.0, 1.0), (5.0, 0.05)])
def test_gh_inverse_round_trip(g, h):
    mag = np.logspace(-300.0, 300.0, 1201)
    w = np.concatenate([mag, -mag])
    z = gh_inverse(w, g, h)
    # the image of the bracket [-60, 50]: about -6.5e8 to 4.0e8 at
    # (0.1, 0.01), -2.4e38 to 1.0e135 at (5, 0.05), the whole line else
    k_lo, k_hi = gh_transform(np.array([-60.0, 50.0]), g, h)
    assert np.all(z[w <= k_lo] == -60.0) and np.all(z[w >= k_hi] == 50.0)
    inside = (w > k_lo) & (w < k_hi)
    w, z = w[inside], z[inside]
    k = gh_transform(z, g, h)
    # An ulp of z moves k by |z k'(z)/k(z)| ulp, so that condition number
    # scales the bound: 1 near w = 0, about 1300 at w = 1e300.
    cond = np.maximum(1.0, np.abs(z * gh_transform_deriv(z, g, h) / k))
    assert np.all(np.abs(k - w) <= 1e-14 * np.abs(w) * cond)
    modest = np.abs(w) <= 1e6
    assert np.all(np.abs(k - w)[modest] <= 1e-14 * np.abs(w)[modest])


def test_gh_inverse_clamps_to_bracket():
    # k(-60) = -inf and k(50) = inf at (2, 0.5): only +-inf clamp
    w = np.array([-np.inf, -1e300, -0.3, 0.5, 1e300, np.inf])
    z = gh_inverse(w, 2.0, 0.5)
    assert z[0] == -60.0 and z[-1] == 50.0
    assert gh_transform(z[1:-1], 2.0, 0.5) == pytest.approx(w[1:-1], rel=1e-13)
    # k(-60) = -6.5e8 and k(50) = 4.0e8 at (0.1, 0.01)
    w = np.array([-np.inf, -1e9, -6e8, 3.9e8, 1e9, np.inf])
    z = gh_inverse(w, 0.1, 0.01)
    assert list(z[[0, 1, 4, 5]]) == [-60.0, -60.0, 50.0, 50.0]
    assert -60.0 < z[2] < z[3] < 50.0
    assert gh_transform(z[2:4], 0.1, 0.01) == pytest.approx(w[2:4], rel=1e-14)


def test_gh_inverse_shapes():
    g, h = 2.0, 0.5
    w = np.linspace(-3.0, 40.0, 12)
    z = gh_inverse(w, g, h)
    z0 = gh_inverse(w[5], g, h)
    assert z0.shape == () and z0 == z[5]
    assert np.array_equal(gh_inverse(w.reshape(3, 4), g, h), z.reshape(3, 4))
    assert gh_inverse(np.empty((2, 0)), g, h).shape == (2, 0)


@pytest.mark.parametrize("w", [-0.011368396993758172, -0.007294367106037894])
def test_gh_inverse_ends_a_cycle_on_its_bracket(w):
    # Newton cycles within a few ulp of these roots and never takes a step
    # within 4 ulp; the iterate that lands back on a bracket end stops it
    z = gh_inverse(np.array([w]), 2.0, 0.5)
    assert gh_transform(z, 2.0, 0.5)[0] == pytest.approx(w, rel=1e-15)


@pytest.mark.parametrize("g", [0.1, 2.0])
@pytest.mark.parametrize("w", [5e-324, -5e-324, 1e-320, -1e-320, 1e-310, -1e-310])
def test_gh_inverse_of_subnormal_w_is_w(w, g):
    # k(z) = z (1 + g z/2 + ...), so w is the root to double precision
    assert gh_inverse(np.array([w]), g, 0.5)[0] == w
    assert GandH(a=0.0, b=1.0, g=g, h=0.5).tail(w) == 0.5


def test_newton_raises_at_the_step_cap(monkeypatch):
    monkeypatch.setattr(models, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(PrecisionError):
        gh_inverse(np.array([0.5, 3.0]), 2.0, 0.5)
    with pytest.raises(PrecisionError):
        ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4).tail(np.array([2.0, 5.0]))


def test_exact_hall_keeps_empty_shapes():
    # gh_inverse's empty case is in test_gh_inverse_shapes
    m = ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)
    empty = np.empty((2, 0))
    assert m.tail(empty).shape == (2, 0)
    assert m.density(empty).shape == (2, 0)


# sizes about the edge between the second and the third block
@pytest.mark.parametrize("size", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
def test_gh_inverse_across_block_edges(size):
    g, h = 2.0, 0.5
    w = np.geomspace(1e-3, 1e12, size) * np.where(np.arange(size) % 2, 1.0, -1.0)
    z = gh_inverse(w, g, h)
    assert z.shape == w.shape
    assert np.allclose(gh_transform(z, g, h), w, rtol=1e-12, atol=0.0)
    # a 2-d array is solved in flat blocks, which cut across its rows
    z2 = gh_inverse(np.stack([w, -w]), g, h)
    assert np.array_equal(z2[0], z)
    assert np.allclose(gh_transform(z2[1], g, h), -w, rtol=1e-12, atol=0.0)


def test_gandh_deep_tail_has_no_cancellation():
    m = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
    # 1 - alpha is exact; it differs from 1e-10 by the rounding of alpha
    alpha = 1.0 - 1e-10
    assert m.tail(m.quantile(alpha)) == pytest.approx(1.0 - alpha, rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind + repr(m))
@settings(deadline=None)
@given(log_t=st.floats(min_value=math.log(1.5), max_value=math.log(1e15)))
@example(log_t=math.log(1e8))
@example(log_t=math.log(1e10))
@example(log_t=math.log(1e11))
@example(log_t=math.log(1e15))
def test_tail_quantile_round_trip_to_1e15(model: LossModel, log_t: float):
    """tail(U(t)) = 1/t deep into the tail: no clamp, no cancellation; so
    too for the log-tail map at log t, where the family has one."""
    t = math.exp(log_t)
    assert t * model.tail(model.tail_quantile(t)) == pytest.approx(1.0, rel=1e-12)
    if not isinstance(model, GandH):
        assert t * model.tail(model.from_log_tails(np.log(np.array(t)))) == pytest.approx(1.0, rel=1e-12)


def test_exact_hall_with_d_minus_one():
    """d = -1 puts U(1) = 0 at the support point 0, where the inverse's
    Newton iteration cannot start."""
    m = ExactHall(c=2.0, d=-1.0, xi=0.5, rho=-1.0)
    t = np.concatenate([1.0 + np.geomspace(1e-6, 1.0, 200), np.geomspace(2.0, 1e15, 200)])
    assert np.allclose(t * m.tail(m.tail_quantile(t)), 1.0, rtol=1e-12, atol=0.0)
    x = np.array([0.0, 1e-300, 1e-6, 1.0, 2.0])
    assert m.tail(x)[0] == 1.0
    assert np.all(np.isfinite(m.density(x)))


def test_gandh_mean_closed_form():
    # h < 1: E X = a + b (exp(g^2/(2(1-h))) - 1) / (g sqrt(1-h))
    m = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
    expected = (math.exp(4.0 / (2.0 * 0.5)) - 1.0) / (2.0 * math.sqrt(0.5))
    assert m.moments(math.inf) == pytest.approx(expected, rel=1e-12)


def test_gandh_truncated_mean_at_finite_x():
    # the integral of Q(u) du over [0, F(x)], taken in u = ndtr(s)
    m = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
    for x in (-1.0, 0.5, 3.0, 50.0):
        s_hi = float(m.z_of_x(x))
        ref, _ = quad(
            lambda s: float(m.quantile(ndtr(s))) * math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi),
            -20.0, s_hi, epsabs=1e-14, epsrel=1e-12, limit=200,
        )
        assert m.moments(x) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_gandh_high_h_truncated_moment_raises():
    m = GandH(a=0.0, b=1.0, g=2.0, h=1.2)
    assert m.moments(math.inf) == math.inf
    with pytest.raises(DomainError):
        m.moments(10.0)


@pytest.mark.parametrize(
    "model",
    [
        ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4),
        ExactHall(c=0.5, d=0.5, xi=1.0, rho=-0.5),
        ExactHall(c=0.5, d=0.5, xi=1.5, rho=-0.5),  # xi + rho = 1
    ],
    ids=repr,
)
def test_exact_hall_truncated_mean_at_finite_x(model):
    for x in (1.0, 3.0, 100.0):
        ref, _ = quad(
            lambda u: float(model.quantile(u)), 0.0, 1.0 - model.tail(x),
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        assert model.moments(x) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_exact_hall_tail_quantile_is_exact():
    m = ExactHall(c=2.0, d=0.5, xi=1.0, rho=-0.5)
    for t in (1.5, 10.0, 1e6):
        assert m.tail_quantile(t) == pytest.approx(2.0 * t * (1.0 + 0.5 * t ** -0.5), rel=1e-13)


@pytest.mark.parametrize(
    "model",
    [ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4), ExactHall(c=1.0, d=0.5, xi=1.0, rho=-0.5)],
    ids=repr,
)
def test_exact_hall_inverse_round_trip(model):
    # 3e-8 above the support minimum, where t = 1 + O(1e-8)
    xs = model.support_min + np.concatenate([[3e-8], np.logspace(-6.0, 12.0, 37)])
    t = 1.0 / np.asarray(model.tail(xs))
    assert np.all(t > 1.0)
    assert np.allclose(model.tail_quantile(t), xs, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("d", [-0.3, 0.3])
def test_exact_hall_tail_does_not_depend_on_its_array(d):
    # each element leaves the Newton loop on its own, so a value is the
    # same bits whatever array it is computed in
    m = ExactHall(c=1.0, d=d, xi=0.8, rho=-0.4)
    xs = m.support_min * np.logspace(1e-9, 15.0, 2001)
    singles = np.array([m.tail(float(x)) for x in xs])
    assert np.array_equal(m.tail(xs), singles)
    assert np.array_equal(m.tail(xs[1:].reshape(50, 40)), singles[1:].reshape(50, 40))
    # 40 copies span the edge of the first 2^16-element block
    assert np.array_equal(m.tail(np.tile(xs, 40)), np.tile(singles, 40))


def test_exact_hall_rejects_nonmonotone_parameters():
    with pytest.raises(DomainError):
        ExactHall(c=1.0, d=-2.0, xi=0.5, rho=-0.25)


@pytest.mark.parametrize(
    ("d", "xi", "rho"),
    [(0.5, 1e-15, -1e-15), (-0.5, 1e-15, -1e-15), (0.5, 50.0, -0.5), (0.5, 0.5, -1.5)],
)
def test_exact_hall_constructs_wherever_psi_1_is_positive(d, xi, rho):
    """xi + d (xi + rho) >= 0 decides monotonicity exactly: psi(1) = 1e-15
    is accepted, so is psi(1) = 0, where U'(t) vanishes at t = 1 alone, and
    xi = 50 constructs without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = ExactHall(c=1.0, d=d, xi=xi, rho=rho)
    assert m.support_min == 1.0 + d


def test_exact_hall_at_psi_1_zero_reads_at_the_support(monkeypatch):
    """At psi(1) = 0 the density is finite, positive and non-increasing at
    and just above the support, and inf at t = 1, all without a warning;
    the tail inverts the quantile to 1e-14 away from the support."""
    m = ExactHall(c=1.0, d=0.5, xi=0.5, rho=-1.5)
    dens = m.density(m.support_min * (1.0 + np.array([0.0, 1e-12, 1e-6, 1e-3, 1.0])))
    assert np.all(np.isfinite(dens)) and np.all(dens > 0.0) and np.all(np.diff(dens) <= 0.0)
    a = np.array([0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9])
    assert np.allclose(m.tail(m.quantile(a)), 1.0 - a, rtol=1e-14, atol=0.0)
    monkeypatch.setattr(ExactHall, "_t_of_x", lambda self, x: np.ones(np.shape(x)))
    assert m.density(m.support_min) == math.inf


@pytest.mark.parametrize("width", [1, 3, 434, BLOCK, 3 * BLOCK])
def test_blockwise_blocks_span_about_block_values(width):
    """Every element is filled once, in order, in blocks of at most
    ceil(BLOCK / width) elements: one element where width exceeds BLOCK."""
    most = -(-BLOCK // min(width, BLOCK))
    x = np.arange(2 * most + 5, dtype=float)
    sizes = []

    def fill(xb, ob):
        sizes.append(xb.size)
        np.multiply(xb, 2.0, out=ob)

    assert np.array_equal(models.blockwise(fill, x, np.empty(x.size), width), 2.0 * x)
    assert sum(sizes) == x.size and min(sizes) >= 1 and max(sizes) <= most


@pytest.mark.parametrize("kappa", [0.5, 1.0, 3.0])
def test_burr_tau_one_density_at_zero_is_kappa(kappa):
    # 0.0 ** 0.0 == 1.0 in kappa tau x^(tau - 1) (1 + x^tau)^(-kappa - 1)
    assert Burr(tau=1.0, kappa=kappa).density(0.0) == kappa
    assert Burr(tau=1.0, kappa=kappa).density(np.array([0.0, 1.0]))[0] == kappa


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="pareto", xi=0.0),
        dict(kind="pareto", xi=-1.0),
        dict(kind="burr", tau=1.0, kappa=0.0),
        dict(kind="gandh", a=0.0, b=0.0, g=1.0, h=0.5),
        dict(kind="gandh", a=0.0, b=1.0, g=1.0, h=-0.1),
        dict(kind="hall", c=1.0, d=0.0, xi=0.5, rho=-0.5),
        # psi(1) = xi + d (xi + rho) = -1.75: U falls near t = 1
        dict(kind="hall", c=1.0, d=0.9, xi=0.5, rho=-3.0),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(DomainError):
        model_from_dict(bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pareto(True),
        lambda: Pareto("0.5"),
        lambda: Burr(1.0, math.inf),
        lambda: GandH(0.0, 1.0, True, 0.5),
        lambda: GandH(math.nan, 1.0, 2.0, 0.5),
        lambda: ExactHall(1.0, 0.5, 1.0, math.nan),
    ],
)
def test_constructors_reject_non_numbers(build):
    with pytest.raises(DomainError):
        build()


def test_constructors_take_numpy_scalars():
    assert Pareto(np.float64(0.5)) == Pareto(0.5)
    assert GandH(np.int64(0), 1, np.float32(2.0), 0.5) == GandH(0.0, 1.0, 2.0, 0.5)


def test_model_dict_round_trip():
    for model in ALL_MODELS:
        d = model_to_dict(model)
        assert d["kind"] == model.kind
        assert model_from_dict(d) == model


def test_model_from_dict_rejects_unknown():
    with pytest.raises(DomainError):
        model_from_dict({"kind": "cauchy"})
    with pytest.raises(DomainError):
        model_from_dict({"xi": 0.5})
    with pytest.raises(DomainError):
        model_from_dict({"kind": "pareto", "xi": 0.5, "extra": 1.0})
    with pytest.raises(DomainError, match="must be a mapping"):
        model_from_dict([("kind", "pareto"), ("xi", 0.5)])
    with pytest.raises(DomainError, match=r"missing parameters \['kappa'\]"):
        model_from_dict({"kind": "burr", "tau": 1.0})


@pytest.mark.parametrize("xi", [1.0, 1.5])
def test_exact_hall_mean_is_infinite_from_unit_index(xi):
    assert ExactHall(c=1.0, d=0.5, xi=xi, rho=-0.5).moments(math.inf) == math.inf


def test_moments_refuses_arrays():
    """An array of any shape but 0-d is not one level: a DomainError, not
    numpy's TypeError."""
    with pytest.raises(DomainError, match="shape"):
        Pareto(xi=0.5).moments(np.array([5.0]))
    assert Pareto(xi=0.5).moments(np.array(5.0)) == Pareto(xi=0.5).moments(5.0)


@pytest.mark.parametrize(
    ("model", "xi", "rho"),
    [
        (Pareto(xi=0.5), 0.5, -math.inf),
        (Burr(tau=1.0, kappa=2.0), 0.5, -0.5),
        (Burr(tau=0.25, kappa=8.0), 0.5, -0.125),
        (ExactHall(c=1.0, d=0.5, xi=1.0, rho=-0.5), 1.0, -0.5),
        (GandH(a=0.0, b=1.0, g=2.0, h=0.5), 0.5, 0.0),
    ],
)
def test_second_order_info(model, xi, rho):
    info = model.second_order_info()
    assert info.xi == pytest.approx(xi, rel=1e-15)
    assert info.rho == rho or info.rho == pytest.approx(rho, rel=1e-15)

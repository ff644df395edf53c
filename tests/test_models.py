import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from tailconc.errors import DomainError, PoleError
from tailconc.models import (
    _GH_BLOCK,
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
def test_quantile_rejects_bad_levels(model: LossModel):
    for alpha in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(DomainError):
            model.quantile(alpha)


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
    for x in (0.5, 3.0, 50.0, 1e4):
        assert m.moments(x) == pytest.approx((x / (1.0 + x)) ** 2, rel=1e-9)
    assert m.moments(math.inf) == pytest.approx(1.0, rel=1e-12)


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


def test_auxiliary_rejects_small_t():
    with pytest.raises(DomainError):
        Burr(tau=1.0, kappa=2.0).auxiliary(1.0)


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
    z = gh_inverse(w, g, h, -1000.0, 1000.0)
    k = gh_transform(z, g, h)
    # An ulp of z moves k by |z k'(z)/k(z)| ulp, so that condition number
    # scales the bound: 1 near w = 0, about 1300 at w = 1e300.
    cond = np.maximum(1.0, np.abs(z * gh_transform_deriv(z, g, h) / k))
    assert np.all(np.abs(k - w) <= 1e-14 * np.abs(w) * cond)
    modest = np.abs(w) <= 1e6
    assert np.all(np.abs(k - w)[modest] <= 1e-14 * np.abs(w)[modest])


def test_gh_inverse_clamps_to_bracket():
    g, h = 2.0, 0.5
    # k(-1) = -0.555 and k(2) = 72.9
    w = np.array([-1e6, -1.0, -0.3, 0.5, 1e6, np.inf, -np.inf])
    z = gh_inverse(w, g, h, -1.0, 2.0)
    assert list(z[[0, 1, 4, 5, 6]]) == [-1.0, -1.0, 2.0, 2.0, -1.0]
    assert gh_transform(z[2:4], g, h) == pytest.approx([-0.3, 0.5], rel=1e-15)
    # an array floor gives each row its own lower edge
    lo = np.array([-1.0, 0.0, 1.0])[:, None]
    w2 = np.tile([-5.0, 0.3, 1e3], (3, 1))
    z2 = gh_inverse(w2, g, h, lo, 2.0)
    free = gh_inverse(w2[0], g, h, -60.0, 60.0)
    assert np.all(z2[:, 2] == 2.0)
    assert np.all(z2[:, 0] == lo[:, 0])
    assert z2[0, 1] == pytest.approx(free[1], rel=1e-15)
    assert z2[1, 1] == pytest.approx(free[1], rel=1e-15)
    assert z2[2, 1] == 1.0


def test_gh_inverse_shapes():
    g, h = 2.0, 0.5
    w = np.linspace(-3.0, 40.0, 12)
    z = gh_inverse(w, g, h, -60.0, 50.0)
    z0 = gh_inverse(w[5], g, h, -60.0, 50.0)
    assert z0.shape == () and z0 == z[5]
    assert np.array_equal(gh_inverse(w.reshape(3, 4), g, h, -60.0, 50.0), z.reshape(3, 4))
    assert gh_inverse(np.empty((2, 0)), g, h, -60.0, 50.0).shape == (2, 0)


@pytest.mark.parametrize("size", [_GH_BLOCK - 1, _GH_BLOCK, _GH_BLOCK + 1])
def test_gh_inverse_across_block_edges(size):
    g, h = 2.0, 0.5
    w = np.geomspace(1e-3, 1e12, size) * np.where(np.arange(size) % 2, 1.0, -1.0)
    z = gh_inverse(w, g, h, -60.0, 50.0)
    assert z.shape == w.shape
    assert np.allclose(gh_transform(z, g, h), w, rtol=1e-12, atol=0.0)
    # rows longer than a block are solved one row at a time
    z2 = gh_inverse(np.stack([w, -w]), g, h, -60.0, 50.0)
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
    """tail(U(t)) = 1/t deep into the tail: no clamp, no cancellation."""
    t = math.exp(log_t)
    assert t * model.tail(model.tail_quantile(t)) == pytest.approx(1.0, rel=1e-12)


def test_gandh_mean_closed_form():
    # h < 1: E X = a + b (exp(g^2/(2(1-h))) - 1) / (g sqrt(1-h))
    m = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
    expected = (math.exp(4.0 / (2.0 * 0.5)) - 1.0) / (2.0 * math.sqrt(0.5))
    assert m.moments(math.inf) == pytest.approx(expected, rel=1e-12)


def test_gandh_high_h_truncated_moment_raises():
    m = GandH(a=0.0, b=1.0, g=2.0, h=1.2)
    assert m.moments(math.inf) == math.inf
    with pytest.raises(DomainError):
        m.moments(10.0)


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


def test_exact_hall_rejects_nonmonotone_parameters():
    with pytest.raises(DomainError):
        ExactHall(c=1.0, d=-2.0, xi=0.5, rho=-0.25)


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="pareto", xi=0.0),
        dict(kind="pareto", xi=-1.0),
        dict(kind="burr", tau=1.0, kappa=0.0),
        dict(kind="gandh", a=0.0, b=0.0, g=1.0, h=0.5),
        dict(kind="gandh", a=0.0, b=1.0, g=1.0, h=-0.1),
    ],
)
def test_invalid_parameters_raise(bad):
    with pytest.raises(DomainError):
        model_from_dict(bad)


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

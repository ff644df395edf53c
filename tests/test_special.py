import math

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings

from tailconc import special
from tailconc.errors import DomainError, PoleError

# 50-digit reference values, truncated to double precision
GAMMA_02 = 4.590843711998803053205
GAMMA_75 = 1871.254305797788346476
GAMMA_NEG_25 = -0.9453087204829418812257
GAMMA_NEG_05 = -3.544907701811032054596
BETA_75_5 = 0.0003281861943862213077451
INV_CDF_0999 = 3.09023230616781354154
CDF_196 = 0.9750000000268815622992


@pytest.mark.parametrize(
    ("x", "expected"),
    [
        (0.2, GAMMA_02),
        (7.5, GAMMA_75),
        (-2.5, GAMMA_NEG_25),
        (-0.5, GAMMA_NEG_05),
        (1.0, 1.0),
        (2.0, 1.0),
        (5.0, 24.0),
    ],
)
def test_gamma_reference_values(x, expected):
    assert special.gamma(x) == pytest.approx(expected, rel=1e-13)


def test_gamma_half_is_sqrt_pi():
    assert abs(special.gamma(0.5) - math.sqrt(math.pi)) < 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles_raise(x):
    with pytest.raises(PoleError):
        special.gamma(x)


def test_gamma_matches_scipy_on_grid():
    xs = [0.05 + 0.17 * k for k in range(60)]
    worst = max(
        abs(special.gamma(x) - scipy.special.gamma(x)) / abs(scipy.special.gamma(x))
        for x in xs
    )
    assert worst < 1e-13


@pytest.mark.parametrize("x", [142.7, 150.0, 160.0, 169.9, 171.0])
def test_gamma_finite_up_to_the_overflow_point(x):
    # t^(x - 1/2) alone overflows above 142.7, where gamma is still finite
    assert special.gamma(x) == pytest.approx(scipy.special.gamma(x), rel=1e-13)


def test_gamma_overflows_to_inf():
    assert special.gamma(171.7) == math.inf


@settings(deadline=None)
@given(st.floats(min_value=0.05, max_value=30.0))
def test_gamma_recurrence(x):
    assert special.gamma(x + 1.0) == pytest.approx(x * special.gamma(x), rel=1e-11)


@settings(deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_gamma_reflection(x):
    lhs = special.gamma(x) * special.gamma(1.0 - x)
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)


def test_beta_reference_value():
    assert special.beta(7.5, 5.0) == pytest.approx(BETA_75_5, rel=1e-13)


@settings(deadline=None)
@given(
    st.floats(min_value=0.1, max_value=20.0),
    st.floats(min_value=0.1, max_value=20.0),
)
def test_beta_symmetry(a, b):
    assert special.beta(a, b) == pytest.approx(special.beta(b, a), rel=1e-12)


@settings(deadline=None)
@given(st.floats(min_value=0.1, max_value=50.0))
def test_beta_with_one(a):
    assert special.beta(a, 1.0) == pytest.approx(1.0 / a, rel=1e-12)


def test_normal_cdf_reference_values():
    assert special.normal_cdf(0.0) == 0.5
    assert special.normal_cdf(1.959963985) == pytest.approx(CDF_196, rel=1e-15)


@settings(deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_normal_cdf_symmetry(z):
    assert special.normal_cdf(-z) == pytest.approx(
        1.0 - special.normal_cdf(z), abs=1e-15
    )


def test_normal_inv_cdf_reference_value():
    assert special.normal_inv_cdf(0.999) == pytest.approx(INV_CDF_0999, rel=1e-14)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3])
def test_normal_inv_cdf_domain(p):
    with pytest.raises(DomainError):
        special.normal_inv_cdf(p)


@settings(deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0))
def test_normal_round_trip(z):
    back = special.normal_inv_cdf(special.normal_cdf(z))
    assert abs(back - z) < 1e-12


@settings(deadline=None)
@given(st.floats(min_value=3.0, max_value=6.0))
def test_normal_round_trip_deep(z):
    # rounding the CDF value to a double discards tail digits, so the
    # achievable round-trip error is half an ulp of 1 divided by the density
    back = special.normal_inv_cdf(special.normal_cdf(z))
    density = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    assert abs(back - z) < 1.2e-16 / density + 1e-12


@settings(deadline=None)
@given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_normal_inv_cdf_matches_scipy(p):
    assert special.normal_inv_cdf(p) == pytest.approx(
        scipy.special.ndtri(p), abs=1e-11, rel=1e-11
    )


def test_gamma_at_plus_inf_is_inf():
    assert special.gamma(math.inf) == math.inf


def test_gamma_at_minus_inf_raises_domain_error():
    with pytest.raises(DomainError):
        special.gamma(-math.inf)


def test_nan_raises_domain_error():
    for f in (special.gamma, special.normal_cdf, special.normal_inv_cdf):
        with pytest.raises(DomainError):
            f(math.nan)
    with pytest.raises(DomainError):
        special.beta(math.nan, 1.0)


def test_log_gamma_and_beta_at_inf():
    assert special.beta(math.inf, 1.0) == 0.0
    assert special.beta(math.inf, math.inf) == 0.0


def test_beta_at_huge_arguments_underflows_to_zero():
    assert special.beta(1e250, 1e300) == 0.0


def _agree(got: float, want: float, rel: float) -> bool:
    return got == want or abs(got - want) <= rel * abs(want)


def test_beta_matches_scipy_on_a_log_grid():
    # math's gamma product below x + y = 171, scipy's beta above it
    grid = np.logspace(-300, 3, 61)
    far = [(x, y) for x in grid for y in grid if not _agree(special.beta(x, y), scipy.special.beta(x, y), 1e-13)]
    assert far == []


@pytest.mark.parametrize(
    ("x", "y"),
    [
        (85.4, 85.5), (85.6, 85.5), (170.0, 0.99), (170.0, 1.01), (1.46, 169.5), (1.46, 169.6),
        (1e-300, 170.99), (1e-300, 171.01), (1e-308, 1.0), (6e-309, 1.46), (5e-309, 2.0), (5e-324, 0.5),
        (1e-310, 1e-310),
    ],
)
def test_beta_matches_scipy_across_the_gamma_range_and_at_subnormals(x, y):
    # either side of x + y = 171, and subnormal arguments, whose gamma overflows
    assert _agree(special.beta(x, y), float(scipy.special.beta(x, y)), 1e-13)


@pytest.mark.parametrize(("x", "expected"), [(171.7, math.inf), (1e300, math.inf), (5e-324, math.inf),
                                             (1e-310, math.inf), (-1e-310, -math.inf)])
def test_gamma_overflow_is_inf_of_scipys_sign(x, expected):
    assert special.gamma(x) == expected == scipy.special.gamma(x)


def test_beta_near_the_origin():
    # B(x, y) ~ 1/x + 1/y as x, y -> 0
    assert special.beta(1e-300, 1e-300) == pytest.approx(2e300, rel=1e-13)


@pytest.mark.parametrize("arg", [3, 0.25, np.float64(0.25)], ids=["int", "float", "float64"])
def test_results_are_builtin_floats(arg):
    p = arg if 0 < arg < 1 else 0.25  # no int lies in (0, 1)
    results = [
        special.gamma(arg),
        special.beta(arg, arg),
        special.normal_cdf(arg),
        special.normal_inv_cdf(p),
    ]
    assert all(type(r) is float for r in results)


@pytest.mark.parametrize(
    "call",
    [
        lambda: special.gamma(True),
        lambda: special.gamma("2"),
        lambda: special.gamma(np.array([1.0, 2.0])),
        lambda: special.beta(True, "2"),
        lambda: special.beta(2.0, "2"),
        lambda: special.beta(np.array([1.0, 2.0]), 1.0),
        lambda: special.normal_cdf("0"),
        lambda: special.normal_cdf(np.array([0.0, 1.0])),
        lambda: special.normal_inv_cdf("0.5"),
        lambda: special.normal_inv_cdf(np.array([0.5])),
    ],
    ids=["gamma-bool", "gamma-str", "gamma-array", "beta-bool", "beta-str", "beta-array",
         "cdf-str", "cdf-array", "inv-str", "inv-array"],
)
def test_non_numbers_raise_domain_error(call):
    # the package's one input policy: bool, strings and arrays are refused
    with pytest.raises(DomainError):
        call()


# ----- the array normal law, against mpmath at 40 digits and scipy -----

TINY = np.finfo(float).tiny
# x across [-38, 38], denser toward 0 on both sides, ends included
NDTR_GRID = np.unique(np.concatenate([np.linspace(-38.0, 38.0, 1521), np.outer([-1.0, 1.0], np.geomspace(1e-8, 38.0, 400)).ravel()]))
# p on a log grid from 1e-300 to 1/2, and its mirror 1 - geomspace(1e-16, 1/2)
NDTRI_GRID = np.concatenate([np.geomspace(1e-300, 0.5, 601), 1.0 - np.geomspace(1e-16, 0.5, 301)[:-1]])


def _mp_ndtr(x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.ncdf(x))


def _mp_ndtri(p: float) -> float:
    """The normal quantile at 40 digits: two Newton steps on mpmath's CDF
    from scipy's value (itself good to 1e-15), in the smaller tail."""
    lo = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    with mpmath.workdps(40):
        z = mpmath.mpf(float(scipy.special.ndtri(lo)))
        for _ in range(2):
            z -= (mpmath.ncdf(z) - lo) / mpmath.npdf(z)
        return float(z if p < 0.5 else -z)


def test_ndtr_matches_mpmath():
    # 5e-13 relative wherever the result is a normal double (rounding x^2/2
    # near |x| = 38 alone costs up to 6e-14); below, the gradual underflow
    # keeps that bound plus one subnormal step
    got = special.ndtr(NDTR_GRID)
    want = np.array([_mp_ndtr(x) for x in NDTR_GRID])
    normal = want >= TINY
    assert normal.sum() > 2000 and (~normal).any()
    assert np.all(np.abs(got - want) <= 5e-13 * want + np.where(normal, 0.0, 2.0**-1074))
    assert special.ndtr(-38.0) == pytest.approx(_mp_ndtr(-38.0), rel=1e-7)  # 2.9e-316, subnormal
    assert 0.0 < special.ndtr(-38.0) < TINY


def test_ndtr_underflows_monotonically_to_zero():
    x = np.linspace(-40.0, -37.0, 30001)
    got = special.ndtr(x)
    assert np.all(np.diff(got) >= 0.0)
    assert got[0] == 0.0 and special.ndtr(-38.4) > 0.0


def test_ndtri_matches_mpmath_and_scipy():
    got = special.ndtri(NDTRI_GRID)
    for want in (scipy.special.ndtri(NDTRI_GRID), np.array([_mp_ndtri(p) for p in NDTRI_GRID])):
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
    assert special.ndtri(1e-300) == pytest.approx(_mp_ndtri(1e-300), rel=2e-15)


def test_normal_law_edges_are_scipys():
    x = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, 5e-324, -1e300, 1e300])
    np.testing.assert_array_equal(special.ndtr(x), scipy.special.ndtr(x))
    p = np.array([0.0, 1.0, np.nan, -np.inf, np.inf, -1e-300, 1.0 + 2.0**-52, 0.5])
    np.testing.assert_array_equal(special.ndtri(p), scipy.special.ndtri(p))
    assert special.ndtri(0.0) == -math.inf and special.ndtri(1.0) == math.inf


def test_ndtri_out_may_alias_its_input():
    want = special.ndtri(NDTRI_GRID)
    buf = NDTRI_GRID.copy()
    assert special.ndtri(buf, out=buf) is buf
    assert np.array_equal(buf, want)
    other = np.empty_like(NDTRI_GRID)
    assert special.ndtri(NDTRI_GRID, out=other) is other and np.array_equal(other, want)


def test_scalar_normal_law_is_the_array_path_bit_for_bit():
    assert [special.normal_cdf(x) for x in NDTR_GRID] == special.ndtr(NDTR_GRID).tolist()
    levels = NDTRI_GRID[(NDTRI_GRID > 0.0) & (NDTRI_GRID < 1.0)]
    assert [special.normal_inv_cdf(p) for p in levels] == special.ndtri(levels).tolist()


def test_erfc_chebyshev_coefficients_refit():
    """The frozen erfc coefficients are this fit: c_k of
    f(t) = log(erfc(z)/t) + z^2, z = 2/t - 2, on the 56 Chebyshev nodes
    of y = 2t - 1, at 40 digits; then c_0 so that the series sums to 0 at
    t = 1 (ty = 2) in double precision, as Clenshaw runs it there."""
    ncof, nodes = len(special._ERFC_CHEB), 56
    with mpmath.workdps(40):
        angles = [mpmath.pi * (j + mpmath.mpf(0.5)) / nodes for j in range(nodes)]
        f = []
        for a in angles:
            t = (mpmath.cos(a) + 1) / 2
            z = 2 / t - 2
            f.append(mpmath.log(mpmath.erfc(z) / t) + z * z)
        cof = [float(2 * mpmath.fsum(fj * mpmath.cos(k * a) for fj, a in zip(f, angles)) / nodes) for k in range(ncof)]
    d = dd = 0.0
    for c in cof[:0:-1]:
        d, dd = 2.0 * d - dd + c, d
    cof[0] = 2.0 * dd - 2.0 * d
    assert tuple(cof) == special._ERFC_CHEB
    assert special.ndtr(0.0) == 0.5

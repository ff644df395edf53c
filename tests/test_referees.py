"""Exact referees for the convolution oracle: laws whose sums have closed forms.

- Lévy(c), the one-sided stable law of index 1/2: tail erf(sqrt(c / 2x)),
  quantile c / (2 erfcinv(alpha)^2). A sum of n iid Lévy(c) losses is
  Lévy(n^2 c), so the sum's quantile is n^2 Q(alpha) and C(alpha) = n
  exactly (Nolan 2020, "Univariate Stable Distributions", Springer).
- Pareto(1) at n = 2: P(X + Y > s) = 2/s + 2 log(s - 1)/s^2 for s >= 2, by
  partial fractions (Ramsay 2006, Commun. Stat. Theory Methods).

n = 2 is held to the grid tolerance, n >= 3 to the pairwise tier; a case
the oracle misses today is a strict xfail naming the item that mends it.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from scipy.special import erf, erfcinv, erfinv

from tailconc.approx import RegimeTag, second_order_approx
from tailconc.convolution import GridSpec, convolve_tail, oracle_quantiles
from tailconc.models import LossModel, Pareto, SecondOrderInfo

# the CLI's default levels: 40 from 0.95 to 0.9997, geometric in 1 - alpha
CLI_LEVELS = 1.0 - np.geomspace(0.05, 3e-4, 40)
TOL = GridSpec().certify_threshold(2)
PAIRWISE_TOL = GridSpec().certify_threshold(3)


@dataclass(frozen=True, slots=True)
class Levy(LossModel):
    """Lévy(c) losses on [0, inf): U(t) = 2c t^2/pi (1 - pi/(6 t^2) + ...),
    so xi = 2 and rho = -2, the degenerate fast case."""

    c: float
    kind: ClassVar[str] = "levy"

    @property
    def support_min(self) -> float:
        return 0.0

    def _quantile(self, a, out=None):
        with np.errstate(divide="ignore"):  # Q(1) = inf
            return np.divide(0.5 * self.c, erfcinv(a) ** 2, out=out)

    def _tail(self, x):
        with np.errstate(divide="ignore"):  # the tail at 0 is erf(inf) = 1
            return erf(np.sqrt(self.c / (2.0 * x)))

    def _density(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 at x = 0
            d = np.sqrt(self.c / (2.0 * math.pi)) * x**-1.5 * np.exp(-self.c / (2.0 * x))
        return np.where(x > 0.0, d, 0.0)

    def _tail_quantile(self, t):
        return 0.5 * self.c / erfinv(1.0 / t) ** 2

    def second_order_info(self) -> SecondOrderInfo:
        return SecondOrderInfo(
            xi=2.0, rho=-2.0, hall_c=2.0 * self.c / math.pi, hall_d=-math.pi / 6.0, mean_finite=False
        )


LEVY = Levy(c=1.0)
PARETO1 = Pareto(xi=1.0)


def pareto1_two_fold_tail(s):
    return 2.0 / s + 2.0 * np.log(s - 1.0) / s**2


def test_levy_fixture_is_its_closed_form():
    """The fixture's quantile, tail and tail quantile agree, and its
    density is the tail's slope."""
    x = LEVY.quantile(CLI_LEVELS)
    assert np.allclose(LEVY.tail(x), 1.0 - CLI_LEVELS, rtol=1e-13, atol=0.0)
    assert np.allclose(LEVY.tail_quantile(1.0 / (1.0 - CLI_LEVELS)), x, rtol=1e-12, atol=0.0)
    h = 1e-6 * x
    slope = (LEVY.tail(x - h) - LEVY.tail(x + h)) / (2.0 * h)
    assert np.allclose(LEVY.density(x), slope, rtol=1e-8, atol=0.0)


def test_levy_approximation_is_exact():
    """Lévy is the degenerate fast case: c2 = c1 = n exactly."""
    for n in (2, 3, 4):
        for alpha in (0.95, 0.99, 0.9997):
            got = second_order_approx(LEVY, alpha, n)
            assert got.c1 == got.c2 == n
            assert got.degenerate
            assert got.regime.tag is RegimeTag.DEGENERATE


def test_levy_two_fold_quantiles():
    """n = 2 reads no interpolant: its quantiles are n^2 Q(alpha) to the
    grid tolerance (1.7e-13 measured), and its scan nodes are the sum's
    tail F_bar(x / 4) (2.4e-14 at worst)."""
    grid = convolve_tail(LEVY, 2)
    q = oracle_quantiles(grid, CLI_LEVELS)
    assert np.allclose(q, 4.0 * LEVY.quantile(CLI_LEVELS), rtol=TOL, atol=0.0)
    assert np.allclose(grid.g_tail, LEVY.tail(grid.x / 4.0), rtol=TOL, atol=0.0)


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(
            n,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 18: the linear head spacing misses the Lévy body; "
                f"quantile error {err} at 0.95 against the 1e-6 pairwise tier",
            ),
        )
        for n, err in ((3, "1.6e-5"), (4, "2.0e-5"))
    ],
)
def test_levy_pairwise_quantiles(n):
    grid = convolve_tail(LEVY, n)
    q = oracle_quantiles(grid, CLI_LEVELS)
    assert np.allclose(q, n * n * LEVY.quantile(CLI_LEVELS), rtol=PAIRWISE_TOL, atol=0.0)


def test_pareto1_two_fold_tails():
    """The fresh tail at each CLI-level quantile (1.2e-15 off measured) and
    every scan node match the closed form to the grid tolerance."""
    grid = convolve_tail(PARETO1, 2)
    q = oracle_quantiles(grid, CLI_LEVELS)
    assert np.allclose(grid.fresh_tail(q), pareto1_two_fold_tail(q), rtol=TOL, atol=0.0)
    live = grid.x > 2.0  # the sum's support starts at 2, where the tail is 1
    assert np.allclose(grid.g_tail[live], pareto1_two_fold_tail(grid.x[live]), rtol=TOL, atol=0.0)

import dataclasses
import math
import sys
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tailconc.approx import RegimeTag
from tailconc.errors import DomainError, ResourceLimitError
from tailconc.models import BLOCK, Burr, ExactHall, GandH, Pareto
from tailconc.montecarlo import (
    DenominatorMode,
    SimulationConfig,
    _order_stat_quantiles,
    _row_sums,
    empirical_concentration,
    empirical_quantile,
)

PARETO05 = Pareto(xi=0.5)
GANDH = GandH(a=0.0, b=1.0, g=2.0, h=0.5)
BURR = Burr(tau=0.25, kappa=8.0)
HALL = ExactHall(c=1.0, d=-0.3, xi=0.8, rho=-0.4)

BASE = dict(n=2, samples=100_000, alpha_grid=(0.9, 0.99), batches=10, seed=7)


def make_config(**overrides):
    kw = dict(BASE)
    kw.update(overrides)
    return SimulationConfig(**kw)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n=1),
        dict(n=True),
        dict(n=2.5),
        dict(samples=0),
        dict(samples=-5),
        dict(samples=100_001),  # batches must divide samples
        dict(batches=0),
        dict(batches=3),
        dict(seed=-1),
        dict(alpha_grid=()),
        dict(alpha_grid=(0.0, 0.9)),
        dict(alpha_grid=(0.9, 0.9)),
        dict(alpha_grid=(0.99, 0.9)),
        dict(alpha_grid=(0.9, 1.0)),
        dict(alpha_grid=(0.9, math.nan)),
        dict(alpha_grid=("a",)),
        dict(max_bytes=0),
        dict(denominator="bogus"),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(DomainError):
        make_config(**overrides)


def test_config_coerces_denominator_string():
    cfg = make_config(denominator="exact")
    assert cfg.denominator is DenominatorMode.EXACT
    with pytest.raises(ValueError):
        make_config(denominator="bogus")


def test_config_normalizes_alpha_grid():
    cfg = make_config(alpha_grid=[0.5, 0.75])
    assert cfg.alpha_grid == (0.5, 0.75)
    assert isinstance(cfg.alpha_grid, tuple)


def test_empirical_quantile_order_statistic():
    values = list(range(1, 11))
    assert empirical_quantile(values, 0.05) == 1.0
    assert empirical_quantile(values, 0.10) == 1.0
    assert empirical_quantile(values, 0.11) == 2.0
    assert empirical_quantile(values, 0.50) == 5.0
    assert empirical_quantile(values, 0.91) == 10.0
    assert empirical_quantile(values, 0.999) == 10.0


def test_empirical_quantile_validation():
    with pytest.raises(DomainError):
        empirical_quantile([], 0.5)
    with pytest.raises(DomainError):
        empirical_quantile([1.0], 0.0)
    with pytest.raises(DomainError):
        empirical_quantile([1.0], 1.0)


@pytest.mark.parametrize("values", [[1.0, math.nan, 3.0], [True, False, True], ["1", "2"]])
def test_empirical_quantile_follows_the_input_policy(values):
    """NaN, bool and strings are rejected, as by every other array argument."""
    with pytest.raises(DomainError):
        empirical_quantile(values, 0.5)


@settings(deadline=None)
@given(
    values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
    alpha=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_empirical_quantile_is_element(values, alpha):
    q = empirical_quantile(values, alpha)
    assert q in values


@settings(deadline=None)
@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=60))
def test_empirical_quantile_monotone_in_alpha(values):
    qs = [empirical_quantile(values, a) for a in (0.1, 0.4, 0.7, 0.95)]
    assert all(a <= b for a, b in zip(qs, qs[1:]))


@settings(deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=300),
        elements=st.integers(min_value=-4, max_value=4).map(float)
        | st.floats(min_value=-1e6, max_value=1e6),
    ),
    alphas=st.lists(st.floats(min_value=1e-6, max_value=1.0 - 1e-6), min_size=1, max_size=45),
)
def test_order_stat_quantiles_match_one_partition(values, alphas):
    """The in-place, tail-first selection returns the same order statistics
    as one multi-rank np.partition, for ties, any level order and size 1."""
    alphas = np.array(alphas)
    ks = np.clip(np.ceil(alphas * values.size).astype(np.int64), 1, values.size) - 1
    expected = np.partition(values, ks)[ks]
    assert np.array_equal(_order_stat_quantiles(values.copy(), alphas), expected)


def test_empirical_quantile_leaves_its_input_unchanged():
    x = np.random.default_rng(4).random((301, 3))
    for values in (x, x.T, x[:, 1]):
        before = values.copy()
        empirical_quantile(values, 0.3)
        assert np.array_equal(values, before)


@pytest.mark.parametrize("n", range(2, 10))
def test_row_sums_match_sum_bit_for_bit(n):
    """Adding columns gives numpy's row sums exactly below 8 columns, on
    mixed-sign data spanning many magnitudes; from 8 on ``sum`` writes
    into the buffer. Every entry of the buffer is overwritten."""
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((100_001, n)) * np.exp(5.0 * rng.standard_normal((100_001, n)))
    out = np.full(len(matrix), np.nan)
    assert _row_sums(matrix, out) is out
    assert np.array_equal(out, matrix.sum(axis=1))


def test_empirical_quantile_recovers_model_quantile():
    x = PARETO05.sample(11, 400_000)
    for alpha in (0.5, 0.9, 0.99):
        assert empirical_quantile(x, alpha) == pytest.approx(
            float(PARETO05.quantile(alpha)), rel=0.02
        )


def test_worker_count_does_not_change_results():
    cfg = make_config()
    one = empirical_concentration(PARETO05, cfg, workers=1)
    four = empirical_concentration(PARETO05, cfg, workers=4)
    assert np.array_equal(one.c_emp, four.c_emp)
    assert np.array_equal(one.band_lo, four.band_lo)
    assert np.array_equal(one.band_hi, four.band_hi)


def test_same_seed_reproduces_different_seed_moves():
    cfg = make_config()
    a = empirical_concentration(PARETO05, cfg)
    b = empirical_concentration(PARETO05, cfg)
    c = empirical_concentration(PARETO05, make_config(seed=8))
    assert np.array_equal(a.c_emp, b.c_emp)
    assert not np.array_equal(a.c_emp, c.c_emp)


def test_workers_validation():
    cfg = make_config()
    for bad in (0, -1, 1.5, True):
        with pytest.raises(DomainError):
            empirical_concentration(PARETO05, cfg, workers=bad)


def test_numpy_integers_are_integers():
    want = empirical_concentration(PARETO05, make_config(), workers=2)
    cfg = make_config(n=np.int64(2), samples=np.int64(100_000), batches=np.int32(10))
    got = empirical_concentration(PARETO05, cfg, workers=np.int64(2))
    assert cfg == make_config() and type(cfg.n) is int
    assert np.array_equal(got.c_emp, want.c_emp)


def test_band_contains_estimate_small_batches():
    curve = empirical_concentration(PARETO05, make_config())
    assert np.all(curve.band_lo <= curve.c_emp)
    assert np.all(curve.c_emp <= curve.band_hi)
    assert np.all(curve.band_lo < curve.band_hi)


def test_band_contains_estimate_many_batches():
    cfg = make_config(samples=200_000, batches=50)
    curve = empirical_concentration(PARETO05, cfg)
    assert np.all(curve.band_lo <= curve.c_emp)
    assert np.all(curve.c_emp <= curve.band_hi)


def test_band_width_has_one_rule_for_every_batch_count():
    """The band is c_emp +- 1.96 s / sqrt(B) at every batch count B, so 40
    batches of 25000 sums give about the half-width of 39, not the spread
    of a single batch (measured: 0.0022 at both; the 2.5/97.5 batch
    percentiles gave 0.0094 below and 0.0123 above at 40)."""

    def half_width(batches):
        cfg = SimulationConfig(n=3, samples=25_000 * batches, alpha_grid=(0.95,), batches=batches, seed=3)
        curve = empirical_concentration(PARETO05, cfg)
        return float(curve.band_hi[0] - curve.c_emp[0])

    assert half_width(40) <= 1.5 * half_width(39)


def test_single_batch_degenerate_band():
    cfg = make_config(samples=10_000, batches=1)
    curve = empirical_concentration(PARETO05, cfg)
    assert np.array_equal(curve.band_lo, curve.c_emp)
    assert np.array_equal(curve.band_hi, curve.c_emp)


def test_exact_denominator_mode():
    cfg_exact = make_config(denominator=DenominatorMode.EXACT)
    cfg_emp = make_config()
    exact = empirical_concentration(PARETO05, cfg_exact)
    emp = empirical_concentration(PARETO05, cfg_emp)
    # same numerator stream, different denominators
    assert not np.array_equal(exact.c_emp, emp.c_emp)
    # exact-denominator estimate at alpha = 0.9 should sit near the oracle
    # value 0.96316
    assert exact.c_emp[0] == pytest.approx(0.9632, abs=0.02)


@pytest.mark.parametrize("model", [PARETO05, BURR, GANDH, HALL], ids=lambda m: m.kind)
def test_empirical_denominator_reads_the_batch_own_losses(model):
    """One batch rebuilt by hand: the order statistics of the row sums over
    n times those of the same matrix's n m entries, bit for bit. Its 90 000
    losses are mapped in blocks, the last one partial."""
    cfg = make_config(n=3, samples=30_000, batches=1, alpha_grid=(0.5, 0.9, 0.99, 0.9997))
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    matrix = model.draw(np.random.Generator(np.random.PCG64(seq)), (cfg.samples, cfg.n))

    def order_stats(values):
        ks = np.ceil(np.asarray(cfg.alpha_grid) * values.size).astype(np.int64) - 1
        return np.sort(values, axis=None)[ks]

    want = order_stats(matrix.sum(axis=1)) / (cfg.n * order_stats(matrix))
    assert np.array_equal(empirical_concentration(model, cfg).c_emp, want)


def test_estimate_near_oracle_value():
    # two-fold xi = 1/2 concentration: 0.96316 at 0.9, 0.80693 at 0.99
    curve = empirical_concentration(PARETO05, make_config(samples=400_000, batches=20))
    assert curve.c_emp[0] == pytest.approx(0.9632, abs=0.02)
    assert curve.c_emp[1] == pytest.approx(0.8069, abs=0.03)


def test_resource_limit_guard():
    cfg = make_config(max_bytes=1024)
    with pytest.raises(ResourceLimitError):
        empirical_concentration(PARETO05, cfg)


def test_resource_limit_counts_concurrency():
    # one worker fits, four concurrent workers do not: a Pareto worker holds
    # one (m, 2) block of losses, the m sums, at most one map block and
    # 64 KiB of small arrays
    m = BASE["samples"] // BASE["batches"]
    per_worker = 8 * m * (2 + 1) + (1 << 16)
    cfg = make_config(max_bytes=2 * per_worker)
    empirical_concentration(PARETO05, cfg, workers=1)
    with pytest.raises(ResourceLimitError):
        empirical_concentration(PARETO05, cfg, workers=4)


def test_resource_limit_counts_the_batch_count(monkeypatch):
    """200 000 one-row batches: each worker's buffers fit in 70 kB, but the
    ratios of that many batches do not, so the run is refused before any
    batch draws."""
    monkeypatch.setattr(Pareto, "variates", lambda *args, **kwargs: pytest.fail("drew"))
    cfg = SimulationConfig(n=2, samples=200_000, batches=200_000, alpha_grid=(0.9,), max_bytes=70_000)
    with pytest.raises(ResourceLimitError):
        empirical_concentration(PARETO05, cfg)


def test_batch_seeds_are_the_spawned_children():
    """Batch b's generator is seeded by the b-th child of the root seed."""
    cfg = make_config(samples=30_000, batches=3, alpha_grid=(0.5, 0.99))
    ratios = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.batches):
        losses = PARETO05.draw(np.random.Generator(np.random.PCG64(child)), (10_000, cfg.n))
        num = _order_stat_quantiles(losses.sum(axis=1), np.asarray(cfg.alpha_grid))
        ratios.append(num / (cfg.n * _order_stat_quantiles(losses.reshape(-1), np.asarray(cfg.alpha_grid))))
    assert np.array_equal(empirical_concentration(PARETO05, cfg).c_emp, np.mean(ratios, axis=0))


def traced_peak(model, cfg):
    """Peak traced allocation of one run, after a first run has filled
    first-call caches, which are not the batch's."""
    empirical_concentration(model, cfg)
    tracemalloc.start()
    try:
        empirical_concentration(model, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", [PARETO05, BURR, GANDH, HALL], ids=lambda m: m.kind)
@pytest.mark.parametrize("denominator", list(DenominatorMode), ids=lambda d: d.value)
def test_resource_estimate_bounds_a_traced_batch(model, denominator):
    """The guard's estimate is at least one batch's traced peak: a cap one
    byte below that peak refuses the run."""
    cfg = make_config(n=3, batches=1, denominator=denominator)
    peak = traced_peak(model, cfg)
    with pytest.raises(ResourceLimitError):
        empirical_concentration(model, dataclasses.replace(cfg, max_bytes=peak - 1))


@pytest.mark.parametrize(
    "model, temporaries",
    [(PARETO05, 0), (BURR, 0), (GANDH, 1), (HALL, 1)],
    ids=["pareto", "burr", "gandh", "hall"],
)
@pytest.mark.parametrize("denominator", list(DenominatorMode), ids=lambda d: d.value)
def test_batch_allocates_only_its_worker_buffers(model, temporaries, denominator):
    """A batch draws, maps and sums into its worker's buffers: one (m, n)
    block of losses, the m sums, one map block's temporary where the
    family's map needs one, and at most 64 KiB else. Fresh variates, losses
    and whole-array ufunc temporaries would add one (m, n) block each."""
    cfg = make_config(n=3, batches=1, denominator=denominator)
    m = cfg.samples
    bound = 8 * (m * (cfg.n + 1) + temporaries * BLOCK) + (1 << 16)
    assert traced_peak(model, cfg) <= bound


@pytest.mark.parametrize("model", [PARETO05, GANDH], ids=lambda m: m.kind)
@pytest.mark.parametrize("denominator", list(DenominatorMode), ids=lambda d: d.value)
def test_strided_workers_match_one_worker(model, denominator):
    """Worker w runs batches w, w + W, ...; 7 batches over 3 workers leave
    uneven strides, and 8 workers run only 7. Every count gives the bits of
    one worker, also with a thread switch every microsecond."""
    cfg = make_config(samples=70_000, batches=7, denominator=denominator)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        curves = [empirical_concentration(model, cfg, workers=w) for w in (1, 3, 8)]
    finally:
        sys.setswitchinterval(interval)
    for curve in curves[1:]:
        for field in ("c_emp", "band_lo", "band_hi"):
            assert np.array_equal(getattr(curve, field), getattr(curves[0], field))


def test_curve_reports_approximation_columns():
    cfg = SimulationConfig(
        n=2, samples=20_000, alpha_grid=(0.3, 0.9, 0.99), batches=4, seed=3
    )
    curve = empirical_concentration(GANDH, cfg)
    assert curve.c1 == pytest.approx(2.0 ** -0.5, rel=1e-14)
    assert curve.regime.tag is RegimeTag.SLOW
    assert not curve.degenerate
    # the g-and-h closed form needs alpha > 1/2: NaN below, finite above
    assert math.isnan(curve.c2[0])
    assert np.all(np.isfinite(curve.c2[1:]))


def test_curve_degenerate_flag():
    cfg = SimulationConfig(n=2, samples=10_000, alpha_grid=(0.9,), batches=2, seed=3)
    curve = empirical_concentration(Pareto(xi=2.0), cfg)
    assert curve.degenerate
    assert curve.regime.tag is RegimeTag.DEGENERATE
    assert curve.c2[0] == curve.c1


def test_heavier_tail_concentrates_less():
    """At equal levels the infinite-mean model shows a higher ratio."""
    cfg = make_config(samples=200_000, batches=10, alpha_grid=(0.99,))
    light = empirical_concentration(PARETO05, cfg)
    heavy = empirical_concentration(Pareto(xi=1.25), cfg)
    assert heavy.c_emp[0] > light.c_emp[0]

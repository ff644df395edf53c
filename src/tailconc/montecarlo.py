"""Monte Carlo estimation of the concentration ratio.

Batched common-random-number design: each batch draws an (m, n) loss matrix
from its own deterministic substream, takes row sums, and estimates the
ratio of the sum's empirical quantile to n times the single-loss quantile
(either the model's exact quantile or the empirical quantile of the batch's
own n*m losses). One draw serves both: the single-loss order statistics are
selected in place on the flattened matrix after its row sums are taken, so
numerator and denominator are positively correlated and the ratio's batch
spread falls. Order statistics are selected in place, tail first. Batch
means give the point estimate; batch spread gives the uncertainty band.

W = min(workers, batches) threads run; worker w takes batches w, w + W,
w + 2W, ... and allocates its buffers once: the (m, n) block that each
batch's variates are drawn into and mapped to losses in place, in flat
blocks of ``models.BLOCK`` (:func:`models.blockwise`) so a map's
temporaries stay in cache, and the m row sums. Results are reproducible
bit-for-bit for a fixed configuration regardless of worker count, because
every batch owns an independent substream and writes its ratios into the
row of its batch index.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import approx
from .errors import DomainError, ResourceLimitError, check_array, check_int, check_levels, check_real
from .models import BLOCK, LossModel, blockwise

__all__ = [
    "DenominatorMode",
    "SimulationConfig",
    "ConcentrationCurve",
    "empirical_quantile",
    "empirical_concentration",
]


_BATCH_OVERHEAD = 1 << 16  # bytes of a batch's small arrays and generator state
_RATIO_COPIES = 3  # the (batches, levels) ratios and two temporaries of their statistics


class DenominatorMode(str, enum.Enum):
    """How the single-loss quantile in the denominator is obtained."""

    EMPIRICAL = "empirical"
    EXACT = "exact"


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Configuration of one Monte Carlo run.

    ``samples`` is the total number of sum observations, split evenly over
    ``batches`` (must divide). ``alpha_grid`` is a strictly increasing tuple
    of levels in (0, 1). ``max_bytes`` caps the estimated peak allocation:
    the buffers of min(workers, batches) concurrent workers, each about
    8 (m (n + 1) + min(2^15, m n)) bytes for m = samples / batches, plus
    what grows with the batch count, the (batches, levels) ratios and the
    copies their summary statistics make; exceeding it raises
    :class:`ResourceLimitError` rather than thrashing.
    """

    n: int
    samples: int
    alpha_grid: tuple
    batches: int = 20
    seed: int = 42
    denominator: DenominatorMode = DenominatorMode.EMPIRICAL
    max_bytes: int = 4 << 30

    def __post_init__(self):
        for f, lo in {"n": 2, "samples": 1, "batches": 1, "seed": 0, "max_bytes": 1}.items():
            object.__setattr__(self, f, check_int(f"SimulationConfig: {f}", getattr(self, f), lo))
        if self.samples % self.batches != 0:
            raise DomainError(
                f"SimulationConfig: batches ({self.batches}) must divide samples ({self.samples})"
            )
        try:
            mode = DenominatorMode(self.denominator)
        except ValueError:
            raise DomainError(f"SimulationConfig: bad denominator {self.denominator!r}") from None
        object.__setattr__(self, "denominator", mode)
        grid = check_levels("SimulationConfig: alpha_grid", self.alpha_grid)
        if grid.ndim != 1 or not grid.size:
            raise DomainError("SimulationConfig: alpha_grid must be a non-empty sequence")
        if np.any(np.diff(grid) <= 0):
            raise DomainError("SimulationConfig: alpha_grid must be strictly increasing")
        object.__setattr__(self, "alpha_grid", tuple(grid.tolist()))


@dataclass(frozen=True, eq=False)
class ConcentrationCurve:
    """Result of a Monte Carlo run over a level grid.

    ``c_emp`` is the batch-mean estimate with the normal-theory band
    [band_lo, band_hi] = c_emp +- 1.96 s / sqrt(B), s the standard deviation
    of the B batch ratios; the band has zero width when B = 1.
    ``c1`` is the limiting ratio, ``c2`` the second-order approximation per
    level (NaN where undefined).
    """

    alphas: np.ndarray
    c_emp: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    c1: float
    c2: np.ndarray
    regime: approx.Regime
    degenerate: bool


def empirical_quantile(values, alpha: float) -> float:
    """Order-statistic quantile: the ceil(alpha*N)-th smallest value."""
    v = check_array("empirical_quantile: values", values, -math.inf).flatten()
    if v.size == 0:
        raise DomainError("empirical_quantile: empty sample")
    alpha = check_real("empirical_quantile: alpha", alpha, 0.0, 1.0)
    return float(_order_stat_quantiles(v, np.array([alpha]))[0])


def _order_stat_quantiles(values: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The ceil(alpha*N)-th smallest of a 1-d ``values`` at each level.

    Reorders ``values`` in place: one selection at the lowest level's rank,
    then a multi-rank selection of only the slice above it, which holds
    every higher order statistic."""
    size = values.size
    ks = np.ceil(alphas * size).astype(np.int64)
    np.clip(ks, 1, size, out=ks)
    ks -= 1
    low = int(ks.min())
    values.partition(low)
    values[low:].partition(ks - low)
    return values[ks]


def _row_sums(matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``matrix.sum(axis=1)`` into ``out``, bit for bit. numpy adds a row of
    fewer than 8 entries in order, so adding whole columns onto the first
    gives the same bits at a fraction of the cost; longer rows are summed in
    8-way partial sums, so those keep ``sum``."""
    if matrix.shape[1] >= 8:
        return matrix.sum(axis=1, out=out)
    np.copyto(out, matrix[:, 0])
    for j in range(1, matrix.shape[1]):
        out += matrix[:, j]
    return out


def empirical_concentration(
    model: LossModel,
    config: SimulationConfig,
    workers: int = 1,
    closed_form: bool = False,
) -> ConcentrationCurve:
    """Estimate the concentration ratio over the configured level grid."""
    workers = check_int("empirical_concentration: workers", workers, 1)
    n = config.n
    m = config.samples // config.batches
    concurrent = min(workers, config.batches)
    alphas = np.asarray(config.alpha_grid, dtype=float)
    # one worker's buffers: the (m, n) losses and the m sums, plus one map
    # block's temporary and the small per-batch arrays
    per_worker = 8 * (m * (n + 1) + min(BLOCK, m * n)) + _BATCH_OVERHEAD
    per_run = _RATIO_COPIES * 8 * config.batches * alphas.size
    if per_worker * concurrent + per_run > config.max_bytes:
        raise ResourceLimitError(
            f"a worker drawing {m} sums of {n} losses needs ~{per_worker} bytes "
            f"({concurrent} concurrently), and {config.batches} batches' ratios "
            f"~{per_run}; raise or lower batches, lower workers, or raise "
            f"SimulationConfig.max_bytes (currently {config.max_bytes})"
        )
    exact_den = None
    if config.denominator is DenominatorMode.EXACT:
        exact_den = n * np.atleast_1d(np.asarray(model.quantile(alphas)))
    ratios = np.empty((config.batches, alphas.size))

    def run_worker(w: int) -> None:
        losses = np.empty((m, n))
        sums = np.empty(m)
        for b in range(w, config.batches, concurrent):
            # the b-th child of SeedSequence(seed), made when its batch runs
            seq = np.random.SeedSequence(config.seed, spawn_key=(b,))
            rng = np.random.Generator(np.random.PCG64(seq))
            blockwise(model.from_variates, model.variates(rng, (m, n), out=losses), losses)
            num = _order_stat_quantiles(_row_sums(losses, sums), alphas)
            if exact_den is None:
                # the batch's own n m losses, selected in place on a view
                ratios[b] = num / (n * _order_stat_quantiles(losses.reshape(-1), alphas))
            else:
                ratios[b] = num / exact_den

    with ThreadPoolExecutor(max_workers=concurrent) as pool:
        for done in [pool.submit(run_worker, w) for w in range(concurrent)]:
            done.result()
    c_emp = ratios.mean(axis=0)
    half = 0.0
    if config.batches > 1:
        half = 1.96 * ratios.std(axis=0, ddof=1) / math.sqrt(config.batches)
    c1, c2, regime, degenerate = approx.second_order_column(model, alphas, n, closed_form)
    return ConcentrationCurve(
        alphas=alphas,
        c_emp=c_emp,
        band_lo=c_emp - half,
        band_hi=c_emp + half,
        c1=c1,
        c2=c2,
        regime=regime,
        degenerate=degenerate,
    )

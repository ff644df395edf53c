"""Exception hierarchy for tailconc.

Every error raised deliberately by this package derives from
:class:`TailconcError`, so callers can catch one base type. Domain
violations additionally derive from :class:`ValueError` to cooperate with
generic validation code.

The argument checks every public entry point runs live here too, so the
package has one input policy: NaN is never accepted (a grid read reports
it as :class:`GridRangeError`), ``bool`` and strings are not numbers, an
array is not one number, numpy integers and floats count as integers and
reals, and every rejection is a :class:`DomainError`.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

__all__ = [
    "TailconcError",
    "DomainError",
    "PoleError",
    "BoundaryCaseError",
    "PrecisionError",
    "GridRangeError",
    "ResourceLimitError",
]


class TailconcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TailconcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """A function was evaluated at one of its poles."""


class BoundaryCaseError(TailconcError):
    """A regime-specific formula was requested on the regime boundary.

    The boundary has its own expansion; use the full second-order
    approximation entry point instead of the single-regime coefficient.
    """


class PrecisionError(TailconcError):
    """A numerical routine could not certify its accuracy target."""


class GridRangeError(DomainError):
    """A query lies outside the range covered by a numerical grid."""


class ResourceLimitError(TailconcError):
    """A computation would exceed the configured memory budget."""


def check_int(name: str, v, lo: int, hi: Optional[int] = None) -> int:
    """``v`` as an ``int``: any :class:`numbers.Integral` but ``bool``, within
    [lo, hi] (no upper bound when ``hi`` is None)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {v!r}")
    if v < lo or (hi is not None and v > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {span}, got {v!r}")
    return int(v)


def check_real(name: str, v, lo: Optional[float] = None, hi: Optional[float] = None) -> float:
    """``v`` as a ``float``: a finite :class:`numbers.Real` but ``bool``,
    strictly above ``lo`` and strictly below ``hi`` where they are given."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise DomainError(f"{name} must be a finite number, got {v!r}")
    v = float(v)
    if (lo is not None and not v > lo) or (hi is not None and not v < hi):
        span = " and ".join(f"{op} {b:g}" for op, b in ((">", lo), ("<", hi)) if b is not None)
        raise DomainError(f"{name} must be {span}, got {v!r}")
    return v


def check_reals(name: str, v) -> np.ndarray:
    """``v`` (a real scalar or array, not ``bool`` or a string) as a float
    array; NaN passes, for callers that report it themselves."""
    arr = np.asarray(v)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be a real number or array, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def check_array(name: str, v, lo: float, strict: bool = False) -> np.ndarray:
    """:func:`check_reals` with every entry >= ``lo``, or > ``lo`` when
    ``strict``; +inf passes and NaN does not."""
    arr = check_reals(name, v)
    low = arr.min(initial=math.inf)  # NaN if any entry is NaN
    if not (low > lo if strict else low >= lo):
        raise DomainError(f"{name} must be {'>' if strict else '>='} {lo:g} and not NaN")
    return arr


def check_scalar(name: str, v, lo: float, strict: bool) -> float:
    """:func:`check_array` on one real number, returned as a ``float``; an
    array of any shape but 0-d is refused."""
    arr = check_array(name, v, lo, strict)
    if arr.ndim:
        raise DomainError(f"{name} must be a real number, got an array of shape {arr.shape}")
    return float(arr)


def check_levels(name: str, v) -> np.ndarray:
    """``v`` as a float array of levels, each strictly inside (0, 1)."""
    arr = check_array(name, v, 0.0, strict=True)
    if not arr.max(initial=-math.inf) < 1.0:
        raise DomainError(f"{name} must lie in (0, 1)")
    return arr

"""Log-space numerical primitives for Poisson rate comparisons, plus the
private helpers other modules share: input rules, `_fan_out`, `_csv_text`.

The public functions are pure functions of their arguments. The central
quantity is the Kullback-Leibler divergence between unit-time Poisson
distributions with means x and y,

    D(x || y) = x * log(x / y) - x + y,

with the convention 0 * log(0 / y) = 0, so D(0 || y) = y. All logarithms
are natural.

D is evaluated in a cancellation-free form. Writing u = (y - x) / x,

    D(x || y) = x * (u - log(1 + u)),

and u - log1p(u) is computed by its power series for small u. The naive
three-term formula loses almost all significant digits when x is close to
y (absolute error ~ eps * x against a true value ~ (y - x)^2 / (2x)),
which would poison stationarity residuals downstream; the series form is
accurate to a few ulp everywhere.
"""

from __future__ import annotations

import csv
import io
import math
import multiprocessing
import sys

__all__ = [
    "DomainError",
    "poisson_kl",
    "poisson_kl_series",
    "binary_relative_entropy",
]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


def _require_int(value, name: str, low: int, high: int | None = None) -> int:
    """Return `value` if it is a Python int, not a bool, in [low, high]
    (no upper limit when high is None); raise DomainError otherwise."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")
    return value


def _require_list(value, name: str) -> list:
    """Return `value` as a list if it is iterable; raise DomainError
    otherwise."""
    try:
        return list(value)
    except TypeError:
        raise DomainError(f"{name} must be a sequence, got {value!r}") from None


def _require_real(
    value, name: str, low: float, high: float = math.inf, *, open: bool = False
) -> float:
    """Return `value` as a float if it is a Python int or float (numpy
    float64 included), not a bool, finite and in [low, high], or in
    (low, high) when `open` is set; raise DomainError otherwise."""
    # abs(value) <= max rejects NaN, +-inf and ints beyond float range.
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    ):
        x = float(value)
        if (low < x < high) if open else (low <= x <= high):
            return x
    span = f"{'(' if open else '['}{low:g}, {high:g}{')' if open or high == math.inf else ']'}"
    raise DomainError(f"{name} must be a finite number in {span}, got {value!r}")


def _fan_out(run_block, items, parallelism: int) -> list:
    """`run_block` applied over `items` by min(parallelism, len(items))
    workers, the package's only way of starting worker processes: block
    w = items[w::workers] goes to worker w of a process pool or, when there
    is at most one worker, the one block runs in this process. `run_block`
    (picklable) maps a block to one result per item; the results come
    back in item order."""
    workers = min(parallelism, len(items))
    if workers <= 1:
        return list(run_block(items))
    with multiprocessing.Pool(processes=workers) as pool:
        blocks = pool.map(run_block, [items[w::workers] for w in range(workers)], chunksize=1)
    # Item i is entry i // workers of block i % workers.
    return [blocks[i % workers][i // workers] for i in range(len(items))]


def _csv_text(header: str, rows) -> str:
    """The header line, then one CSV line per row, each newline-terminated.
    Only fields that need it (an id holding a comma or a quote) are quoted,
    so a CSV reader gets every field back intact."""
    buf = io.StringIO()
    buf.write(header + "\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# Coefficients of sum_{k >= 2} (-1)^k u^k / k = u^2 * P(u) with
# P(u) = 1/2 - u/3 + u^2/4 - ... ; degree chosen so the truncation error
# at |u| = 0.09 is below one ulp of the leading u^2/2 term.
_LOG1P_TAIL_COEFFS = tuple((-1.0) ** j / (j + 2) for j in range(15, -1, -1))

_SERIES_RADIUS = 0.09


def _u_minus_log1p(u: float) -> float:
    """u - log(1 + u), accurate for all u > -1.

    For |u| <= 0.09 the direct difference cancels (the result is
    u^2/2 - u^3/3 + ...), so the truncated alternating series
    sum_{k >= 2} (-1)^k u^k / k is evaluated by Horner instead; outside
    that radius the direct form keeps near-full relative accuracy (its
    cancellation loss is bounded by ~2 eps / 0.09 ~ 5e-15, orders of
    magnitude below the solver's residual tolerance).
    """
    if u != u:  # NaN argument
        raise DomainError("poisson_kl received a NaN argument")
    if u > _SERIES_RADIUS or u < -_SERIES_RADIUS:
        return u - math.log1p(u)
    p = 0.0
    for c in _LOG1P_TAIL_COEFFS:
        p = p * u + c
    return u * u * p


def poisson_kl(x: float, y: float) -> float:
    """Relative entropy D(x || y) between Poisson means x and y.

    Args:
        x: nonnegative mean of the true distribution.
        y: strictly positive mean of the reference distribution.

    Returns:
        D(x || y) >= 0, zero iff x == y. D(0 || y) = y exactly.

    Raises:
        DomainError: if x < 0 or y <= 0.
    """
    if not x >= 0.0:
        raise DomainError(f"poisson_kl requires x >= 0, got {x!r}")
    if not y > 0.0:
        raise DomainError(f"poisson_kl requires y > 0, got {y!r}")
    if x == 0.0:
        return y
    u = (y - x) / x
    if math.isinf(u) or u <= -1.0:
        # y/x overflowed or underflowed; split the logarithms instead.
        return x * (math.log(x) - math.log(y)) - x + y
    return x * _u_minus_log1p(u)


def poisson_kl_series(v: float, a: float, b: float, terms: int) -> float:
    """Partial sum of the series expansion of D(v - a || v - b).

    For v >= 1 and 0 <= a, b <= 1 the divergence admits the expansion

        D(v - a || v - b)
            = sum_{l >= 1} (a^(l+1) - b^l * (a + (a - b) * l))
                           / (v^l * l * (l + 1)),

    which converges geometrically for v > 1 and is summable at v = 1
    except when b = 1 with a < 1 (there the left argument exceeds zero
    while the right is zero, and the divergence is +inf). This routine
    returns the plain partial sum of the first `terms` terms: it is an
    independent check of `poisson_kl`, so no closed-form shortcuts are
    taken. At v = 1 the convergence is only O(1/terms).

    Raises:
        DomainError: if v < 1, a or b outside [0, 1], terms < 1, or
            (v == 1 and b == 1 and a < 1) where the value is infinite.
    """
    if not v >= 1.0:
        raise DomainError(f"series requires v >= 1, got {v!r}")
    if not 0.0 <= a <= 1.0:
        raise DomainError(f"series requires 0 <= a <= 1, got {a!r}")
    if not 0.0 <= b <= 1.0:
        raise DomainError(f"series requires 0 <= b <= 1, got {b!r}")
    _require_int(terms, "terms", 1)
    if v == 1.0 and b == 1.0 and a < 1.0:
        raise DomainError("series diverges for v == 1, b == 1, a < 1 (value is +inf)")
    total = 0.0
    ap = a * a          # a^(l+1)
    bp = b              # b^l
    vp = v              # v^l
    for l in range(1, terms + 1):
        den = vp * l * (l + 1)
        if math.isinf(den):
            break  # every later term is an exact float zero
        total += (ap - bp * (a + (a - b) * l)) / den
        ap *= a
        bp *= b
        vp *= v
    return total


def binary_relative_entropy(x: float) -> float:
    """d(x || 1 - x) for a Bernoulli parameter x in (0, 1).

        d(x || 1 - x) = x log(x / (1 - x)) + (1 - x) log((1 - x) / x)
                      = (2x - 1) log(x / (1 - x)).

    The function is symmetric under x <-> 1 - x; the argument is
    canonicalized to min(x, 1 - x) before evaluation so the symmetry
    holds to the last ulp in floating point as well.
    """
    x = _require_real(x, "x", 0.0, 1.0, open=True)
    m = x if x <= 1.0 - x else 1.0 - x
    return (2.0 * m - 1.0) * (math.log(m) - math.log(1.0 - m))

"""Log-space numerical primitives for Poisson rate comparisons, plus the
private helpers other modules share: input rules, the record bases
`_Record` and `_FrozenRecord`, `_fan_out`, `_csv_text`, `_moved`, and the
two distribution tails the reports need, `_clopper_pearson_upper` and
`_f_upper_tail`, in pure Python so that no command imports scipy.

The public functions are pure functions of their arguments. The central
quantity is the Kullback-Leibler divergence between unit-time Poisson
distributions with means x and y,

    D(x || y) = x * log(x / y) - x + y,

with the convention 0 * log(0 / y) = 0, so D(0 || y) = y. All logarithms
are natural.

D is evaluated without cancellation, in one of two forms. Where y < x / 2
it is x * log(x / y) + y - x with log(x / y) taken directly (Loader's
2000 "bd0", which the distribution tails use too), or as log x - log y
where x / y overflows, and x * (log(x / y) - 1) + y where x * log(x / y) + y
overflows. Elsewhere, writing u = (y - x) / x,

    D(x || y) = x * (u - log(1 + u)),

and u - log1p(u) is computed by its power series for small u. The naive
three-term formula loses almost all significant digits when x is close to
y (absolute error ~ eps * x against a true value ~ (y - x)^2 / (2x)),
which would poison stationarity residuals downstream; below x / 2 the
u form would lose them instead, as 1 + u drops the low bits of y / x.
For every finite x >= 0 and y > 0, D is within 5e-15 relative of its
exact value, or inf where that exceeds the largest double: a few ulp in
the direct form and inside the series radius, more just outside it (see
`_u_minus_log1p`).
"""

from __future__ import annotations

import csv
import io
import math
import sys
import threading

__all__ = [
    "DomainError",
    "poisson_kl",
    "poisson_kl_series",
    "binary_relative_entropy",
]


class DomainError(ValueError):
    """An argument lies outside a function's mathematical domain."""


def _moved(module: str, names: tuple[str, ...]) -> tuple:
    """The PEP 562 `__getattr__` and `__dir__` of `module`, whose `names`
    live in `oddball.reference`: a name resolves on its first access,
    which imports that module, and is then kept in `module`."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import reference

        value = getattr(reference, name)
        setattr(sys.modules[module], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[module]), *names})

    return __getattr__, __dir__


# `poisson_kl_series`, an oracle of `poisson_kl`, lives in `oddball.reference`.
__getattr__, __dir__ = _moved(__name__, ("poisson_kl_series",))


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


class _Record:
    """Base of the package's record types. A record names its fields, in
    constructor order, in the class tuple `_fields`, and the last of them
    take the class tuple `_defaults` when a call leaves them out. This
    `__init__` binds a call's arguments to the fields as a Python
    signature would, with the same TypeErrors, and stores them; a record
    that checks its fields defines its own. The base also gives the repr
    (fields whose names start with "_" left out) and equality (same class
    and equal fields); records built on it are mutable and unhashable,
    those built on `_FrozenRecord` frozen. Nothing is generated at import,
    where the `dataclasses` module compiles every method it writes."""

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            self.__dict__.update(zip(fields, args))
            return
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            defaults = self._defaults
            for field, default in zip(fields[len(fields) - len(defaults) :], defaults):
                values.setdefault(field, default)
            missing = [repr(field) for field in fields if field not in values]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        self.__dict__.update(zip(fields, map(values.__getitem__, fields)))

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()


class _FrozenRecord(_Record):
    """A `_Record` that hashes its fields and refuses any assignment or
    deletion with an AttributeError. Constructors store the fields with
    `self.__dict__.update(...)`, which the guard does not see."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


def _fan_out(run_block, items, parallelism: int) -> list:
    """`run_block` applied over `items` by min(parallelism, len(items))
    workers, the package's only way of starting worker threads: block
    w = items[w::workers] goes to worker w of a thread pool or, when there
    is at most one worker, the one block runs in the calling thread.
    `run_block(block, stop)` maps a block to one result per item; the
    results come back in item order. `stop`, a `threading.Event` of this
    call, is set when the calling thread leaves on an exception (Ctrl-C
    included): a long block may poll it and return early, as its results
    are then discarded. A block's exception is raised once the running
    blocks return."""
    workers = min(parallelism, len(items))
    stop = threading.Event()
    if workers <= 1:
        return list(run_block(items, stop))
    from concurrent.futures import ThreadPoolExecutor  # ~5 ms that one worker never needs

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            blocks = list(
                pool.map(run_block, [items[w::workers] for w in range(workers)], [stop] * workers)
            )
        except BaseException:
            stop.set()
            raise
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
        D(x || y) >= 0, zero iff x == y. D(0 || y) = y exactly. Within
        5e-15 relative of the exact value, or inf where that exceeds the
        largest double, see the module docstring.

    Raises:
        DomainError: if x < 0 or y <= 0, or either is not finite.
    """
    if not 0.0 <= x < math.inf:
        raise DomainError(f"poisson_kl requires a finite x >= 0, got {x!r}")
    if not 0.0 < y < math.inf:
        raise DomainError(f"poisson_kl requires a finite y > 0, got {y!r}")
    if x == 0.0:
        return y
    if y < 0.5 * x:
        r = x / y
        lr = math.log(r) if r < math.inf else math.log(x) - math.log(y)
        d = x * lr + y - x
        return d if d < math.inf else x * (lr - 1.0) + y  # x * lr + y overflowed
    u = (y - x) / x
    if math.isinf(u):  # y / x overflowed; split the logarithms instead
        return x * (math.log(x) - math.log(y)) - x + y
    return x * _u_minus_log1p(u)


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


# Two tails, both from Loader's (2000) saddle-point form of the binomial
# probability, C(n, x) p^x q^(n-x) = exp(stirlerr(n) - stirlerr(x)
# - stirlerr(n - x) - bd0(x, np) - bd0(n - x, nq)) / sqrt(2 pi x (n - x) / n),
# which keeps full relative accuracy at any n, where a sum of lgamma terms,
# each ~n log n, loses ~log10(n log n) digits. Loader's bd0(x, m) is
# D(x || m), `poisson_kl`.

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) at n = 0, 1/2, 1, ..., 15,
# from 40-digit values.
_STIRLERR_HALVES = (
    0.0, 0.15342640972002736, 0.08106146679532726, 0.05481412105191765,
    0.0413406959554093, 0.03316287351993629, 0.02767792568499834, 0.023746163656297496,
    0.020790672103765093, 0.018488450532673187, 0.016644691189821193, 0.015134973221917378,
    0.013876128823070748, 0.012810465242920227, 0.01189670994589177, 0.011104559758206917,
    0.010411265261972096, 0.009799416126158804, 0.009255462182712733, 0.008768700134139386,
    0.00833056343336287, 0.00793411456431402, 0.007573675487951841, 0.007244554301320383,
    0.00694284010720953, 0.006665247032707682, 0.006408994188004207, 0.006171712263039458,
    0.0059513701127588475, 0.0057462165130101155, 0.005554733551962801,
)
_LN_2PI = 1.8378770664093453  # log(2 pi)
_Z95 = 1.6448536269514722  # the standard normal's 0.95 quantile


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for n an integer or a
    half-integer >= 0: the table up to 15, above it five terms of the
    Stirling series 1/(12n) - 1/(360n^3) + ..., whose next term is below
    1e-16 there."""
    if n <= 15.0:
        return _STIRLERR_HALVES[int(2.0 * n)]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - (1 / 1188) / nn) / nn) / nn) / nn) / n


def _binomial_pmf(x: float, n: float, p: float, q: float) -> float:
    """C(n, x) p^x q^(n-x) for 0 < x < n, q = 1 - p, with Gamma functions
    in C(n, x) when x or n is a half-integer (Loader's saddle-point form).
    Within 2e-15 (1 + |log of the result|) relative of the exact value for
    p + q = 1 exactly (1.2e-15 at worst against 60-digit values, n up to
    2 * 10^6): the error is that of the two divergences, which sum to about
    minus that log."""
    lc = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x) - poisson_kl(x, n * p)
    lc -= poisson_kl(n - x, n * q)
    return math.exp(lc - 0.5 * (_LN_2PI + math.log(x) + math.log1p(-x / n)))


def _binomial_cdf(e: int, n: int, p: float) -> tuple[float, float]:
    """P[Binomial(n, p) <= e] for 0 < e < n, and its derivative in p.

    The sum starts at the term k = e and steps down by the ratio of
    successive terms, k q / ((n - k + 1) p), until a term falls below 1e-20
    of the first; past the mode the terms shrink faster than geometrically,
    so the rest is below ~sqrt(n) * 1e-21 of the sum. A first term that
    underflows means the mass lies far from e: the sum is then 0 or 1."""
    q = 1.0 - p
    t = first = _binomial_pmf(e, n, p, q)
    slope = -(n - e) / q * first
    if first == 0.0:
        return (0.0 if n * p > e else 1.0), slope
    terms = [t]
    c = q / p
    k = e
    while k > 0 and t >= first * 1e-20:
        t *= k * c / (n - k + 1)
        k -= 1
        terms.append(t)
    return math.fsum(terms), slope


def _clopper_pearson_upper(errors: int, trials: int) -> float:
    """The one-sided 95% Clopper-Pearson upper bound of a binomial
    proportion, 0 <= errors < trials: the p with P[Binomial(trials, p) <=
    errors] = 0.05 (A&S 26.5.24: the 0.95 quantile of Beta(errors + 1,
    trials - errors)), 1 - 0.05^(1/trials) at 0 errors.

    Newton's method on the lower tail `_binomial_cdf`, from the Wilson
    score bound at errors + 1/2, with bisection of the bracket the
    iterates have found when a step leaves it. Newton converges
    quadratically, so once a step is below 2^-44 of p the next iterate is
    as accurate as the tail sum: ~4e-16 relative against a 50-digit root
    for trials up to 10^6, in 2 to 6 tail sums. The lower tail is summed
    at every error count: its 0.05 is ~19x better conditioned than the
    complement's 0.95."""
    e, n = errors, trials
    if e == 0:
        return -math.expm1(math.log(0.05) / n)
    z2 = _Z95 * _Z95
    p = (e + 0.5 + z2 / 2 + _Z95 * math.sqrt((e + 0.5) * (n - e - 0.5) / n + z2 / 4)) / (n + z2)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        value, slope = _binomial_cdf(e, n, p)
        if value > 0.05:
            lo = p
        else:
            hi = p
        nxt = p - (value - 0.05) / slope if slope < 0.0 else math.nan
        if abs(nxt - p) <= 2.0**-44 * p:
            return nxt
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        p = nxt
    raise ArithmeticError(f"no Clopper-Pearson bound found for {errors} in {trials}")


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b), the regularized incomplete beta function, for
    x < (a + 1) / (a + b + 2) and y = 1 - x: x^a y^b / (a B(a, b)) times the
    continued fraction of A&S 26.5.8, by Lentz's method. It takes
    O(sqrt(a + b)) terms; x^a y^b / (a B(a, b)) is the binomial probability
    of a in a + b at x, times b / (a + b)."""
    front = _binomial_pmf(a, a + b, x, y) * b / (a + b)
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1_000_000):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.0**-53:
            return front * h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _f_upper_tail(f: float, d1: int, d2: int) -> float:
    """P[F > f] for F ~ F(d1, d2) and f >= 0: I_x(d2/2, d1/2) at
    x = d2 / (d2 + d1 f) (A&S 26.6.2), through I_x(a, b) = 1 - I_(1-x)(b, a)
    where x is past the continued fraction's fast range. Within ~3e-13
    relative of the exact tail for degrees of freedom up to 10^4 and
    p-values from 1 down to 1e-300."""
    a, b = d2 / 2, d1 / 2
    s = d2 + d1 * f
    x, y = d2 / s, d1 * f / s
    if y == 0.0:  # f is 0, or so small that 1 - x rounds to 0
        return 1.0
    if x == 0.0:  # d1 f overflows, f = inf included
        return 0.0
    if x * (a + b + 2.0) < a + 1.0:
        return _beta_fraction(a, b, x, y)
    return 1.0 - _beta_fraction(b, a, y, x)

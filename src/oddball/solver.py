"""Optimal sampling weights and the detectability index for odd-process search.

Setting: K >= 3 Poisson processes observed one per time slot; a single odd
process has rate r1 and every other process has rate r2 (r1 != r2, both
unknown to the observer but fixed here as the design point). A sampling
distribution lambda over the K processes determines how fast evidence
accumulates against the worst-case confusion between the true arrangement
and any alternative. The value of the resulting max-min game,

    D* = max_lambda min_alt  E[ per-slot log-likelihood drift ],

is the detectability index: the best achievable asymptotic ratio of
log(1/error) to expected sample count. At the optimum the sampling weight
is lambda_odd on the odd process and (1 - lambda_odd) / (K - 1) on each of
the others.

Solving the game reduces to one dimension. Let rho = (K - 2) / (K - 1) and
reparametrize lambda_odd as

    lam_hat = lambda_odd / (lambda_odd + (1 - lambda_odd) * rho),

so the worst-case reference rate is the plain convex combination

    r_tilde = lam_hat * r1 + (1 - lam_hat) * r2.

The objective

    f(lambda_odd) = lambda_odd * D(r1 || r_tilde)
                    + (1 - lambda_odd) * rho * D(r2 || r_tilde)

is concave with f(0) = f(1) = 0, and its maximizer is the unique root of

    g(lam_hat) = D(r1 || r_tilde) - rho * D(r2 || r_tilde) = 0,

which `solve_lambda_star` finds by a safeguarded Newton iteration. g is
positive at lam_hat = 0, negative at lam_hat = 1 and strictly decreasing,
with the closed-form slope

    g'(lam_hat) = sum_d (r1 - r2) * [(1 - r1 / m) - rho * (1 - r2 / m)],
    m = lam_hat * r1 + (1 - lam_hat) * r2,

so each step keeps a bracket [lo, hi] around the root and bisects it
whenever the Newton step would leave it or fails to halve the previous
step. At the root, f = D(r1 || r_tilde).

Vector rates (each process emits D independent Poisson coordinates) use
the same machinery with D(. || .) replaced by the coordinate sum and a
shared lam_hat; everything reduces to the scalar case when D = 1. One
loop solves every configuration (`_solve_pairs`): a table of rows, taken
once, and a batch of (odd row, common row) index pairs into it, on
`oddball_solve_rows` of the compiled kernel when it loads, else the same
iteration on Python floats, pair by pair (`_root_row`, `_objective_sum`),
which is the reference the kernel repeats bit for bit. `solve_lambda_star`
solves the one pair of its config, `_solve_rows` row i of one (B, D)
table against row i of another. The sign test's sums D(r1 || r2) and
D(r2 || r1) are those of the reversed pair, swapped, so the kernel takes
them once for a pair that follows its reverse; each orientation still
applies its own test. Each pair iterates to its own stop, with every sum
over D taken in coordinate order, so a pair's values depend neither on
the other pairs nor on the loop that ran. The policy's weight solve is
the D = 1 case (`_root_row` on the Python loop, its inlined copy in the
kernel's trial loop).

For equal rates the game degenerates (D* = 0) but the optimizer has a
well-defined limit: expanding g to second order around r1 = r2 gives
(1 - lam_hat)^2 = rho * lam_hat^2, i.e. lam_hat = 1 / (1 + sqrt(rho)),
which `solve_lambda_star` returns for configs with r1 == r2. Every caller
that needs optimal weights, `curve_rows` included, gets them from
`solve_lambda_star`; nothing else substitutes the equal-rates weight.
The scalar solution depends on (r1, r2) only through nu = r1 / (r1 + r2),
and D* scales linearly in (r1 + r2); both facts are exploited by callers
and pinned by tests.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

from . import _native
from .numerics import (
    _LOG1P_TAIL_COEFFS,
    _SERIES_RADIUS,
    DomainError,
    _FrozenRecord,
    _require_int,
    _require_list,
    _require_real,
    binary_relative_entropy,
    poisson_kl,
)

__all__ = [
    "DegenerateRatesError",
    "OddConfig",
    "LambdaSolution",
    "mixed_rate",
    "objective",
    "solve_lambda_star",
    "d_star",
    "d_star_rows",
    "brute_force_d_star",
    "lower_bound_expected_tau",
    "curve_rows",
    "CURVE_HEADER",
]

DEFAULT_TOL = 1e-10

# Below this distance of nu from 1/2 the residual drowns in rounding noise,
# so the solver switches to the equal-rates weight.
NEAR_DEGENERATE_NU = 1e-9

# A bracket narrower than this cannot be split further in double precision.
_MIN_BRACKET = 1e-15

# The solve's constants in the kernel's `par` layout (the P_ enum of
# _kernel.c): its slots from P_NEAR_NU on. The four before them are the
# trial loop's, which `policy._KERNEL_PARAMS` fills; a solve reads none.
# An `array('d')`, whose address the kernel takes; never written.
_SOLVE_PARAMS = array(
    "d",
    [0.0, 0.0, 0.0, 0.0, NEAR_DEGENERATE_NU, DEFAULT_TOL, _MIN_BRACKET, _SERIES_RADIUS,
     len(_LOG1P_TAIL_COEFFS), *_LOG1P_TAIL_COEFFS],
)


class DegenerateRatesError(DomainError):
    """The rates differ, but so little that the stationarity residual shows
    no sign change: no interior stationary point can be located."""


def _as_rate_tuple(value, name: str) -> tuple[float, ...]:
    """A number is one coordinate; anything else is iterated and every
    coordinate checked, so a string is rejected rather than split."""
    if isinstance(value, (int, float)):
        return (_require_real(value, name, 0.0, open=True),)
    try:
        coords = tuple(value)
    except TypeError:
        raise DomainError(f"{name} must be a positive rate or sequence of rates, got {value!r}") from None
    if not coords:
        raise DomainError(f"{name} must contain at least one rate")
    return tuple(_require_real(v, f"{name} rate", 0.0, open=True) for v in coords)


class OddConfig(_FrozenRecord):
    """Ground-truth arrangement: K processes, one odd, two rate profiles.

    `r1` and `r2` accept a single rate or a sequence (one value per
    coordinate of a vector-valued process); they are stored as tuples of
    equal length. Degenerate configs (r1 == r2 exactly) are valid: the
    solver gives them the equal-rates limit of the optimal weights.
    """

    _fields = ("k", "odd_index", "r1", "r2")

    def __init__(self, k: int, odd_index: int, r1, r2):
        _require_int(k, "k", 3)
        _require_int(odd_index, "odd_index", 1, k)
        r1t = _as_rate_tuple(r1, "r1")
        r2t = _as_rate_tuple(r2, "r2")
        if len(r1t) != len(r2t):
            raise DomainError(f"r1 and r2 must have equal dimension, got {len(r1t)} and {len(r2t)}")
        self.__dict__.update(k=k, odd_index=odd_index, r1=r1t, r2=r2t)

    @property
    def dim(self) -> int:
        return len(self.r1)

    @property
    def is_degenerate(self) -> bool:
        return self.r1 == self.r2

    @property
    def rho(self) -> float:
        """(K - 2) / (K - 1), the off-odd mass deflation factor."""
        return (self.k - 2) / (self.k - 1)

    @property
    def nu(self) -> float:
        """r1 / (r1 + r2); defined for scalar configs only."""
        if self.dim != 1:
            raise DomainError("nu is defined for scalar-rate configs only")
        return _nu(self.r1[0], self.r2[0])


def _nu(a: float, b: float) -> float:
    """a / (a + b) for positive rates. Both are halved when their sum
    overflows, so the bits are those of the plain quotient whenever the
    sum is finite."""
    total = a + b
    if math.isinf(total):
        a, b = 0.5 * a, 0.5 * b
        total = a + b
    return a / total


class LambdaSolution(_FrozenRecord):
    """Optimal sampling weights and the value they achieve.

    lam:      full probability vector over the K processes (odd_index gets
              lam_odd, the rest share the remainder uniformly).
    lam_hat:  convex-combination weight such that
              r_tilde = lam_hat * r1 + (1 - lam_hat) * r2 coordinatewise.
    r_tilde:  worst-case reference rate, one entry per coordinate.
    nu:       r1 / (r1 + r2) for scalar configs, None for vector configs.
    d_star:   objective value at lam_odd (0 exactly for degenerate configs).
    """

    _fields = ("config", "lam", "lam_odd", "lam_hat", "r_tilde", "nu", "d_star")


def mixed_rate(lambda_odd: float, r1, r2, k: int):
    """Worst-case reference rate for sampling weight lambda_odd.

        r_tilde = (lambda_odd * r1 + (1 - lambda_odd) * rho * r2)
                  / (lambda_odd + (1 - lambda_odd) * rho),
        rho = (k - 2) / (k - 1).

    Scalar arguments give a float; sequences are mapped coordinatewise and
    give a tuple. mixed_rate(0.5, 3.0, 2.0, 3) == 8/3.
    """
    config = OddConfig(k, 1, r1, r2)
    lambda_odd = _require_real(lambda_odd, "lambda_odd", 0.0, 1.0)
    scalar = isinstance(r1, (int, float)) and isinstance(r2, (int, float))
    mixed = tuple(_mix(lambda_odd, a, b, config.rho) for a, b in zip(config.r1, config.r2))
    return mixed[0] if scalar else mixed


def _mix(lam, a, b, rho: float):
    """The mixed rate (lam * a + (1 - lam) * rho * b) / (lam + (1 - lam) * rho)."""
    return (lam * a + (1.0 - lam) * rho * b) / (lam + (1.0 - lam) * rho)


def objective(config: OddConfig, lambda_odd: float) -> float:
    """Game objective f(lambda_odd); concave, zero at both endpoints.

    f = lambda_odd * D(r1 || r_tilde) + (1 - lambda_odd) * rho * D(r2 || r_tilde)
    with coordinate-summed divergences for vector configs.
    """
    lambda_odd = _require_real(lambda_odd, "lambda_odd", 0.0, 1.0)
    return _objective_sum(config.r1, config.r2, config.rho, lambda_odd)


def _objective_sum(r1, r2, rho: float, lambda_odd: float) -> float:
    d1 = 0.0
    d2 = 0.0
    for a, b in zip(r1, r2):
        m = _mix(lambda_odd, a, b, rho)
        d1 += poisson_kl(a, m)
        d2 += poisson_kl(b, m)
    return lambda_odd * d1 + (1.0 - lambda_odd) * rho * d2


def _equal_rates_hat(rho: float) -> float:
    """Equal-rates limit of the optimal lam_hat, 1 / (1 + sqrt(rho))."""
    return 1.0 / (1.0 + math.sqrt(rho))


def _lam_odd_from_hat(lam_hat, rho: float):
    """Invert lam_hat = lam / (lam + (1 - lam) * rho)."""
    return lam_hat * rho / (1.0 - lam_hat + lam_hat * rho)


def _weight_vector(focus: int, mass: float, k: int) -> tuple[float, ...]:
    """Probabilities over processes 1..k: `mass` on `focus`, the rest
    shared evenly by the other k - 1."""
    off = (1.0 - mass) / (k - 1)
    return tuple(mass if j == focus else off for j in range(1, k + 1))


def _no_sign_change() -> DegenerateRatesError:
    # Rates differ but by so little the residual is pure rounding noise.
    return DegenerateRatesError(
        "stationarity residual has no sign change; rates are numerically degenerate"
    )


def _residual(a, b, rho: float, lam_hat: float) -> tuple[float, float, float]:
    """g(lam_hat), its scale max(d1, rho * d2) and its slope g'(lam_hat)
    for one row, each sum over the coordinates in order."""
    d1 = t2 = slope = 0.0
    for x, y in zip(a, b):
        m = lam_hat * x + (1.0 - lam_hat) * y
        d1 += poisson_kl(x, m)
        t2 += poisson_kl(y, m)
        slope += (x - y) * ((1.0 - x / m) - rho * (1.0 - y / m))
    t2 = rho * t2
    return d1 - t2, (d1 if d1 > t2 else t2), slope


def _root_row(a, b, rho: float) -> float:
    """Root lam_hat of g for one row, odd rates a and common rates b
    (sequences of D floats), on Python floats: the reference and fallback
    of the kernel's `oddball_solve_rows`.

    Newton starts from the equal-rates root 1 / (1 + sqrt(rho)); the
    halving test falls back to bisection where rounding noise in g would
    otherwise make Newton creep (nu just outside NEAR_DEGENERATE_NU).
    """
    start = _equal_rates_hat(rho)
    if len(a) == 1 and abs(_nu(a[0], b[0]) - 0.5) < NEAR_DEGENERATE_NU:
        return start
    # g(0) = D(r1 || r2) and g(1) = -rho * D(r2 || r1).
    if not (sum(map(poisson_kl, a, b)) > 0.0 and rho * sum(map(poisson_kl, b, a)) > 0.0):
        raise _no_sign_change()
    lo, hi, step = 0.0, 1.0, 1.0
    x = start
    while True:
        g, scale, slope = _residual(a, b, rho, x)
        if abs(g) <= DEFAULT_TOL * scale:
            return x
        if g > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo < _MIN_BRACKET:
            return x
        nxt = x - g / slope if slope < 0.0 else x
        if not (lo < nxt < hi and abs(nxt - x) <= 0.5 * step):
            nxt = 0.5 * (lo + hi)
        step = abs(nxt - x)
        x = nxt


def _not_a_table() -> DomainError:
    return DomainError("rate tables must be 2-D of one shape")


def _solve_pairs(rows, pairs, rho: float) -> tuple[list[float], list[float]]:
    """lam_hat and D* of each (odd, common) pair of row indices into
    `rows`, a sequence of rows of D rates each (lists, `array('d')` rows
    or a 2-D numpy array), on the kernel's `oddball_solve_rows` when it
    loads, else pair by pair on `_root_row` and `_objective_sum`; the
    values are the same bits either way. Pairs must not be degenerate,
    and each index must be one of `rows`, since the kernel reads the
    rows it is given unchecked. The table is copied once, row after row,
    into one flat `array('d')` by `array.extend`, which copies an
    `array('d')` row as one block; the kernel reads each pair's rows
    where they lie in it. Rows of no rates are refused.
    """
    table = array("d")
    try:
        d = len(rows[0]) if len(rows) else 0
        if len(rows) and d < 1:
            raise ValueError
        for row in rows:
            if len(row) != d:
                raise ValueError
            table.extend(row)
    except (TypeError, ValueError):
        raise _not_a_table() from None
    lib = _native.kernel()
    if lib is None:
        lam_hat, values = [], []
        for a, b in pairs:
            odd, common = table[a * d : (a + 1) * d], table[b * d : (b + 1) * d]
            h = _root_row(odd, common, rho)
            lam_hat.append(h)
            values.append(_objective_sum(odd, common, rho, _lam_odd_from_hat(h, rho)))
        return lam_hat, values
    n = len(pairs)
    index = array("q", [i for pair in pairs for i in pair])
    out = array("d", [0.0]) * (2 * n)
    address = _native.buffer_address
    at = address(out)
    if lib.oddball_solve_rows(n, d, address(table), address(index), rho,
                              address(_SOLVE_PARAMS), at, at + 8 * n) >= 0:
        raise _no_sign_change()
    return out[:n].tolist(), out[n:].tolist()


def _solve_rows(r1, r2, rho: float) -> tuple[list[float], list[float]]:
    """lam_hat and D* of every row pair of two (B, D) rate tables, each a
    sequence of B rows of D rates: `_solve_pairs` on the rows of both,
    row i of r1 odd against row i of r2. A table of no rows gives empty
    lists.
    """
    try:
        n, rows = len(r1), [*r1, *r2]
    except TypeError:
        raise _not_a_table() from None
    if len(rows) != 2 * n:
        raise _not_a_table()
    return _solve_pairs(rows, [(i, n + i) for i in range(n)], rho)


def solve_lambda_star(config: OddConfig) -> LambdaSolution:
    """Find the optimal sampling weights by safeguarded Newton in lam_hat.

    Terminates when the stationarity residual
    |D(r1 || r_tilde) - rho * D(r2 || r_tilde)| is <= 1e-10 (DEFAULT_TOL)
    times the larger of the two terms, or when the bracket around the root
    is narrower than 1e-15. Each step is a Newton step on the residual
    unless that step leaves the bracket or fails to halve the previous
    step, in which case the bracket is bisected. Scalar configs with nu
    within 1e-9 of 1/2 take the equal-rates weight instead (the residual
    scale collapses quadratically there and its digits are rounding
    noise).

    Equal rates (r1 == r2 exactly) have no interior optimum and are not
    solved: they get the limit of the optimal weights as the rates merge,
    lam_hat = 1 / (1 + sqrt(rho)), with d_star exactly 0, r_tilde exactly
    r1 and nu exactly 1/2 (None for vector configs).

    Raises:
        DegenerateRatesError: the rates differ, but the residual shows no
            sign change between lam_hat = 0 and 1.
    """
    rho = config.rho
    if config.is_degenerate:
        lam_hat, value = _equal_rates_hat(rho), 0.0
        r_tilde = config.r1
    else:
        roots, values = _solve_pairs((config.r1, config.r2), ((0, 1),), rho)
        lam_hat, value = roots[0], values[0]
        r_tilde = tuple(lam_hat * a + (1.0 - lam_hat) * b for a, b in zip(config.r1, config.r2))
    lam_odd = _lam_odd_from_hat(lam_hat, rho)
    return LambdaSolution(
        config=config,
        lam=_weight_vector(config.odd_index, lam_odd, config.k),
        lam_odd=lam_odd,
        lam_hat=lam_hat,
        r_tilde=r_tilde,
        nu=config.nu if config.dim == 1 else None,
        d_star=value,
    )


def d_star(config: OddConfig) -> float:
    """Detectability index of the configuration; 0 exactly when r1 == r2."""
    return solve_lambda_star(config).d_star


def d_star_rows(k: int, r1, r2):
    """D* of K-item configurations with odd rates r1[i] and common rates
    r2[i], for every row i of two (B, D) rate tables, in one solve, as a
    numpy array.

    Row i equals `d_star(OddConfig(k, 1, r1[i], r2[i]))` bitwise, whatever
    the other rows are. Rows must differ (r1[i] != r2[i]); rates must be
    positive and finite.
    """
    import numpy as np

    return np.asarray(_solve_rows(r1, r2, (k - 2) / (k - 1))[1], dtype=float)


def _kl_grid(x: float, y):
    """Vectorized D(x || y) for scalar x >= 0 and a positive numpy array y."""
    import numpy as np

    if x == 0.0:
        return y.copy()
    return x * np.log(x / y) - x + y


def brute_force_d_star(config: OddConfig, grid_resolution: int = 400) -> float:
    """Independent evaluation of D* by direct search over the full simplex.

    Grids the sampling vector lambda over the K-dimensional probability
    simplex with the given resolution and takes the max over grid points of
    the min over alternative odd positions j != odd_index. The inner
    minimization over the alternative's rate pair is exact: the cross term
    is killed by setting the alternative odd rate to r2, and the remaining
    strictly convex single-rate problem has the closed-form minimizer

        y* = (lam_i * r1 + c_j * r2) / (lam_i + c_j),   c_j = 1 - lam_i - lam_j.

    Deliberately ignorant of the one-dimensional reduction used by
    `solve_lambda_star`; this is the oracle the solver is tested against.
    Scalar configs with K <= 4 only (the grid blows up combinatorially).
    """
    import numpy as np

    if config.dim != 1:
        raise DomainError("brute force supports scalar-rate configs only")
    if config.k > 4:
        raise DomainError(f"brute force refuses k > 4 (got k={config.k}); grid is combinatorial")
    _require_int(grid_resolution, "grid_resolution", 10)
    r1 = config.r1[0]
    r2 = config.r2[0]
    res = grid_resolution
    i = config.odd_index - 1
    k = config.k

    best = 0.0
    # Enumerate lam_i deterministically; vectorize over the free off-odd
    # coordinates at fixed lam_i to keep memory bounded for K = 4.
    for ai in range(res + 1):
        lam_i = ai / res
        rem = res - ai
        if k == 3:
            aj = np.arange(rem + 1)
            others = np.stack([aj, rem - aj], axis=1) / res  # columns: the two j != i
        else:
            a1 = np.arange(rem + 1)
            a1g, a2g = np.meshgrid(a1, a1, indexing="ij")
            mask = a1g + a2g <= rem
            c1 = a1g[mask]
            c2 = a2g[mask]
            others = np.stack([c1, c2, rem - c1 - c2], axis=1) / res
        # min over j != i of the inner value at (lam_i, lam_j)
        vals = None
        for col in range(k - 1):
            lam_j = others[:, col]
            c = 1.0 - lam_i - lam_j
            c = np.where(c < 0.0, 0.0, c)  # clip grid rounding at the simplex edge
            w = lam_i + c
            pos = w > 0.0  # w == 0 only at lam_i = lam_j-complement = 0: value is 0
            y = np.where(pos, (lam_i * r1 + c * r2) / np.where(pos, w, 1.0), 1.0)
            v = np.where(pos, lam_i * _kl_grid(r1, y) + c * _kl_grid(r2, y), 0.0)
            vals = v if vals is None else np.minimum(vals, v)
        m = float(vals.max()) if vals.size else 0.0
        if m > best:
            best = m
    return best


def lower_bound_expected_tau(
    config: OddConfig, alpha_max: float, *, dstar: float | None = None
) -> float:
    """Information bound on the expected sample count of any policy whose
    worst-case error probability is at most alpha_max:

        E[tau] >= d(alpha_max || 1 - alpha_max) / D*.

    `dstar` is D* of the config when the caller has already solved it.
    Returns +inf for degenerate configs (no policy can decide at all).
    """
    alpha_max = _require_real(alpha_max, "alpha_max", 0.0, 1.0, open=True)
    if config.is_degenerate:
        return math.inf
    return binary_relative_entropy(alpha_max) / (d_star(config) if dstar is None else dstar)


CURVE_HEADER = "K,nu,lambda_odd,lambda_hat,d_star_scaled"


def curve_rows(k_values: Sequence[int], nu_steps: int) -> list[tuple[int, float, float, float, float]]:
    """Sweep of the optimal weight against nu for each K, normalized so
    r1 + r2 = 1 (d_star scales linearly in r1 + r2, so this fixes the
    scale column). Grid: nu_steps points linear on [0.01, 0.99]. Every
    row is `solve_lambda_star` at its nu, so nu = 1/2 gets the
    equal-rates weight and a d_star of exactly 0.
    """
    ks = _require_list(k_values, "k_values")
    if not ks:
        raise DomainError("k_values must be non-empty")
    _require_int(nu_steps, "nu_steps", 2)
    # numpy.linspace(0.01, 0.99, nu_steps), bit for bit: start + i * step,
    # with the end point exact.
    step = (0.99 - 0.01) / (nu_steps - 1)
    nus = [0.01 + i * step for i in range(nu_steps - 1)] + [0.99]
    rows = []
    for k in ks:
        for nu in nus:
            sol = solve_lambda_star(OddConfig(k, 1, nu, 1.0 - nu))
            rows.append((k, nu, sol.lam_odd, sol.lam_hat, sol.d_star))
    return rows

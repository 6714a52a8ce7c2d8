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
shared lam_hat; everything reduces to the scalar case when D = 1. The
coordinate count alone picks the kernel: D = 1 runs a pure-Python loop on
`poisson_kl` (the policy solves one such problem per weight-cache miss,
where array overhead would dominate), D > 1 runs every row of a (B, D)
batch in lockstep on numpy arrays (`d_star_rows`).

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import (
    _LOG1P_TAIL_COEFFS,
    _SERIES_RADIUS,
    DomainError,
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
    "poisson_kl_array",
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


@dataclass(frozen=True)
class OddConfig:
    """Ground-truth arrangement: K processes, one odd, two rate profiles.

    `r1` and `r2` accept a single rate or a sequence (one value per
    coordinate of a vector-valued process); they are stored as tuples of
    equal length. Degenerate configs (r1 == r2 exactly) are valid: the
    solver gives them the equal-rates limit of the optimal weights.
    """

    k: int
    odd_index: int
    r1: tuple[float, ...]
    r2: tuple[float, ...]

    def __init__(self, k: int, odd_index: int, r1, r2):
        _require_int(k, "k", 3)
        _require_int(odd_index, "odd_index", 1, k)
        r1t = _as_rate_tuple(r1, "r1")
        r2t = _as_rate_tuple(r2, "r2")
        if len(r1t) != len(r2t):
            raise DomainError(f"r1 and r2 must have equal dimension, got {len(r1t)} and {len(r2t)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "odd_index", odd_index)
        object.__setattr__(self, "r1", r1t)
        object.__setattr__(self, "r2", r2t)

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


@dataclass(frozen=True)
class LambdaSolution:
    """Optimal sampling weights and the value they achieve.

    lam:      full probability vector over the K processes (odd_index gets
              lam_odd, the rest share the remainder uniformly).
    lam_hat:  convex-combination weight such that
              r_tilde = lam_hat * r1 + (1 - lam_hat) * r2 coordinatewise.
    r_tilde:  worst-case reference rate, one entry per coordinate.
    nu:       r1 / (r1 + r2) for scalar configs, None for vector configs.
    d_star:   objective value at lam_odd (0 exactly for degenerate configs).
    """

    config: OddConfig
    lam: tuple[float, ...]
    lam_odd: float
    lam_hat: float
    r_tilde: tuple[float, ...]
    nu: float | None
    d_star: float


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
    """The mixed rate (lam * a + (1 - lam) * rho * b) / (lam + (1 - lam) * rho);
    floats or broadcast arrays."""
    return (lam * a + (1.0 - lam) * rho * b) / (lam + (1.0 - lam) * rho)


def objective(config: OddConfig, lambda_odd: float) -> float:
    """Game objective f(lambda_odd); concave, zero at both endpoints.

    f = lambda_odd * D(r1 || r_tilde) + (1 - lambda_odd) * rho * D(r2 || r_tilde)
    with coordinate-summed divergences for vector configs.
    """
    lambda_odd = _require_real(lambda_odd, "lambda_odd", 0.0, 1.0)
    return _objective_sum(config.r1, config.r2, config.rho, lambda_odd)


def poisson_kl_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise D(x || y) for float arrays of equal shape with x > 0, y > 0.

    The array form of `poisson_kl` for positive means: the same series for
    |u| <= 0.09, the same direct form outside it and the same log split
    where y / x overflows or underflows. Inside the series radius the two
    agree to a few ulp; outside it numpy's log1p may differ from
    math.log1p in the last bit, which the direct form's cancellation
    amplifies up to its ~5e-15 relative bound. Both share `poisson_kl`'s
    loss of accuracy where y < x / 2.

    Arguments are not validated; callers pass rates that passed
    `OddConfig` or `FiringRateTable` checks.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (y - x) / x
        out = u - np.log1p(u)
        small = np.abs(u) <= _SERIES_RADIUS
        if small.any():
            us = u[small]
            p = np.zeros_like(us)
            for c in _LOG1P_TAIL_COEFFS:
                p = p * us + c
            out[small] = us * us * p
        out *= x
        split = np.isinf(u) | (u <= -1.0)
        if split.any():
            xs = x[split]
            ys = y[split]
            out[split] = xs * (np.log(xs) - np.log(ys)) - xs + ys
    return out


def _objective_sum(r1, r2, rho: float, lambda_odd: float) -> float:
    d1 = 0.0
    d2 = 0.0
    for a, b in zip(r1, r2):
        m = _mix(lambda_odd, a, b, rho)
        d1 += poisson_kl(a, m)
        d2 += poisson_kl(b, m)
    return lambda_odd * d1 + (1.0 - lambda_odd) * rho * d2


def _objective_rows(r1: np.ndarray, r2: np.ndarray, rho: float, lam_odd: np.ndarray) -> np.ndarray:
    """`objective` of every row of (B, D) rate arrays at its own weight."""
    m = _mix(lam_odd[:, None], r1, r2, rho)
    d1 = poisson_kl_array(r1, m).sum(axis=1)
    d2 = poisson_kl_array(r2, m).sum(axis=1)
    return lam_odd * d1 + (1.0 - lam_odd) * rho * d2


def _equal_rates_hat(rho: float) -> float:
    """Equal-rates limit of the optimal lam_hat, 1 / (1 + sqrt(rho))."""
    return 1.0 / (1.0 + math.sqrt(rho))


def _lam_odd_from_hat(lam_hat, rho: float):
    """Invert lam_hat = lam / (lam + (1 - lam) * rho); floats or arrays."""
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


def _residual(a: float, b: float, rho: float, lam_hat: float) -> tuple[float, float, float]:
    """Scalar g(lam_hat), its scale max(d1, rho * d2) and its slope g'(lam_hat)."""
    m = lam_hat * a + (1.0 - lam_hat) * b
    d1 = poisson_kl(a, m)
    t2 = rho * poisson_kl(b, m)
    slope = (a - b) * ((1.0 - a / m) - rho * (1.0 - b / m))
    return d1 - t2, (d1 if d1 > t2 else t2), slope


def _root_scalar(a: float, b: float, rho: float) -> float:
    """Root lam_hat of g for one coordinate (D = 1), on Python floats.

    Newton starts from the equal-rates root 1 / (1 + sqrt(rho)); the
    halving test falls back to bisection where rounding noise in g would
    otherwise make Newton creep (nu just outside NEAR_DEGENERATE_NU).
    """
    start = _equal_rates_hat(rho)
    if abs(_nu(a, b) - 0.5) < NEAR_DEGENERATE_NU:
        return start
    # g(0) = D(r1 || r2) and g(1) = -rho * D(r2 || r1).
    if not (poisson_kl(a, b) > 0.0 and rho * poisson_kl(b, a) > 0.0):
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


def _roots_array(r1: np.ndarray, r2: np.ndarray, rho: float) -> np.ndarray:
    """Roots lam_hat of g for every row of (B, D) rate arrays.

    The scalar iteration run on all rows in lockstep; a row leaves the
    batch as soon as it meets the stopping rule. Every operation is
    elementwise or a sum along one row, so a row's root does not depend
    on the other rows in the batch.
    """
    if not (
        np.all(poisson_kl_array(r1, r2).sum(axis=1) > 0.0)
        and np.all(rho * poisson_kl_array(r2, r1).sum(axis=1) > 0.0)
    ):
        raise _no_sign_change()
    lam_hat = np.empty(r1.shape[0])
    rows = np.arange(r1.shape[0])
    x = np.full(rows.size, _equal_rates_hat(rho))
    lo = np.zeros(rows.size)
    hi = np.ones(rows.size)
    step = np.ones(rows.size)
    a, b = r1, r2
    while rows.size:
        xc = x[:, None]
        m = xc * a + (1.0 - xc) * b
        d1 = poisson_kl_array(a, m).sum(axis=1)
        t2 = rho * poisson_kl_array(b, m).sum(axis=1)
        g = d1 - t2
        slope = ((a - b) * ((1.0 - a / m) - rho * (1.0 - b / m))).sum(axis=1)
        pos = g > 0.0
        lo = np.where(pos, x, lo)
        hi = np.where(pos, hi, x)
        done = (np.abs(g) <= DEFAULT_TOL * np.maximum(d1, t2)) | (hi - lo < _MIN_BRACKET)
        lam_hat[rows[done]] = x[done]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = x - g / slope
        newton = (slope < 0.0) & (lo < nxt) & (nxt < hi) & (np.abs(nxt - x) <= 0.5 * step)
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        step = np.abs(nxt - x)
        keep = ~done
        rows, a, b = rows[keep], a[keep], b[keep]
        x, lo, hi, step = nxt[keep], lo[keep], hi[keep], step[keep]
    return lam_hat


def _solve_rows(r1, r2, rho: float):
    """lam_hat and D* of every row pair of two (B, D) rate tables.

    The one place that picks the kernel, from the coordinate count D
    alone: D = 1 runs `_root_scalar` row by row, D > 1 runs
    `_roots_array` on the whole batch. Rows must not be degenerate.
    """
    if len(r1[0]) == 1:
        lam_hat = []
        values = []
        for a, b in zip(r1, r2):
            a, b = float(a[0]), float(b[0])
            h = _root_scalar(a, b, rho)
            lam_hat.append(h)
            values.append(_objective_sum((a,), (b,), rho, _lam_odd_from_hat(h, rho)))
        return lam_hat, values
    a = np.asarray(r1, dtype=float)
    b = np.asarray(r2, dtype=float)
    lam_hat = _roots_array(a, b, rho)
    return lam_hat, _objective_rows(a, b, rho, _lam_odd_from_hat(lam_hat, rho))


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
        roots, values = _solve_rows((config.r1,), (config.r2,), rho)
        lam_hat, value = float(roots[0]), float(values[0])
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


def d_star_rows(k: int, r1, r2) -> np.ndarray:
    """D* of K-item configurations with odd rates r1[i] and common rates
    r2[i], for every row i of two (B, D) rate tables, in one solve.

    Row i equals `d_star(OddConfig(k, 1, r1[i], r2[i]))` bitwise, whatever
    the other rows are. Rows must differ (r1[i] != r2[i]); rates must be
    positive and finite.
    """
    return np.asarray(_solve_rows(r1, r2, (k - 2) / (k - 1))[1], dtype=float)


def _kl_grid(x: float, y: np.ndarray) -> np.ndarray:
    """Vectorized D(x || y) for scalar x >= 0 and positive array y."""
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
    nus = np.linspace(0.01, 0.99, nu_steps)
    rows = []
    for k in ks:
        for nu in nus:
            nu = float(nu)
            sol = solve_lambda_star(OddConfig(k, 1, nu, 1.0 - nu))
            rows.append((k, nu, sol.lam_odd, sol.lam_hat, sol.d_star))
    return rows

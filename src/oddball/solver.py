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
iteration on Python floats, pair by pair (`_root_row`, `_objective_sum` of
`oddball.reference`, imported only then), which is the reference the
kernel repeats bit for bit. `solve_lambda_star` solves the one pair of
its config, `reference._solve_rows` row i of one (B, D) table against
row i of another. The sign test's sums D(r1 || r2) and D(r2 || r1) are
those of the reversed pair, swapped, so the kernel takes them once for a
pair that follows its reverse; each orientation still applies its own
test. Each pair iterates to its own stop, with every sum
over D taken in coordinate order, so a pair's values depend neither on
the other pairs nor on the loop that ran. The policy's weight solve is
the D = 1 case (`reference._root_row` on the Python loop, its inlined
copy in the kernel's trial loop).

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
from collections.abc import Sequence

from . import _native
from .numerics import (
    _LOG1P_TAIL_COEFFS,
    _SERIES_RADIUS,
    DomainError,
    _FrozenRecord,
    _moved,
    _require_int,
    _require_list,
    _require_real,
    binary_relative_entropy,
    poisson_kl,  # noqa: F401 - unused here; perfbench/micro.py and tracer.py read this name
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

# Public names that live in `oddball.reference`, resolved on first access.
__getattr__, __dir__ = _moved(__name__, ("mixed_rate", "d_star_rows", "brute_force_d_star"))

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


def objective(config: OddConfig, lambda_odd: float) -> float:
    """Game objective f(lambda_odd); concave, zero at both endpoints.

    f = lambda_odd * D(r1 || r_tilde) + (1 - lambda_odd) * rho * D(r2 || r_tilde)
    with coordinate-summed divergences for vector configs.
    """
    lambda_odd = _require_real(lambda_odd, "lambda_odd", 0.0, 1.0)
    from .reference import _objective_sum  # no command calls this: off the import path

    return _objective_sum(config.r1, config.r2, config.rho, lambda_odd)


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


def _not_a_table() -> DomainError:
    return DomainError("rate tables must be 2-D of one shape")


def _solve_pairs(rows, pairs, rho: float) -> tuple[list[float], list[float]]:
    """lam_hat and D* of each (odd, common) pair of row indices into
    `rows`, a sequence of rows of D rates each (lists, `array('d')` rows
    or a 2-D numpy array), on the kernel's `oddball_solve_rows` when it
    loads, else pair by pair on `reference._root_row` and
    `reference._objective_sum`, imported only then; the values are the
    same bits either way. Pairs must not be degenerate,
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
        from .reference import _objective_sum, _root_row

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

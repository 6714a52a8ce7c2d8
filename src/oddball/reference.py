"""The Python twin of the compiled kernel `_kernel.c`, the package's
oracles and its single-step API: the code no command runs while the
kernel loads.

`oddball.cli` never imports this module. `policy._compiled` and
`solver._solve_pairs` import it when a trial or a solve goes to Python:
without the kernel, for a trial the kernel declines, or on a generator
that is not numpy's. The package and each module a public name here
moved from (`numerics`, `solver`, `glr`, `policy`, `dissimilarity`)
resolve that name on first access (PEP 562), so
`oddball.glr.modified_glr` and `oddball.modified_glr` still name the
functions below. It holds, section by section:

* the scores and the modified GLR of `oddball.glr`'s statistic:
  `_scores` is the one definition of both scores;
* the Python solve of `oddball.solver`: `_root_row` and
  `_objective_sum`, the reference the kernel's `oddball_solve_rows`
  repeats bit for bit, and the array solve `d_star_rows`;
* the Python trial loop `_python_trial` of `oddball.policy`, the
  reference the kernel's trial loop repeats bit for bit, and the
  single-step API built on its steps (`next_decision`,
  `leader_lambda_odd`);
* the independent oracles the tests compare against
  (`poisson_kl_series`, `brute_force_d_star`) and
  `synthesize_search_dataset`.
"""

from __future__ import annotations

import math

from .dissimilarity import FiringRateTable, _pair_dstar
from .glr import SufficientStats
from .numerics import DomainError, _FrozenRecord, _require_int, _require_real, poisson_kl
from .policy import (
    _QUANT,
    DEGENERATE_ESTIMATE_GAP,
    PolicyConfig,
    Snapshot,
    TrialOutcome,
    _rates,
    _weight_cells,
)
from .solver import (
    _MIN_BRACKET,
    DEFAULT_TOL,
    NEAR_DEGENERATE_NU,
    OddConfig,
    _equal_rates_hat,
    _lam_odd_from_hat,
    _no_sign_change,
    _not_a_table,
    _nu,
    _solve_pairs,
    _weight_vector,
)


# Scores and the modified GLR (`oddball.glr`).


class GlrState(_FrozenRecord):
    """One slot's worth of test state, equal only to itself.

    z:      K x K matrix of pairwise scores Z_ij (diagonal unused, 0.0).
    z_min:  Z_i = min over j != i of Z_ij.
    theta:  K x 2 matrix of per-hypothesis ML rate estimates (0.0 sentinel
            where the defining ratio is 0/0).
    leader: 1-based argmax of z_min; exact-value ties are broken uniformly
            at random from the caller's stream.
    """

    _fields = ("n", "z", "z_min", "theta", "leader")
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _check_hypothesis(stats: SufficientStats, i: int, caller: str) -> None:
    if stats.n < 1:
        raise DomainError(f"{caller} requires at least one observed slot")
    _require_int(i, "hypothesis index", 1, stats.k)


def averaged_log_likelihood(stats: SufficientStats, i: int) -> float:
    """Prior-averaged log-likelihood that process i is the odd one."""
    _check_hypothesis(stats, i, "averaged_log_likelihood")
    return _scores(stats)[0][i - 1]


def ml_log_likelihood(stats: SufficientStats, j: int) -> float:
    """Rate-maximized log-likelihood that process j is the odd one.

    Zero event totals contribute 0 (the supremum is attained as the
    corresponding rate vanishes), including the never-visited case.
    """
    _check_hypothesis(stats, j, "ml_log_likelihood")
    return _scores(stats)[1][j - 1]


def _scores(stats: SufficientStats) -> tuple[list[float], list[float]]:
    """Both per-hypothesis scores, O(K): the one definition of each, read by
    the public score functions, the full-state builder and the policy's
    slot loop."""
    lgamma = math.lgamma
    log = math.log
    n = stats.n
    total = stats.total
    avg = [0.0] * stats.k
    ml = [0.0] * stats.k
    for idx in range(stats.k):
        yi = stats.events[idx]
        ni = stats.visits[idx]
        yo = total - yi
        no = n - ni
        avg[idx] = (
            lgamma(yi + 1) - (yi + 1) * log(ni + 1) + lgamma(yo + 1) - (yo + 1) * log(no + 1)
        )
        t = 0.0
        if yi > 0:
            t += yi * (log(yi / ni) - 1.0)
        if yo > 0:
            t += yo * (log(yo / no) - 1.0)
        ml[idx] = t
    return avg, ml


def _z_min_from_scores(avg: list[float], ml: list[float]) -> list[float]:
    """Z_i = avg_i - max_{j != i} ml_j via the top two of ml."""
    m1 = -math.inf
    m2 = -math.inf
    a1 = -1
    for idx, v in enumerate(ml):
        if v > m1:
            m2 = m1
            m1 = v
            a1 = idx
        elif v > m2:
            m2 = v
    return [avg[idx] - (m2 if idx == a1 else m1) for idx in range(len(ml))]


def _pick_leader(z_min: list[float], rng) -> int:
    """1-based argmax with exact-value ties broken uniformly from rng.

    Consumes one draw only when there is a tie, so identically seeded
    replays consume the stream identically.
    """
    best = max(z_min)
    tied = [idx for idx, v in enumerate(z_min) if v == best]
    if len(tied) == 1:
        return tied[0] + 1
    return tied[int(rng.integers(len(tied)))] + 1


def modified_glr(stats: SufficientStats, rng) -> GlrState:
    """Full test state after stats.n slots: pairwise matrix, row minima,
    per-hypothesis rate estimates, and the current leader."""
    import numpy as np

    if stats.n < 1:
        raise DomainError("modified_glr requires at least one observed slot")
    k = stats.k
    avg, ml = _scores(stats)
    z = np.subtract.outer(avg, ml)
    np.fill_diagonal(z, 0.0)
    z_min = _z_min_from_scores(avg, ml)
    theta = np.array([stats.theta_hat(i) for i in range(1, k + 1)])
    leader = _pick_leader(z_min, rng)
    return GlrState(n=stats.n, z=z, z_min=np.array(z_min), theta=theta, leader=leader)


# The Python solve (`oddball.solver`).


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


def _objective_sum(r1, r2, rho: float, lambda_odd: float) -> float:
    d1 = 0.0
    d2 = 0.0
    for a, b in zip(r1, r2):
        m = _mix(lambda_odd, a, b, rho)
        d1 += poisson_kl(a, m)
        d2 += poisson_kl(b, m)
    return lambda_odd * d1 + (1.0 - lambda_odd) * rho * d2


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


# The Python trial loop and the single-step API (`oddball.policy`).


class PolicyDecision(_FrozenRecord):
    """What the policy does at the end of a slot: stop and declare, or
    continue with `action` drawn from `distribution`."""

    _fields = ("stop", "declared", "action", "distribution")
    _defaults = (None, None, None)


def leader_lambda_odd(k: int, theta_1: float, theta_2: float, cache: dict | None = None) -> float:
    """Odd-process weight lambda*(k, nu) at the quantized nu of the positive
    estimate pair. Values are memoized in the weight cells of k in `cache`
    and computed at the quantized point, so the value served does not
    depend on what the memo held before; cache=None solves without
    keeping the value. Raises DomainError unless both estimates are
    finite and positive."""
    _require_int(k, "k", 3)
    nu = _nu(
        _require_real(theta_1, "theta_1", 0.0, open=True),
        _require_real(theta_2, "theta_2", 0.0, open=True),
    )
    q = round(nu * _QUANT)
    if q < 1:
        q = 1
    elif q > _QUANT - 1:
        q = _QUANT - 1
    if cache is not None:
        cells = _weight_cells(cache, k)
        at = 2 * (q & (len(cells) // 2 - 1))  # q's cell of the memo's _MEMO_CELLS
        if cells[at] == q:
            return float(cells[at + 1])
    # solve_lambda_star(OddConfig(k, 1, nu_q, 1 - nu_q)).lam_odd, whose
    # degenerate case at nu_q = 1/2 _root_row also covers.
    rho = (k - 2) / (k - 1)
    nu_q = q / _QUANT
    lam_odd = _lam_odd_from_hat(_root_row((nu_q,), (1.0 - nu_q,), rho), rho)
    if cache is not None:
        cells[at], cells[at + 1] = q, lam_odd
    return lam_odd


def _weighted_action(leader: int, lam_odd: float, k: int, u: float) -> int:
    """Map one uniform draw to an action: mass lam_odd on the leader,
    the remainder uniform over the others."""
    if u < lam_odd:
        return leader
    frac = (u - lam_odd) / (1.0 - lam_odd)
    idx = int(frac * (k - 1))
    if idx > k - 2:
        idx = k - 2
    return idx + 1 if idx + 1 < leader else idx + 2


def _uniform_action(k: int, u: float) -> int:
    idx = int(u * k)
    if idx > k - 1:
        idx = k - 1
    return idx + 1


def _stops(config: PolicyConfig, z_leader: float) -> bool:
    """Stop rule at the end of a slot: the leader's score reached the
    threshold ("non_stopping" never stops)."""
    return config.variant == "standard" and z_leader >= config.log_threshold


def _next_action(
    config: PolicyConfig,
    n: int,
    leader: int,
    theta: tuple[float, float],
    rng,
    cache: dict | None,
) -> tuple[int, int, float | None]:
    """Action for slot n + 1 given the state after slot n and the leader's
    (odd rate, common rate) estimates `theta`: round-robin during warm-up,
    uniform when the estimates are unusable or degenerate, otherwise mass
    lambda*(k, nu) on the leader. Draws: none in warm-up, one uniform
    otherwise.

    Returns (action, focus, mass): the action's distribution has `mass` on
    process `focus` and the rest spread evenly; mass None means uniform.
    """
    k = config.k
    if n < k:
        action = (n % k) + 1
        return action, action, 1.0
    t1, t2 = theta
    if t1 <= 0.0 or t2 <= 0.0 or abs(t1 - t2) < DEGENERATE_ESTIMATE_GAP:
        return _uniform_action(k, float(rng.random())), leader, None
    lam_odd = leader_lambda_odd(k, t1, t2, cache)
    return _weighted_action(leader, lam_odd, k, float(rng.random())), leader, lam_odd


def next_decision(
    config: PolicyConfig,
    glr: GlrState | None,
    rng,
    cache: dict | None = None,
) -> PolicyDecision:
    """One policy step at the end of a slot (glr=None means no slot has
    been observed yet). Checks the stop rule, then selects the next
    action: round-robin during warm-up, weight-driven at the leader's
    estimates otherwise, uniform when those estimates are unusable.
    `run_trial` applies the same step on every slot; `glr` needs the config's K.

    Draw discipline (coupling contract): no draw for a stop or a warm-up
    action; exactly one uniform for a weighted or fallback action. Leader
    tie-breaks inside `modified_glr` consume their own draws. `cache` is
    the weight memo to read and fill; None means one for this call only.
    """
    if glr is None:
        n, leader, theta = 0, 1, (0.0, 0.0)  # nothing observed: no estimates
    elif len(glr.z_min) != config.k:
        raise DomainError(f"state has k={len(glr.z_min)} but the policy has k={config.k}")
    else:
        n, leader = glr.n, glr.leader
        if _stops(config, glr.z_min[leader - 1]):
            return PolicyDecision(stop=True, declared=leader)
        theta = tuple(map(float, glr.theta[leader - 1]))
    action, focus, mass = _next_action(config, n, leader, theta, rng, cache)
    k = config.k
    dist = tuple([1.0 / k] * k) if mass is None else _weight_vector(focus, mass, k)
    return PolicyDecision(stop=False, action=action, distribution=dist)


def _python_trial(
    config: PolicyConfig,
    truth: OddConfig,
    rng,
    collect_trace: bool,
    cp: frozenset,
    cache: dict,
) -> tuple:
    """One trial on the Python loop, the reference the compiled kernel
    repeats. Returns what `_compiled` reads of a kernel trial: (tau,
    delta, capped, rows, snapshots, last), with the trace rows
    (action, count, leader, z_leader) of each slot when `collect_trace`
    (else None), a `Snapshot` at each slot of `cp` and the final (visits,
    events, total, z_min)."""
    k = config.k
    rates = _rates(truth)
    stats = SufficientStats(k=k)
    snaps = []
    visits = stats.visits
    events = stats.events
    rows: list[tuple] | None = [] if collect_trace else None

    capped = True
    leader = 1
    z_min = [0.0] * k
    action = _next_action(config, 0, leader, stats.theta_hat(leader), rng, cache)[0]
    for m in range(1, config.max_slots + 1):
        x = int(rng.poisson(rates[action - 1]))
        stats._record(action, x)
        avg, ml = _scores(stats)
        z_min = _z_min_from_scores(avg, ml)
        leader = _pick_leader(z_min, rng)
        if rows is not None:
            rows.append((action, x, leader, z_min[leader - 1]))
        if m in cp:
            snaps.append(
                Snapshot(
                    n=m,
                    leader=leader,
                    z_min=tuple(z_min),
                    visits=tuple(visits),
                    events=tuple(events),
                    total=stats.total,
                )
            )
        if _stops(config, z_min[leader - 1]):
            capped = False
            break
        action = _next_action(config, m, leader, stats.theta_hat(leader), rng, cache)[0]
    last = (tuple(visits), tuple(events), stats.total, tuple(z_min))
    return m, leader, capped, rows, tuple(snaps), last


def empirical_action_frequencies(outcome: TrialOutcome) -> tuple[float, ...]:
    """Fraction of slots spent on each process, from the trace."""
    if outcome.trace is None:
        raise DomainError("empirical_action_frequencies requires a trial run with collect_trace")
    counts = [0] * outcome.k
    slots = 0
    for rec in outcome.trace:
        if "action" in rec:
            counts[rec["action"] - 1] += 1
            slots += 1
    return tuple(c / slots for c in counts)


# The oracles (`oddball.numerics`, `oddball.solver`) and synthetic search data
# (`oddball.dissimilarity`).


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


def synthesize_search_dataset(
    n_images: int,
    n_neurons: int,
    k: int,
    n_pairs: int,
    samples_per_pair: int,
    rng,
    noise_scale: float = 0.05,
    base_delay: float = 1.0,
):
    """Generate a firing-rate table plus decision delays that follow the
    reciprocal law: each sampled pair (a, b) gets `samples_per_pair`
    delays distributed around base_delay / D*(a, b) with multiplicative
    Gaussian noise. Returns (table, delays) with delays a list of
    (odd_id, distractor_id, delay) rows.
    """
    _require_int(n_images, "n_images", 2)
    _require_int(n_neurons, "n_neurons", 1)
    _require_int(k, "display size k", 3)
    max_pairs = n_images * (n_images - 1)
    _require_int(n_pairs, "n_pairs", 1, max_pairs)
    _require_int(samples_per_pair, "samples_per_pair", 1)
    noise_scale = _require_real(noise_scale, "noise_scale", 0.0)
    base_delay = _require_real(base_delay, "base_delay", 0.0, open=True)

    ids = [f"img{i:03d}" for i in range(n_images)]
    rates = rng.uniform(0.5, 8.0, size=(n_images, n_neurons))
    table = FiringRateTable.from_arrays(ids, rates)

    chosen = rng.choice(max_pairs, size=n_pairs, replace=False)
    pairs = []
    for code in sorted(int(c) for c in chosen):
        a, residue = divmod(code, n_images - 1)
        pairs.append((a, residue if residue < a else residue + 1))
    diffs = _pair_dstar(table, k, pairs)
    delays = []
    for (a, b), diff in zip(pairs, diffs):
        mean_delay = base_delay / diff
        for _ in range(samples_per_pair):
            value = mean_delay * (1.0 + noise_scale * float(rng.standard_normal()))
            delays.append((ids[a], ids[b], max(value, 1e-9)))
    return table, delays


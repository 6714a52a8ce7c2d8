"""Sequential policy: sample where the evidence says to, stop when it is strong.

At the end of every slot the policy computes the per-hypothesis scores
Z_i (see `oddball.glr`), names the current leader i* = argmax Z_i, and

* stops and declares i* as soon as Z_{i*} >= log((K - 1) * L), where L is
  the reliability parameter (the declaration is wrong with probability at
  most 1/L);
* otherwise samples the next slot from the optimal weights
  lambda*(i*, theta_hat) computed at the leader's current rate estimates.

The first K slots visit processes 1..K in round-robin order so every
estimate has a chance to exist; the stop rule is live during warm-up too
(the scores are well defined from slot 1 via the zero-count conventions).
Whenever the leader's estimate pair is unusable (a zero from unvisited or
eventless cells) or degenerate (the two estimates within 1e-9), the next
slot is sampled uniformly.

Variants: "standard" as above; "non_stopping" never stops (used to study
the drift of Z). Both consume randomness identically until the standard
one stops, so trials run with equal seeds are coupled: stopping times are
monotone in L, and a non-stopping trial replays the standard one slot for
slot up to its stop.

Weight lookups are memoized per K over nu rounded to 1e-6: the weight
at grid point q is lambda*(K, q / 1e6), always computed at the rounded
nu, never the first-seen one, so every value the memo serves is a pure
function of (K, q): sharing a memo between trials changes how often the
solver runs, never a result. The memo is a dict the caller owns and
passes as `cache`: under key K, and only there, a direct-mapped cache of
_MEMO_CELLS (q, weight) cells, cell q % _MEMO_CELLS holding the last q
that mapped to it (key 0.0 when empty). Without one, each `run_trial`
keeps its own for the trial and each `next_decision` or
`leader_lambda_odd` call for that call alone. No memo is kept at module
level. The compiled kernel's tables of lgamma(y + 1) and log(n + 1) are
its own: each kernel call fills them as it needs them, up to _TABLE_CAP
entries, and frees them.

Every trial on a numpy `Generator`, traced or not, runs on the compiled
kernel (`_kernel.c`, see README, "Trial kernel"), which repeats the
Python loop bitwise: same draws, same floating-point operations, same
memo cells. `_seeded_trials` runs a list of trials in one kernel call,
which seeds trial t's generator in C as `np.random.default_rng([*prefix,
t])` would. A generator of another type and a machine where the kernel
cannot be built run the Python loop below, which stays the reference.
So does a trial the kernel declines, rerun from its start: one whose
event total would reach 2^53, past which int64 tallies are not exact
doubles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import _native
from .glr import GlrState, SufficientStats, _pick_leader, _scores, _z_min_from_scores
from .numerics import (
    _LOG1P_TAIL_COEFFS,
    _SERIES_RADIUS,
    DomainError,
    _require_int,
    _require_list,
    _require_real,
)
from .solver import (
    _MIN_BRACKET,
    DEFAULT_TOL,
    NEAR_DEGENERATE_NU,
    OddConfig,
    _lam_odd_from_hat,
    _root_scalar,
    _weight_vector,
    solve_lambda_star,  # noqa: F401 - unused here; perfbench/tracer.py wraps this name
)

__all__ = [
    "VARIANTS",
    "PolicyConfig",
    "PolicyDecision",
    "Snapshot",
    "TrialOutcome",
    "leader_lambda_odd",
    "next_decision",
    "run_trial",
    "empirical_action_frequencies",
]

VARIANTS = ("standard", "non_stopping")

# Leader estimates closer than this are treated as equal-rate (no usable
# direction for the weight solver) and the next slot is sampled uniformly.
DEGENERATE_ESTIMATE_GAP = 1e-9

_QUANT = 10 ** 6

# Cells of each K's weight memo, a power of two: 2 * _MEMO_CELLS float64
# (256 KiB). 2^14 keeps the misses of a benchmark call within 5% of those
# of a dense table of _QUANT entries; 2^13 does not on `drift` (+16%).
_MEMO_CELLS = 1 << 14

# numpy's largest Poisson mean (POISSON_LAM_MAX in numpy.random): past it
# Generator.poisson refuses, and a draw could overflow an int64.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)

# Entries of each of the compiled kernel's lgamma and log tables (16 MiB
# each). Past them it computes lgamma(y + 1) and log(n + 1) without storing them.
_TABLE_CAP = 1 << 21


@dataclass(frozen=True)
class PolicyConfig:
    """Parameters of the sequential test.

    threshold_l: reliability parameter L >= 1, stored as a float; the
        stop threshold is log((k - 1) * L).
    variant: one of VARIANTS.
    max_slots: hard cap; a trial that reaches it is marked capped and its
        declaration carries no error guarantee.

    Construction also sets `warmup` (the k round-robin slots) and
    `log_threshold`, which the policy step reads on every slot.
    """

    k: int
    threshold_l: float
    variant: str = "standard"
    max_slots: int = 10_000_000

    def __post_init__(self):
        _require_int(self.k, "k", 3)
        object.__setattr__(self, "threshold_l", _require_real(self.threshold_l, "threshold_l", 1.0))
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        _require_int(self.max_slots, "max_slots", 1)
        object.__setattr__(self, "warmup", self.k)
        object.__setattr__(self, "log_threshold", math.log((self.k - 1) * self.threshold_l))
        if self.max_slots < self.warmup:
            raise DomainError(
                f"max_slots ({self.max_slots}) must cover the warm-up ({self.warmup} slots)"
            )


@dataclass(frozen=True)
class PolicyDecision:
    """What the policy does at the end of a slot: stop and declare, or
    continue with `action` drawn from `distribution`."""

    stop: bool
    declared: int | None = None
    action: int | None = None
    distribution: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Snapshot:
    """Mid-trial state capture (used by drift studies and trace audits)."""

    n: int
    leader: int
    z_min: tuple[float, ...]
    visits: tuple[int, ...]
    events: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one simulated trial.

    tau is the stopping slot (or max_slots if capped), delta the declared
    odd index (the final leader when capped or never stopping), correct
    whether delta matches the truth. Final tallies are always carried;
    the per-slot trace only when requested.
    """

    k: int
    tau: int
    delta: int
    correct: bool
    capped: bool
    visits: tuple[int, ...]
    events: tuple[int, ...]
    total: int
    z_min: tuple[float, ...]
    trace: tuple[dict, ...] | None = None
    snapshots: tuple[Snapshot, ...] | None = None


def leader_lambda_odd(k: int, theta_1: float, theta_2: float, cache: dict | None = None) -> float:
    """Odd-process weight lambda*(k, nu) at the quantized nu of the positive
    estimate pair. Values are memoized in the weight cells of k in `cache`
    and computed at the quantized point, so the value served does not
    depend on what the memo held before; cache=None solves without
    keeping the value."""
    _require_int(k, "k", 3)
    if not (theta_1 > 0.0 and theta_2 > 0.0):
        raise DomainError(f"leader estimates must be positive, got {theta_1!r}, {theta_2!r}")
    nu = theta_1 / (theta_1 + theta_2)
    q = round(nu * _QUANT)
    if q < 1:
        q = 1
    elif q > _QUANT - 1:
        q = _QUANT - 1
    if cache is not None:
        cells = _weight_cells(cache, k)
        at = 2 * (q & (_MEMO_CELLS - 1))
        if cells[at] == q:
            return float(cells[at + 1])
    # solve_lambda_star(OddConfig(k, 1, nu_q, 1 - nu_q)).lam_odd, whose
    # degenerate case at nu_q = 1/2 _root_scalar also covers.
    rho = (k - 2) / (k - 1)
    nu_q = q / _QUANT
    lam_odd = _lam_odd_from_hat(_root_scalar(nu_q, 1.0 - nu_q, rho), rho)
    if cache is not None:
        cells[at], cells[at + 1] = q, lam_odd
    return lam_odd


def _weight_cells(cache: dict, k: int) -> np.ndarray:
    """The memo's weight cells of k: cell c is entries 2c (a grid point q,
    0.0 when empty) and 2c + 1 (lambda*(k, q / _QUANT)), for the last q
    with q % _MEMO_CELLS == c that was solved."""
    cells = cache.get(k)
    if cells is None:
        cells = cache[k] = np.zeros(2 * _MEMO_CELLS)
    return cells


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


def run_trial(
    config: PolicyConfig,
    truth: OddConfig,
    rng,
    collect_trace: bool = False,
    checkpoints: Sequence[int] | None = None,
    cache: dict | None = None,
) -> TrialOutcome:
    """Simulate one trial of the policy against a scalar-rate truth.

    Per slot: observe a Poisson count from the chosen process, update the
    tallies, recompute the scores and the leader, then take the policy
    step that `next_decision` takes (the stop rule, else the next action).
    The trace, when collected, has one record per slot
    {"n", "action", "count", "leader", "z_leader"} plus a terminal
    {"tau", "delta", "correct", "capped"} record. `checkpoints` are the
    slots (ints >= 1) to snapshot. `cache` is the memo to read and fill;
    None means one for this trial only. Trials on a numpy `Generator` run
    on the compiled kernel when it is available; the outcome, the
    generator's state afterwards and the memo are the same either way.
    """
    _check_truth(config, truth)
    cps = () if checkpoints is None else _require_list(checkpoints, "checkpoints")
    cp = frozenset(_require_int(c, "checkpoint", 1) for c in cps)
    if cache is None:
        cache = {}
    kernel = _native.kernel() if isinstance(rng, np.random.Generator) else None
    if kernel is None:
        return _python_trial(config, truth, rng, collect_trace, cp, cache)
    out, last, _ = _compiled(
        kernel, config, truth, cache, [0], (), rng, tuple(sorted(cp)), int(collect_trace)
    )
    tau, delta, capped, trace, snaps = (field[0] for field in out)
    return TrialOutcome(config.k, tau, delta, delta == truth.odd_index, capped, *last, trace, snaps)


def _check_truth(config: PolicyConfig, truth: OddConfig) -> None:
    """Refuse a truth the trial loops cannot simulate under `config`."""
    if truth.dim != 1:
        raise DomainError("simulation supports scalar-rate configurations only")
    if truth.k != config.k:
        raise DomainError(f"truth has k={truth.k} but the policy was configured for k={config.k}")
    if max(truth.r1[0], truth.r2[0]) > _POISSON_LAM_MAX:
        raise DomainError(f"rates above {_POISSON_LAM_MAX:.10g} are past numpy's Poisson sampler")


def _rates(truth: OddConfig) -> list[float]:
    rates = [truth.r2[0]] * truth.k
    rates[truth.odd_index - 1] = truth.r1[0]
    return rates


def _python_trial(
    config: PolicyConfig,
    truth: OddConfig,
    rng,
    collect_trace: bool,
    cp: frozenset,
    cache: dict,
) -> TrialOutcome:
    """`run_trial` on the Python loop: the reference the compiled kernel
    repeats."""
    k = config.k
    odd = truth.odd_index
    rates = _rates(truth)
    stats = SufficientStats(k=k)
    snaps = []
    visits = stats.visits
    events = stats.events
    trace: list[dict] | None = [] if collect_trace else None

    stopped = False
    leader = 1
    z_min = [0.0] * k
    action = _next_action(config, 0, leader, stats.theta_hat(leader), rng, cache)[0]
    for m in range(1, config.max_slots + 1):
        x = int(rng.poisson(rates[action - 1]))
        stats._record(action, x)
        avg, ml = _scores(stats)
        z_min = _z_min_from_scores(avg, ml)
        leader = _pick_leader(z_min, rng)
        if trace is not None:
            trace.append(
                {
                    "n": m,
                    "action": action,
                    "count": x,
                    "leader": leader,
                    "z_leader": z_min[leader - 1],
                }
            )
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
            stopped = True
            break
        action = _next_action(config, m, leader, stats.theta_hat(leader), rng, cache)[0]

    capped = not stopped
    outcome_trace: tuple[dict, ...] | None = None
    if trace is not None:
        trace.append({"tau": m, "delta": leader, "correct": leader == odd, "capped": capped})
        outcome_trace = tuple(trace)
    return TrialOutcome(
        k=k,
        tau=m,
        delta=leader,
        correct=leader == odd,
        capped=capped,
        visits=tuple(visits),
        events=tuple(events),
        total=stats.total,
        z_min=tuple(z_min),
        trace=outcome_trace,
        snapshots=tuple(snaps) if cp else None,
    )


# The compiled kernel's int64 state array (these fields, then visits and
# events), the columns of its trace rows and its constants. The layouts
# are the S_, T_ and P_ enums of _kernel.c.
_M, _ACTION, _LEADER, _TOTAL, _STOPPED, _LOOKUPS, _MISSES, _HEAD = range(8)
_T_ACTION, _T_COUNT, _T_LEADER, _T_Z_LEADER, _T_WIDTH = range(5)
# The kernel's PCG64 generator array (the G_ enum): numpy's PCG64.state.
_STATE_HI, _STATE_LO, _INC_HI, _INC_LO, _HAS_UINT32, _UINTEGER, _GEN_SIZE = range(7)
_KERNEL_PARAMS = np.array(
    [_QUANT, _MEMO_CELLS, _TABLE_CAP, DEGENERATE_ESTIMATE_GAP, NEAR_DEGENERATE_NU, DEFAULT_TOL,
     _MIN_BRACKET, _SERIES_RADIUS, len(_LOG1P_TAIL_COEFFS), *_LOG1P_TAIL_COEFFS]
)
_KERNEL_PARAMS.flags.writeable = False


def _trace_records(rows: np.ndarray, delta: int, odd: int, capped: bool) -> tuple[dict, ...]:
    """The trace `_python_trial` records, from the kernel's rows of a trial."""
    ints = rows[:, :_T_Z_LEADER].astype(np.int64).tolist()
    records = [
        {"n": n, "action": a, "count": x, "leader": l, "z_leader": z}
        for n, (a, x, l), z in zip(range(1, len(ints) + 1), ints, rows[:, _T_Z_LEADER].tolist())
    ]
    return (*records, {"tau": len(ints), "delta": delta, "correct": delta == odd, "capped": capped})


# The per-trial lists of a run of trials, named as `TrialOutcome`'s fields.
_Trials = namedtuple("_Trials", "tau delta capped trace snapshots")


def _compiled(
    kernel,
    config: PolicyConfig,
    truth: OddConfig,
    cache: dict,
    trials: list[int],
    prefix: tuple[int, ...] = (),
    rng: np.random.Generator | None = None,
    cps: tuple[int, ...] = (),
    n_traced: int = 0,
) -> tuple[_Trials, tuple, tuple[int, int]]:
    """`run_trial`s on the kernel's one entry, `oddball_block`, with `cache`
    as memo: trial t of `trials` on a PCG64 seeded in C as
    `np.random.default_rng([*prefix, t])` seeds it (keys below 2^64), or
    the one trial on rng's bit generator, each snapshotted at the sorted
    slots `cps`; then the first `n_traced` replayed (from their keys, or
    rng's saved state, with its lock held over both calls) into a trace
    buffer of exactly their slots. A declined trial reruns on the Python
    loop. Returns the lists, the last trial's (visits, events, total,
    z_min), and the first call's weight lookups and memo misses."""
    k, n, ncp = config.k, len(trials), len(cps)
    # One buffer per dtype, as each address costs a numpy call: int64 (state, checkpoint slots,
    # snapshot tallies, results), float64 (rates, scores, scratch, snapshot scores), uint64 (the
    # PCG64 array and keys, not needed on a caller's generator).
    snap_at = _HEAD + 2 * k + ncp
    out_at = snap_at + n * ncp * (2 + 2 * k)
    ints = np.zeros(out_at + 3 * n + 2, dtype=np.int64)
    ints[_HEAD + 2 * k : snap_at] = cps
    reals = np.zeros(k * (4 + n * ncp))
    reals[:k] = _rates(truth)
    ip, rp = ints.ctypes.data, reals.ctypes.data
    words = np.array([*[0] * _GEN_SIZE, *prefix, *trials], dtype=np.uint64) if rng is None else None
    bitgen = None if rng is None else rng.bit_generator
    args = (
        None if bitgen is None else _native.bitgen_address(bitgen),
        None if words is None else words.ctypes.data, len(prefix), k, config.max_slots,
        config.variant == "standard", config.log_threshold, rp, ip, rp + 8 * k,
        _weight_cells(cache, k).ctypes.data, ip + 8 * (_HEAD + 2 * k), ip + 8 * snap_at,
        rp + 32 * k, _KERNEL_PARAMS.ctypes.data, ip + 8 * out_at,
    )

    def run(count: int, snaps: int, rows: np.ndarray | None) -> list[int]:  # rows: the trace
        trace = (None, 0) if rows is None else (rows.ctypes.data, len(rows))
        kernel.oddball_block(count, snaps, *trace, *args)
        return ints[out_at : out_at + 3 * count + 2].tolist()

    with nullcontext() if bitgen is None else bitgen.lock:
        start = None if bitgen is None else bitgen.state
        out = run(n, ncp, None)
        tau, delta, capped = out[:n], out[n : 2 * n], [c == 1 for c in out[2 * n : 3 * n]]
        visits, events = ints[_HEAD : _HEAD + 2 * k].reshape(2, k).tolist()
        last = (tuple(visits), tuple(events), int(ints[_TOTAL]), tuple(reals[k : 2 * k].tolist()))
        replay = [i for i in range(min(n_traced, n)) if tau[i] > 0]  # declined ones rerun traced
        if replay:
            if bitgen is not None:
                bitgen.state = start
            else:
                words[_GEN_SIZE + len(prefix) :][: len(replay)] = [trials[i] for i in replay]
            rows = np.zeros((sum(tau[i] for i in replay), _T_WIDTH))
            if run(len(replay), 0, rows)[: len(replay)] != [tau[i] for i in replay]:
                raise RuntimeError("a trace replay ran differently from its trial")
    traces, snaps = [None] * n, [None] * n
    for i, end in zip(replay, accumulate(tau[i] for i in replay)):
        traces[i] = _trace_records(rows[end - tau[i] : end], delta[i], truth.odd_index, capped[i])
    if cps:  # leader 0 marks a slot the trial did not reach
        tallies = ints[snap_at:out_at].reshape(n, ncp, 2 + 2 * k).tolist()
        scores = reals[4 * k :].reshape(n, ncp, k).tolist()
        snaps = [
            tuple(Snapshot(c, s[0], tuple(zs), tuple(s[2 : 2 + k]), tuple(s[2 + k :]), s[1])
                  for c, s, zs in zip(cps, trial_tallies, trial_scores) if s[0] > 0)
            for trial_tallies, trial_scores in zip(tallies, scores)
        ]
    for i in [i for i in range(n) if tau[i] == 0]:
        if bitgen is not None:
            bitgen.state = start
        trial_rng = np.random.default_rng([*prefix, trials[i]]) if rng is None else rng
        o = _python_trial(config, truth, trial_rng, i < n_traced, frozenset(cps), cache)
        tau[i], delta[i], capped[i], traces[i] = o.tau, o.delta, o.capped, o.trace
        snaps[i] = o.snapshots
        last = (o.visits, o.events, o.total, o.z_min) if i == n - 1 else last
    return _Trials(tau, delta, capped, traces, snaps), last, (out[3 * n], out[3 * n + 1])


def _seeded_trials(
    config: PolicyConfig,
    truth: OddConfig,
    prefix: tuple[int, ...],
    trials: list[int],
    cache: dict,
    cps: tuple[int, ...] = (),
    n_traced: int = 0,
) -> _Trials:
    """`run_trial` for each t in `trials` (ints >= 0) on
    `np.random.default_rng([*prefix, t])`, with `cache` as memo, each
    snapshotted at the sorted slots `cps` and the first `n_traced` traced.
    One `_compiled` call on the kernel; for a key of 2^64 or more each
    trial runs `run_trial`, and without the kernel the Python loop. The
    results and every weight the memo serves are the same."""
    _check_truth(config, truth)
    kernel = _native.kernel() if max([0, *prefix, *trials]) < 1 << 64 else None
    if kernel is not None:
        out, _, _ = _compiled(kernel, config, truth, cache, trials, prefix, None, cps, n_traced)
        return out
    outs = [
        run_trial(config, truth, np.random.default_rng([*prefix, t]), i < n_traced, cps, cache)
        for i, t in enumerate(trials)
    ]
    return _Trials(*([getattr(o, name) for o in outs] for name in _Trials._fields))


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

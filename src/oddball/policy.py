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

Every trial runs through `_compiled`. On a numpy `Generator`, traced or
not, it runs on the compiled kernel (`_kernel.c`, see README, "Trial
kernel"), which repeats the Python loop bitwise: same draws, same
floating-point operations, same memo cells. `_seeded_trials` runs a list
of trials in one kernel call, which seeds trial t's generator in C as
`np.random.default_rng([*prefix, t])` would. The Python loop,
`_python_trial`, stays the reference and runs only where the kernel does
not: a trial the kernel declines, rerun from its start (one whose event
total would reach 2^53, past which int64 tallies are not exact doubles),
and every trial on a generator of another type or on a machine where the
kernel cannot be built. It hands `_compiled` what a kernel trial does, so
`_trace_records` builds every trace and `run_trial` every outcome.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from contextlib import nullcontext
from itertools import accumulate
from typing import Sequence

from . import _native
from .glr import GlrState, SufficientStats, _pick_leader, _scores, _z_min_from_scores
from .numerics import (
    DomainError,
    _FrozenRecord,
    _require_int,
    _require_list,
    _require_real,
)
from .solver import (
    _SOLVE_PARAMS,
    OddConfig,
    _lam_odd_from_hat,
    _nu,
    _root_row,
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

# numpy's largest Poisson mean (POISSON_LAM_MAX in numpy.random, INT64_MAX -
# sqrt(INT64_MAX) * 10 in doubles): past it Generator.poisson refuses, and a
# draw could overflow an int64.
_POISSON_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10

# Entries of each of the compiled kernel's lgamma and log tables (16 MiB
# each). Past them it computes lgamma(y + 1) and log(n + 1) without storing them.
_TABLE_CAP = 1 << 21


class PolicyConfig(_FrozenRecord):
    """Parameters of the sequential test.

    threshold_l: reliability parameter L >= 1, stored as a float; the
        stop threshold is log((k - 1) * L).
    variant: one of VARIANTS.
    max_slots: hard cap; a trial that reaches it is marked capped and its
        declaration carries no error guarantee.

    Construction also sets `warmup` (the k round-robin slots) and
    `log_threshold`, which the policy step reads on every slot.
    """

    _fields = ("k", "threshold_l", "variant", "max_slots")

    def __init__(
        self, k: int, threshold_l: float, variant: str = "standard", max_slots: int = 10_000_000
    ):
        _require_int(k, "k", 3)
        threshold_l = _require_real(threshold_l, "threshold_l", 1.0)
        if variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {variant!r}")
        _require_int(max_slots, "max_slots", 1)
        if max_slots < k:
            raise DomainError(f"max_slots ({max_slots}) must cover the warm-up ({k} slots)")
        self.__dict__.update(
            k=k, threshold_l=threshold_l, variant=variant, max_slots=max_slots,
            warmup=k, log_threshold=math.log((k - 1) * threshold_l),
        )


class PolicyDecision(_FrozenRecord):
    """What the policy does at the end of a slot: stop and declare, or
    continue with `action` drawn from `distribution`."""

    _fields = ("stop", "declared", "action", "distribution")
    _defaults = (None, None, None)


class Snapshot(_FrozenRecord):
    """Mid-trial state capture (used by drift studies and trace audits)."""

    _fields = ("n", "leader", "z_min", "visits", "events", "total")


class TrialOutcome(_FrozenRecord):
    """Result of one simulated trial.

    tau is the stopping slot (or max_slots if capped), delta the declared
    odd index (the final leader when capped or never stopping), correct
    whether delta matches the truth. Final tallies are always carried;
    the per-slot trace only when requested.
    """

    _fields = (
        "k", "tau", "delta", "correct", "capped", "visits", "events", "total", "z_min", "trace",
        "snapshots",
    )
    _defaults = (None, None)


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
        at = 2 * (q & (_MEMO_CELLS - 1))
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


def _weight_cells(cache: dict, k: int) -> array:
    """The memo's weight cells of k, an `array('d')`: cell c is entries 2c
    (a grid point q, 0.0 when empty) and 2c + 1 (lambda*(k, q / _QUANT)),
    for the last q with q % _MEMO_CELLS == c that was solved."""
    cells = cache.get(k)
    if cells is None:
        cells = cache[k] = array("d", [0.0]) * (2 * _MEMO_CELLS)
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
    if rng is None:
        raise DomainError("run_trial needs a generator to draw from, got None")
    cps = () if checkpoints is None else _require_list(checkpoints, "checkpoints")
    cps = tuple(sorted({_require_int(c, "checkpoint", 1) for c in cps}))
    np = sys.modules.get("numpy")  # a Generator exists only once numpy is loaded
    kernel = _native.kernel() if np is not None and isinstance(rng, np.random.Generator) else None
    out, last, _ = _compiled(
        kernel, config, truth, {} if cache is None else cache, [0], (), rng, cps, int(collect_trace)
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


# The compiled kernel's int64 state array (these fields, then visits and
# events), the columns of its trace rows and its constants. The layouts
# are the S_, T_ and P_ enums of _kernel.c.
_M, _LEADER, _TOTAL, _STOPPED, _LOOKUPS, _MISSES, _HEAD = range(7)
_T_ACTION, _T_COUNT, _T_LEADER, _T_Z_LEADER, _T_WIDTH = range(5)
# The kernel's PCG64 generator array (the G_ enum): numpy's PCG64.state.
_STATE_HI, _STATE_LO, _INC_HI, _INC_LO, _HAS_UINT32, _UINTEGER, _GEN_SIZE = range(7)
# The kernel's constants (the P_ enum), as `solver._SOLVE_PARAMS`; never written.
_KERNEL_PARAMS = array(
    "d", [_QUANT, _MEMO_CELLS, _TABLE_CAP, DEGENERATE_ESTIMATE_GAP, *_SOLVE_PARAMS[4:]]
)


def _reshaped(buffer: array, start: int, *shape: int) -> list:
    """Items buffer[start:] read as nested lists of `shape`, as numpy's
    reshape(shape).tolist() gives them."""
    if shape[0] == 0:
        return []
    view = memoryview(buffer)[start : start + math.prod(shape)]
    return view.cast("B").cast(buffer.typecode, shape).tolist()


def _trace_records(rows: list, delta: int, odd: int, capped: bool) -> tuple[dict, ...]:
    """A trial's trace, from its rows in the kernel's layout (sequences of
    _T_WIDTH numbers, the kernel's floats or the Python loop's ints and
    score)."""
    records = [
        {"n": n, "action": int(r[_T_ACTION]), "count": int(r[_T_COUNT]),
         "leader": int(r[_T_LEADER]), "z_leader": r[_T_Z_LEADER]}
        for n, r in enumerate(rows, 1)
    ]
    return (*records, {"tau": len(rows), "delta": delta, "correct": delta == odd, "capped": capped})


# The per-trial lists of a run of trials, named as `TrialOutcome`'s fields.
_Trials = namedtuple("_Trials", "tau delta capped trace snapshots")


def _compiled(
    kernel,
    config: PolicyConfig,
    truth: OddConfig,
    cache: dict,
    trials: list[int],
    prefix: tuple[int, ...] = (),
    rng=None,
    cps: tuple[int, ...] = (),
    n_traced: int = 0,
) -> tuple[_Trials, tuple, tuple[int, int]]:
    """`run_trial`s with `cache` as memo, the one path every trial takes:
    trial t of `trials` on a PCG64 seeded as `np.random.default_rng([*prefix,
    t])` seeds it, or the one trial on `rng`, each snapshotted at the
    sorted slots `cps` and the first `n_traced` traced. On the kernel's one
    entry, `oddball_block`, the seeding is in C (keys below 2^64), and the
    traced trials are replayed (from their keys, or rng's saved state)
    into a trace buffer of exactly their slots. A trial the kernel
    declines, and every trial when `kernel` is None, runs on the Python
    loop from its start instead. On a caller's generator, the lock is held
    over the kernel calls and the reruns. Returns the lists, the last
    trial's (visits, events, total, z_min), and the first kernel call's
    weight lookups and memo misses (zeros without the kernel)."""
    _check_truth(config, truth)
    k, n, ncp = config.k, len(trials), len(cps)
    # One buffer per type: int64 (state, checkpoint slots, snapshot tallies, results), float64
    # (rates, scores, scratch, snapshot scores), uint64 (the PCG64 array and keys, not needed on a
    # caller's generator).
    snap_at = _HEAD + 2 * k + ncp
    out_at = snap_at + n * ncp * (2 + 2 * k)
    ints = array("q", [0]) * (out_at + 3 * n + 2)
    ints[_HEAD + 2 * k : snap_at] = array("q", cps)
    reals = array("d", [0.0]) * (k * (5 + n * ncp))
    reals[:k] = array("d", _rates(truth))
    address = _native.buffer_address
    ip, rp = address(ints), address(reals)
    words = array("Q", [*[0] * _GEN_SIZE, *prefix, *trials]) if rng is None else None
    bitgen = None if rng is None or kernel is None else rng.bit_generator
    args = (
        None if bitgen is None else _native.bitgen_address(bitgen),
        None if words is None else address(words), len(prefix), k, config.max_slots,
        config.variant == "standard", config.log_threshold, rp, ip, rp + 8 * k,
        address(_weight_cells(cache, k)), ip + 8 * (_HEAD + 2 * k), ip + 8 * snap_at,
        rp + 40 * k, address(_KERNEL_PARAMS), ip + 8 * out_at,
    )

    def run(count: int, snaps: int, rows: array | None) -> list[int]:  # rows: the trace
        trace = (None, 0) if rows is None else (address(rows), len(rows) // _T_WIDTH)
        kernel.oddball_block(count, snaps, *trace, *args)
        return ints[out_at : out_at + 3 * count + 2].tolist()

    with nullcontext() if bitgen is None else bitgen.lock:
        start = None if bitgen is None else bitgen.state
        out = [0] * (3 * n + 2) if kernel is None else run(n, ncp, None)  # tau 0: declined
        tau, delta, capped = out[:n], out[n : 2 * n], [c == 1 for c in out[2 * n : 3 * n]]
        visits, events = ints[_HEAD : _HEAD + k], ints[_HEAD + k : _HEAD + 2 * k]
        last = (tuple(visits), tuple(events), ints[_TOTAL], tuple(reals[k : 2 * k]))
        rows = [None] * n
        replay = [i for i in range(min(n_traced, n)) if tau[i] > 0]
        if replay:
            if bitgen is not None:
                bitgen.state = start
            else:
                at = _GEN_SIZE + len(prefix)
                words[at : at + len(replay)] = array("Q", [trials[i] for i in replay])
            buffer = array("d", [0.0]) * (sum(tau[i] for i in replay) * _T_WIDTH)
            if run(len(replay), 0, buffer)[: len(replay)] != [tau[i] for i in replay]:
                raise RuntimeError("a trace replay ran differently from its trial")
            flat = _reshaped(buffer, 0, len(buffer) // _T_WIDTH, _T_WIDTH)
            for i, end in zip(replay, accumulate(tau[i] for i in replay)):
                rows[i] = flat[end - tau[i] : end]
        snaps = [None] * n
        if cps:  # leader 0 marks a slot the trial did not reach
            tallies = _reshaped(ints, snap_at, n, ncp, 2 + 2 * k)
            scores = _reshaped(reals, 5 * k, n, ncp, k)
            snaps = [
                tuple(Snapshot(c, s[0], tuple(zs), tuple(s[2 : 2 + k]), tuple(s[2 + k :]), s[1])
                      for c, s, zs in zip(cps, trial_tallies, trial_scores) if s[0] > 0)
                for trial_tallies, trial_scores in zip(tallies, scores)
            ]
        for i in [i for i in range(n) if tau[i] == 0]:
            if bitgen is not None:
                bitgen.state = start
            trial_rng = _default_rng([*prefix, trials[i]]) if rng is None else rng
            tau[i], delta[i], capped[i], rows[i], trial_snaps, trial_last = _python_trial(
                config, truth, trial_rng, i < n_traced, frozenset(cps), cache
            )
            snaps[i] = trial_snaps if cps else None
            last = trial_last if i == n - 1 else last
    traces = [
        None if r is None else _trace_records(r, d, truth.odd_index, c)
        for r, d, c in zip(rows, delta, capped)
    ]
    return _Trials(tau, delta, capped, traces, snaps), last, (out[3 * n], out[3 * n + 1])


def _default_rng(key: list[int]):
    """`numpy.random.default_rng(key)`: numpy is loaded only for a trial
    that runs on the Python loop."""
    import numpy as np

    return np.random.default_rng(key)


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
    snapshotted at the sorted slots `cps` and the first `n_traced` traced:
    one `_compiled` call, or, for a key of 2^64 or more, which the kernel
    cannot seed, one per trial on its own generator. The results and
    every weight the memo serves are the same."""
    kernel = _native.kernel()
    if max([0, *prefix, *trials]) < 1 << 64:
        return _compiled(kernel, config, truth, cache, trials, prefix, None, cps, n_traced)[0]
    runs = [
        _compiled(kernel, config, truth, cache, [0], (), rng, cps, i < n_traced)[0]
        for i, rng in enumerate(_default_rng([*prefix, t]) for t in trials)
    ]
    return _Trials(*([run[f][0] for run in runs] for f in range(len(_Trials._fields))))


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

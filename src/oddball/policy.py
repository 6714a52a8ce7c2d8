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
`reference._python_trial`, stays the reference and runs only where the
kernel does not: a trial the kernel declines, rerun from its start (one
whose event total would reach 2^53, past which int64 tallies are not
exact doubles), and every trial on a generator of another type or on a
machine where the kernel cannot be built. `_compiled` imports
`oddball.reference` only then. The loop hands `_compiled` what a kernel
trial does, so `_trace_records` builds every trace and `run_trial` every
outcome. The single-step API (`next_decision`, `PolicyDecision`,
`leader_lambda_odd`) and `empirical_action_frequencies` live in
`oddball.reference` too, and resolve from here on first access.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import namedtuple
from contextlib import nullcontext
from itertools import accumulate
from collections.abc import Sequence

from . import _native
from .numerics import (
    DomainError,
    _FrozenRecord,
    _moved,
    _require_int,
    _require_list,
    _require_real,
)
from .solver import (
    _SOLVE_PARAMS,
    OddConfig,
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

__getattr__, __dir__ = _moved(
    __name__,
    ("PolicyDecision", "leader_lambda_odd", "next_decision", "empirical_action_frequencies"),
)

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


def _weight_cells(cache: dict, k: int) -> array:
    """The memo's weight cells of k, an `array('d')`: cell c is entries 2c
    (a grid point q, 0.0 when empty) and 2c + 1 (lambda*(k, q / _QUANT)),
    for the last q with q % _MEMO_CELLS == c that was solved."""
    cells = cache.get(k)
    if cells is None:
        cells = cache[k] = array("d", [0.0]) * (2 * _MEMO_CELLS)
    return cells


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
    loop (`reference._python_trial`) from its start instead. On a
    caller's generator, the lock is held over the kernel calls and the
    reruns. Returns the lists, the last
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
        declined = [i for i in range(n) if tau[i] == 0]
        if declined:
            from .reference import _python_trial  # the Python loop, loaded only to run a trial

        for i in declined:
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



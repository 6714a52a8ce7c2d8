"""Monte Carlo verification harness.

Two studies:

* `run_experiment` — repeated trials of the sequential policy over a grid
  of reliability levels L, aggregated into one CSV row per level (error
  counts with a one-sided 95% upper confidence bound, mean stopping time
  with its standard error, the tau/ln L ratio, and the information lower
  bound for comparison).
* `drift_experiment` — long non-stopping runs that audit the law of large
  numbers the policy relies on: Z_true / n must approach the optimal
  exponent D*, the empirical sampling frequencies must approach lambda*,
  and the pooled hold-out estimates under wrong hypotheses must approach
  the mixed rate.

Reproducibility contract: trial (l_index, trial_index) always draws from
`numpy.random.default_rng([seed, l_index, trial_index])`, and rows are
aggregated in grid-then-trial order, so the emitted CSV is byte-identical
for any worker count; drift seed s draws from `default_rng(s)`. The
compiled kernel keeps this contract: a level's trials, or a worker's
drift seeds, run as one call that seeds each PCG64 in C exactly as that
`default_rng` call does, so its draws are the same.

Both studies run their trials in blocks, each with one policy memo that
lives as long as the block: a serial run is one block, a run over N
worker threads has N interleaved blocks, one per thread. The memo holds
a small direct-mapped weight cache per K and nothing else (see
`oddball.policy`); it only saves work, and the values it serves do not
depend on which trials filled it. Threads never share a memo: a cell is
two words (q, lambda), and a torn write could serve another q's weight.
Every trial, traced or not, runs in C when the compiled kernel is
available and on the Python loop when it is not; the bytes are the same
either way.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from functools import partial

from .glr import SufficientStats
from .numerics import (
    DomainError,
    _FrozenRecord,
    _clopper_pearson_upper,
    _csv_text,
    _fan_out,
    _require_int,
    _require_list,
    _require_real,
)
from .policy import PolicyConfig, _seeded_trials
from .policy import run_trial  # noqa: F401 - unused here; perfbench/tracer.py wraps this name
from .solver import OddConfig, d_star, lower_bound_expected_tau, solve_lambda_star

__all__ = [
    "ExperimentSpec",
    "ReportRow",
    "ExperimentReport",
    "DriftRow",
    "DriftResult",
    "default_checkpoints",
    "run_experiment",
    "drift_experiment",
    "error_upper_confidence",
]

REPORT_HEADER = (
    "L,threshold,trials,errors,error_rate,error_ci_hi,"
    "mean_tau,se_tau,tau_over_lnL,lower_bound,inv_dstar,capped"
)


class ExperimentSpec(_FrozenRecord):
    """Declarative description of one policy experiment.

    l_grid must be strictly increasing with every entry >= 1. r1 and r2
    are scalar rates (the harness simulates scalar configurations).
    trace_sampling in [0, 1] is the fraction of trials per level whose
    full traces are written out (requires a trace directory at run time).
    Construction checks every field and stores rates, grid entries and
    trace_sampling as floats.
    """

    _fields = (
        "k", "odd_index", "r1", "r2", "l_grid", "trials", "seed", "max_slots", "trace_sampling"
    )

    def __init__(
        self,
        k: int,
        odd_index: int,
        r1: float,
        r2: float,
        l_grid: tuple[float, ...],
        trials: int,
        seed: int,
        max_slots: int = 10_000_000,
        trace_sampling: float = 0.0,
    ):
        r1 = _require_real(r1, "r1", 0.0, open=True)
        r2 = _require_real(r2, "r2", 0.0, open=True)
        trace_sampling = _require_real(trace_sampling, "trace_sampling", 0.0, 1.0)
        # Delegate k / odd_index validation to the config type.
        OddConfig(k, odd_index, r1, r2)
        _require_int(trials, "trials", 1)
        _require_int(seed, "seed", 0)
        _require_int(max_slots, "max_slots", 1)
        try:
            grid = tuple(_require_real(l, "l_grid entry", 1.0) for l in l_grid)
        except TypeError:
            raise DomainError("l_grid must be a list of numbers") from None
        if not grid:
            raise DomainError("l_grid must be non-empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("l_grid must be strictly increasing")
        self.__dict__.update(
            k=k, odd_index=odd_index, r1=r1, r2=r2, l_grid=grid, trials=trials, seed=seed,
            max_slots=max_slots, trace_sampling=trace_sampling,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise DomainError("experiment spec must be a JSON object")
        known = set(cls._fields)
        unknown = sorted(set(data) - known)
        if unknown:
            raise DomainError(f"unknown spec keys: {', '.join(unknown)}")
        missing = sorted(known - set(data) - {"max_slots", "trace_sampling"})
        if missing:
            raise DomainError(f"missing spec keys: {', '.join(missing)}")
        kwargs = dict(data)
        for key in ("r1", "r2"):
            v = kwargs[key]
            # Accept a length-one list for rates: the scalar case of the
            # vector-rate configuration format.
            if isinstance(v, list):
                if len(v) != 1:
                    raise DomainError(f"{key} must be a scalar or a length-1 list")
                kwargs[key] = v[0]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(
                f"spec JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        return cls.from_dict(data)

    def truth(self) -> OddConfig:
        return OddConfig(self.k, self.odd_index, self.r1, self.r2)


class ReportRow(_FrozenRecord):
    """Aggregate over all trials at one reliability level."""

    _fields = (
        "l_value", "threshold", "trials", "errors", "error_rate", "error_ci_hi", "mean_tau",
        "se_tau", "tau_over_ln_l", "lower_bound", "inv_dstar", "capped",
    )

    def to_csv_line(self) -> str:
        return (
            f"{self.l_value:.12g},{self.threshold:.12g},{self.trials},{self.errors},"
            f"{self.error_rate:.12g},{self.error_ci_hi:.12g},{self.mean_tau:.12g},"
            f"{self.se_tau:.12g},{self.tau_over_ln_l:.12g},{self.lower_bound:.12g},"
            f"{self.inv_dstar:.12g},{self.capped}"
        )


class ExperimentReport(_FrozenRecord):
    """A spec and its report rows, one per level of its grid."""

    _fields = ("spec", "rows")

    def to_csv(self) -> str:
        return "\n".join([REPORT_HEADER, *(row.to_csv_line() for row in self.rows)]) + "\n"


def error_upper_confidence(errors: int, trials: int) -> float:
    """One-sided 95% upper confidence bound for a binomial proportion
    (Clopper-Pearson): the largest p not rejected at the 95% level."""
    _require_int(trials, "trials", 1)
    _require_int(errors, "errors", 0, trials)
    if errors == trials:
        return 1.0
    return _clopper_pearson_upper(errors, trials)


def _run_levels(configs, truth, seed: int, trials: int, n_traced: int, items, stop) -> list[tuple]:
    """Run grid items in order with one policy memo; item i is trial
    i % trials of level i // trials, the level whose policy config is
    configs[i // trials], drawing from default_rng([seed, level, trial]);
    the first n_traced trials of each level are traced. Result i is (tau,
    correct, capped, trace), trace None for an untraced trial. A level's
    trials in `items`, traced and untraced, run as one `_seeded_trials`
    call, on the compiled kernel when it is available. Once the event
    `stop` is set no further level starts, and the results stop short."""
    cache: dict = {}
    by_level: dict[int, list[int]] = {}
    for item in items:
        level, trial = divmod(item, trials)
        by_level.setdefault(level, []).append(trial)
    results = []
    for li, config in enumerate(configs):
        if stop.is_set():
            break
        mine = by_level.get(li, [])
        traced = bisect_left(mine, n_traced)  # the first ones: `mine` is ascending
        tau, delta, capped, traces, _ = _seeded_trials(
            config, truth, (seed, li), mine, cache, n_traced=traced
        )
        results += zip(tau, [d == truth.odd_index for d in delta], capped, traces)
    return results


# How json.dumps spells the floats whose repr is one of these.
_JSON_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _trace_lines(trace: tuple[dict, ...]) -> str:
    """A trace's records, one line each, with the text
    json.dumps(record, separators=(",", ":")) gives: the slot records are
    formatted directly, the one outcome record by json.dumps."""
    *slots, end = trace
    lines = []
    for r in slots:
        z = repr(r["z_leader"])
        lines.append(
            f'{{"n":{r["n"]},"action":{r["action"]},"count":{r["count"]},"leader":{r["leader"]},'
            f'"z_leader":{_JSON_NON_FINITE.get(z, z)}}}'
        )
    lines.append(json.dumps(end, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _aggregate(
    config: PolicyConfig,
    taus: tuple[int, ...],
    correct: tuple[bool, ...],
    capped_flags: tuple[bool, ...],
    bound: float,
    inv_dstar: float,
) -> ReportRow:
    """One report row from the tau, correct and capped of each trial."""
    l_value = config.threshold_l
    trials = len(taus)
    errors = sum(1 for c in correct if not c)
    capped = sum(1 for c in capped_flags if c)
    taus = [t for t, c in zip(taus, capped_flags) if not c]
    if taus:
        mean_tau = sum(taus) / len(taus)
        if len(taus) > 1:
            var = sum((t - mean_tau) ** 2 for t in taus) / (len(taus) - 1)
            se_tau = math.sqrt(var / len(taus))
        else:
            se_tau = 0.0
    else:
        mean_tau = math.nan
        se_tau = math.nan
    log_l = math.log(l_value)
    ratio = mean_tau / log_l if log_l > 0.0 else math.nan
    return ReportRow(
        l_value=l_value,
        threshold=config.log_threshold,
        trials=trials,
        errors=errors,
        error_rate=errors / trials,
        error_ci_hi=error_upper_confidence(errors, trials),
        mean_tau=mean_tau,
        se_tau=se_tau,
        tau_over_ln_l=ratio,
        lower_bound=bound,
        inv_dstar=inv_dstar,
        capped=capped,
    )


def run_experiment(
    spec: ExperimentSpec,
    parallelism: int = 1,
    trace_dir: str | None = None,
) -> ExperimentReport:
    """Run the full grid of the spec and aggregate one row per level.

    parallelism > 1 deals the trials out with `numerics._fan_out`, one
    interleaved block per worker; outcomes come back in grid-then-trial
    order, so the report does not depend on the worker count. Sampled
    traces (the first ceil(trace_sampling * trials) trials of each level)
    are written to trace_dir as trace_L<level>_i<trial>.jsonl, <level>
    being the report's L text; traced levels that share it are a DomainError.
    """
    _require_int(parallelism, "parallelism", 1)
    n_traced = math.ceil(spec.trace_sampling * spec.trials)
    if n_traced > 0 and trace_dir is None:
        raise DomainError("trace_sampling > 0 requires a trace directory")
    if n_traced > 0 and len({f"{l:.12g}" for l in spec.l_grid}) < len(spec.l_grid):
        raise DomainError("traced l_grid levels must differ within 12 significant digits")

    truth = spec.truth()
    dstar = d_star(truth)
    inv_dstar = 1.0 / dstar if dstar > 0.0 else math.inf

    configs = [
        PolicyConfig(k=spec.k, threshold_l=l, max_slots=spec.max_slots) for l in spec.l_grid
    ]
    run = partial(_run_levels, configs, truth, spec.seed, spec.trials, n_traced)
    results = _fan_out(run, range(len(configs) * spec.trials), parallelism)

    rows = []
    for li, config in enumerate(configs):
        l_value = config.threshold_l
        taus, correct, capped, traces = zip(*results[li * spec.trials : (li + 1) * spec.trials])
        if trace_dir is not None:
            for ti in range(n_traced):
                path = os.path.join(trace_dir, f"trace_L{l_value:.12g}_i{ti}.jsonl")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_trace_lines(traces[ti]))
        alpha = 1.0 / l_value
        bound = lower_bound_expected_tau(truth, alpha, dstar=dstar) if 0.0 < alpha < 1.0 else math.nan
        rows.append(_aggregate(config, taus, correct, capped, bound, inv_dstar))
    return ExperimentReport(spec=spec, rows=tuple(rows))


class DriftRow(_FrozenRecord):
    """State audit of one non-stopping run at one checkpoint slot n."""

    _fields = (
        "seed", "n", "leader", "z_leader_over_n", "z_true_over_n", "frequencies",
        "empirical_rates", "holdout_rates", "visits", "events", "total",
    )


class DriftResult(_FrozenRecord):
    """Per-(seed, checkpoint) rows plus the truth quantities they are
    audited against: D*, lambda*, the true rates, and the mixed rate."""

    _fields = ("truth", "n_slots", "d_star", "lambda_star", "mixed_rate", "rows")

    def final_rows(self) -> tuple[DriftRow, ...]:
        return tuple(r for r in self.rows if r.n == self.n_slots)

    def summary(self) -> dict:
        """Median/extreme deviations across seeds at the final slot."""
        odd = self.truth.odd_index
        rows = self.final_rows()
        z_errs = [abs(r.z_true_over_n - self.d_star) / self.d_star for r in rows]
        freq_errs = [
            max(abs(f - l) for f, l in zip(r.frequencies, self.lambda_star)) for r in rows
        ]
        holdout_errs = [
            max(
                abs(h - self.mixed_rate) / self.mixed_rate
                for j, h in enumerate(r.holdout_rates, start=1)
                if j != odd
            )
            for r in rows
        ]
        return {
            "seeds": len(rows),
            "n_slots": self.n_slots,
            "d_star": self.d_star,
            "leader_correct_fraction": sum(1 for r in rows if r.leader == odd) / len(rows),
            "median_z_rel_err": _median(z_errs),
            "max_z_rel_err": max(z_errs),
            "median_freq_err_inf": _median(freq_errs),
            "max_freq_err_inf": max(freq_errs),
            "median_holdout_rel_err": _median(holdout_errs),
            "max_holdout_rel_err": max(holdout_errs),
        }

    def to_csv(self) -> str:
        k = self.truth.k
        header = ["seed", "n", "leader", "z_true_over_n", "z_leader_over_n"]
        header += [f"{c}_{j}" for c in ("freq", "rate", "holdout") for j in range(1, k + 1)]
        rows = []
        for r in self.rows:
            reals = (r.z_true_over_n, r.z_leader_over_n, *r.frequencies, *r.empirical_rates)
            cells = [f"{v:.12g}" for v in reals + r.holdout_rates]
            rows.append((r.seed, r.n, r.leader, *cells, r.total))
        return _csv_text(",".join(header + ["total"]), rows)


def _median(values: list[float]) -> float:
    """The median as `statistics.median` computes it, bit for bit: the
    middle value, or the mean of the middle two."""
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def default_checkpoints(n_slots: int) -> tuple[int, ...]:
    """Audit slots for a drift run: roughly n/10, n/4, n/2, and n."""
    marks = {n_slots}
    for frac in (10, 4, 2):
        marks.add(max(1, n_slots // frac))
    return tuple(sorted(marks))


def _snapshot_row(snap, seed: int, odd_index: int, k: int) -> DriftRow:
    stats = SufficientStats.from_counts(list(snap.visits), list(snap.events))
    empirical, holdout = zip(*(stats.theta_hat(j) for j in range(1, k + 1)))
    return DriftRow(
        seed=seed,
        n=snap.n,
        leader=snap.leader,
        z_leader_over_n=snap.z_min[snap.leader - 1] / snap.n,
        z_true_over_n=snap.z_min[odd_index - 1] / snap.n,
        frequencies=tuple(v / snap.n for v in snap.visits),
        empirical_rates=empirical,
        holdout_rates=holdout,
        visits=snap.visits,
        events=snap.events,
        total=snap.total,
    )


def drift_experiment(
    truth: OddConfig,
    n_slots: int,
    seeds,
    checkpoints=None,
    parallelism: int = 1,
) -> DriftResult:
    """Run the non-stopping policy for n_slots under each seed and audit
    the empirical drift, sampling frequencies, per-process rate
    estimates, and hold-out estimates at each checkpoint."""
    if truth.dim != 1:
        raise DomainError("drift studies support scalar-rate configurations only")
    if truth.is_degenerate:
        raise DomainError("drift studies need distinct rates")
    _require_int(n_slots, "n_slots", truth.k)  # the policy's K warm-up slots
    seeds = [_require_int(s, "seed", 0) for s in _require_list(seeds, "seeds")]
    if not seeds:
        raise DomainError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise DomainError("seeds must be distinct")
    _require_int(parallelism, "parallelism", 1)
    if checkpoints is None:
        cps = default_checkpoints(n_slots)
    else:
        cps = _require_list(checkpoints, "checkpoints")
        cps = tuple(sorted({_require_int(c, "checkpoint", 1, n_slots) for c in cps}))
        if not cps:
            raise DomainError("checkpoints must be nonempty and lie in 1..n_slots")
        if n_slots not in cps:
            cps = cps + (n_slots,)

    sol = solve_lambda_star(truth)
    config = PolicyConfig(k=truth.k, threshold_l=1.0, variant="non_stopping", max_slots=n_slots)
    snapshots = _fan_out(
        lambda s, stop: _seeded_trials(config, truth, (), s, {}, cps).snapshots,
        seeds, parallelism,
    )
    rows = [
        _snapshot_row(snap, seed, truth.odd_index, truth.k)
        for seed, snaps in zip(seeds, snapshots)
        for snap in snaps
    ]
    return DriftResult(
        truth=truth,
        n_slots=n_slots,
        d_star=sol.d_star,
        lambda_star=sol.lam,
        mixed_rate=sol.r_tilde[0],
        rows=tuple(rows),
    )

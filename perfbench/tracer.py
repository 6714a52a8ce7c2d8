"""Run-time wrappers that time the calls one oddball module makes into the next.

Only traced runs import this module. Each wrapper replaces a public name
in the namespace where its caller looks it up, so the program's own files
stay untouched. Spans are kept per CLI entry, per trial, per solve, per
pair and per aggregation call; per-slot work (the `leader_lambda_odd`
lookup, `poisson_kl`) is only counted and timed in aggregate.

A wrapped name that no longer exists is recorded as missing, and every
metric derived from it is left out of the summary rather than reported
wrong.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name); span name None means aggregate only.
TARGETS = (
    ("oddball.cli", "run_experiment", "experiments.entry"),
    ("oddball.cli", "drift_experiment", "experiments.entry"),
    ("oddball.cli", "pairwise_dstar", "dissimilarity.entry"),
    ("oddball.experiments", "run_trial", "trial"),
    ("oddball.experiments", "error_upper_confidence", "aggregate"),
    ("oddball.experiments", "lower_bound_expected_tau", "aggregate"),
    ("oddball.experiments", "solve_lambda_star", "solve"),
    ("oddball.policy", "solve_lambda_star", "solve"),
    ("oddball.solver", "solve_lambda_star", "solve"),
    ("oddball.dissimilarity", "d_star", "pair"),
    ("oddball.policy", "leader_lambda_odd", None),
    ("oddball.solver", "poisson_kl", None),
)

ENTRIES = ("experiments.entry", "dissimilarity.entry")

_TRIAL = ("oddball.experiments.run_trial",)
# Slot accounting also reads `PolicyConfig.warmup` and `TrialOutcome.tau`
# and `.capped`; this pseudo-name is missing when they are.
_SLOT_FIELDS = _TRIAL + ("PolicyConfig.warmup, TrialOutcome.tau/.capped",)
_LAMBDA = ("oddball.policy.leader_lambda_odd",)
_SOLVES = (
    "oddball.experiments.solve_lambda_star",
    "oddball.policy.solve_lambda_star",
    "oddball.solver.solve_lambda_star",
)
_KL = ("oddball.solver.poisson_kl",)
_PAIR = ("oddball.dissimilarity.d_star",)
_EXP_ENTRY = ("oddball.cli.run_experiment", "oddball.cli.drift_experiment")
_DIS_ENTRY = ("oddball.cli.pairwise_dstar",)

# Wrapped names each span-derived metric is computed from.
NEEDS = {
    "experiments.trials": _TRIAL,
    "experiments.trial_busy_s": _TRIAL,
    "experiments.self_s": _EXP_ENTRY,
    "experiments.aggregate_s": (
        "oddball.experiments.error_upper_confidence",
        "oddball.experiments.lower_bound_expected_tau",
    ),
    "policy.slots": _SLOT_FIELDS,
    "policy.warmup_slots": _SLOT_FIELDS,
    "policy.lambda_calls": _LAMBDA,
    "policy.lambda_misses": _LAMBDA + _SOLVES,
    "policy.lambda_hit_ratio": _LAMBDA + _SOLVES,
    "policy.lambda_busy_s": _LAMBDA,
    "policy.fallback_frac": _SLOT_FIELDS + _LAMBDA,
    "solver.solves": _SOLVES,
    "solver.solve_busy_s": _SOLVES,
    "solver.kl_per_solve": _SOLVES + _KL,
    "numerics.kl_calls": _KL,
    "dissimilarity.pairs": _PAIR,
    "dissimilarity.pair_busy_s": _PAIR,
    "dissimilarity.self_s": _DIS_ENTRY,
    "trace_coverage": _EXP_ENTRY + _DIS_ENTRY,
}


class Tracer:
    """Spans and counters of one traced CLI call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.kl_calls = 0
        self.lambda_calls = 0
        self.lambda_misses = 0
        self.lambda_busy_s = 0.0
        self.slots = 0
        self.warmup_slots = 0
        self.selections = 0
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if span is not None:
                wrapper = self._span(fn, span)
            elif attr == "leader_lambda_odd":
                wrapper = self._lambda(fn)
            else:
                wrapper = self._count_kl(fn)
            self._originals.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def _span(self, fn, name: str):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        is_trial = name == "trial"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if is_trial:
                self._count_slots(args[0], result)
            return result

        return wrapper

    def _count_slots(self, config, outcome) -> None:
        # Slots 1..warmup are round-robin; every later slot that does not
        # end the trial selects the next action from the leader's weights
        # (a `leader_lambda_odd` call) or falls back to uniform sampling.
        try:
            tau = outcome.tau
            warmup = config.warmup
            stopped = not outcome.capped
        except AttributeError:
            if _SLOT_FIELDS[-1] not in self.missing:
                self.missing.append(_SLOT_FIELDS[-1])
            return
        self.slots += tau
        self.warmup_slots += min(tau, warmup)
        self.selections += max(0, tau - warmup + (0 if stopped else 1))

    def _lambda(self, fn):
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = len(spans)
            start = clock()
            result = fn(*args, **kwargs)
            self.lambda_busy_s += clock() - start
            self.lambda_calls += 1
            if len(spans) != before:  # a solve ran: a cache miss
                self.lambda_misses += 1
            return result

        return wrapper

    def _count_kl(self, fn):
        def wrapper(*args, **kwargs):
            self.kl_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _busy(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def _calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def _self_time(self, entry: str) -> float:
        """Entry spans' time minus the time of their direct children."""
        own = {i for i, span in enumerate(self.spans) if span[0] == entry}
        children = sum(end - start for _, p, start, end in self.spans if p in own)
        return self._busy(entry) - children

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics derived from the spans and counters, keyed by
        metric name, without those whose wrapped names are missing."""
        solves = self._calls("solve")
        entries = {i for i, span in enumerate(self.spans) if span[0] in ENTRIES}
        covered = sum(end - start for _, p, start, end in self.spans if p in entries)
        lam = self.lambda_calls
        values = {
            "experiments.trials": self._calls("trial"),
            "experiments.trial_busy_s": self._busy("trial"),
            "experiments.self_s": self._self_time("experiments.entry"),
            "experiments.aggregate_s": self._busy("aggregate"),
            "policy.slots": self.slots,
            "policy.warmup_slots": self.warmup_slots,
            "policy.lambda_calls": lam,
            "policy.lambda_misses": self.lambda_misses,
            # Ratios over zero calls (a layer the workload bypasses) read 0.
            "policy.lambda_hit_ratio": (lam - self.lambda_misses) / lam if lam else 0.0,
            "policy.lambda_busy_s": self.lambda_busy_s,
            "policy.fallback_frac": (
                (self.selections - lam) / self.selections if self.selections else 0.0
            ),
            "solver.solves": solves,
            "solver.solve_busy_s": self._busy("solve"),
            "solver.kl_per_solve": self.kl_calls / solves if solves else 0.0,
            "numerics.kl_calls": self.kl_calls,
            "dissimilarity.pairs": self._calls("pair"),
            "dissimilarity.pair_busy_s": self._busy("pair"),
            "dissimilarity.self_s": self._self_time("dissimilarity.entry"),
            "trace_coverage": covered / wall_s,
        }
        missing = set(self.missing)
        return {
            name: value
            for name, value in values.items()
            if not missing.intersection(NEEDS[name])
        }

    def write_spans(self, path: str) -> None:
        """One JSON line per span: id, parent id (-1 at the top), name,
        start and end in seconds of the process clock."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": idx, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )

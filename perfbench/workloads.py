"""The four benchmark workloads: inputs made from the seed, and output checks.

Every workload is one `oddball` CLI invocation at `--jobs 1`. `build`
writes the inputs into a work directory and returns the CLI arguments;
`check` reads what the invocation wrote and returns a `Check`: how many
of its `operations` failed, how many units of work the output reports
(slots, or ordered pairs for `index`), and the failures in words.

Why these four (see also BENCHMARK.json):

* sim-hard: K=5, rates 10 vs 1, short trials (~13 slots). Per-trial
  overhead, cold `lambda` solves and trace I/O dominate.
* sim-wide: K=50, rates 4 vs 1. The O(K) score update per slot dominates,
  most post-warm-up slots fall back to uniform sampling and the weight
  cache mostly misses.
* drift: K=3 long non-stopping runs (the acceptance 08 configuration).
  Only the per-slot kernel, with a mostly warm cache; one generator per
  seed, so per-trial overhead does not show.
* index: ordered-pair dissimilarities of a 40 x 100 rate table. Only the
  vector solver; it bypasses the policy and the score entirely.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

NAMES = ("sim-hard", "sim-wide", "drift", "index")

# Workloads whose calls each take new inputs; the others repeat one input
# set per run, as their work hardly depends on it.
PER_CALL_INPUTS = ("sim-hard", "sim-wide")

SIM_HEADER = (
    "L,threshold,trials,errors,error_rate,error_ci_hi,"
    "mean_tau,se_tau,tau_over_lnL,lower_bound,inv_dstar,capped"
)

# Full-size parameters, and the tiny ones the self-test uses.
SIZES = {
    "full": {"sim-hard": 300, "sim-wide": 50, "drift": (2, 150_000), "index": (20, 100)},
    "tiny": {"sim-hard": 40, "sim-wide": 4, "drift": (1, 2000), "index": (6, 5)},
}

# Acceptance 08 thresholds on the drift summary.
DRIFT_LIMITS = {
    "median_z_rel_err": 0.05,
    "median_freq_err_inf": 0.02,
    "median_holdout_rel_err": 0.02,
}

INDEX_K = 6
INDEX_ZERO_CELLS = 6
INDEX_CHECKED_PAIRS = 10
RATE_FLOOR = 1e-3  # the CLI's default --floor


@dataclass
class Job:
    workload: str
    argv: list
    out: str
    trace_dir: str | None
    # What `check` needs to know about the inputs.
    expect: dict = field(default_factory=dict)


@dataclass
class Check:
    failed: int
    work: int
    problems: list
    # Report values the traced run reads (tau/ln L at the largest L).
    extra: dict = field(default_factory=dict)


def build(name: str, seed: int, workdir: str, size: str = "full") -> Job:
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "out.csv")
    param = SIZES[size][name]
    if name == "sim-hard":
        spec = dict(
            k=5, odd_index=3, r1=10.0, r2=1.0, l_grid=[1e2, 1e3, 1e4],
            trials=param, seed=seed,
            # The longest trial seen over six seeds took 40 slots; a trial
            # reaching this cap is a stall and counts as a failed operation.
            max_slots=5_000,
            trace_sampling=0.005,
        )
    elif name == "sim-wide":
        spec = dict(
            k=50, odd_index=2, r1=4.0, r2=1.0, l_grid=[1e3],
            trials=param, seed=seed,
            max_slots=50_000,  # the longest trial seen over six seeds took 666 slots
            trace_sampling=0.0,
        )
    elif name == "drift":
        seeds, slots = param
        argv = [
            "drift", "--k", "3", "--odd", "1", "--r1", "1", "--r2", "2",
            "--slots", str(slots), "--seed", str(seed * seeds),
            "--num-seeds", str(seeds), "--jobs", "1", "--out", out,
        ]
        return Job(name, argv, out, None, {"seeds": seeds, "slots": slots, "size": size})
    elif name == "index":
        images, neurons = param
        return _build_index(seed, workdir, out, images, neurons)
    else:
        raise ValueError(f"unknown workload {name!r}")
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    argv = ["simulate", "--spec", spec_path, "--jobs", "1", "--out", out]
    trace_dir = None
    if spec["trace_sampling"] > 0:
        trace_dir = os.path.join(workdir, "traces")
        argv += ["--trace-dir", trace_dir]
    return Job(name, argv, out, trace_dir, {"spec": spec})


def _build_index(seed: int, workdir: str, out: str, images: int, neurons: int) -> Job:
    rng = np.random.default_rng([seed, 4])
    rates = rng.uniform(0.5, 8.0, size=(images, neurons))
    # A few zero cells exercise flooring; the last image repeats the first,
    # which makes the two ordered pairs between them degenerate.
    zero_rows = rng.integers(1, images - 1, INDEX_ZERO_CELLS)
    zero_cols = rng.integers(0, neurons, INDEX_ZERO_CELLS)
    rates[zero_rows, zero_cols] = 0.0
    rates[-1] = rates[0]
    ids = [f"img{i:03d}" for i in range(images)]
    path = os.path.join(workdir, "rates.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["image_id"] + [f"n{d}" for d in range(neurons)]) + "\n")
        for image, row in zip(ids, rates):
            fh.write(",".join([image] + [repr(float(v)) for v in row]) + "\n")
    argv = ["index", "--rates", path, "--k", str(INDEX_K), "--jobs", "1", "--out", out]
    checked = rng.choice(images * (images - 1), size=min(INDEX_CHECKED_PAIRS, images * (images - 1)), replace=False)
    return Job("index", argv, out, None, {"ids": ids, "rates": rates, "checked": sorted(int(c) for c in checked)})


def operations(job: Job) -> int:
    """Operations one invocation attempts: trials, seeds or ordered pairs."""
    if job.workload == "drift":
        return job.expect["seeds"]
    if job.workload == "index":
        n = len(job.expect["ids"])
        return n * (n - 1)
    spec = job.expect["spec"]
    return spec["trials"] * len(spec["l_grid"])


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def check(job: Job, stdout: str, src: str) -> Check:
    """Check one invocation's outputs. `src` is the checkout's source
    directory, whose public `solver.objective` the index check uses."""
    text = _read(job.out)
    if text is None:
        return Check(operations(job), 0, [f"{job.out} was not written"])
    try:
        if job.workload == "drift":
            return _check_drift(job, text, stdout)
        if job.workload == "index":
            return _check_index(job, text, src)
        return _check_simulate(job, text)
    except (ValueError, KeyError, TypeError) as exc:
        return Check(operations(job), 0, [f"malformed output: {exc!r}"])


def _binomial_quantile(n: int, p: float, q: float) -> int:
    """Smallest k with P[Binomial(n, p) <= k] >= q, for 0 < p < 1."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )
        if cdf >= q:
            return k
    return n


def _check_simulate(job: Job, text: str) -> Check:
    spec = job.expect["spec"]
    trials = spec["trials"]
    attempted = trials * len(spec["l_grid"])
    lines = text.splitlines()
    if not lines or lines[0] != SIM_HEADER or len(lines) != 1 + len(spec["l_grid"]):
        return Check(attempted, 0, ["report does not have one row per level"])
    failed = 0
    slots = 0
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    for l_value, row in zip(spec["l_grid"], rows):
        errors = int(row["errors"])
        capped = int(row["capped"])
        allowed = _binomial_quantile(trials, 1.0 / l_value, 0.999)
        if float(row["L"]) != l_value or int(row["trials"]) != trials:
            problems.append(f"L={l_value:g}: row reads L={row['L']}, trials={row['trials']}")
            failed += trials
            continue
        if errors > allowed:
            problems.append(f"L={l_value:g}: {errors} errors, 99.9th percentile is {allowed}")
            failed += trials
            continue
        if capped:
            problems.append(f"L={l_value:g}: {capped} trials reached max_slots")
            failed += capped
            continue
        slots += round(float(row["mean_tau"]) * trials)
    if job.trace_dir is not None:
        expected = math.ceil(spec["trace_sampling"] * trials) * len(spec["l_grid"])
        try:
            found = len([f for f in os.listdir(job.trace_dir) if f.endswith(".jsonl")])
        except OSError:
            found = 0
        if found != expected:
            problems.append(f"{found} trace files, expected {expected}")
            failed = attempted
    extra = {"tau_over_lnL": float(rows[-1]["tau_over_lnL"])}
    return Check(failed, slots, problems, extra)


def _check_drift(job: Job, text: str, stdout: str) -> Check:
    seeds = job.expect["seeds"]
    slots = job.expect["slots"]
    rows = [r for r in csv.DictReader(io.StringIO(text)) if int(r["n"]) == slots]
    if len(rows) != seeds:
        return Check(seeds, 0, [f"{len(rows)} final rows for {seeds} seeds"])
    wrong = sum(1 for r in rows if int(r["leader"]) != 1)
    problems = [f"{wrong} seeds end with a wrong leader"] if wrong else []
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError:
        return Check(seeds, 0, ["drift summary on stdout is not JSON"])
    if job.expect["size"] == "full":
        # Thresholds hold at full size only; the tiny run checks the rest.
        for key, limit in DRIFT_LIMITS.items():
            if not summary.get(key, math.inf) <= limit:
                problems.append(f"{key} = {summary.get(key)} exceeds {limit}")
                wrong = seeds
    if summary.get("leader_correct_fraction", 0.0) < 0.99:
        problems.append(f"leader_correct_fraction = {summary.get('leader_correct_fraction')}")
        wrong = seeds
    return Check(wrong, seeds * slots, problems)


def _check_index(job: Job, text: str, src: str) -> Check:
    ids = job.expect["ids"]
    rates = np.maximum(job.expect["rates"], RATE_FLOOR)
    n = len(ids)
    attempted = n * (n - 1)
    lines = text.splitlines()
    if len(lines) != 1 + attempted:
        return Check(attempted, 0, [f"{len(lines) - 1} matrix rows, expected {attempted}"])
    rows = list(csv.DictReader(io.StringIO(text)))
    flagged = (job.expect["rates"] < RATE_FLOOR).sum(axis=1)
    problems = []
    values = {}
    for row in rows:
        a = ids.index(row["odd_id"])
        b = ids.index(row["distractor_id"])
        values[(a, b)] = float(row["dstar"])
        same = bool(np.array_equal(rates[a], rates[b]))
        if int(row["degenerate"]) != int(same) or (same and values[(a, b)] != 0.0):
            problems.append(f"pair {a},{b}: degenerate flag {row['degenerate']}")
        if int(row["floored_cells"]) != int(flagged[a] + flagged[b]):
            problems.append(f"pair {a},{b}: floored_cells {row['floored_cells']}")
    if problems:
        return Check(attempted, attempted, problems)
    extra = {
        "degenerate_pairs": sum(int(row["degenerate"]) for row in rows),
        # Each image's floored cells appear in 2 (n - 1) ordered pairs.
        "floored_cells": sum(int(row["floored_cells"]) for row in rows) // (2 * (n - 1)),
    }
    failed = 0
    for code in job.expect["checked"]:
        a, rest = divmod(code, n - 1)
        b = rest if rest < a else rest + 1
        reference = _max_objective(src, rates[a], rates[b])
        got = values[(a, b)]
        if abs(got - reference) > 1e-8 * max(abs(reference), 1e-300):
            failed += 1
            problems.append(f"pair {a},{b}: dstar {got!r}, bounded maximum {reference!r}")
    return Check(failed, attempted, problems, extra)


def _max_objective(src: str, r1, r2) -> float:
    """D* of one pair by a bounded scalar maximisation of the public
    objective, independent of the solver's own root finding."""
    import sys

    from scipy.optimize import minimize_scalar

    if src not in sys.path:
        sys.path.insert(0, src)
    from oddball.solver import OddConfig, objective

    if np.array_equal(r1, r2):
        return 0.0
    config = OddConfig(INDEX_K, 1, tuple(r1), tuple(r2))
    best = minimize_scalar(
        lambda lam: -objective(config, lam),
        bounds=(0.0, 1.0),
        method="bounded",
        options={"xatol": 1e-12, "maxiter": 500},
    )
    return -float(best.fun)

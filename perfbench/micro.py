"""Direct timings of public oddball calls on fixed inputs.

Each figure is the median, over REPEATS blocks, of the time per call in a
block. Inputs never depend on the workload seed, so the figures compare
across workloads and runs. A name that no longer exists, or no longer
takes the arguments used here, leaves its figures out.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Median seconds per call of fn(), run `calls` times per block."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _numerics() -> dict:
    from oddball.solver import poisson_kl  # the binding the solver calls

    pairs = [(1.0 + 0.37 * i, 1.5 + 0.21 * i) for i in range(100)]

    def block():
        for x, y in pairs:
            poisson_kl(x, y)

    return {"numerics.kl_ns": _per_call(block, 50) / len(pairs) * 1e9}


def _solver() -> dict:
    from oddball.solver import OddConfig, solve_lambda_star

    scalar = OddConfig(5, 3, 10.0, 1.0)
    rng = np.random.default_rng(12345)
    d100 = OddConfig(6, 1, tuple(rng.uniform(0.5, 8.0, 100)), tuple(rng.uniform(0.5, 8.0, 100)))
    return {
        "solver.solve_us.scalar": _per_call(lambda: solve_lambda_star(scalar), 100) * 1e6,
        "solver.solve_ms.d100": _per_call(lambda: solve_lambda_star(d100), 4) * 1e3,
    }


def _lambda() -> dict:
    from oddball.policy import leader_lambda_odd

    warm: dict = {}
    leader_lambda_odd(5, 3.0, 1.0, cache=warm)
    return {
        "policy.lambda_hit_us": _per_call(lambda: leader_lambda_odd(5, 3.0, 1.0, cache=warm), 20000) * 1e6,
        "policy.lambda_miss_us": _per_call(lambda: leader_lambda_odd(5, 3.0, 1.0, cache={}), 100) * 1e6,
    }


def _draw() -> dict:
    rng = np.random.default_rng(7)
    return {"policy.draw_us": _per_call(lambda: int(rng.poisson(10.0)), 20000) * 1e6}


def _slots() -> dict:
    from oddball.policy import PolicyConfig, run_trial
    from oddball.solver import OddConfig

    out = {}
    # Per-slot cost of the trial loop with a warm private weight cache:
    # the same non-stopping run twice, timing the second.
    for name, truth, slots in (
        ("policy.slot_us.k3", OddConfig(3, 1, 1.0, 2.0), 5000),
        ("policy.slot_us.k5", OddConfig(5, 3, 10.0, 1.0), 5000),
        ("policy.slot_us.k50", OddConfig(50, 2, 4.0, 1.0), 1000),
    ):
        config = PolicyConfig(k=truth.k, threshold_l=1.0, variant="non_stopping", max_slots=slots)
        cache: dict = {}

        def trial():
            run_trial(config, truth, np.random.default_rng(11), cache=cache)

        trial()
        out[name] = _per_call(trial, 1) / slots * 1e6
    return out


def _glr() -> dict:
    from oddball.glr import SufficientStats, modified_glr

    out = {}
    rng = np.random.default_rng(3)
    for k in (3, 5, 50):
        stats = SufficientStats.from_counts([20] * k, [40] * k)
        actions = [int(a) for a in rng.integers(1, k + 1, 64)]
        counts = [int(c) for c in rng.poisson(2.0, 64)]

        def block():
            for a, c in zip(actions, counts):
                stats.update(a, c)
                modified_glr(stats, rng)

        calls = 2 if k == 50 else 10
        out[f"glr.update_us.k{k}"] = _per_call(block, calls) / len(actions) * 1e6
    return out


def _experiments() -> dict:
    def block():
        for t in range(200):
            np.random.default_rng([2026, 1, t])

    return {"experiments.rng_setup_us": _per_call(block, 5) / 200 * 1e6}


def measure() -> dict:
    out = {}
    for group in (_numerics, _solver, _lambda, _draw, _slots, _glr, _experiments):
        try:
            out.update(group())
        except (ImportError, AttributeError, TypeError) as exc:
            print(f"micro: {group.__name__[1:]} figures left out: {exc!r}", file=sys.stderr)
    return out

"""The compiled trial kernel against the Python loop it repeats.

Every trial runs through `policy._compiled`, the wrapper of the kernel's
one entry: with the kernel, or with None, where each trial takes the
Python loop, the reference (`_python_loop` below reads that trial into
a `TrialOutcome`). A trial the kernel declines takes the same loop, so
no public switch picks between them. Outcomes, traces, generator states
and memo cells must agree exactly, floats compared with ==. Without a
caller's generator `_compiled` seeds each trial's generator in C; its
generators are checked against numpy's `PCG64` and `default_rng`, its
trials against the Python loop. The build and fallback tests run the
loader against a temporary cache directory.
"""

import ast
import ctypes
import importlib.util
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oddball.policy as policy
from oddball import _builder, _native, reference
from oddball.cli import main as cli_main
from oddball.experiments import ExperimentSpec, drift_experiment, run_experiment
from oddball.numerics import _LOG1P_TAIL_COEFFS, _SERIES_RADIUS, DomainError
from oddball.policy import PolicyConfig
from oddball.solver import _MIN_BRACKET, DEFAULT_TOL, NEAR_DEGENERATE_NU
from oddball.solver import OddConfig, solve_lambda_star


@pytest.fixture
def kernel():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel cannot be built on this machine")
    return lib


# name: (policy configs, truth, seeds, checkpoints)
CONFIGS = {
    # The sim-hard benchmark workload: short trials, many memo misses.
    "sim-hard": (
        [PolicyConfig(k=5, threshold_l=l) for l in (1e2, 1e3, 1e4)],
        OddConfig(5, 3, 10.0, 1.0),
        range(60),
        (),
    ),
    # Acceptance 09's configuration.
    "acceptance-09": (
        [PolicyConfig(k=4, threshold_l=50.0)], OddConfig(4, 2, 5.0, 1.5), range(100), ()
    ),
    # K=50: most selections fall back to uniform sampling.
    "wide": ([PolicyConfig(k=50, threshold_l=1e3)], OddConfig(50, 2, 4.0, 1.0), range(6), ()),
    # The drift workload: non-stopping, checkpoints, growing lgamma and log tables.
    "drift": (
        [PolicyConfig(k=3, threshold_l=1.0, variant="non_stopping", max_slots=20_000)],
        OddConfig(3, 1, 1.0, 2.0),
        range(2),
        (1, 2, 3, 4, 500, 2000, 19_999, 20_000),
    ),
    # More processes than the kernel's table of process states (STATES):
    # many share a state, and distinct states collide in the table.
    "wider-than-table": (
        [PolicyConfig(k=300, threshold_l=1e3, max_slots=1500)],
        OddConfig(300, 7, 0.2, 0.05),
        range(2),
        (1, 299, 300, 301, 1000, 1500),
    ),
    # High rates over a long run: from slot 2717 on, processes with equal
    # visits whose events map to one entry of that table (seed 3), every
    # score compared at every slot after.
    "shared-visits": (
        [PolicyConfig(k=24, threshold_l=1e3, variant="non_stopping", max_slots=3000)],
        OddConfig(24, 2, 60.0, 20.0),
        (3,),
        range(2700, 3001),
    ),
    # Low rates, the odd one lowest: at slot 389 a process with 96 visits
    # and one with 10, each with 2 events, map to one entry of that table
    # (seed 3), every score compared at the slots around it.
    "shared-events": (
        [PolicyConfig(k=24, threshold_l=1e3, variant="non_stopping", max_slots=400)],
        OddConfig(24, 2, 0.1, 0.3),
        (3,),
        range(385, 401),
    ),
    # Low rates: many all-zero tallies, so exact ties in the leader's score.
    "low-rate": (
        [PolicyConfig(k=3, threshold_l=1e3)], OddConfig(3, 1, 0.05, 0.2), range(20), (7, 50)
    ),
}


def _kernel_trial(config, truth, rng, cp, memo, traced=False):
    """`run_trial` on the kernel, and the weight lookups and memo misses of
    its first kernel call; fails unless it made exactly one `_compiled`
    call, and that one with the kernel."""
    calls = []
    compiled = policy._compiled

    def counted(lib, *args):
        calls.append((lib, compiled(lib, *args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(policy, "_compiled", counted)
        out = policy.run_trial(config, truth, rng, traced, cp, memo)
    assert [lib is not None for lib, _ in calls] == [True]
    _, _, (lookups, misses) = calls[0][1]
    return out, lookups, misses


def _python_loop(config, truth, rng, cp, memo, traced=False):
    """`run_trial` on the Python loop: `_compiled` without the kernel, its
    one trial read into a `TrialOutcome` as `run_trial` reads it."""
    out, last, counts = policy._compiled(
        None, config, truth, memo, [0], (), rng, tuple(sorted(cp)), int(traced)
    )
    assert counts == (0, 0)
    tau, delta, capped, trace, snaps = (field[0] for field in out)
    return policy.TrialOutcome(
        config.k, tau, delta, delta == truth.odd_index, capped, *last, trace, snaps
    )


def _agree(configs, truth, seeds, checkpoints, traced=False):
    """Run both loops on every (config, seed), each loop with its own memo
    across all trials as a block of trials keeps; assert equal outcomes,
    traces and generator states. Returns (Python memo, kernel memo, Python
    outcomes, kernel lookups, kernel misses)."""
    cp = frozenset(checkpoints)
    memo_py, memo_c = {}, {}
    refs = []
    lookups = misses = 0
    for config in configs:
        for seed in seeds:
            rng_py, rng_c = np.random.default_rng(seed), np.random.default_rng(seed)
            ref = _python_loop(config, truth, rng_py, cp, memo_py, traced)
            got, n_lookups, n_misses = _kernel_trial(config, truth, rng_c, cp, memo_c, traced)
            key = (config.threshold_l, seed)
            assert (got.tau, got.delta, got.correct, got.capped) == (
                ref.tau, ref.delta, ref.correct, ref.capped), key
            assert (got.visits, got.events, got.total) == (ref.visits, ref.events, ref.total), key
            assert got.z_min == ref.z_min, key
            assert got.snapshots == ref.snapshots, key
            assert got.trace == ref.trace and (got.trace is None) != traced, key
            assert got == ref, key
            assert rng_c.bit_generator.state == rng_py.bit_generator.state, key
            refs.append(ref)
            lookups += n_lookups
            misses += n_misses
    return memo_py, memo_c, refs, lookups, misses


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_kernels_agree_exactly(name, traced, kernel, monkeypatch):
    configs, truth, seeds, checkpoints = CONFIGS[name]
    ties = 0
    pick = reference._pick_leader

    def counted_pick(z_min, rng):
        nonlocal ties
        ties += z_min.count(max(z_min)) > 1
        return pick(z_min, rng)

    monkeypatch.setattr(reference, "_pick_leader", counted_pick)
    memo_py, memo_c, refs, lookups, misses = _agree(configs, truth, seeds, checkpoints, traced)
    k = truth.k
    assert np.array_equal(memo_c[k], memo_py[k])
    # Each miss fills one cell, which a later miss may take over.
    assert 0 < np.count_nonzero(memo_c[k][::2]) <= misses
    assert lookups > misses
    if name == "low-rate":
        assert ties > 0
    if name == "drift":
        # The trials' event totals and slot counts take the kernel's lgamma
        # and log tables through several doublings; the traced run compares
        # every slot's score, and so every log(n + 1) the log table serves,
        # bitwise.
        assert min(ref.total for ref in refs) > 1024 and min(ref.tau for ref in refs) > 1024
        assert len(refs[-1].snapshots) == len(checkpoints)


def _solves(monkeypatch) -> list:
    """Record the weight solves of `leader_lambda_odd` from here on."""
    calls, solve = [], reference._root_row

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(reference, "_root_row", counted)
    return calls


def test_colliding_grid_points(kernel, monkeypatch):
    # Two grid points congruent mod _MEMO_CELLS share one cell: each
    # evicts the other, so an evicted point is solved again, and each
    # value served is still the weight at its own point.
    cells = policy._MEMO_CELLS
    q1, q2 = 250_000, 250_000 + cells
    assert q1 % cells == q2 % cells
    solves = _solves(monkeypatch)
    cache = {}
    got = [
        policy.leader_lambda_odd(3, q / policy._QUANT, 1.0 - q / policy._QUANT, cache)
        for q in (q1, q2, q1, q1)
    ]
    assert len(solves) == 3
    for q, lam_odd in zip((q1, q2), got):
        nu = q / policy._QUANT
        assert lam_odd == solve_lambda_star(OddConfig(3, 1, nu, 1.0 - nu)).lam_odd
        params = _native.buffer_address(policy._KERNEL_PARAMS)
        assert lam_odd == kernel.oddball_lam_odd(3, q, params)
    assert got[2:] == [got[0], got[0]]
    assert len(cache[3]) * cache[3].itemsize == 16 * cells
    at = 2 * (q1 % cells)
    assert cache[3][at : at + 2].tolist() == [q1, got[0]]
    assert np.count_nonzero(cache[3]) == 2


def test_loops_evict_alike(kernel, monkeypatch):
    # With 16 cells nearly every miss evicts another point. Both loops
    # must evict the same points: the memos agree cell for cell, and the
    # kernel misses exactly as often as the Python loop solves.
    params = array("d", policy._KERNEL_PARAMS)
    params[_c_enum("P_QUANT").index("P_CELLS")] = 16
    monkeypatch.setattr(policy, "_MEMO_CELLS", 16)
    monkeypatch.setattr(policy, "_KERNEL_PARAMS", params)
    solves = _solves(monkeypatch)
    configs, truth, seeds, checkpoints = CONFIGS["sim-hard"]
    memo_py, memo_c, _, _, misses = _agree(configs, truth, seeds, checkpoints)
    k = truth.k
    assert len(memo_c[k]) * memo_c[k].itemsize == len(memo_py[k]) * memo_py[k].itemsize == 16 * 16
    assert np.array_equal(memo_c[k], memo_py[k])
    assert misses == len(solves) > 10 * np.count_nonzero(memo_c[k][::2])


def _python_trial_calls(monkeypatch):
    """Count the calls of `reference._python_trial` from here on."""
    calls = []
    python_trial = reference._python_trial
    monkeypatch.setattr(reference, "_python_trial", lambda *a: calls.append(1) or python_trial(*a))
    return calls


def _shrink_table_cap(monkeypatch, cap):
    """Cap the kernel's lgamma and log tables at `cap` entries."""
    params = array("d", policy._KERNEL_PARAMS)
    params[_c_enum("P_QUANT").index("P_TABLE_CAP")] = cap
    monkeypatch.setattr(policy, "_KERNEL_PARAMS", params)


# Table caps: 0 is the compute-only path a failed realloc also takes, 1
# stores one entry, 1024 grows by doubling and then computes past it, and
# 1001 ends inside a lane group, so the kernel's last fill is cut short.
TABLE_CAPS = [0, 1, 1001, 1024]


def _past_cap_case(name):
    """The drift config, or a high-rate stopping one: configs, truth,
    seeds and checkpoints of trials that all pass 1024 slots and events."""
    if name == "drift":
        return CONFIGS["drift"]
    configs = [PolicyConfig(k=3, threshold_l=l) for l in (10.0, 1e3)]
    return configs, OddConfig(3, 2, 200.0, 185.0), range(5), (1, 3, 8)


@pytest.fixture(scope="module")
def past_cap_refs():
    """name: the Python loop's (outcome, generator state) for each trial of
    `_past_cap_case(name)`, in order over one memo, and that memo; run once
    for every cap."""
    refs = {}
    for name in ("drift", "high-rate"):
        configs, truth, seeds, checkpoints = _past_cap_case(name)
        memo, outs = {}, []
        for config in configs:
            for seed in seeds:
                rng = np.random.default_rng(seed)
                out = _python_loop(config, truth, rng, checkpoints, memo)
                outs.append((out, rng.bit_generator.state))
        refs[name] = outs, memo
    return refs


@pytest.mark.parametrize("cap", TABLE_CAPS)
@pytest.mark.parametrize("name", ["drift", "high-rate"])
def test_agree_past_table_cap(name, cap, kernel, monkeypatch, past_cap_refs):
    # With the tables capped, trials whose event totals and slot counts
    # pass the cap stay on the kernel, which computes lgamma(y + 1) and
    # log(n + 1) past the tables, in the scores of every process; the
    # drift trial passes a cap of 1024 between its checkpoints. Outcomes,
    # generator states and memo cells match the Python loop's.
    _shrink_table_cap(monkeypatch, cap)
    calls = _python_trial_calls(monkeypatch)
    configs, truth, seeds, checkpoints = _past_cap_case(name)
    refs, memo_py = past_cap_refs[name]
    memo_c, got = {}, []
    for config in configs:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            out, _, _ = _kernel_trial(config, truth, rng, frozenset(checkpoints), memo_c)
            got.append((out, rng.bit_generator.state))
    assert calls == []  # no trial was declined
    assert got == refs
    assert min(o.total for o, _ in refs) > cap and min(o.tau for o, _ in refs) > cap
    assert np.array_equal(memo_c[truth.k], memo_py[truth.k])


def test_lgamma_port_is_bitwise():
    # The kernel's port of CPython's m_lgamma equals math.lgamma(y + 1) on
    # every y below the table cap (the values its lgamma table stores), on
    # ranges whose start and length are not multiples of the lane width,
    # past the cap, and at random y < 2^53, alone and in lane groups. The
    # library is loaded without the loader's probe, which would turn a
    # wrong port into a skip.
    try:
        kernel = _native._load()
    except OSError:
        pytest.skip("the compiled kernel cannot be built on this machine")
    cap, lanes = policy._TABLE_CAP, _native._LANES
    ref = np.fromiter(map(math.lgamma, range(1, cap + 4097)), np.float64, cap + 4096)
    got = np.frombuffer(_native.lgamma_ranges(kernel, (0, cap + 4096)))
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    for start, n in itertools.product([1, 3, lanes - 1, 5 * lanes + 3, cap - 2], range(3 * lanes)):
        got = np.frombuffer(_native.lgamma_ranges(kernel, (start, n)))
        assert np.array_equal(got.view(np.uint64), ref[start : start + n].view(np.uint64))
    out, bounds = ctypes.c_double(), (ctypes.c_int64 * 2)(0, 1)
    at, pair = ctypes.addressof(out), ctypes.addressof(bounds)

    def one(y):
        bounds[0] = y
        kernel.oddball_lgamma(at, pair, 1)
        return out.value

    rng = np.random.default_rng(13)
    ys = rng.integers(0, 2**53, size=100_000).tolist()
    assert [y for y in ys if one(y) != math.lgamma(y + 1)] == []
    # A lane group and a tail at each of 1000 random starts.
    for start in rng.integers(0, 2**53 - 2 * lanes, size=1000).tolist():
        got = _native.lgamma_ranges(kernel, (start, lanes + 3)).tolist()
        assert got == [math.lgamma(y + 1) for y in range(start, start + lanes + 3)], start


def test_memo_holds_only_weight_cells(kernel):
    # The kernel's tables live and die with its call: after trials on a
    # caller's generator, seeded blocks and a drift run, the memo's keys
    # are exactly the K values used, each holding its weight cells.
    memo = {}
    policy.run_trial(
        PolicyConfig(k=5, threshold_l=1e3), OddConfig(5, 3, 10.0, 1.0), np.random.default_rng(4),
        collect_trace=True, cache=memo,
    )
    policy._seeded_trials(
        PolicyConfig(k=4, threshold_l=1e2), OddConfig(4, 2, 6.0, 2.0), (1, 0), [0, 1, 2], memo,
        n_traced=1,
    )
    config = PolicyConfig(k=3, threshold_l=1.0, variant="non_stopping", max_slots=3000)
    policy._seeded_trials(config, OddConfig(3, 1, 1.0, 2.0), (), [4, 9], memo, (10, 700))
    assert sorted(memo) == [3, 4, 5]
    assert all(
        cells.typecode == "d" and len(cells) == 2 * policy._MEMO_CELLS for cells in memo.values()
    )


def test_parameter_buffers_stay_unchanged(kernel):
    # The kernel reads its constants from `_KERNEL_PARAMS` and
    # `_SOLVE_PARAMS` by address, from several threads at once, and must
    # never write them: after trials and solves on the kernel they still
    # hold the constants they were built from.
    from oddball import solver

    want_solve = [0.0] * 4 + [
        NEAR_DEGENERATE_NU, DEFAULT_TOL, _MIN_BRACKET, _SERIES_RADIUS, len(_LOG1P_TAIL_COEFFS),
        *_LOG1P_TAIL_COEFFS,
    ]
    want_kernel = [
        policy._QUANT, policy._MEMO_CELLS, policy._TABLE_CAP, policy.DEGENERATE_ESTIMATE_GAP,
        *want_solve[4:],
    ]
    config = PolicyConfig(k=5, threshold_l=1e3)
    policy._seeded_trials(config, OddConfig(5, 3, 10.0, 1.0), (), list(range(8)), {}, n_traced=2)
    solver.d_star_rows(4, [[1.0, 2.0], [3.0, 0.5]], [[2.0, 2.0], [1.0, 1.0]])
    assert policy._KERNEL_PARAMS.tolist() == want_kernel
    assert solver._SOLVE_PARAMS.tolist() == want_solve


def _pcg64_state(gen: np.ndarray) -> dict:
    """numpy's PCG64.state of a kernel generator array."""
    g = gen.tolist()
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": g[policy._STATE_HI] << 64 | g[policy._STATE_LO],
            "inc": g[policy._INC_HI] << 64 | g[policy._INC_LO],
        },
        "has_uint32": g[policy._HAS_UINT32],
        "uinteger": g[policy._UINTEGER],
    }


def _c_generator(lib, values):
    """The kernel's generator array, seeded from `values` (at most three)."""
    gen = np.zeros(policy._GEN_SIZE, dtype=np.uint64)
    keys = np.array(values, dtype=np.uint64)
    lib.oddball_draw(keys.ctypes.data, len(values), gen.ctypes.data, None, 64, 0.0, 0, None)
    return gen


def _c_draws(lib, gen, bits, count):
    out = np.zeros(count, dtype=np.uint64)
    lib.oddball_draw(None, 0, gen.ctypes.data, None, bits, 0.0, count, out.ctypes.data)
    return out.tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
def test_seeding_matches_numpy(seed, level, trial):
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel cannot be built on this machine")
    key = [seed, level, trial]
    assert _pcg64_state(_c_generator(lib, key)) == np.random.PCG64(key).state, key


def test_seeding_edge_keys(kernel):
    # A value takes one entropy word below 2^32 (0 included), two from 2^32 on.
    edges = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)
    keys = [[v] for v in edges] + [[v, w] for v, w in itertools.product(edges, repeat=2)]
    keys += [list(key) for key in itertools.product(edges, edges[:5], edges[:5])]
    for key in keys:
        assert _pcg64_state(_c_generator(kernel, key)) == np.random.PCG64(key).state, key


@pytest.mark.parametrize("n", [1, 2])
def test_stream_matches_numpy_test_data(n, kernel):
    # numpy's own reference outputs of PCG64(seed).random_raw().
    path = os.path.join(
        os.path.dirname(np.random.__file__), "tests", "data", f"pcg64-testset-{n}.csv"
    )
    if not os.path.exists(path):
        pytest.skip("numpy's PCG64 test data is not installed")
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    seed, ref = int(rows[0][1], 0), [int(row[1], 0) for row in rows[1:]]
    assert _c_draws(kernel, _c_generator(kernel, [seed]), 64, len(ref)) == ref


def test_32_bit_draws_keep_the_spare_half(kernel):
    # next_uint32 returns the low half of a 64-bit draw and keeps the high
    # half for the next call; a 64-bit draw leaves that half waiting.
    gen, bits = _c_generator(kernel, [7, 1, 2]), np.random.PCG64([7, 1, 2])
    rng = np.random.Generator(bits)
    for width, count in ((32, 3), (64, 2), (32, 1), (32, 2), (64, 1)):
        if width == 32:
            ref = rng.integers(0, 2**32, size=count, dtype=np.uint32).tolist()
        else:
            ref = bits.random_raw(count).tolist()
        assert _c_draws(kernel, gen, width, count) == ref
        assert _pcg64_state(gen) == bits.state


def _c_poisson(lib, gen, bits, rate, count):
    """`count` of the trial's Poisson draws at `rate`, on the numpy bit
    generator `bits` if given, else on the kernel's generator array `gen`."""
    out = np.zeros(count, dtype=np.uint64)
    caller = None if bits is None else _native.bitgen_address(bits)
    lib.oddball_draw(None, 0, gen.ctypes.data, caller, 0, rate, count, out.ctypes.data)
    return out.tolist()


# Rates of the Poisson draw parity test: numpy's multiplication method
# below 10, which the kernel ports, its PTRS sampler from 10 on, which the
# kernel calls.
POISSON_RATES = (1e-12, 0.5, 1.0, 2.0, 4.0, 9.999999, 10.0, 10.5, 1e3)


@pytest.mark.parametrize("caller", [False, True], ids=["seeded", "caller"])
@pytest.mark.parametrize("rate", POISSON_RATES)
def test_poisson_draws_match_numpy(rate, caller, kernel):
    # The kernel's Poisson draw against Generator.poisson on the same
    # PCG64 stream, on the seeded generator array (uniforms straight from
    # it) and on a caller's generator (through its bitgen_t): the same
    # counts, then the same generator state. One 32-bit draw first leaves
    # a spare half waiting, which the Poisson draws must keep.
    key, count = [28, 3, 7], 4000
    ref = np.random.Generator(np.random.PCG64(key))
    ref.integers(0, 2**32, dtype=np.uint32)
    want = ref.poisson(rate, count).tolist()
    gen, bits = _c_generator(kernel, key), None
    if caller:
        bits = np.random.PCG64(key)
        np.random.Generator(bits).integers(0, 2**32, dtype=np.uint32)
    else:
        _c_draws(kernel, gen, 32, 1)
    assert _c_poisson(kernel, gen, bits, rate, count) == want
    state = bits.state if caller else _pcg64_state(gen)
    assert state == ref.bit_generator.state and state["has_uint32"] == 1
    assert rate < 0.5 or len(set(want)) > 3


class _GeneratorSpy:
    """A kernel whose `oddball_block` forwards each call, then records the
    numpy PCG64.state of the generator array it seeded (`words`)."""

    def __init__(self, lib):
        self.lib, self.states = lib, []

    def oddball_block(self, *args):
        self.lib.oddball_block(*args)
        at = [p.split()[-1].lstrip("*") for p in _block_params()].index("words")
        words = (ctypes.c_uint64 * policy._GEN_SIZE).from_address(args[at])
        self.states.append(_pcg64_state(np.array(words, dtype=np.uint64)))


@pytest.mark.parametrize("name", ["sim-hard", "low-rate", "wide"])
def test_block_matches_run_trial(name, kernel, monkeypatch):
    # Trial t of a seeded call draws from default_rng([seed, level, t]), so
    # it matches the Python loop on that generator: results, traces (the
    # traced ones replayed from their keys), the generator's state after
    # the trial (its spare 32-bit half included: low-rate trials draw for
    # leader ties) and the memo, whose cells hold the last grid point
    # looked up in each.
    configs, truth, _, _ = CONFIGS[name]
    ties = 0
    pick = reference._pick_leader

    def counted_pick(z_min, rng):
        nonlocal ties
        ties += z_min.count(max(z_min)) > 1
        return pick(z_min, rng)

    monkeypatch.setattr(reference, "_pick_leader", counted_pick)
    # The call's weight lookups and memo misses are the sums of the
    # per-trial counts of `run_trial` on the kernel over the same memo order.
    seed, trials = 2**40 + 3, [0, 2, 3, 5, 8, 13, 21, 2**32 + 1]
    n_traced = 3
    spares = 0
    for level, config in enumerate(configs):
        memo_py, memo_c, memo_one, memo_trial = {}, {}, {}, {}
        ref, states = [], []
        counts = [0, 0]
        for i, t in enumerate(trials):
            rng = np.random.default_rng([seed, level, t])
            out = _python_loop(config, truth, rng, (), memo_py, i < n_traced)
            ref.append((out.tau, out.delta, out.capped, out.trace))
            states.append(rng.bit_generator.state)
            spares += states[-1]["has_uint32"]
            spy = _GeneratorSpy(kernel)
            one, _, _ = policy._compiled(spy, config, truth, memo_one, [t], (seed, level))
            assert list(zip(one.tau, one.delta, one.capped)) == [ref[-1][:3]], (level, t)
            assert one.trace == [None] and spy.states == [states[-1]], (level, t)
            rng_c = np.random.default_rng([seed, level, t])
            _, lookups, misses = _kernel_trial(config, truth, rng_c, frozenset(), memo_trial)
            counts[0] += lookups
            counts[1] += misses
        assert np.array_equal(memo_one[truth.k], memo_py[truth.k])
        spy = _GeneratorSpy(kernel)
        got, _, (lookups, misses) = policy._compiled(
            spy, config, truth, memo_c, trials, (seed, level), n_traced=n_traced
        )
        assert list(zip(got.tau, got.delta, got.capped, got.trace)) == ref
        # The call ends on the last trial's generator, its replay on the last traced one's.
        assert spy.states == [states[-1], states[n_traced - 1]]
        assert [lookups, misses] == counts and lookups > misses > 0
        # The replay looks the weights of the traced trials up again, last.
        for t in trials[:n_traced]:
            rng = np.random.default_rng([seed, level, t])
            _python_loop(config, truth, rng, (), memo_py)
        assert np.array_equal(memo_c[truth.k], memo_py[truth.k])
    if name == "low-rate":
        assert ties > 0 and spares > 0


@pytest.mark.parametrize("rate", [9.999999, 10.0])
def test_trials_at_the_sampler_switch(rate, kernel):
    # sim-hard's odd rate of 10 sits exactly where numpy switches from the
    # multiplication method, which the kernel ports, to PTRS, which it
    # calls; 9.999999 is just below. Trials with the odd or the common
    # rate there match the Python loop on callers' generators and on
    # seeded ones: results, traces, snapshots and generator states.
    config, cps = PolicyConfig(k=5, threshold_l=1e3), (1, 6)
    prefix, trials, n_traced = (2**40 + 3, 0), list(range(8)), 2
    for truth in (OddConfig(5, 3, rate, 1.0), OddConfig(5, 3, 2.0, rate)):
        _agree([config], truth, range(20), cps, traced=True)
        spy = _GeneratorSpy(kernel)
        got, _, _ = policy._compiled(spy, config, truth, {}, trials, prefix, None, cps, n_traced)
        for i, t in enumerate(trials):
            rng = np.random.default_rng([*prefix, t])
            ref = _python_loop(config, truth, rng, frozenset(cps), {}, i < n_traced)
            assert (got.tau[i], got.delta[i], got.capped[i]) == (ref.tau, ref.delta, ref.capped)
            assert (got.trace[i], got.snapshots[i]) == (ref.trace, ref.snapshots), t
        assert spy.states[0] == rng.bit_generator.state


def test_caller_replay_holds_the_lock(kernel):
    # A traced trial on a caller's generator runs twice: untraced, then
    # replayed from the saved state into a buffer of exactly its slots.
    # The generator's lock is held over both kernel calls, so another
    # thread cannot draw between them. A generator moved in between
    # regardless (here by setting its state, which takes no lock) makes
    # the replay run longer than the buffer: the kernel writes no row past
    # it, and the wrapper raises.
    config, truth = PolicyConfig(k=4, threshold_l=100.0), OddConfig(4, 2, 6.0, 2.0)
    names = [p.split()[-1].lstrip("*") for p in _block_params()]
    at_trace, at_rows = names.index("trace"), names.index("nrows")
    taus = [policy.run_trial(config, truth, np.random.default_rng(s)).tau for s in range(20)]
    moved = next(s for s in range(1, 20) if taus[s] > taus[0])
    rng = np.random.default_rng(0)

    class Replay:
        """Forwards each call, noting whether another thread could take the
        lock and, with `move` set, moving the generator before the replay."""

        def __init__(self, move):
            self.move, self.free, self.tail = move, [], None

        def oddball_block(self, *args):
            probe = threading.Thread(target=self.try_lock)
            probe.start()
            probe.join(timeout=10)
            assert not probe.is_alive()
            if not (self.move and args[at_trace]):
                return kernel.oddball_block(*args)
            rng.bit_generator.state = np.random.default_rng(moved).bit_generator.state
            nrows = args[at_rows]
            rows = np.full((nrows + taus[moved], policy._T_WIDTH), np.nan)
            kernel.oddball_block(*args[:at_trace], rows.ctypes.data, *args[at_trace + 1 :])
            assert not np.isnan(rows[:nrows]).any()
            self.tail = rows[nrows:]

        def try_lock(self):
            lock = rng.bit_generator.lock
            self.free.append(lock.acquire(blocking=False))
            if self.free[-1]:
                lock.release()

    spy = Replay(move=False)
    out, _, _ = policy._compiled(spy, config, truth, {}, [0], (), rng, n_traced=1)
    assert spy.free == [False, False]
    assert out.trace[0] == policy.run_trial(
        config, truth, np.random.default_rng(0), collect_trace=True
    ).trace
    spy = Replay(move=True)
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="replay ran differently"):
        policy._compiled(spy, config, truth, {}, [0], (), rng, n_traced=1)
    assert spy.free == [False, False] and np.isnan(spy.tail).all()


def test_caller_rerun_holds_the_lock(kernel, monkeypatch):
    # At numpy's Poisson limit the kernel declines the trial, and it
    # reruns on the Python loop from the caller's generator's saved state.
    # The lock is held over the kernel call, the rewind and the rerun, so
    # another thread cannot draw in between and have its draws repeated.
    rng, free = np.random.default_rng(0), []
    python_trial = reference._python_trial

    def try_lock():
        lock = rng.bit_generator.lock
        free.append(lock.acquire(blocking=False))
        if free[-1]:
            lock.release()

    def probed(*args):
        probe = threading.Thread(target=try_lock)
        probe.start()
        probe.join(timeout=10)
        assert not probe.is_alive()
        return python_trial(*args)

    monkeypatch.setattr(reference, "_python_trial", probed)
    limit = OddConfig(3, 1, policy._POISSON_LAM_MAX, 1.0)
    out = policy.run_trial(PolicyConfig(k=3, threshold_l=10.0), limit, rng, collect_trace=True)
    assert free == [False]
    assert len(out.trace) == out.tau + 1 and out.trace[0]["count"] > 2**53


def test_threads_share_a_caller_generator(kernel):
    # Four threads, more than the cores, run traced trials and plain draws
    # on one Generator with a short switch interval. Each traced trial must
    # still be one trial: its trace's counts add up to its tallies, which
    # a replay started from a state another thread moved would break.
    config, truth = PolicyConfig(k=4, threshold_l=100.0), OddConfig(4, 2, 6.0, 2.0)
    rng, outs, errors = np.random.default_rng(11), [], []

    def work(traced):
        try:
            for _ in range(25):
                if traced:
                    outs.append(policy.run_trial(config, truth, rng, collect_trace=True))
                else:
                    rng.poisson(3.0, size=50)
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2 == 0,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(outs) == 50
    for out in outs:
        slots = out.trace[:-1]
        assert len(slots) == out.tau and out.trace[-1]["delta"] == out.delta
        assert [sum(r["action"] == i + 1 for r in slots) for i in range(4)] == list(out.visits)
        assert [sum(r["count"] for r in slots if r["action"] == i + 1) for i in range(4)] == list(
            out.events
        )


@pytest.mark.parametrize("cap", TABLE_CAPS)
@pytest.mark.parametrize("name", ["past-cap", "poisson-limit"])
def test_block_agrees_past_lgamma_cap(name, cap, kernel, monkeypatch):
    # With the tables capped, high-rate trials whose event totals pass the
    # cap stay in the block. At numpy's Poisson limit the first draw would
    # take the total to 2^53, so the kernel declines every trial and each
    # reruns on the Python loop from its seed.
    _shrink_table_cap(monkeypatch, cap)
    config = PolicyConfig(k=3, threshold_l=1e3)
    r1 = 200.0 if name == "past-cap" else policy._POISSON_LAM_MAX
    truth, trials = OddConfig(3, 2, r1, 185.0), list(range(6))
    calls = _python_trial_calls(monkeypatch)
    memo_c = {}
    got, _, _ = policy._compiled(kernel, config, truth, memo_c, trials, (9, 1))
    assert len(calls) == (0 if name == "past-cap" else len(trials))
    memo_py = {}
    ref = [
        _python_loop(config, truth, np.random.default_rng([9, 1, t]), (), memo_py) for t in trials
    ]
    assert list(zip(got.tau, got.delta, got.capped)) == [(o.tau, o.delta, o.capped) for o in ref]
    assert min(o.total for o in ref) > 1024
    assert np.array_equal(memo_c[3], memo_py[3])


@pytest.mark.parametrize("wrong_y", [None, 5], ids=["every-y", "one-lane"])
def test_lgamma_mismatch_takes_the_fallback(wrong_y, monkeypatch, capsys):
    # A kernel whose lgamma differs from math.lgamma by one ulp is never
    # used, so output bytes cannot depend on which loop ran: wrong on
    # every y, or only on y = 5, which only the probe's lane group holds.
    class Wrong:
        def oddball_lgamma(self, out, ranges, n):
            bounds = (ctypes.c_int64 * (2 * n)).from_address(ranges)
            ys = [y for i in range(n) for y in range(bounds[2 * i], sum(bounds[2 * i : 2 * i + 2]))]
            values = (ctypes.c_double * len(ys)).from_address(out)
            for i, y in enumerate(ys):
                off = wrong_y is None or y == wrong_y
                values[i] = math.lgamma(y + 1) * (1 + 2**-52 * off)

    assert 5 not in _native._LGAMMA_PROBES and 5 < _native._LANES
    monkeypatch.setattr(_native, "_load", Wrong)
    monkeypatch.setattr(_native, "_loaded", [])
    assert _native.kernel() is None
    assert "its lgamma differs from math.lgamma" in capsys.readouterr().err


def _experiment_bytes(spec, trace_dir, parallelism):
    """The report and trace files of `run_experiment`, by name."""
    os.makedirs(trace_dir)
    report = run_experiment(spec, parallelism=parallelism, trace_dir=str(trace_dir))
    out = {"report": report.to_csv().encode()}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _drift_bytes(parallelism):
    """The CSV of a checkpointed drift run over three seeds, one past 2^64."""
    result = drift_experiment(
        OddConfig(3, 1, 1.0, 2.0), 3000, [4, 9, 2**64 + 1], checkpoints=[1, 10, 700],
        parallelism=parallelism,
    )
    return {"drift": result.to_csv().encode()}


def _failed_build(out, numpy_dir):
    """A `build` whose compiler fails, as `_builder.build` reports it."""
    raise OSError("cc: no input files")


@pytest.mark.parametrize(
    "spec, past_cap",
    [
        # The sim-hard workload's configuration.
        (dict(k=5, odd_index=3, r1=10.0, r2=1.0, l_grid=[1e2, 1e4], trials=40, seed=905), False),
        # Leader ties; a seed of two entropy words.
        (
            dict(k=3, odd_index=1, r1=0.05, r2=0.2, l_grid=[10.0, 1e3], trials=30, seed=2**64 - 1),
            False,
        ),
        # Past the lowered lgamma cap: the kernel computes lgamma past the table.
        (dict(k=3, odd_index=2, r1=200.0, r2=185.0, l_grid=[10.0, 1e3], trials=6, seed=3), True),
        # Every trial traced, at K=50, where most slots fall back to uniform.
        (dict(k=50, odd_index=2, r1=4.0, r2=1.0, l_grid=[1e3], trials=3, seed=12,
              trace_sampling=1.0), False),
        # A checkpointed drift run, past the lowered cap too.
        ("drift", True),
    ],
    ids=["sim-hard", "low-rate", "past-cap", "wide-traced", "drift"],
)
def test_block_bytes_match_fallback_and_workers(
    spec, past_cap, kernel, tmp_path, monkeypatch, capsys
):
    # Report, trace and drift bytes are the same from the kernel, from
    # the Python loop (no compiler) and over two workers on either loop:
    # each worker thread's block has its own memo.
    _shrink_table_cap(monkeypatch, 1024)
    totals = []
    compiled = policy._compiled

    def spy(*args, **kwargs):
        out = compiled(*args, **kwargs)
        totals.append(out[1][2])  # the event total of the call's last trial
        return out

    monkeypatch.setattr(policy, "_compiled", spy)
    if spec == "drift":
        run = lambda _, jobs: _drift_bytes(jobs)  # noqa: E731
    else:
        spec = ExperimentSpec(**{"trace_sampling": 0.1, **spec})
        run = partial(_experiment_bytes, spec)
    block = run(tmp_path / "block", 1)
    assert (max(totals) > 1024) == past_cap
    assert run(tmp_path / "workers", 2) == block
    monkeypatch.setattr(_native, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_builder, "build", _failed_build)
    monkeypatch.setattr(_native, "_loaded", [])
    assert run(tmp_path / "fallback", 1) == block
    assert run(tmp_path / "fallback-workers", 2) == block
    assert _native.kernel() is None
    assert "compiled trial kernel unavailable" in capsys.readouterr().err
    if spec != "drift":
        assert len(block) == 1 + len(spec.l_grid) * math.ceil(spec.trace_sampling * spec.trials)


def test_rates_past_numpy_poisson_limit(kernel):
    # Both loops refuse a rate numpy cannot draw from, before any draw; at
    # the limit itself they agree (the kernel declines at the first draw,
    # and the trial reruns on the Python loop).
    config, limit = PolicyConfig(k=3, threshold_l=10.0), policy._POISSON_LAM_MAX
    over = OddConfig(3, 1, float(np.nextafter(limit, np.inf)), 1.0)
    for traced in (False, True):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="Poisson"):
            policy.run_trial(config, over, rng, collect_trace=traced)
        assert rng.bit_generator.state == state
        _agree([config], OddConfig(3, 1, limit, 1.0), range(3), (1, 2), traced)


def _package_env(**extra) -> dict:
    """This process's environment with this package first on PYTHONPATH, and `extra`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(policy.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


def _table_probe(runs: int) -> list[tuple[int, float]]:
    """In a new process, after one short trial that loads the kernel, run
    `runs` times a non-stopping 40k-slot trial at rate 150, whose event
    total reaches about 6e6; after each, its event total and how far the
    peak RSS has grown since the short trial, in MiB."""
    probe = (
        "import resource, numpy as np\n"
        "from oddball.policy import PolicyConfig, run_trial\n"
        "from oddball.solver import OddConfig\n"
        "run_trial(PolicyConfig(k=3, threshold_l=1.0), OddConfig(3, 1, 2.0, 1.0),"
        " np.random.default_rng(0))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "config = PolicyConfig(k=3, threshold_l=1.0, variant='non_stopping', max_slots=40_000)\n"
        f"for _ in range({runs}):\n"
        "    out = run_trial(config, OddConfig(3, 1, 150.0, 150.0), np.random.default_rng(1))\n"
        "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    print(out.total, (after - before) / 1024)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return [(int(total), float(grown)) for total, grown in map(str.split, proc.stdout.splitlines())]


def test_lgamma_table_memory_is_bounded(kernel):
    # Uncapped, the trial's lgamma table alone would take 64 MiB; its log
    # table holds 40k entries.
    ((total, grown_mib),) = _table_probe(1)
    assert total > 5_000_000
    assert grown_mib < 32.0, grown_mib


def test_kernel_frees_its_tables(kernel):
    # Each kernel call frees its tables, so five such trials in a row grow
    # the peak RSS by about one capped lgamma table (16 MiB, plus the half
    # a copying realloc may hold), not five.
    grown = [grown_mib for _, grown_mib in _table_probe(5)]
    assert grown[-1] < 28.0, grown


def test_weight_solve_is_bitwise(kernel, monkeypatch):
    # The memo-miss solve against `solve_lambda_star` on the Python loop.
    monkeypatch.setattr(_native, "_loaded", [None])
    params = _native.buffer_address(policy._KERNEL_PARAMS)
    grid = set(range(1, 10**6, 4999)) | {1, 2, 333_333, 499_999, 500_000, 500_001, 999_998, 999_999}
    for k in (3, 4, 5, 50, 1000):
        for q in sorted(grid):
            ref = solve_lambda_star(OddConfig(k, 1, q / 1e6, 1.0 - q / 1e6)).lam_odd
            assert kernel.oddball_lam_odd(k, q, params) == ref, (k, q)


def test_run_trial_dispatch(kernel, monkeypatch):
    # Trials on a numpy Generator run the kernel, traced ones included;
    # a generator of another type runs the Python loop. The outcome is the
    # same apart from the trace, and so is the generator's state after it.
    # Every trial takes one `_compiled` call, with the kernel or without.
    calls = []
    compiled = policy._compiled
    monkeypatch.setattr(
        policy, "_compiled", lambda lib, *a: calls.append(lib is not None) or compiled(lib, *a)
    )
    python = _python_trial_calls(monkeypatch)
    config, truth = PolicyConfig(k=4, threshold_l=100.0), OddConfig(4, 2, 6.0, 2.0)
    rng_plain, rng_traced = np.random.default_rng(3), np.random.default_rng(3)
    plain = policy.run_trial(config, truth, rng_plain, checkpoints=[2, 9])
    traced = policy.run_trial(config, truth, rng_traced, collect_trace=True, checkpoints=[2, 9])
    assert calls == [True, True] and python == []
    assert plain.trace is None and traced.trace is not None
    differ = [n for n in policy.TrialOutcome._fields if getattr(plain, n) != getattr(traced, n)]
    assert differ == ["trace"]
    assert rng_plain.bit_generator.state == rng_traced.bit_generator.state

    class Wrapped:
        """Another type of generator, with the draws the Python loop makes."""

        def __init__(self, rng):
            self.poisson, self.random, self.integers = rng.poisson, rng.random, rng.integers

    ref = policy.run_trial(
        config, truth, Wrapped(np.random.default_rng(3)), collect_trace=True, checkpoints=[2, 9]
    )
    assert calls == [True, True, False] and python == [1]
    assert ref == traced


def _uses(name: str, calls_only: bool) -> list[tuple[str, str]]:
    """(module, top-level function or "<module>") of each use of `name` in
    the package's source, as a plain name or an attribute; with
    `calls_only`, only the calls of it."""
    package = os.path.dirname(policy.__file__)
    uses = []
    for module in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        scopes = [(getattr(node, "name", "<module>"), node) for node in tree.body]
        for scope, top in scopes:
            for node in ast.walk(top):
                if calls_only:
                    if not isinstance(node, ast.Call):
                        continue
                    node = node.func
                if getattr(node, "id", getattr(node, "attr", None)) == name:
                    uses.append((module, scope))
    return uses


def test_one_path_to_the_python_loop():
    # Every trial reaches the Python loop through `_compiled`, as a trial
    # the kernel declines does, and only `run_trial` builds an outcome:
    # a second path would not run the code the kernel is checked against.
    assert _uses("_python_trial", calls_only=False) == [("policy.py", "_compiled")]
    assert _uses("TrialOutcome", calls_only=True) == [("policy.py", "run_trial")]
    assert _uses("_trace_records", calls_only=False) == [("policy.py", "_compiled")]


def test_every_trial_runs_on_the_kernel(kernel, monkeypatch, tmp_path):
    # Traced simulate trials, at a seed past 2^64 too, and checkpointed
    # drift runs make no call of the Python loop.
    calls = _python_trial_calls(monkeypatch)
    for seed in (5, 2**64):
        spec = ExperimentSpec(k=4, odd_index=2, r1=6.0, r2=2.0, l_grid=[10.0, 1e3], trials=20,
                              seed=seed, trace_sampling=0.2)
        run_experiment(spec, trace_dir=str(tmp_path))
    drift_experiment(OddConfig(3, 1, 1.0, 2.0), 2000, [4, 5, 2**64], checkpoints=[10, 700])
    assert len(os.listdir(tmp_path)) == 8
    assert calls == []


def _outputs(tmp_path, tag):
    """Bytes of a simulate report with traces and of a drift report."""
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"k": 4, "odd_index": 2, "r1": 6.0, "r2": 2.0, "l_grid": [10.0, 1000.0],'
        ' "trials": 30, "seed": 5, "trace_sampling": 0.1}',
        encoding="utf-8",
    )
    out = {}
    traces = tmp_path / f"traces-{tag}"
    traces.mkdir()
    sim = tmp_path / f"sim-{tag}.csv"
    argv = ["simulate", "--spec", str(spec), "--out", str(sim), "--trace-dir", str(traces)]
    assert cli_main(argv) == 0
    out["simulate"] = sim.read_bytes()
    for path in sorted(traces.iterdir()):
        out[path.name] = path.read_bytes()
    drift = tmp_path / f"drift-{tag}.csv"
    argv = ["drift", "--k", "3", "--odd", "1", "--r1", "1", "--r2", "2", "--slots", "3000",
            "--seed", "4", "--num-seeds", "2", "--checkpoints", "10,700", "--out", str(drift)]
    assert cli_main(argv) == 0
    out["drift"] = drift.read_bytes()
    return out


def test_fallback_without_compiler(kernel, tmp_path, monkeypatch, capsys):
    compiled = _outputs(tmp_path, "c")
    capsys.readouterr()

    def no_compiler(out, numpy_dir):
        raise FileNotFoundError(2, "No such file or directory", "cc")

    monkeypatch.setattr(_native, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(_builder, "build", no_compiler)
    monkeypatch.setattr(_native, "_loaded", [])
    fallback = _outputs(tmp_path, "py")
    assert _native.kernel() is None
    assert fallback == compiled
    err = capsys.readouterr().err
    assert err.count("compiled trial kernel unavailable") == 1, err
    assert "using the Python loop" in err


def _first_loads(monkeypatch, tmp_path, build, threads=4):
    """What `kernel()` returns in each of `threads` threads that call it
    at once on a fresh cache in `tmp_path`, with `build` as `_build`."""
    monkeypatch.setattr(_native, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_builder, "build", build)
    monkeypatch.setattr(_native, "_loaded", [])
    start, got = threading.Barrier(threads, timeout=60), []

    def load():
        start.wait()
        got.append(_native.kernel())

    workers = [threading.Thread(target=load) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers) and len(got) == threads
    return got


def test_threads_share_the_first_build(kernel, tmp_path, monkeypatch):
    builds, real = [], _builder.build

    def build(out, numpy_dir):
        builds.append(out)
        real(out, numpy_dir)

    got = _first_loads(monkeypatch, tmp_path, build)
    assert len(builds) == 1 and len(_native._loaded) == 1
    assert got[0] is not None and all(lib is got[0] for lib in got)


def test_threads_share_a_failed_build(tmp_path, monkeypatch, capsys):
    builds = []

    def build(out, numpy_dir):
        builds.append(out)
        time.sleep(0.05)  # the other threads reach `kernel()` meanwhile
        _failed_build(out, numpy_dir)

    assert _first_loads(monkeypatch, tmp_path, build) == [None] * 4
    assert len(builds) == 1 and _native._loaded == [None]
    err = capsys.readouterr().err
    assert err.count("compiled trial kernel unavailable (cc: no input files)") == 1, err


def test_key_names_numpy_by_its_version_text(tmp_path):
    # The cache key stats numpy's version.py rather than importing numpy:
    # another version.py gives another key.
    package = tmp_path / "numpy"
    package.mkdir()
    keys = []
    for version in ('version = "2.4.6"\n', 'version = "2.4.10"\n'):
        (package / "version.py").write_text(version, encoding="utf-8")
        keys.append(_native._key(str(package)))
    assert len(set(keys)) == 2 and _native._key(_native._numpy_dir()) not in keys
    # Without numpy imported, numpy is found where find_spec finds it.
    probe = (
        "import importlib.util, sys\n"
        "from oddball import _native\n"
        "_native._key(_native._numpy_dir())\n"
        "print('numpy' in sys.modules)\n"
        "print(_native._numpy_dir() == importlib.util.find_spec('numpy').submodule_search_locations[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=_package_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\nTrue\n"), proc.stderr


def test_failed_compile_raises_its_first_error_line(tmp_path, monkeypatch):
    # `_build` reports a failed compile as an OSError carrying the
    # compiler's first line of errors, which `kernel()` puts in its note.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this machine")
    broken = tmp_path / "_kernel.c"
    broken.write_text("int oddball_broken(void) { return }\n", encoding="utf-8")
    monkeypatch.setattr(_native, "_SOURCE", str(broken))
    with pytest.raises(OSError) as info:
        _builder.build(str(tmp_path / "out.so"), _native._numpy_dir())
    proc = subprocess.run(["cc", "-fsyntax-only", str(broken)], capture_output=True, text=True)
    assert proc.returncode != 0
    assert str(info.value) == proc.stderr.strip().splitlines()[0]


def _spy_builds(monkeypatch, tmp_path):
    builds = []
    build = _builder.build

    def spy(out, numpy_dir):
        builds.append(out)
        build(out, numpy_dir)

    monkeypatch.setattr(_native, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_builder, "build", spy)
    monkeypatch.setattr(_native, "_loaded", [])
    return builds


def _cached_path(tmp_path):
    key = _native._key(_native._numpy_dir())
    return key, str(tmp_path / os.path.basename(_native._library(key)))


def _reload(monkeypatch):
    monkeypatch.setattr(_native, "_loaded", [])
    return _native.kernel()


def test_cached_build_is_reused(kernel, tmp_path, monkeypatch):
    builds = _spy_builds(monkeypatch, tmp_path)
    assert _native.kernel() is not None
    key, path = _cached_path(tmp_path)
    assert len(builds) == 1 and os.path.exists(path)
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]  # no temporary left
    assert _reload(monkeypatch) is not None
    assert len(builds) == 1


def test_cached_load_reads_no_source(kernel, tmp_path, monkeypatch):
    # A cached load stats `_kernel.c` and numpy's version.py, but neither
    # opens the source nor looks numpy up by `find_spec`, here not even
    # when numpy is not imported yet, nor imports the build module.
    _spy_builds(monkeypatch, tmp_path)
    assert _native.kernel() is not None
    modules, package = sys.modules, sys.modules["oddball"]
    monkeypatch.delitem(modules, "oddball._builder")
    monkeypatch.delattr(package, "_builder")

    def fail(*args, **kwargs):
        raise AssertionError("a cached load read the source or ran find_spec")

    def guard(real):
        return lambda path, *args, **kw: fail() if path == _native._SOURCE else real(path, *args, **kw)

    monkeypatch.setattr(os, "open", guard(os.open))
    monkeypatch.setattr("builtins.open", guard(open))
    monkeypatch.setattr(importlib.util, "find_spec", fail)
    # `_numpy_dir` reads `sys.modules`; the import system keeps the real one.
    monkeypatch.setattr(sys, "modules", {n: m for n, m in sys.modules.items() if n != "numpy"})
    assert _reload(monkeypatch) is not None
    assert "oddball._builder" not in modules and not hasattr(package, "_builder")


def test_build_sweeps_the_cache(kernel, tmp_path, monkeypatch):
    # A build removes what no load reads again: the scope's libraries of
    # other keys, libraries of the unscoped layout, stamp files of older
    # loaders, and the temporary files of builders no longer running
    # (each named with its builder's pid). It keeps other scopes'
    # libraries and the temporary files of running builders.
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    dead, live = int(proc.stdout), os.getppid()
    assert not _builder.running(dead) and _builder.running(live)
    cache = tmp_path / "cache"
    cache.mkdir()
    scope = _native._scope()
    swept = [
        f"_kernel.{dead}.x1y2.so.tmp", f"_kernel.{scope}.0123456789abcdef.so",
        "_kernel.b50b28dd13d86262.so", f"_kernel.{scope}.stamp", "_kernel.cpython-39-0badf00d.stamp",
    ]
    kept = [
        f"_kernel.{live}.x3y4.so.tmp", "_kernel.a1b2c3.so.tmp",
        "_kernel.cpython-39-0badf00d.0123456789abcdef.so", "other.so",
    ]
    for name in swept + kept:
        (cache / name).write_bytes(b"partial")
    builds = _spy_builds(monkeypatch, cache)
    assert _native.kernel() is not None
    assert len(builds) == 1
    assert os.path.basename(builds[0]).startswith(f"_kernel.{os.getpid()}.")
    _, path = _cached_path(cache)
    assert sorted(os.listdir(cache)) == sorted([os.path.basename(path), *kept])


def test_key_sees_a_same_size_edit(kernel, tmp_path, monkeypatch):
    # An edit that keeps the size shows by its mtime; the build that
    # follows removes the library of the earlier source.
    source = tmp_path / "_kernel.c"
    shutil.copy(_native._SOURCE, source)
    monkeypatch.setattr(_native, "_SOURCE", str(source))
    builds = _spy_builds(monkeypatch, tmp_path / "cache")
    assert _native.kernel() is not None and _reload(monkeypatch) is not None
    text = source.read_text(encoding="utf-8")
    edited = text.replace("Compiled slot loop", "Compiled slot LOOP", 1)
    assert edited != text and len(edited) == len(text)
    st = source.stat()
    source.write_text(edited, encoding="utf-8")
    os.utime(source, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert _reload(monkeypatch) is not None
    _, path = _cached_path(tmp_path / "cache")
    assert len(builds) == 2
    assert os.listdir(tmp_path / "cache") == [os.path.basename(path)]


def _numpy_stand_in(monkeypatch, tmp_path):
    """Make the key name a copy of numpy's version.py in `tmp_path`/numpy."""
    version = tmp_path / "numpy" / "version.py"
    version.parent.mkdir()
    shutil.copy(os.path.join(_native._numpy_dir(), "version.py"), version)
    monkeypatch.setattr(_native, "_numpy_dir", lambda: str(version.parent))
    return version


def test_key_sees_a_changed_numpy(kernel, tmp_path, monkeypatch):
    # The builds use the installed numpy, the key its stand-in.
    real, build = _native._numpy_dir(), _builder.build
    builds = _spy_builds(monkeypatch, tmp_path / "cache")
    monkeypatch.setattr(_builder, "build", lambda out, numpy_dir: builds.append(out) or build(out, real))
    version = _numpy_stand_in(monkeypatch, tmp_path)
    assert _native.kernel() is not None and _reload(monkeypatch) is not None
    version.write_text(version.read_text(encoding="utf-8") + "# rebuilt\n", encoding="utf-8")
    assert _reload(monkeypatch) is not None
    assert len(builds) == 2


def test_build_needs_the_keyed_numpy(tmp_path, monkeypatch, capsys):
    # A key that names another numpy than the one a build imports builds
    # nothing: the call takes the Python loop, with one note.
    package = _numpy_stand_in(monkeypatch, tmp_path).parent
    _spy_builds(monkeypatch, tmp_path / "cache")
    assert _native.kernel() is None and os.listdir(tmp_path / "cache") == []
    err = capsys.readouterr().err
    assert err.count(f"not {package}); using the Python loop") == 1, err


def test_key_past_a_bare_numpy_directory(kernel, tmp_path, monkeypatch):
    # A `numpy` directory without `__init__.py` earlier on sys.path is not
    # the numpy find_spec finds, so it leaves the key as it is.
    builds = _spy_builds(monkeypatch, tmp_path / "cache")
    assert _native.kernel() is not None
    (tmp_path / "site" / "numpy").mkdir(parents=True)
    (tmp_path / "site" / "numpy" / "version.py").write_text("# not numpy\n", encoding="utf-8")
    monkeypatch.setattr(sys, "path", [str(tmp_path / "site"), *sys.path])
    monkeypatch.setattr(sys, "modules", {n: m for n, m in sys.modules.items() if n != "numpy"})
    assert _reload(monkeypatch) is not None
    assert len(builds) == 1


@pytest.mark.parametrize("loss", ["missing", "truncated"])
def test_key_of_a_lost_library(loss, kernel, tmp_path, monkeypatch):
    # The seal is checked on every load, so a library that is gone, or was
    # truncated after this process loaded it, is rebuilt, never loaded.
    builds = _spy_builds(monkeypatch, tmp_path)
    assert _native.kernel() is not None
    key, path = _cached_path(tmp_path)
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)  # this process still maps the old file
    if loss == "truncated":
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
    assert _reload(monkeypatch) is not None
    assert len(builds) == 2 and _native._open(path, key) is not None


def test_flag_sets_keep_their_own_libraries(kernel, tmp_path, monkeypatch):
    # Two keys of one interpreter share a cache, here by two flag sets: a
    # build for one does not remove the other's library, so switching back
    # and forth builds each once.
    builds = _spy_builds(monkeypatch, tmp_path)
    flags = _native._FLAGS
    for extra in [(), ("-DODDBALL_SECOND",)] * 3:
        monkeypatch.setattr(_native, "_FLAGS", (*flags, *extra))
        assert _reload(monkeypatch) is not None
    assert len(builds) == 2 and len(list(tmp_path.glob("*.so"))) == 2


@pytest.mark.parametrize("damage", ["truncated", "stale"])
def test_damaged_cache_is_rebuilt(damage, kernel, tmp_path, monkeypatch):
    key, path = _cached_path(tmp_path)
    _builder.build(path, _native._numpy_dir())
    if damage == "truncated":
        _builder.seal(path, key)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
    else:
        # A library built from other source, under this key's name.
        _builder.seal(path, "0" * 16)
    builds = _spy_builds(monkeypatch, tmp_path)
    lib = _native.kernel()
    assert len(builds) == 1 and lib is not None
    lam_odd = lib.oddball_lam_odd(3, 250_000, _native.buffer_address(policy._KERNEL_PARAMS))
    assert lam_odd == solve_lambda_star(OddConfig(3, 1, 0.25, 0.75)).lam_odd
    # The rebuilt file is sealed and loads again.
    assert _native._open(path, key) is not None


def _damaged(data: bytes, key: str, damage: str) -> bytes:
    """The sealed library `data` of `key` after `damage`."""
    size = _native._SEAL_SIZE
    body, mid = data[:-size], (len(data) - size) // 2
    if damage == "bit flipped":
        return body[:mid] + bytes([body[mid] ^ 0x10]) + body[mid + 1 :] + data[-size:]
    if damage.startswith("cut by"):
        return data[: -int(damage.split()[-1])]
    if damage == "other key":
        return body + _native._seal(key + "0", body)
    # Cut by 4096 bytes, its last 12 holding the uncut length and the CRC
    # that matches what is left: only the length tells it from a sealed file.
    cut = data[:-4096][:-size]
    return cut + len(body).to_bytes(8, "little") + _native._seal(key, cut)[8:]


@pytest.mark.parametrize(
    "damage",
    ["bit flipped", "cut by 1", f"cut by {_native._SEAL_SIZE}", "cut by 4096", "other key",
     "matching CRC, other length"],
)
def test_seal_refuses_a_damaged_copy(damage, kernel, tmp_path):
    # `_open` on copies of the cached library, which this test does not
    # build: an intact copy loads, and one with its body, its length or
    # its key changed does not.
    key = _native._key(_native._numpy_dir())
    data = _native._read(_native._library(key))
    intact, damaged = tmp_path / "intact.so", tmp_path / "damaged.so"
    intact.write_bytes(data)
    damaged.write_bytes(_damaged(data, key, damage))
    assert damaged.read_bytes() != data
    assert _native._open(str(intact), key) is not None
    assert _native._open(str(damaged), key) is None


def test_kernel_compiles_without_warnings(tmp_path):
    # The kernel source stays clean under the strict warning set,
    # shadowed names included.
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on this machine")
    cmd = ["cc", "-fsyntax-only", "-Wall", "-Wextra", "-Wshadow", "-Werror", *_builder.includes()]
    proc = subprocess.run([*cmd, _native._SOURCE], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


# Run on the kernel built with the flags of JSON argv[2] added, in the
# cache directory argv[1]: a traced sim-hard level, a traced K=50 level
# and a level at K=300, past the kernel's table of process states (both
# on that table), a traced trial on a
# caller's generator, a trial at numpy's Poisson limit (which the kernel
# declines) and a drift run past a table cap shrunk to 101, which ends
# inside a lane group (argv[3] is its slot of the kernel's parameters);
# then solves: an index matrix of 30 images x 100 neurons with floored
# cells, a scalar and a vector `d_star`, and a batch with a degenerate row.
# The three levels, the drift run and the matrix go over two worker
# threads, so two kernel calls run at once in one address space. Prints
# what each returns.
_KERNEL_RUNS = """
import json, sys, tempfile
from array import array
import numpy as np
from oddball import _native, policy
from oddball.dissimilarity import FiringRateTable, pairwise_dstar
from oddball.experiments import ExperimentSpec, drift_experiment, run_experiment
from oddball.policy import PolicyConfig, run_trial
from oddball.solver import DegenerateRatesError, OddConfig, d_star, d_star_rows
_native._CACHE_DIR, _native._FLAGS = sys.argv[1], (*_native._FLAGS, *json.loads(sys.argv[2]))
assert _native.kernel() is not None
specs = [
    ExperimentSpec(k=5, odd_index=3, r1=10.0, r2=1.0, l_grid=[1e3], trials=40, seed=905,
                   trace_sampling=0.1),
    ExperimentSpec(k=50, odd_index=2, r1=4.0, r2=1.0, l_grid=[1e3], trials=6, seed=906,
                   trace_sampling=0.5),
    ExperimentSpec(k=300, odd_index=7, r1=0.2, r2=0.05, l_grid=[1e3], trials=2, seed=907,
                   max_slots=1500),
]
for spec in specs:
    with tempfile.TemporaryDirectory() as traces:
        print(run_experiment(spec, parallelism=2, trace_dir=traces).to_csv())
rng = np.random.default_rng(0)
print(run_trial(PolicyConfig(k=4, threshold_l=100.0), OddConfig(4, 2, 6.0, 2.0), rng, True))
limit = OddConfig(3, 1, policy._POISSON_LAM_MAX, 1.0)
print(run_trial(PolicyConfig(k=3, threshold_l=10.0), limit, np.random.default_rng(0)))
policy._KERNEL_PARAMS = array("d", policy._KERNEL_PARAMS)
policy._KERNEL_PARAMS[int(sys.argv[3])] = 101
drift = drift_experiment(OddConfig(3, 1, 1.0, 2.0), 3000, [4, 9], [1, 10, 700], parallelism=2)
print(drift.to_csv())
rates = np.random.default_rng(1).uniform(0.0, 8.0, (30, 100))
table = FiringRateTable.from_arrays([f"i{i}" for i in range(30)], np.where(rates < 0.4, 0.0, rates))
print(pairwise_dstar(table, 6, parallelism=2).to_csv())
print(repr(d_star(OddConfig(5, 1, 10.0, 1.0))), repr(d_star(OddConfig(4, 2, (1e-3, 9.0), (2.0, 1.0)))))
try:
    d_star_rows(4, [[1.0, 2.0], [3.0, 3.0]], [[2.0, 1.0], [3.0, 3.0]])
except DegenerateRatesError as exc:
    print(exc)
"""


def test_kernel_is_clean_under_sanitizers(tmp_path, monkeypatch):
    # The kernel built with AddressSanitizer and UndefinedBehaviorSanitizer,
    # any error fatal, runs `_KERNEL_RUNS` to the end and prints what the
    # plain build prints. Leak checks are off: the interpreter keeps its
    # own allocations to the end.
    cc = shutil.which("cc")
    cmd = [cc or "cc", "-print-file-name=libasan.so"]
    libasan = subprocess.run(cmd, capture_output=True, text=True).stdout.strip() if cc else ""
    if not os.path.isabs(libasan):
        pytest.skip("no C compiler with AddressSanitizer on this machine")
    sanitize = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    monkeypatch.setattr(_native, "_FLAGS", (*_native._FLAGS, *sanitize))
    key, path = _cached_path(tmp_path)
    try:
        _builder.build(path, _native._numpy_dir())
    except OSError:
        pytest.skip("the kernel does not build with the sanitizers on this machine")
    _builder.seal(path, key)
    cap_slot = str(_c_enum("P_QUANT").index("P_TABLE_CAP"))

    def run(flags, cache, **extra):
        argv = [sys.executable, "-c", _KERNEL_RUNS, cache, json.dumps(flags), cap_slot]
        proc = subprocess.run(
            argv, env=_package_env(**extra), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr[-4000:]
        return proc.stdout

    sanitized = run(sanitize, str(tmp_path), LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")
    assert sanitized == run([], _native._CACHE_DIR)


def _c_enum(first: str) -> list[str]:
    """Names of the enum in _kernel.c that starts with `first`."""
    with open(_native._SOURCE, encoding="utf-8") as fh:
        source = fh.read()
    body = re.search(r"enum \{\s*(" + first + r"\b[^}]*)\}", source).group(1)
    return [name.strip() for name in body.split(",")]


def _block_params() -> list[str]:
    """The C parameters of `oddball_block`, each as declared ("int64_t n")."""
    with open(_native._SOURCE, encoding="utf-8") as fh:
        params = re.search(r"void oddball_block\(([^)]*)\)", fh.read()).group(1)
    return [" ".join(p.split()) for p in params.split(",")]


def test_layouts_match_the_kernel():
    # Each array layout the kernel shares is declared once per language;
    # the Python side must list the C enums' slots in the same order.
    state = _c_enum("S_M")
    assert [getattr(policy, "_" + name[2:]) for name in state] == list(range(len(state)))
    trace = _c_enum("T_ACTION")
    assert [getattr(policy, "_" + name) for name in trace] == list(range(len(trace)))
    gen = _c_enum("G_STATE_HI")
    names = ["_GEN_SIZE" if name == "G_SIZE" else "_" + name[2:] for name in gen]
    assert [getattr(policy, name) for name in names] == list(range(len(gen)))
    values = {
        "P_QUANT": policy._QUANT,
        "P_CELLS": policy._MEMO_CELLS,
        "P_TABLE_CAP": policy._TABLE_CAP,
        "P_GAP": policy.DEGENERATE_ESTIMATE_GAP,
        "P_NEAR_NU": NEAR_DEGENERATE_NU,
        "P_TOL": DEFAULT_TOL,
        "P_BRACKET": _MIN_BRACKET,
        "P_RADIUS": _SERIES_RADIUS,
        "P_NCOEFFS": len(_LOG1P_TAIL_COEFFS),
    }
    slots = _c_enum("P_QUANT")
    assert slots == [*values, "P_COEFFS"]
    params = policy._KERNEL_PARAMS
    assert [params[slots.index(name)] for name in values] == list(values.values())
    assert tuple(params[slots.index("P_COEFFS"):]) == _LOG1P_TAIL_COEFFS
    with open(_native._SOURCE, encoding="utf-8") as fh:
        assert re.search(r"#define LANES (\d+)", fh.read()).group(1) == str(_native._LANES)
    # The ctypes argument types of the kernel's one entry follow its C
    # parameters: a pointer, an int64_t or a double each.
    lib = _native.kernel()
    if lib is not None:
        kinds = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
        want = [ctypes.c_void_p if "*" in p else kinds[p.split()[-2]] for p in _block_params()]
        assert len(want) == 20 and list(lib.oddball_block.argtypes) == want

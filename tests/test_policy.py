"""Tests for the sequential sampling-and-stopping policy.

The trial runner and the public single step (`modified_glr` +
`next_decision`) share one stop-and-select kernel; the replay test here
checks that the two paths agree draw for draw.
"""

import math

import numpy as np
import pytest

import oddball.policy as policy
import oddball.reference as reference
from oddball.glr import GlrState, SufficientStats, modified_glr
from oddball.numerics import DomainError
from oddball.policy import (
    DEGENERATE_ESTIMATE_GAP,
    VARIANTS,
    PolicyConfig,
    TrialOutcome,
    empirical_action_frequencies,
    leader_lambda_odd,
    next_decision,
    run_trial,
)
from oddball.solver import OddConfig, solve_lambda_star


def make_state(z_min, theta=None, n=10, rng=None):
    """Hand-built GlrState with the given row scores."""
    k = len(z_min)
    if theta is None:
        theta = [[2.0, 1.0]] * k
    z_arr = np.array(z_min, dtype=float)
    leader = int(np.argmax(z_arr)) + 1
    return GlrState(n=n, z=np.zeros((k, k)), z_min=z_arr, theta=np.array(theta), leader=leader)


def _memo_entries(cells) -> dict:
    """{q: weight} for the filled cells of one K's weight memo."""
    return {int(q): float(w) for q, w in zip(cells[::2], cells[1::2]) if q != 0.0}


class TestPolicyConfig:
    def test_defaults(self):
        cfg = PolicyConfig(k=5, threshold_l=100.0)
        assert cfg.variant == "standard"
        assert cfg.warmup == 5
        assert cfg.log_threshold == pytest.approx(math.log(400.0), rel=1e-15)

    def test_variants_tuple(self):
        assert VARIANTS == ("standard", "non_stopping")

    def test_validation(self):
        with pytest.raises(DomainError):
            PolicyConfig(k=2, threshold_l=10.0)
        with pytest.raises(DomainError):
            PolicyConfig(k=3.0, threshold_l=10.0)
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=0.5)
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=math.inf)
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=math.nan)
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=10.0, variant="bogus")
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=10.0, max_slots=0)
        with pytest.raises(DomainError):
            PolicyConfig(k=3, threshold_l=10.0, max_slots=2)  # below warm-up

    def test_fields(self):
        # Warm-up length, stop index and variant gates are not settable.
        assert PolicyConfig._fields == ("k", "threshold_l", "variant", "max_slots")
        with pytest.raises(TypeError):
            PolicyConfig(k=3, threshold_l=10.0, warmup=3)

    def test_warmup_is_k(self):
        for k in (3, 4, 50):
            assert PolicyConfig(k=k, threshold_l=10.0).warmup == k
            assert PolicyConfig(k=k, threshold_l=10.0, max_slots=k).max_slots == k
            with pytest.raises(DomainError):
                PolicyConfig(k=k, threshold_l=10.0, max_slots=k - 1)


class TestLeaderLambdaOdd:
    def test_computed_at_quantized_point(self):
        # nu = 1/3 quantizes to 333333/1e6; the cached weight is the exact
        # solver output at that grid point, not at the raw estimate.
        got = leader_lambda_odd(3, 1.0, 2.0, cache={})
        ref = solve_lambda_star(OddConfig(3, 1, 0.333333, 1.0 - 0.333333)).lam_odd
        assert got == ref

    def test_same_cell_shares_one_value(self):
        cache = {}
        a = leader_lambda_odd(4, 1.0, 2.0, cache)
        # A different estimate pair in the same 1e-6 cell of nu.
        b = leader_lambda_odd(4, 1.0000001, 2.0000001, cache)
        assert a == b
        assert list(cache) == [4]
        assert _memo_entries(cache[4]) == {333333: a}

    def test_cache_is_hit(self):
        cache = {}
        leader_lambda_odd(3, 3.0, 1.0, cache)
        (q,) = _memo_entries(cache[3])
        cache[3][2 * (q % policy._MEMO_CELLS) + 1] = 0.123
        assert leader_lambda_odd(3, 3.0, 1.0, cache) == 0.123
        assert _memo_entries(cache[3]) == {q: 0.123}

    def test_insertion_order_irrelevant(self):
        # The values served do not depend on the order of the lookups;
        # with no two grid points in one cell, neither do the cells.
        pairs = [(1.0, 2.0), (5.0, 1.0), (2.0, 3.0), (1.0, 2.0)]
        fwd, rev = {}, {}
        got_fwd = [leader_lambda_odd(3, t1, t2, fwd) for t1, t2 in pairs]
        got_rev = [leader_lambda_odd(3, t1, t2, rev) for t1, t2 in reversed(pairs)]
        assert got_fwd == got_rev[::-1]
        assert list(fwd) == list(rev) == [3]
        assert len(_memo_entries(fwd[3])) == 3
        assert np.array_equal(fwd[3], rev[3])

    def test_k_is_checked_before_the_memo(self):
        # A k that is not an int >= 3 is refused whatever the memo holds,
        # and the memo is left as it was: 5.0 hashes as 5, True as 1.
        warm = {}
        leader_lambda_odd(5, 1.0, 2.0, warm)
        before = warm[5][:]
        for k in (2, 5.0, True):
            empty = {}
            for cache in (warm, empty):
                with pytest.raises(DomainError, match="k must be"):
                    leader_lambda_odd(k, 1.0, 2.0, cache)
            assert empty == {}
        assert list(warm) == [5]
        assert np.array_equal(warm[5], before)

    def test_extreme_estimates_clamp(self):
        # nu clamps to the grid points 1/1e6 and 999999/1e6; the reference
        # is solved at exactly those points, as in the quantized-point test.
        lo = leader_lambda_odd(3, 1e-9, 1.0, cache={})
        assert lo == solve_lambda_star(OddConfig(3, 1, 0.000001, 1.0 - 0.000001)).lam_odd
        hi = leader_lambda_odd(3, 1.0, 1e-9, cache={})
        assert hi == solve_lambda_star(OddConfig(3, 1, 0.999999, 1.0 - 0.999999)).lam_odd

    def test_no_memo_outlives_its_call(self, monkeypatch):
        # Without a cache, a trial keeps one memo for itself: it solves
        # fewer times than it looks weights up, and a rerun of the same
        # trial finds nothing left over from the first. On a generator of
        # another type the trial runs the Python loop, whose lookups and
        # solves are counted here; on a numpy Generator it runs the
        # compiled kernel, which counts its own, and the two must agree.
        lookups = solves = 0
        lookup, solve = reference.leader_lambda_odd, reference._root_row
        compiled, kernel_counts = policy._compiled, []

        def counted_lookup(*args):
            nonlocal lookups
            lookups += 1
            return lookup(*args)

        def counted_solve(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        def counted_compiled(lib, *args):
            out = compiled(lib, *args)
            if lib is not None:  # a kernel call: its weight lookups and memo misses
                kernel_counts.append(out[2])
            return out

        class OtherGenerator:
            """Not a numpy Generator, with the draws the Python loop makes."""

            def __init__(self, seed):
                rng = np.random.default_rng(seed)
                self.poisson, self.random, self.integers = rng.poisson, rng.random, rng.integers

        monkeypatch.setattr(reference, "leader_lambda_odd", counted_lookup)
        monkeypatch.setattr(reference, "_root_row", counted_solve)
        monkeypatch.setattr(policy, "_compiled", counted_compiled)
        cfg = PolicyConfig(k=3, threshold_l=10.0, variant="non_stopping", max_slots=3000)
        truth = OddConfig(3, 1, 1.0, 2.0)
        counts = []
        for _ in range(2):
            lookups = solves = 0
            run_trial(cfg, truth, OtherGenerator(77), cache=None)
            counts.append((lookups, solves))
        assert counts[0] == counts[1]
        assert 0 < counts[0][1] < counts[0][0]
        if policy._native.kernel() is not None:
            for _ in range(2):
                run_trial(cfg, truth, np.random.default_rng(77), cache=None)
            assert kernel_counts == counts

    def test_unusable_estimates_raise_domain_error(self):
        # A zero, negative, infinite or NaN estimate has no weight; it is
        # never a ZeroDivisionError, a ValueError from rounding a NaN nu or
        # a weight from a made-up nu.
        for t1, t2 in (
            (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (math.nan, 1.0), (1.0, math.nan),
            (1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf),
        ):
            with pytest.raises(DomainError):
                leader_lambda_odd(3, t1, t2, cache={})

    def test_huge_estimates_give_the_weight_of_their_ratio(self):
        # theta_1 + theta_2 overflows here; nu is still theta_1's share, 1/2 and 3/4.
        assert leader_lambda_odd(3, 1e308, 1e308, cache={}) == leader_lambda_odd(3, 1.0, 1.0)
        assert leader_lambda_odd(4, 1.5e308, 0.5e308) == leader_lambda_odd(4, 3.0, 1.0)

    def test_midpoint_cell_uses_extension(self):
        # Estimates whose nu rounds to exactly 1/2 take the equal-rates
        # extension weight.
        got = leader_lambda_odd(5, 1.0000004, 0.9999996, cache={})
        ext = solve_lambda_star(OddConfig(5, 1, 1.0, 1.0)).lam_odd
        assert got == ext


class TestNextDecision:
    def test_first_slot_is_round_robin_without_draws(self):
        cfg = PolicyConfig(k=4, threshold_l=10.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        dec = next_decision(cfg, None, rng)
        assert rng.bit_generator.state == before
        assert not dec.stop
        assert dec.action == 1
        assert dec.distribution == (1.0, 0.0, 0.0, 0.0)

    def test_warmup_cycles_all_processes(self):
        cfg = PolicyConfig(k=4, threshold_l=1e9)
        for n in range(1, 4):
            state = make_state([-1.0, -2.0, -3.0, -4.0], n=n)
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            dec = next_decision(cfg, state, rng)
            assert dec.action == n + 1
            assert rng.bit_generator.state == before

    def test_stop_at_threshold_inclusive(self):
        cfg = PolicyConfig(k=3, threshold_l=50.0)
        t = cfg.log_threshold
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        dec = next_decision(cfg, make_state([t, -1.0, -2.0]), rng)
        assert dec.stop and dec.declared == 1
        assert dec.action is None
        # Stopping consumes no randomness.
        assert rng.bit_generator.state == before
        just_below = make_state([t - 1e-12, -1.0, -2.0])
        assert not next_decision(cfg, just_below, rng).stop

    def test_standard_stops_on_any_leader(self):
        cfg = PolicyConfig(k=3, threshold_l=2.0)
        for leader in (1, 2, 3):
            z_min = [-1.0, -2.0, -3.0]
            z_min[leader - 1] = 50.0
            dec = next_decision(cfg, make_state(z_min), np.random.default_rng(3))
            assert dec.stop and dec.declared == leader

    def test_stop_rule_live_during_warmup(self):
        cfg = PolicyConfig(k=4, threshold_l=2.0)
        for n in range(1, 4):
            state = make_state([-1.0, 50.0, -2.0, -3.0], n=n)
            dec = next_decision(cfg, state, np.random.default_rng(4))
            assert dec.stop and dec.declared == 2

    def test_non_stopping_ignores_threshold(self):
        cfg = PolicyConfig(k=3, threshold_l=2.0, variant="non_stopping")
        dec = next_decision(cfg, make_state([99.0, -1.0, -2.0]), np.random.default_rng(2))
        assert not dec.stop
        assert dec.action is not None

    def test_weighted_step_consumes_one_uniform(self):
        cfg = PolicyConfig(k=4, threshold_l=1e6)
        state = make_state([-1.0, -2.0, -3.0, -4.0], theta=[[3.0, 1.0]] * 4)
        rng_a = np.random.default_rng(7)
        dec = next_decision(cfg, state, rng_a)
        rng_b = np.random.default_rng(7)
        u = float(rng_b.random())
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert not dec.stop
        assert abs(math.fsum(dec.distribution) - 1.0) < 1e-12
        lam_odd = dec.distribution[0]  # leader is process 1
        assert lam_odd == max(dec.distribution)
        # The action is the deterministic image of that single draw.
        if u < lam_odd:
            assert dec.action == 1
        else:
            assert dec.action != 1

    def test_degenerate_estimates_fall_back_to_uniform(self):
        cfg = PolicyConfig(k=3, threshold_l=1e6)
        for theta in ([[0.0, 1.0]] * 3, [[2.0, 0.0]] * 3, [[1.0, 1.0 + 0.5 * DEGENERATE_ESTIMATE_GAP]] * 3):
            state = make_state([-1.0, -2.0, -3.0], theta=theta)
            dec = next_decision(cfg, state, np.random.default_rng(9))
            assert dec.distribution == (1 / 3, 1 / 3, 1 / 3)
            assert 1 <= dec.action <= 3

    def test_state_for_another_k_raises_domain_error(self):
        # A K=5 state under a K=3 config would declare process 5.
        state = make_state([0.0, 0.0, 0.0, 0.0, 50.0])
        for k in (3, 6):
            with pytest.raises(DomainError):
                next_decision(PolicyConfig(k=k, threshold_l=10.0), state, np.random.default_rng(0))


def outcome_as_tuple(out: TrialOutcome):
    return (out.tau, out.delta, out.correct, out.capped, out.visits, out.events, out.total, out.z_min)


class TestRunTrial:
    TRUTH = OddConfig(4, 2, 6.0, 2.0)
    CFG = PolicyConfig(k=4, threshold_l=100.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            run_trial(self.CFG, OddConfig(4, 2, [1.0, 2.0], [2.0, 2.0]), np.random.default_rng(0))
        with pytest.raises(DomainError):
            run_trial(self.CFG, OddConfig(5, 2, 6.0, 2.0), np.random.default_rng(0))
        # No generator is an error, not a trial on some default seed.
        with pytest.raises(DomainError, match="needs a generator"):
            run_trial(self.CFG, self.TRUTH, None)

    def test_poisson_limit_is_numpys(self):
        # Computed with math, bit for bit numpy's POISSON_LAM_MAX; the
        # refusal above it names the limit in the same words.
        int64_max = np.iinfo(np.int64).max
        limit = float(int64_max - np.sqrt(int64_max) * 10)
        assert policy._POISSON_LAM_MAX.hex() == limit.hex()
        over = OddConfig(3, 1, float(np.nextafter(limit, np.inf)), 1.0)
        with pytest.raises(DomainError) as info:
            run_trial(PolicyConfig(k=3, threshold_l=10.0), over, np.random.default_rng(0))
        assert str(info.value) == "rates above 9.223372006e+18 are past numpy's Poisson sampler"

    def test_deterministic_under_seed(self):
        a = run_trial(self.CFG, self.TRUTH, np.random.default_rng(42))
        b = run_trial(self.CFG, self.TRUTH, np.random.default_rng(42))
        assert outcome_as_tuple(a) == outcome_as_tuple(b)

    def test_conservation_and_declaration(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(1), collect_trace=True)
        assert sum(out.visits) == out.tau
        assert sum(out.events) == out.total
        assert 1 <= out.delta <= 4
        assert out.correct == (out.delta == 2)
        assert not out.capped
        # Declared index is the final leader: its score crossed.
        assert out.z_min[out.delta - 1] >= self.CFG.log_threshold

    def test_trace_structure(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(3), collect_trace=True)
        assert out.trace is not None
        assert len(out.trace) == out.tau + 1
        for m, rec in enumerate(out.trace[:-1], start=1):
            assert set(rec) == {"n", "action", "count", "leader", "z_leader"}
            assert rec["n"] == m
            assert 1 <= rec["action"] <= 4
            assert rec["count"] >= 0
            assert math.isfinite(rec["z_leader"])
        tail = out.trace[-1]
        assert tail == {"tau": out.tau, "delta": out.delta, "correct": out.correct, "capped": False}

    def test_trace_actions_match_visits(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(4), collect_trace=True)
        counts = [0] * 4
        for rec in out.trace[:-1]:
            counts[rec["action"] - 1] += 1
        assert tuple(counts) == out.visits
        freqs = empirical_action_frequencies(out)
        assert freqs == tuple(c / out.tau for c in counts)

    def test_warmup_prefix_is_round_robin(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(5), collect_trace=True)
        assert [rec["action"] for rec in out.trace[:4]] == [1, 2, 3, 4]

    def test_stop_rule_fires_at_first_crossing(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(6), collect_trace=True)
        t = self.CFG.log_threshold
        for rec in out.trace[:-2]:
            assert rec["z_leader"] < t
        assert out.trace[-2]["z_leader"] >= t

    def test_capped_trial(self):
        cfg = PolicyConfig(k=4, threshold_l=1e12, max_slots=50)
        out = run_trial(cfg, self.TRUTH, np.random.default_rng(7), collect_trace=True)
        assert out.capped
        assert out.tau == 50
        assert out.trace[-1]["capped"] is True
        assert 1 <= out.delta <= 4

    def test_cap_preserves_trajectory_prefix(self):
        cfg_short = PolicyConfig(k=4, threshold_l=1e12, max_slots=30)
        cfg_long = PolicyConfig(k=4, threshold_l=1e12, max_slots=200)
        a = run_trial(cfg_short, self.TRUTH, np.random.default_rng(8), collect_trace=True)
        b = run_trial(cfg_long, self.TRUTH, np.random.default_rng(8), collect_trace=True)
        assert a.trace[:30] == b.trace[:30]

    def test_non_stopping_runs_to_cap(self):
        cfg = PolicyConfig(k=4, threshold_l=10.0, variant="non_stopping", max_slots=64)
        out = run_trial(cfg, self.TRUTH, np.random.default_rng(9))
        assert out.capped and out.tau == 64

    def test_checkpoints_capture_consistent_state(self):
        out = run_trial(
            self.CFG,
            self.TRUTH,
            np.random.default_rng(10),
            collect_trace=True,
            checkpoints=[2, 5, 10**6],
        )
        taken = {s.n for s in out.snapshots}
        assert taken == {c for c in (2, 5) if c <= out.tau}
        for snap in out.snapshots:
            assert sum(snap.visits) == snap.n
            assert sum(snap.events) == snap.total
            # Rebuilding the scores from the tallies reproduces the stored row.
            stats = SufficientStats.from_counts(list(snap.visits), list(snap.events))
            state = modified_glr(stats, np.random.default_rng(0))
            assert tuple(state.z_min) == snap.z_min
            rec = out.trace[snap.n - 1]
            assert rec["leader"] == snap.leader
            assert rec["z_leader"] == snap.z_min[snap.leader - 1]

    def test_checkpoints_below_one_raise(self):
        # Slot 0 and negative slots are DomainErrors, never dropped (bools,
        # floats and strings are rows of the tables in test_numerics).
        for bad in ([0], [-3, 5]):
            with pytest.raises(DomainError):
                run_trial(self.CFG, self.TRUTH, np.random.default_rng(0), checkpoints=bad)

    def test_no_checkpoints_no_snapshots(self):
        out = run_trial(self.CFG, self.TRUTH, np.random.default_rng(11))
        assert out.snapshots is None
        assert out.trace is None
        with pytest.raises(DomainError):
            empirical_action_frequencies(out)


class TestReplayEquivalence:
    def test_trial_matches_public_single_step_semantics(self):
        # Drive the same seeded generator through modified_glr +
        # next_decision; every action, count, leader, and the stopping
        # slot must match run_trial bit for bit. Cases: the standard
        # variant; the non_stopping variant up to its cap; K=50, where most selections fall back to
        # uniform sampling (the last field is the least uniform share).
        cases = [
            (
                PolicyConfig(k=4, threshold_l=200.0),
                OddConfig(4, 3, 5.0, 1.5),
                (0, 1, 2, 3, 17),
                0.0,
            ),
            (
                PolicyConfig(k=3, threshold_l=10.0, variant="non_stopping", max_slots=2000),
                OddConfig(3, 1, 1.0, 2.0),
                (77,),
                0.0,
            ),
            (PolicyConfig(k=50, threshold_l=100.0), OddConfig(50, 2, 4.0, 1.0), (0,), 0.5),
        ]
        for cfg, truth, seeds, min_uniform in cases:
            k = cfg.k
            rates = [truth.r2[0]] * k
            rates[truth.odd_index - 1] = truth.r1[0]
            uniform = tuple([1.0 / k] * k)
            selections = uniform_selections = 0
            for seed in seeds:
                out = run_trial(cfg, truth, np.random.default_rng(seed), collect_trace=True)

                rng = np.random.default_rng(seed)
                stats = SufficientStats(k=k)
                cache = {}
                dec = next_decision(cfg, None, rng, cache)
                replay = []
                final = None
                for m in range(1, cfg.max_slots + 1):
                    action = dec.action
                    x = int(rng.poisson(rates[action - 1]))
                    stats.update(action, x)
                    state = modified_glr(stats, rng)
                    replay.append(
                        {
                            "n": m,
                            "action": action,
                            "count": x,
                            "leader": state.leader,
                            "z_leader": float(state.z_min[state.leader - 1]),
                        }
                    )
                    dec = next_decision(cfg, state, rng, cache)
                    if dec.stop:
                        final = {"tau": m, "delta": dec.declared}
                        break
                    selections += 1
                    uniform_selections += dec.distribution == uniform
                assert replay == list(out.trace[:-1])
                assert final == (None if out.capped else {"tau": out.tau, "delta": out.delta})
            assert uniform_selections >= min_uniform * selections


class TestCoupling:
    def test_tau_monotone_in_threshold_under_shared_seed(self):
        truth = OddConfig(3, 1, 8.0, 1.0)
        for seed in range(10):
            taus = [
                run_trial(PolicyConfig(k=3, threshold_l=l_val), truth, np.random.default_rng(seed)).tau
                for l_val in (10.0, 100.0, 1000.0)
            ]
            assert taus[0] <= taus[1] <= taus[2]

    def test_non_stopping_replays_standard_until_stop(self):
        truth = OddConfig(3, 2, 6.0, 1.0)
        for seed in range(5):
            std = run_trial(
                PolicyConfig(k=3, threshold_l=100.0), truth, np.random.default_rng(seed),
                collect_trace=True,
            )
            assert not std.capped
            free_cfg = PolicyConfig(
                k=3, threshold_l=100.0, variant="non_stopping", max_slots=std.tau + 20
            )
            free = run_trial(free_cfg, truth, np.random.default_rng(seed), collect_trace=True)
            assert free.trace[:std.tau] == std.trace[:-1]


class TestStatisticalSanity:
    def test_easy_configuration_mostly_correct(self):
        cfg = PolicyConfig(k=3, threshold_l=100.0)
        truth = OddConfig(3, 3, 10.0, 1.0)
        outs = [run_trial(cfg, truth, np.random.default_rng(s)) for s in range(50)]
        assert all(not o.capped for o in outs)
        assert sum(o.correct for o in outs) >= 45

    def test_long_run_frequencies_approach_optimal_weights(self):
        # Non-stopping run: the fraction of slots on the odd process should
        # settle near the optimal odd weight.
        truth = OddConfig(3, 1, 1.0, 2.0)
        cfg = PolicyConfig(k=3, threshold_l=10.0, variant="non_stopping", max_slots=20_000)
        out = run_trial(cfg, truth, np.random.default_rng(77), collect_trace=True)
        freqs = empirical_action_frequencies(out)
        lam = solve_lambda_star(truth)
        assert abs(freqs[0] - lam.lam_odd) < 0.05

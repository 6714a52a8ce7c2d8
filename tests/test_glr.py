"""Tests for the sequential tallies and the modified likelihood-ratio scores.

The averaged score has an integral definition (likelihood averaged against
unit exponential priors on the two rates); `scipy.integrate.quad` evaluates
that definition directly as an oracle, with no shared code path.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from oddball.glr import (
    GlrState,
    SufficientStats,
    averaged_log_likelihood,
    ml_log_likelihood,
    modified_glr,
)
from oddball.numerics import DomainError
from oddball.reference import _pick_leader, _scores, _z_min_from_scores

LN2 = 0.693147180559945309417
THREE_LN3_MINUS_3 = 0.295836866004329074186  # 3 * (log 3 - 1)


def random_stats(rng, k=None, slots=None):
    k = k or int(rng.integers(3, 7))
    slots = slots or int(rng.integers(k, 40))
    stats = SufficientStats(k=k)
    for m in range(slots):
        action = int(rng.integers(1, k + 1)) if m >= k else m + 1
        stats.update(action, int(rng.poisson(2.5)))
    return stats


class TestSufficientStats:
    def test_fresh_state(self):
        stats = SufficientStats(k=4)
        assert stats.n == 0
        assert stats.visits == [0, 0, 0, 0]
        assert stats.events == [0, 0, 0, 0]
        assert stats.total == 0

    def test_update_accumulates(self):
        stats = SufficientStats(k=3)
        stats.update(1, 4).update(2, 0).update(1, 1)
        assert stats.n == 3
        assert stats.visits == [2, 1, 0]
        assert stats.events == [5, 0, 0]
        assert stats.total == 5

    def test_conservation_under_updates(self):
        rng = np.random.default_rng(0)
        stats = SufficientStats(k=5)
        for _ in range(200):
            stats.update(int(rng.integers(1, 6)), int(rng.poisson(3.0)))
            assert sum(stats.visits) == stats.n
            assert sum(stats.events) == stats.total

    def test_from_counts(self):
        stats = SufficientStats.from_counts([2, 1, 0], [4, 1, 0])
        assert stats.k == 3
        assert stats.n == 3
        assert stats.total == 5

    def test_copy_is_independent(self):
        stats = SufficientStats.from_counts([1, 1, 1], [2, 0, 1])
        clone = stats.copy()
        clone.update(1, 7)
        assert stats.n == 3
        assert stats.visits == [1, 1, 1]

    def test_theta_hat(self):
        stats = SufficientStats.from_counts([2, 1, 0], [4, 1, 0])
        assert stats.theta_hat(1) == (2.0, 1.0)
        assert stats.theta_hat(2) == (1.0, 2.0)
        # Never-visited process: odd-rate cell is the 0.0 sentinel.
        assert stats.theta_hat(3) == (0.0, 5.0 / 3.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            SufficientStats(k=2)
        with pytest.raises(DomainError):
            SufficientStats.from_counts([1, 1], [0, 0])  # k < 3
        with pytest.raises(DomainError):
            SufficientStats.from_counts([0, 1, 1], [1, 0, 0])  # events w/o visits
        with pytest.raises(DomainError):
            SufficientStats(k=3, n=2, visits=[1, 0, 0], events=[0, 0, 0], total=0)
        with pytest.raises(DomainError):
            SufficientStats(k=3, n=1, visits=[1, 0, 0], events=[1, 0, 0], total=2)
        stats = SufficientStats(k=3)
        with pytest.raises(DomainError):
            stats.update(0, 1)
        with pytest.raises(DomainError):
            stats.update(4, 1)
        with pytest.raises(DomainError):
            stats.update(1, -1)
        with pytest.raises(DomainError):
            stats.update(1, 1.5)


class TestAveragedLogLikelihood:
    def test_single_empty_slot(self):
        # One visit, zero events: both gamma integrals are elementary and
        # the score is -log 2 for every hypothesis.
        stats = SufficientStats(k=3).update(1, 0)
        for i in (1, 2, 3):
            assert averaged_log_likelihood(stats, i) == pytest.approx(-LN2, rel=1e-15)

    def test_matches_quadrature(self):
        # Direct numerical evaluation of the defining double integral
        # (it factorizes into two independent gamma-type integrals). The
        # integrand is evaluated in log space, shifted by its peak value,
        # so large event totals neither overflow nor starve quad of digits.
        rng = np.random.default_rng(21)
        for _ in range(5):
            stats = random_stats(rng)
            i = int(rng.integers(1, stats.k + 1))
            yi = stats.events[i - 1]
            ni = stats.visits[i - 1]
            yo = stats.total - yi
            no = stats.n - ni

            def factor(y, n_vis):
                mode = y / (n_vis + 1)
                peak = y * (math.log(mode) - 1.0) if y > 0 else 0.0

                def integrand(t):
                    if t <= 0.0:
                        return 0.0 if y > 0 else math.exp(-peak)
                    return math.exp(y * math.log(t) - (n_vis + 1) * t - peak)

                hi = (y + 1) / (n_vis + 1) * 8.0 + 20.0
                val, err = integrate.quad(
                    integrand, 0.0, hi, limit=200, points=[mode] if 0 < mode < hi else None
                )
                assert err < 1e-7 * val
                return math.log(val) + peak

            oracle = factor(yi, ni) + factor(yo, no)
            assert averaged_log_likelihood(stats, i) == pytest.approx(oracle, abs=1e-6)

    def test_strictly_below_maximized(self):
        # A prior average of the likelihood cannot reach its supremum.
        rng = np.random.default_rng(22)
        for _ in range(20):
            stats = random_stats(rng)
            for i in range(1, stats.k + 1):
                assert averaged_log_likelihood(stats, i) < ml_log_likelihood(stats, i)

    def test_requires_observations(self):
        with pytest.raises(DomainError):
            averaged_log_likelihood(SufficientStats(k=3), 1)

    def test_index_validation(self):
        stats = SufficientStats(k=3).update(1, 2)
        with pytest.raises(DomainError):
            averaged_log_likelihood(stats, 0)
        with pytest.raises(DomainError):
            averaged_log_likelihood(stats, 4)


class TestMlLogLikelihood:
    def test_all_zero_counts(self):
        stats = SufficientStats(k=3).update(1, 0).update(2, 0)
        for j in (1, 2, 3):
            assert ml_log_likelihood(stats, j) == 0.0

    def test_closed_form_small_case(self):
        # One visit with three events on the hypothesized odd process and
        # nothing elsewhere: sup log-likelihood = 3 (log 3 - 1).
        stats = SufficientStats(k=3).update(1, 3).update(2, 0)
        assert ml_log_likelihood(stats, 1) == pytest.approx(THREE_LN3_MINUS_3, rel=1e-14)

    def test_plug_in_estimates_attain_it(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            stats = random_stats(rng)
            for j in range(1, stats.k + 1):
                t1, t2 = stats.theta_hat(j)
                yj = stats.events[j - 1]
                nj = stats.visits[j - 1]
                yo = stats.total - yj
                no = stats.n - nj
                val = 0.0
                if yj > 0:
                    val += yj * math.log(t1) - nj * t1
                if yo > 0:
                    val += yo * math.log(t2) - no * t2
                assert ml_log_likelihood(stats, j) == pytest.approx(val, rel=1e-13, abs=1e-13)

    def test_dominates_every_rate_pair(self):
        rng = np.random.default_rng(24)
        stats = random_stats(rng, k=4, slots=30)
        grid = [0.25, 0.7, 1.3, 2.5, 4.0, 8.0]
        for j in range(1, 5):
            yj = stats.events[j - 1]
            nj = stats.visits[j - 1]
            yo = stats.total - yj
            no = stats.n - nj
            best = ml_log_likelihood(stats, j)
            for t1 in grid:
                for t2 in grid:
                    val = yj * math.log(t1) - nj * t1 + yo * math.log(t2) - no * t2
                    assert val <= best + 1e-10


class TestModifiedGlr:
    def test_state_shapes(self):
        rng = np.random.default_rng(30)
        stats = random_stats(rng, k=5, slots=25)
        state = modified_glr(stats, rng)
        assert isinstance(state, GlrState)
        assert state.n == 25
        assert state.z.shape == (5, 5)
        assert state.z_min.shape == (5,)
        assert state.theta.shape == (5, 2)
        assert 1 <= state.leader <= 5

    def test_pairwise_antisymmetry_bound(self):
        # Z_ij + Z_ji = (avg_i - ml_i) + (avg_j - ml_j) < 0.
        rng = np.random.default_rng(31)
        for _ in range(20):
            stats = random_stats(rng)
            state = modified_glr(stats, rng)
            k = stats.k
            for i in range(k):
                for j in range(k):
                    if i != j:
                        assert state.z[i, j] + state.z[j, i] <= 1e-12

    def test_at_most_one_positive_score(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            stats = random_stats(rng)
            state = modified_glr(stats, rng)
            assert int(np.sum(state.z_min > 0.0)) <= 1

    def test_row_minimum_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            stats = random_stats(rng)
            state = modified_glr(stats, rng)
            k = stats.k
            for i in range(k):
                expected = min(state.z[i, j] for j in range(k) if j != i)
                assert state.z_min[i] == expected

    def test_matrix_entries_match_public_scores(self):
        rng = np.random.default_rng(34)
        stats = random_stats(rng, k=4, slots=20)
        state = modified_glr(stats, rng)
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    expected = averaged_log_likelihood(stats, i) - ml_log_likelihood(stats, j)
                    assert state.z[i - 1, j - 1] == expected

    def test_diagonal_is_zero(self):
        rng = np.random.default_rng(35)
        for k in (3, 8, 59):
            stats = random_stats(rng, k=k, slots=3 * k)
            z = modified_glr(stats, rng).z
            assert np.all(np.diag(z) == 0.0)

    def test_leader_is_argmax(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            stats = random_stats(rng)
            state = modified_glr(stats, rng)
            assert state.z_min[state.leader - 1] == state.z_min.max()

    def test_label_permutation_equivariance(self):
        stats = SufficientStats.from_counts([5, 3, 2, 4], [12, 3, 1, 5])
        perm = [2, 0, 3, 1]  # new position p holds old process perm[p]
        permuted = SufficientStats.from_counts(
            [stats.visits[p] for p in perm], [stats.events[p] for p in perm]
        )
        rng = np.random.default_rng(36)
        a = modified_glr(stats, rng)
        b = modified_glr(permuted, rng)
        for new_pos, old_pos in enumerate(perm):
            assert b.z_min[new_pos] == a.z_min[old_pos]

    def test_requires_observations(self):
        with pytest.raises(DomainError):
            modified_glr(SufficientStats(k=3), np.random.default_rng(0))


class TestLeaderTieBreaking:
    def test_no_draw_without_tie(self):
        stats = SufficientStats.from_counts([2, 2, 2], [9, 1, 1])
        rng = np.random.default_rng(40)
        before = rng.bit_generator.state
        state = modified_glr(stats, rng)
        assert rng.bit_generator.state == before
        assert state.leader == 1

    def test_tie_consumes_one_draw_uniformly(self):
        # Fully symmetric tallies tie all K hypotheses exactly.
        stats = SufficientStats.from_counts([2, 2, 2], [3, 3, 3])
        seen = {modified_glr(stats, np.random.default_rng(s)).leader for s in range(40)}
        assert seen == {1, 2, 3}
        rng = np.random.default_rng(41)
        before = rng.bit_generator.state
        modified_glr(stats, rng)
        assert rng.bit_generator.state != before

    def test_two_way_tie_excludes_losers(self):
        # (7, 7, 2, 2) over equal visits: hypotheses 3 and 4 are exactly
        # exchangeable and carry the higher score (each loud hypothesis is
        # ruined by the other loud process), so the draw is binary.
        stats = SufficientStats.from_counts([2, 2, 2, 2], [7, 7, 2, 2])
        scores = modified_glr(stats, np.random.default_rng(0)).z_min
        assert scores[2] == scores[3]
        assert scores[2] > max(scores[0], scores[1])
        seen = {modified_glr(stats, np.random.default_rng(s)).leader for s in range(60)}
        assert seen == {3, 4}


class TestInternalKernelConsistency:
    def test_scores_match_public_functions_bitwise(self):
        # The policy's slot loop uses the list kernel; it must agree with
        # the public per-hypothesis functions to the last bit.
        rng = np.random.default_rng(50)
        for _ in range(10):
            stats = random_stats(rng)
            avg, ml = _scores(stats)
            for i in range(1, stats.k + 1):
                assert avg[i - 1] == averaged_log_likelihood(stats, i)
                assert ml[i - 1] == ml_log_likelihood(stats, i)

    def test_top_two_reduction(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            stats = random_stats(rng)
            avg, ml = _scores(stats)
            z_min = _z_min_from_scores(avg, ml)
            for i in range(stats.k):
                direct = avg[i] - max(ml[j] for j in range(stats.k) if j != i)
                assert z_min[i] == direct

    def test_pick_leader_unique(self):
        rng = np.random.default_rng(52)
        assert _pick_leader([0.5, -1.0, 0.2], rng) == 1
        assert _pick_leader([-3.0, -1.0, -2.0], rng) == 2

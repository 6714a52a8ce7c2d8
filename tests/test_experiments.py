"""Tests for the Monte Carlo harness: spec parsing, aggregation,
parallel determinism, trace emission, and the drift audit."""

import concurrent.futures
import hashlib
import json
import math
import os
import statistics

import mpmath
import numpy as np
import pytest
from scipy.special import betaincinv

import oddball.experiments as experiments
from oddball.cli import main as cli_main
from oddball.experiments import (
    REPORT_HEADER,
    DriftResult,
    ExperimentSpec,
    default_checkpoints,
    drift_experiment,
    error_upper_confidence,
    run_experiment,
)
from oddball.glr import SufficientStats, modified_glr
from oddball.numerics import DomainError, _clopper_pearson_upper, binary_relative_entropy
from oddball.policy import PolicyConfig, run_trial
from oddball.solver import OddConfig, d_star, solve_lambda_star

SPEC_KWARGS = dict(
    k=3, odd_index=1, r1=8.0, r2=1.0, l_grid=(5.0, 20.0), trials=30, seed=0
)


class TestExperimentSpec:
    def test_construction_and_defaults(self):
        spec = ExperimentSpec(**SPEC_KWARGS)
        assert spec.max_slots == 10_000_000
        assert spec.trace_sampling == 0.0
        assert spec.l_grid == (5.0, 20.0)
        truth = spec.truth()
        assert truth.k == 3 and truth.r1 == (8.0,)

    def test_validation(self):
        for patch in (
            dict(trials=0),
            dict(trials=2.5),
            dict(seed=-1),
            dict(l_grid=()),
            dict(l_grid=(0.5, 2.0)),
            dict(l_grid=(5.0, 5.0)),
            dict(l_grid=(20.0, 5.0)),
            dict(l_grid=(5.0, math.inf)),
            dict(trace_sampling=1.5),
            dict(trace_sampling=-0.1),
            dict(max_slots=0),
            # Booleans are not integers here, as in `from_dict`.
            dict(trials=True),
            dict(odd_index=True),
            dict(seed=False),
            dict(max_slots=True),
            # Rates, trace_sampling and grid entries are checked on direct
            # construction too, not only by `from_dict`.
            dict(r1="5"),
            dict(r1=[5.0, 6.0], r2=[1.0, 2.0]),
            dict(trace_sampling=True),
            dict(trace_sampling="0.5"),
            dict(l_grid=(True,)),
        ):
            with pytest.raises(DomainError):
                ExperimentSpec(**{**SPEC_KWARGS, **patch})

    def test_from_dict_happy_path(self):
        data = {
            "k": 5,
            "odd_index": 3,
            "r1": [10.0],
            "r2": [1.0],
            "l_grid": [10, 100.0],
            "trials": 4,
            "seed": 7,
        }
        spec = ExperimentSpec.from_dict(data)
        assert spec.r1 == 10.0 and spec.r2 == 1.0
        assert spec.l_grid == (10.0, 100.0)

    def test_from_dict_rejections(self):
        base = {
            "k": 3,
            "odd_index": 1,
            "r1": 8.0,
            "r2": 1.0,
            "l_grid": [5.0],
            "trials": 2,
            "seed": 0,
        }
        with pytest.raises(DomainError, match="unknown"):
            ExperimentSpec.from_dict({**base, "bogus": 1})
        with pytest.raises(DomainError, match="missing"):
            ExperimentSpec.from_dict({k: v for k, v in base.items() if k != "trials"})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "r1": [1.0, 2.0]})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "r1": "fast"})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "k": True})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "trials": 2.0})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "l_grid": 5.0})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict({**base, "l_grid": [5.0, True]})
        with pytest.raises(DomainError):
            ExperimentSpec.from_dict([1, 2, 3])

    def test_from_json(self):
        text = json.dumps(dict(SPEC_KWARGS, l_grid=list(SPEC_KWARGS["l_grid"])))
        assert ExperimentSpec.from_json(text) == ExperimentSpec(**SPEC_KWARGS)

    def test_from_json_parse_error_is_domain_error(self):
        with pytest.raises(DomainError, match="spec JSON parse error at line 1 column 2"):
            ExperimentSpec.from_json("{bad")

    def test_from_json_error_position(self):
        with pytest.raises(DomainError, match="line 1 column 1"):
            ExperimentSpec.from_json("")
        with pytest.raises(DomainError, match="line 2 column 1"):
            ExperimentSpec.from_json('{"k": 3,\n')

    def test_from_json_non_object(self):
        for text in ("[1, 2]", "null", "3"):
            with pytest.raises(DomainError, match="must be a JSON object"):
                ExperimentSpec.from_json(text)


def _binomial_root(errors: int, trials: int, start: float):
    """The p with P[Binomial(trials, p) <= errors] = 0.05, to 50 digits:
    Newton's method from `start` on the tail summed term by term, each
    term exact to the working precision."""
    e, n = errors, trials
    with mpmath.workdps(50):
        p = mpmath.mpf(start)
        for _ in range(30):
            q = 1 - p
            t = first = mpmath.exp(
                mpmath.loggamma(n + 1) - mpmath.loggamma(e + 1) - mpmath.loggamma(n - e + 1)
                + e * mpmath.log(p) + (n - e) * mpmath.log(q)
            )
            total, k = t, e
            while k > 0:
                ratio = k * q / ((n - k + 1) * p)
                t *= ratio
                k -= 1
                total += t
                if ratio < 1 and t < total * mpmath.mpf(10) ** -55:
                    break
            step = (total - mpmath.mpf("0.05")) / (-(n - e) / q * first)
            p -= step
            if abs(step) < p * mpmath.mpf(10) ** -40:
                return p
    raise AssertionError(f"no root for {errors} in {trials}")


# Every error count below trials at small trials; at large ones both ends,
# the middle and points between, where either tail of the sum is the long one.
BOUND_CASES = [(e, n) for n in (1, 2, 7, 50) for e in range(n)] + [
    (e, n)
    for n in (333, 959, 10**4, 10**6)
    for e in sorted({0, 1, 2, 3, n // 100, n // 2 - 1, n // 2, n // 2 + 1, n - n // 10,
                     n - 3, n - 2, n - 1})
]


class TestErrorUpperConfidence:
    def test_all_errors_gives_one(self):
        assert error_upper_confidence(10, 10) == 1.0

    def test_zero_errors_closed_form(self):
        # For x = 0 the 95% Clopper-Pearson bound is 1 - 0.05^(1/n).
        got = error_upper_confidence(0, 100)
        assert abs(got - (1.0 - 0.05 ** (1 / 100))) < 1e-12

    def test_monotone_in_errors(self):
        for trials in (1, 2, 7, 50, 333):
            vals = [error_upper_confidence(x, trials) for x in range(trials + 1)]
            for a, b in zip(vals, vals[1:]):
                assert b > a

    def test_matches_50_digit_root(self):
        # Below trials the bound is the root of P[Binomial(trials, p) <= errors] = 0.05.
        for errors, trials in BOUND_CASES:
            got = error_upper_confidence(errors, trials)
            root = _binomial_root(errors, trials, got)
            assert abs(got - root) <= 1e-13 * root, (errors, trials)

    def test_matches_scipy(self):
        # The Beta(errors + 1, trials - errors) quantile at 0.95. scipy's own
        # betaincinv is off the 50-digit root by 8.7e-13 at 2 errors in 10^5
        # and 6.3e-12 at 2 in 10^6, so the comparison stops at 10^4 trials.
        for errors, trials in BOUND_CASES:
            if trials <= 10**4:
                got = error_upper_confidence(errors, trials)
                want = float(betaincinv(errors + 1, trials - errors, 0.95))
                assert got == pytest.approx(want, rel=1e-13, abs=0), (errors, trials)

    def test_bounds_are_pinned_bit_for_bit(self):
        # Every bound's bits, by the digest of their float.hex: a change to
        # the divergence the binomial probability calls must not move them.
        bounds = " ".join(_clopper_pearson_upper(e, n).hex() for e, n in BOUND_CASES)
        assert hashlib.sha256(bounds.encode()).hexdigest() == (
            "9050a11e2d04a700119bb22c6cd12c2e8e025c67a34a9a28d3c1f9c4d1397b1a"
        )

    def test_dominates_point_estimate(self):
        for x, n in [(0, 10), (3, 40), (17, 20)]:
            assert error_upper_confidence(x, n) > x / n

    def test_validation(self):
        with pytest.raises(DomainError):
            error_upper_confidence(1.0, 10)
        with pytest.raises(DomainError):
            error_upper_confidence(11, 10)
        with pytest.raises(DomainError):
            error_upper_confidence(-1, 10)


class TestRunExperiment:
    def test_report_contents(self):
        spec = ExperimentSpec(**SPEC_KWARGS)
        report = run_experiment(spec)
        assert len(report.rows) == 2
        truth = spec.truth()
        ds = d_star(truth)
        for row, l_value in zip(report.rows, spec.l_grid):
            assert row.l_value == l_value
            assert row.threshold == pytest.approx(math.log(2 * l_value), rel=1e-15)
            assert row.trials == 30
            assert row.error_rate == row.errors / 30
            assert row.error_ci_hi > row.error_rate
            assert row.capped == 0
            assert row.mean_tau > 0
            assert row.tau_over_ln_l == pytest.approx(row.mean_tau / math.log(l_value), rel=1e-15)
            assert row.inv_dstar == pytest.approx(1.0 / ds, rel=1e-15)
            assert row.lower_bound == pytest.approx(
                binary_relative_entropy(1.0 / l_value) / ds, rel=1e-12
            )
            # Information bound must sit below the measured mean (3 SE slack).
            assert row.lower_bound <= row.mean_tau + 3.0 * row.se_tau

    def test_error_ci_hi_is_95_percent_bound(self):
        report = run_experiment(ExperimentSpec(**SPEC_KWARGS))
        for row in report.rows:
            assert row.error_ci_hi == error_upper_confidence(row.errors, row.trials)
            if row.errors < row.trials:
                quantile = betaincinv(row.errors + 1, row.trials - row.errors, 0.95)
                assert row.error_ci_hi == pytest.approx(float(quantile), rel=1e-13, abs=0)

    def test_csv_shape(self):
        report = run_experiment(ExperimentSpec(**SPEC_KWARGS))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == REPORT_HEADER
        assert REPORT_HEADER == (
            "L,threshold,trials,errors,error_rate,error_ci_hi,"
            "mean_tau,se_tau,tau_over_lnL,lower_bound,inv_dstar,capped"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            assert len(line.split(",")) == 12

    def test_deterministic_and_parallelism_invariant(self):
        spec = ExperimentSpec(**SPEC_KWARGS)
        serial = run_experiment(spec, parallelism=1).to_csv()
        again = run_experiment(spec, parallelism=1).to_csv()
        pooled = run_experiment(spec, parallelism=3).to_csv()
        assert serial == again
        assert serial == pooled
        # Two (level, trial) items over three workers: one block is empty.
        small = ExperimentSpec(**{**SPEC_KWARGS, "l_grid": (5.0,), "trials": 2})
        assert run_experiment(small, parallelism=3).to_csv() == run_experiment(small).to_csv()

    def test_seed_changes_output(self):
        a = run_experiment(ExperimentSpec(**SPEC_KWARGS)).to_csv()
        b = run_experiment(ExperimentSpec(**{**SPEC_KWARGS, "seed": 1})).to_csv()
        assert a != b

    def test_trace_emission(self, tmp_path):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "trials": 10, "trace_sampling": 0.25})
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        serial.mkdir()
        pooled.mkdir()
        run_experiment(spec, trace_dir=str(serial))
        run_experiment(spec, parallelism=2, trace_dir=str(pooled))
        # ceil(0.25 * 10) = 3 traces per level.
        names = sorted(os.listdir(serial))
        assert sorted(os.listdir(pooled)) == names
        assert names == [
            "trace_L20_i0.jsonl",
            "trace_L20_i1.jsonl",
            "trace_L20_i2.jsonl",
            "trace_L5_i0.jsonl",
            "trace_L5_i1.jsonl",
            "trace_L5_i2.jsonl",
        ]
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()
            lines = (serial / name).read_text().strip().split("\n")
            records = [json.loads(line) for line in lines]
            assert len(records) == records[-1]["tau"] + 1
            for m, rec in enumerate(records[:-1], start=1):
                assert rec["n"] == m
            assert set(records[-1]) == {"tau", "delta", "correct", "capped"}

    @pytest.mark.parametrize(
        "config, truth, correct, capped",
        [
            (PolicyConfig(k=3, threshold_l=20.0), OddConfig(3, 1, 8.0, 1.0), True, False),
            (
                PolicyConfig(k=3, threshold_l=1e8, max_slots=40), OddConfig(3, 1, 1.0, 1.02),
                False, True,
            ),
            # Counts near 1e12 and scores past 2^40.
            (
                PolicyConfig(k=3, threshold_l=1e3, max_slots=60), OddConfig(3, 2, 1e12, 0.9e12),
                True, True,
            ),
        ],
        ids=["stopped", "capped", "large"],
    )
    def test_trace_lines_match_json_dumps(self, config, truth, correct, capped):
        # The trace file text is json.dumps' of each record, on records of
        # a traced trial and on ones whose scores repr spells differently.
        trace = run_trial(config, truth, np.random.default_rng(0), collect_trace=True).trace
        odd = [{**trace[0], "z_leader": z} for z in (math.inf, -math.inf, math.nan, -0.0, 5e-324)]
        for records in (trace, (*odd, trace[-1])):
            text = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
            assert experiments._trace_lines(records) == text
        assert (trace[-1]["correct"], trace[-1]["capped"]) == (correct, capped)

    def test_trace_names_keep_report_digits(self, tmp_path):
        # Levels that agree to 6 significant digits get distinct files,
        # named with the report's L text.
        spec = ExperimentSpec(
            **{**SPEC_KWARGS, "l_grid": (100.0, 100.0001), "trials": 4, "trace_sampling": 0.5}
        )
        report = run_experiment(spec, trace_dir=str(tmp_path))
        levels = [line.split(",")[0] for line in report.to_csv().split("\n")[1:-1]]
        assert levels == ["100", "100.0001"]
        assert sorted(os.listdir(tmp_path)) == sorted(
            f"trace_L{level}_i{ti}.jsonl" for level in levels for ti in range(2)
        )

    def test_trace_name_collision_raises_before_trials(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_trial", lambda *a, **kw: calls.append(a))
        spec = ExperimentSpec(
            **{**SPEC_KWARGS, "l_grid": (100.0, 100.00000000001), "trace_sampling": 0.1}
        )
        with pytest.raises(DomainError, match="12 significant digits"):
            run_experiment(spec, trace_dir=str(tmp_path))
        assert calls == [] and os.listdir(tmp_path) == []
        # Untraced, the same grid runs: no file names are needed.
        untraced = ExperimentSpec(**{**SPEC_KWARGS, "l_grid": (100.0, 100.00000000001)})
        monkeypatch.undo()
        assert len(run_experiment(untraced).rows) == 2

    def test_trace_sampling_requires_directory(self):
        spec = ExperimentSpec(**{**SPEC_KWARGS, "trace_sampling": 0.5})
        with pytest.raises(DomainError):
            run_experiment(spec)

    def test_capped_trials_reported(self):
        spec = ExperimentSpec(
            k=3, odd_index=1, r1=1.0, r2=1.02, l_grid=(1e8,), trials=5, seed=3, max_slots=40
        )
        row = run_experiment(spec).rows[0]
        assert row.capped == 5
        assert math.isnan(row.mean_tau)
        assert math.isnan(row.se_tau)
        assert 0 <= row.errors <= 5  # capped declarations still count
        line = row.to_csv_line()
        assert ",nan," in line

    def test_parallelism_validation(self):
        spec = ExperimentSpec(**SPEC_KWARGS)
        with pytest.raises(DomainError):
            run_experiment(spec, parallelism=0)


class TestDefaultCheckpoints:
    def test_round_numbers(self):
        assert default_checkpoints(2000) == (200, 500, 1000, 2000)
        assert default_checkpoints(200_000) == (20_000, 50_000, 100_000, 200_000)

    def test_tiny_runs_deduplicate(self):
        assert default_checkpoints(7) == (1, 3, 7)
        assert default_checkpoints(1) == (1,)


class TestDriftExperiment:
    TRUTH = OddConfig(3, 1, 1.0, 2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            drift_experiment(OddConfig(3, 1, [1.0, 2.0], [2.0, 1.0]), 100, [0])
        with pytest.raises(DomainError):
            drift_experiment(OddConfig(3, 1, 2.0, 2.0), 100, [0])
        with pytest.raises(DomainError):
            drift_experiment(self.TRUTH, 0, [0])
        with pytest.raises(DomainError):
            drift_experiment(self.TRUTH, 100, [])
        with pytest.raises(DomainError):
            drift_experiment(self.TRUTH, 100, [0, 0])
        with pytest.raises(DomainError):
            drift_experiment(self.TRUTH, 100, [0], checkpoints=[0])
        with pytest.raises(DomainError):
            drift_experiment(self.TRUTH, 100, [0], checkpoints=[200])

    def test_too_few_slots_names_n_slots(self, capsys):
        # Fewer slots than the K warm-up slots: the error names the
        # caller's parameter, not the policy field built from it.
        with pytest.raises(DomainError, match=r"^n_slots must be an integer >= 3, got 2$"):
            drift_experiment(self.TRUTH, 2, [1])
        argv = ["drift", "--k", "3", "--odd", "1", "--r1", "1", "--r2", "2", "--slots", "2",
                "--seed", "1"]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "n_slots must be an integer >= 3, got 2" in err and "max_slots" not in err

    def test_row_structure(self):
        result = drift_experiment(self.TRUTH, 400, [0, 1, 2], checkpoints=[100])
        # The final slot is always appended to the checkpoint list.
        assert [(r.seed, r.n) for r in result.rows] == [
            (0, 100), (0, 400), (1, 100), (1, 400), (2, 100), (2, 400)
        ]
        sol = solve_lambda_star(self.TRUTH)
        assert result.d_star == sol.d_star
        assert result.lambda_star == sol.lam
        assert result.mixed_rate == sol.r_tilde[0]
        for row in result.rows:
            assert sum(row.visits) == row.n
            assert sum(row.events) == row.total
            assert abs(math.fsum(row.frequencies) - 1.0) < 1e-12
            assert all(v >= 0 for v in row.empirical_rates)

    def test_rows_reproducible_from_tallies(self):
        result = drift_experiment(self.TRUTH, 300, [5], checkpoints=[150])
        for row in result.rows:
            stats = SufficientStats.from_counts(list(row.visits), list(row.events))
            state = modified_glr(stats, np.random.default_rng(0))
            assert row.z_leader_over_n == state.z_min[row.leader - 1] / row.n
            assert row.z_true_over_n == state.z_min[0] / row.n
            holdout = tuple(stats.theta_hat(j)[1] for j in range(1, 4))
            assert row.holdout_rates == holdout

    def test_deterministic_and_parallelism_invariant(self):
        a = drift_experiment(self.TRUTH, 200, [0, 1], checkpoints=[50]).to_csv()
        b = drift_experiment(self.TRUTH, 200, [0, 1], checkpoints=[50]).to_csv()
        c = drift_experiment(self.TRUTH, 200, [0, 1], checkpoints=[50], parallelism=2).to_csv()
        assert a == b == c
        # One seed over two workers: one block is empty.
        d = drift_experiment(self.TRUTH, 200, [1], checkpoints=[50]).to_csv()
        e = drift_experiment(self.TRUTH, 200, [1], checkpoints=[50], parallelism=2).to_csv()
        assert d == e

    def test_csv_header(self):
        result = drift_experiment(self.TRUTH, 100, [0])
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == (
            "seed,n,leader,z_true_over_n,z_leader_over_n,"
            "freq_1,freq_2,freq_3,rate_1,rate_2,rate_3,"
            "holdout_1,holdout_2,holdout_3,total"
        )
        assert len(lines) == 1 + len(result.rows)

    def test_summary_statistics(self):
        result = drift_experiment(self.TRUTH, 2000, [0, 1, 2])
        summary = result.summary()
        assert summary["seeds"] == 3
        assert summary["n_slots"] == 2000
        assert summary["d_star"] == result.d_star
        assert 0.0 <= summary["leader_correct_fraction"] <= 1.0
        assert summary["max_z_rel_err"] >= summary["median_z_rel_err"] >= 0.0
        assert summary["max_freq_err_inf"] >= summary["median_freq_err_inf"] >= 0.0
        # Median is the middle order statistic for an odd seed count.
        finals = result.final_rows()
        errs = sorted(
            max(abs(f - l) for f, l in zip(r.frequencies, result.lambda_star)) for r in finals
        )
        assert summary["median_freq_err_inf"] == errs[1]

    def test_summary_medians_are_statistics_median(self):
        # Two seeds: the even count takes the mean of the middle pair.
        result = drift_experiment(self.TRUTH, 500, [0, 1])
        summary = result.summary()
        finals = result.final_rows()
        z_errs = [abs(r.z_true_over_n - result.d_star) / result.d_star for r in finals]
        assert summary["median_z_rel_err"] == statistics.median(z_errs)
        rng = np.random.default_rng(7)
        for n in range(1, 8):
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)).tolist()
            assert experiments._median(values) == statistics.median(values)

    def test_long_run_concentrates(self):
        result = drift_experiment(self.TRUTH, 2000, [0, 1, 2])
        summary = result.summary()
        assert summary["leader_correct_fraction"] == 1.0
        assert summary["median_freq_err_inf"] < 0.08
        assert summary["median_holdout_rel_err"] < 0.15
        assert summary["median_z_rel_err"] < 0.5


class TestWorkerCount:
    def test_pool_never_exceeds_items(self, monkeypatch):
        # A spy that records each pool's size and delegates to the real pool.
        started = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def spy(max_workers=None, *args, **kwargs):
            started.append(max_workers)
            return real_pool(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        drift_experiment(OddConfig(3, 1, 1.0, 2.0), 200, [1], checkpoints=[50], parallelism=8)
        assert started == []
        small = ExperimentSpec(**{**SPEC_KWARGS, "l_grid": (5.0,), "trials": 2})
        run_experiment(small, parallelism=3)
        assert started == [2]

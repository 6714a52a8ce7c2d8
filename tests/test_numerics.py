"""Tests for the log-space scalar primitives.

Reference constants were computed with 45-digit mpmath arithmetic at the
exact binary-double inputs (so tolerances reflect only evaluation error,
never decimal-representation error of the inputs).
"""

import ast
import math
import multiprocessing
import os
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

import oddball
from oddball.dissimilarity import (
    FiringRateTable,
    analyze_search_delays,
    pairwise_dstar,
    synthesize_search_dataset,
)
from oddball.experiments import (
    ExperimentSpec,
    drift_experiment,
    error_upper_confidence,
    run_experiment,
)
from oddball.glr import SufficientStats, averaged_log_likelihood, ml_log_likelihood
from oddball.numerics import (
    _SERIES_RADIUS,
    DomainError,
    _fan_out,
    binary_relative_entropy,
    poisson_kl,
    poisson_kl_series,
)
from oddball.policy import PolicyConfig, run_trial
from oddball.solver import (
    OddConfig,
    brute_force_d_star,
    curve_rows,
    lower_bound_expected_tau,
    mixed_rate,
    objective,
)

# 45-digit reference values (mpmath, float-exact inputs).
KL_1_2 = 0.306852819440054690583
KL_2_1 = 0.386294361119890618834
KL_10_HALF = 20.4573227355399099344
KL_NEARBY = 1.99999994012035304419e-15  # D(2.5 || 2.5000001)
DB_01 = 1.7577796618689754325
DB_025 = 0.549306144334054845698
SERIES_2_03_07_500 = 0.0560487772109548744473
SERIES_15_1_025_500 = 0.291854634062922467408
SERIES_3_09_01_500 = 0.122175876247592841202
SERIES_CASE3_1E4 = 0.0999000099990000777855  # v=1, a=1, b=0.9 partial sum


def rel_err(got, ref):
    return abs(got - ref) / abs(ref)


class TestPoissonKl:
    def test_identity_is_exact_zero(self):
        for x in (1.0, 0.3, 17.5, 1e-6, 2500.0):
            assert poisson_kl(x, x) == 0.0

    def test_zero_count_case(self):
        # D(0 || y) = y exactly.
        assert poisson_kl(0.0, 0.1) == 0.1
        assert poisson_kl(0.0, 7.25) == 7.25

    def test_reference_values(self):
        assert rel_err(poisson_kl(1.0, 2.0), KL_1_2) < 2e-15
        assert rel_err(poisson_kl(2.0, 1.0), KL_2_1) < 2e-15
        assert rel_err(poisson_kl(10.0, 0.5), KL_10_HALF) < 2e-15

    def test_nearby_rates_keep_relative_accuracy(self):
        # The naive form loses every digit here (the result is ~8 orders
        # below one ulp of the intermediate terms).
        assert rel_err(poisson_kl(2.5, 2.5000001), KL_NEARBY) < 5e-13

    def test_relative_error_where_y_is_at_least_half_x(self):
        # The accuracy the docstrings claim: within 5e-15 relative of a
        # 50-digit value wherever y >= x / 2, at the series radius and at
        # y = x / 2 too. Below x / 2 no such bound holds.
        rng = np.random.default_rng(7)
        xs = 10.0 ** rng.uniform(-6, 6, 4000)
        ratios = np.concatenate([
            1 + rng.choice([-1, 1], 1000) * 10.0 ** rng.uniform(-12, -0.3, 1000),
            1 + rng.choice([-1, 1], 1000) * _SERIES_RADIUS * rng.uniform(0.97, 1.03, 1000),
            rng.uniform(0.5, 3.0, 1000),
            10.0 ** rng.uniform(0.5, 12, 1000),
        ])
        points = [(x, x * r) for x, r in zip(xs.tolist(), ratios.tolist())]
        points += [(1.0, 0.5), (3.0, 1.5), (1e300, 1e-300), (1e-300, 1e300)]
        worst = 0.0
        with mpmath.workdps(50):
            for x, y in points:
                if x == y or y < 0.5 * x:
                    continue
                ref = mpmath.mpf(x) * mpmath.log(mpmath.mpf(x) / y) - x + y
                worst = max(worst, float(abs(poisson_kl(x, y) - ref) / ref))
        assert worst < 5e-15, worst

    def test_quadratic_leading_behavior(self):
        # D(x || x(1+h)) = x h^2 / 2 (1 + O(h)).
        for x in (0.7, 3.0, 120.0):
            for h in (1e-5, -1e-5, 1e-9):
                got = poisson_kl(x, x * (1.0 + h))
                assert rel_err(got, x * h * h / 2) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_kl(-1e-9, 1.0)
        with pytest.raises(DomainError):
            poisson_kl(1.0, 0.0)
        with pytest.raises(DomainError):
            poisson_kl(1.0, -2.0)
        with pytest.raises(DomainError):
            poisson_kl(math.nan, 1.0)
        with pytest.raises(DomainError):
            poisson_kl(1.0, math.nan)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_nonnegative_and_zero_iff_equal(self, x, y):
        d = poisson_kl(x, y)
        assert d >= 0.0
        if x != y:
            assert d > 0.0

    @given(
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_linear_scaling(self, x, y, c):
        # D(cx || cy) = c D(x || y); both sides evaluated in floats.
        # Rounding of the products perturbs (y - x)/x by ~eps/|u| relative
        # and D ~ u^2/2 doubles that, so the bound must carry that factor.
        d = poisson_kl(x, y)
        if d == 0.0:
            return
        u_mag = abs(x - y) / min(x, y)
        assert rel_err(poisson_kl(c * x, c * y), c * d) < 1e-12 + 8e-16 / u_mag


class TestPoissonKlSeries:
    def test_all_equal_arguments_give_zero(self):
        assert poisson_kl_series(1.0, 1.0, 1.0, 100) == 0.0
        assert poisson_kl_series(2.0, 0.4, 0.4, 50) == 0.0

    def test_partial_sums_match_reference(self):
        assert rel_err(poisson_kl_series(2.0, 0.3, 0.7, 500), SERIES_2_03_07_500) < 5e-13
        assert rel_err(poisson_kl_series(1.5, 1.0, 0.25, 500), SERIES_15_1_025_500) < 5e-13
        assert rel_err(poisson_kl_series(3.0, 0.9, 0.1, 500), SERIES_3_09_01_500) < 5e-13

    def test_closed_form_agreement(self):
        # Limit identity: series(v, a, b) -> D(v - a || v - b).
        assert abs(poisson_kl_series(2.0, 0.7, 0.3, 200) - poisson_kl(1.3, 1.7)) < 1e-10
        assert abs(poisson_kl_series(2.0, 0.3, 0.7, 200) - poisson_kl(1.7, 1.3)) < 1e-10

    def test_convergence_at_500_terms(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            v = 1.5 + 3.5 * rng.random()
            a = rng.random()
            b = rng.random()
            target = poisson_kl(v - a, v - b)
            assert abs(poisson_kl_series(v, a, b, 500) - target) <= 1e-9

    def test_error_decreases_monotonically(self):
        # Terms are nonnegative, so partial sums climb toward the limit.
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = 1.2 + 3.0 * rng.random()
            a = rng.random()
            b = rng.random()
            target = poisson_kl(v - a, v - b)
            errs = [abs(poisson_kl_series(v, a, b, n) - target) for n in (5, 10, 20, 40, 80, 160)]
            for e1, e2 in zip(errs, errs[1:]):
                assert e2 <= e1 + 1e-15

    def test_boundary_case_limit_value(self):
        # v=1, a=1: the limit is D(0 || 1-b) = 1-b; the partial sum at N
        # terms misses it by exactly (1 - b^(N+1)) / (N+1).
        got = poisson_kl_series(1.0, 1.0, 0.9, 10**4)
        assert rel_err(got, SERIES_CASE3_1E4) < 1e-11
        assert abs(got - 0.1) < 1.01e-4
        # The miss shrinks like 1/N.
        closer = poisson_kl_series(1.0, 1.0, 0.9, 10**6)
        assert abs(closer - 0.1) < 1.01e-6

    def test_divergent_corner_is_rejected(self):
        # v=1, b=1, a<1 diverges (the target D(1-a || 0) is infinite).
        with pytest.raises(DomainError):
            poisson_kl_series(1.0, 0.5, 1.0, 100)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            poisson_kl_series(0.99, 0.5, 0.5, 10)
        with pytest.raises(DomainError):
            poisson_kl_series(2.0, -0.1, 0.5, 10)
        with pytest.raises(DomainError):
            poisson_kl_series(2.0, 0.5, 1.1, 10)
        with pytest.raises(DomainError):
            poisson_kl_series(2.0, 0.5, 0.5, 0)
        with pytest.raises(DomainError):
            poisson_kl_series(2.0, 0.5, 0.5, 2.5)


class TestBinaryRelativeEntropy:
    def test_symmetry_point_is_exact_zero(self):
        assert binary_relative_entropy(0.5) == 0.0

    def test_reference_values(self):
        assert rel_err(binary_relative_entropy(0.1), DB_01) < 2e-15
        assert rel_err(binary_relative_entropy(0.25), DB_025) < 2e-15

    @given(st.integers(min_value=1, max_value=2**20 - 1))
    def test_symmetry_is_bitwise(self, k):
        # Dyadic arguments keep 1 - x exact, so the symmetry must hold to
        # the last bit, not just to rounding error.
        x = k / 2.0**20
        assert binary_relative_entropy(x) == binary_relative_entropy(1.0 - x)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_nonnegative(self, x):
        assert binary_relative_entropy(x) >= 0.0

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                binary_relative_entropy(bad)


def _tag_block(block):
    """(item, block size, process id) for each item of a block."""
    return [(item, len(block), os.getpid()) for item in block]


def _row_sums(block):
    return block.sum(axis=1)


class TestFanOut:
    def test_uneven_blocks_come_back_in_item_order(self):
        # 7 items on 3 workers: blocks 0::3, 1::3 and 2::3 hold 3, 2 and 2.
        results = _fan_out(_tag_block, list(range(7)), 3)
        assert [r[0] for r in results] == list(range(7))
        assert [r[1] for r in results] == [3, 2, 2, 3, 2, 2, 3]
        assert all(r[2] != os.getpid() for r in results)

    def test_one_worker_runs_in_this_process(self, monkeypatch):
        started = []
        monkeypatch.setattr(multiprocessing, "Pool", lambda *a, **kw: started.append(a))
        for items, parallelism in ((list(range(5)), 1), (["only"], 4)):
            results = _fan_out(_tag_block, items, parallelism)
            assert results == [(item, len(items), os.getpid()) for item in items]
        assert started == []

    def test_numpy_array_items(self):
        items = np.arange(14.0).reshape(7, 2)
        for parallelism in (1, 3):
            results = _fan_out(_row_sums, items, parallelism)
            assert np.array_equal(results, items.sum(axis=1))


def test_one_module_starts_worker_processes():
    """`numerics._fan_out` is the only place that starts worker processes:
    no other module of the package imports a process pool."""
    importers = []
    for path in sorted(Path(oddball.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in ("multiprocessing", "concurrent") for m in modules):
                importers.append(path.name)
    assert importers == ["numerics.py"]


_SPEC = dict(k=3, odd_index=1, r1=8.0, r2=1.0, l_grid=(5.0,), trials=2, seed=0)
_TRUTH = OddConfig(3, 1, 1.0, 2.0)
_TABLE = FiringRateTable.from_arrays(["a", "b", "c"], [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]])
_STATS = SufficientStats.from_counts([1, 1, 0], [2, 0, 0])

# Every count, index and seed parameter of the library, each called with
# otherwise valid (and small) arguments.
INTEGER_PARAMETERS = {
    "OddConfig.k": lambda v: OddConfig(v, 1, 1.0, 2.0),
    "OddConfig.odd_index": lambda v: OddConfig(3, v, 1.0, 2.0),
    "mixed_rate.k": lambda v: mixed_rate(0.5, 3.0, 2.0, v),
    "brute_force_d_star.grid_resolution": lambda v: brute_force_d_star(_TRUTH, v),
    "curve_rows.k_values": lambda v: curve_rows([v], 2),
    "curve_rows.nu_steps": lambda v: curve_rows([3], v),
    "PolicyConfig.k": lambda v: PolicyConfig(v, 10.0),
    "PolicyConfig.max_slots": lambda v: PolicyConfig(3, 10.0, max_slots=v),
    "SufficientStats.k": lambda v: SufficientStats(v),
    "ExperimentSpec.k": lambda v: ExperimentSpec(**{**_SPEC, "k": v}),
    "ExperimentSpec.odd_index": lambda v: ExperimentSpec(**{**_SPEC, "odd_index": v}),
    "ExperimentSpec.trials": lambda v: ExperimentSpec(**{**_SPEC, "trials": v}),
    "ExperimentSpec.seed": lambda v: ExperimentSpec(**{**_SPEC, "seed": v}),
    "ExperimentSpec.max_slots": lambda v: ExperimentSpec(**{**_SPEC, "max_slots": v}),
    "error_upper_confidence.errors": lambda v: error_upper_confidence(v, 2),
    "error_upper_confidence.trials": lambda v: error_upper_confidence(0, v),
    "run_experiment.parallelism": lambda v: run_experiment(ExperimentSpec(**_SPEC), parallelism=v),
    "drift_experiment.n_slots": lambda v: drift_experiment(_TRUTH, v, [0]),
    "drift_experiment.seeds": lambda v: drift_experiment(_TRUTH, 10, [v]),
    "drift_experiment.checkpoints": lambda v: drift_experiment(_TRUTH, 10, [0], checkpoints=[v]),
    "drift_experiment.parallelism": lambda v: drift_experiment(_TRUTH, 10, [0], parallelism=v),
    "run_trial.checkpoints": lambda v: run_trial(
        PolicyConfig(3, 10.0), _TRUTH, np.random.default_rng(0), checkpoints=[v]
    ),
    "pairwise_dstar.k": lambda v: pairwise_dstar(_TABLE, v),
    "pairwise_dstar.parallelism": lambda v: pairwise_dstar(_TABLE, 3, parallelism=v),
    "synthesize_search_dataset.n_images": lambda v: synthesize_search_dataset(
        v, 2, 3, 2, 1, np.random.default_rng(0)
    ),
    "synthesize_search_dataset.n_neurons": lambda v: synthesize_search_dataset(
        3, v, 3, 2, 1, np.random.default_rng(0)
    ),
    "synthesize_search_dataset.k": lambda v: synthesize_search_dataset(
        3, 2, v, 2, 1, np.random.default_rng(0)
    ),
    "synthesize_search_dataset.n_pairs": lambda v: synthesize_search_dataset(
        3, 2, 3, v, 1, np.random.default_rng(0)
    ),
    "synthesize_search_dataset.samples_per_pair": lambda v: synthesize_search_dataset(
        3, 2, 3, 2, v, np.random.default_rng(0)
    ),
    "analyze_search_delays.k": lambda v: analyze_search_delays(_TABLE, [], v),
    "SufficientStats.update.action": lambda v: SufficientStats(3).update(v, 2),
    "SufficientStats.update.count": lambda v: SufficientStats(3).update(1, v),
    "SufficientStats.visits": lambda v: SufficientStats(3, 1, [v, 0, 0], [0, 0, 0], 0),
    "SufficientStats.events": lambda v: SufficientStats(3, 1, [1, 0, 0], [v, 0, 0], 1),
    "SufficientStats.n": lambda v: SufficientStats(3, v, [1, 0, 0], [0, 0, 0], 0),
    "SufficientStats.total": lambda v: SufficientStats(3, 1, [1, 0, 0], [1, 0, 0], v),
    "SufficientStats.from_counts": lambda v: SufficientStats.from_counts([v, 0, 0], [0, 0, 0]),
    "averaged_log_likelihood.i": lambda v: averaged_log_likelihood(_STATS, v),
    "ml_log_likelihood.j": lambda v: ml_log_likelihood(_STATS, v),
    "poisson_kl_series.terms": lambda v: poisson_kl_series(2.0, 0.5, 0.5, v),
}


@pytest.mark.parametrize("bad", [True, 2.5])
@pytest.mark.parametrize("name", list(INTEGER_PARAMETERS))
def test_integer_parameters_reject_bool_and_float(name, bad):
    """Counts, indices and seeds are Python ints: a bool or a float is a
    DomainError everywhere, even where its value would lie in range."""
    with pytest.raises(DomainError):
        INTEGER_PARAMETERS[name](bad)


# Every real-valued parameter of the library, each called with otherwise
# valid (and small) arguments.
REAL_PARAMETERS = {
    "OddConfig.r1": lambda v: OddConfig(3, 1, v, 2.0),
    "OddConfig.r2": lambda v: OddConfig(3, 1, 1.0, v),
    "OddConfig.r1 coordinate": lambda v: OddConfig(3, 1, [1.0, v], [2.0, 2.0]),
    "mixed_rate.lambda_odd": lambda v: mixed_rate(v, 3.0, 2.0, 3),
    "objective.lambda_odd": lambda v: objective(_TRUTH, v),
    "lower_bound_expected_tau.alpha_max": lambda v: lower_bound_expected_tau(_TRUTH, v),
    "binary_relative_entropy.x": lambda v: binary_relative_entropy(v),
    "PolicyConfig.threshold_l": lambda v: PolicyConfig(3, v),
    "ExperimentSpec.r1": lambda v: ExperimentSpec(**{**_SPEC, "r1": v}),
    "ExperimentSpec.r2": lambda v: ExperimentSpec(**{**_SPEC, "r2": v}),
    "ExperimentSpec.trace_sampling": lambda v: ExperimentSpec(**{**_SPEC, "trace_sampling": v}),
    "ExperimentSpec.l_grid": lambda v: ExperimentSpec(**{**_SPEC, "l_grid": (v,)}),
    "FiringRateTable.from_arrays.floor": lambda v: FiringRateTable.from_arrays(
        ["a"], [[1.0]], floor=v
    ),
    "synthesize_search_dataset.noise_scale": lambda v: synthesize_search_dataset(
        3, 2, 3, 2, 1, np.random.default_rng(0), noise_scale=v
    ),
    "synthesize_search_dataset.base_delay": lambda v: synthesize_search_dataset(
        3, 2, 3, 2, 1, np.random.default_rng(0), base_delay=v
    ),
    "analyze_search_delays.delay": lambda v: analyze_search_delays(
        _TABLE, [("a", "b", v), ("b", "a", 2.0), ("a", "c", 3.0)], 3
    ),
}


@pytest.mark.parametrize("bad", [True, "1", None])
@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_real_parameters_reject_bool_and_non_numbers(name, bad):
    """Rates, L, bounds and other real parameters are Python ints or
    floats: a bool, a string or None is a DomainError everywhere, never a
    TypeError and never read as 1.0."""
    with pytest.raises(DomainError):
        REAL_PARAMETERS[name](bad)


# Container arguments that are not iterable, or hold entries that cannot
# be summed, each called with otherwise valid (and small) arguments.
BAD_CONTAINERS = {
    "curve_rows(None)": lambda: curve_rows(None, 2),
    "curve_rows(3)": lambda: curve_rows(3, 2),
    "drift_experiment seeds None": lambda: drift_experiment(_TRUTH, 10, None),
    "drift_experiment seeds 5": lambda: drift_experiment(_TRUTH, 10, 5),
    "drift_experiment checkpoints 5": lambda: drift_experiment(_TRUTH, 10, [1], checkpoints=5),
    "run_trial checkpoints 5": lambda: run_trial(
        PolicyConfig(3, 10.0), _TRUTH, np.random.default_rng(0), checkpoints=5
    ),
    "run_trial checkpoints string": lambda: run_trial(
        PolicyConfig(3, 10.0), _TRUTH, np.random.default_rng(0), checkpoints="12"
    ),
    "from_counts string entry": lambda: SufficientStats.from_counts(["1", 0, 0], [0, 0, 0]),
    "from_counts None": lambda: SufficientStats.from_counts(None, [0, 0, 0]),
    "from_counts events string entry": lambda: SufficientStats.from_counts([1, 0, 0], [0, "1", 0]),
    "from_counts events None": lambda: SufficientStats.from_counts([0, 0, 0], None),
}


@pytest.mark.parametrize("name", list(BAD_CONTAINERS))
def test_container_arguments_raise_domain_error(name):
    """A container argument that is not a sequence of numbers is a
    DomainError, never a TypeError."""
    with pytest.raises(DomainError):
        BAD_CONTAINERS[name]()


def test_rate_string_is_not_split_into_coordinates():
    with pytest.raises(DomainError):
        OddConfig(3, 1, "25", "13")


def test_from_counts_rejects_float_entries():
    with pytest.raises(DomainError):
        SufficientStats.from_counts([1.7, 2, 0], [0.9, 3, 0])


def test_matrix_value_rejects_unknown_id():
    matrix = pairwise_dstar(_TABLE, 3)
    with pytest.raises(DomainError):
        matrix.value("z", "a")
    with pytest.raises(DomainError):
        matrix.value("a", "z")

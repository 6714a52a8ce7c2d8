"""Tests for the visual-search dissimilarity index and its statistics."""

import concurrent.futures
import csv
import hashlib
import io
import math

import mpmath
import numpy as np
import pytest
from scipy import stats as scipy_stats

from oddball import dissimilarity
from oddball.dissimilarity import (
    DEFAULT_RATE_FLOOR,
    DELAYS_HEADER,
    MATRIX_HEADER,
    FiringRateTable,
    analyze_search_delays,
    anova_f,
    correlation,
    delays_to_csv,
    log_am_gm,
    pairwise_dstar,
    parse_delays_csv,
    synthesize_search_dataset,
)
from oddball.numerics import DomainError, _f_upper_tail
from oddball.solver import OddConfig, brute_force_d_star, d_star

LOG_AM_GM_1_4 = 0.223143551314209755766  # log(2.5 / 2)

RATES_CSV = """image_id,neuron_1,neuron_2
imgA,1.5,2.0
imgB,4.0,0.5
imgC,1.5,2.0
"""

# 7 images x 6 neurons with a floored cell and a duplicate image.
MULTI_NEURON_RATES = np.random.default_rng(5).uniform(0.5, 8.0, (7, 6))
MULTI_NEURON_RATES[2, 4] = 0.0
MULTI_NEURON_RATES[6] = MULTI_NEURON_RATES[0]


class TestFiringRateTable:
    def test_from_arrays(self):
        table = FiringRateTable.from_arrays(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert table.images == ("a", "b")
        assert table.n_images == 2
        assert table.n_neurons == 2
        assert table.rates[1, 0] == 3.0
        assert not table.floored.any()
        assert table.floor == DEFAULT_RATE_FLOOR

    def test_flooring(self):
        table = FiringRateTable.from_arrays(["a", "b"], [[0.0, 2.0], [1e-5, 4.0]])
        assert table.rates[0, 0] == DEFAULT_RATE_FLOOR
        assert table.rates[1, 0] == DEFAULT_RATE_FLOOR
        assert table.floored.tolist() == [[True, False], [True, False]]
        custom = FiringRateTable.from_arrays(["a"], [[0.05]], floor=0.1)
        assert custom.rates[0, 0] == 0.1

    def test_rates_are_read_only(self):
        table = FiringRateTable.from_arrays(["a"], [[1.0]])
        with pytest.raises(ValueError):
            table.rates[0, 0] = 9.0

    def test_from_arrays_validation(self):
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays([], [])
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a", "a"], [[1.0], [2.0]])
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a"], [1.0])
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a"], [[-1.0]])
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a"], [[math.nan]])
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a"], [[1.0]], floor=0.0)

    def test_from_csv(self):
        table = FiringRateTable.from_csv(RATES_CSV)
        assert table.images == ("imgA", "imgB", "imgC")
        assert table.n_neurons == 2
        assert table.rates[1, 1] == 0.5
        assert table.index_of("imgB") == 1
        with pytest.raises(DomainError):
            table.index_of("imgZ")

    def test_ids_round_trip(self):
        # from_arrays strips ids as from_csv does, so a table written as a
        # rates CSV reads back with the same ids, and the matrix CSV names
        # exactly the table's ids.
        raw = [" a", "b ", " face,front "]
        rates = [[1.0, 2.0], [3.0, 4.0], [0.5, 6.0]]
        table = FiringRateTable.from_arrays(raw, rates)
        assert table.images == ("a", "b", "face,front")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["image_id", "n1", "n2"])
        writer.writerows([image, *row] for image, row in zip(raw, rates))
        assert FiringRateTable.from_csv(buf.getvalue()).images == table.images
        matrix = pairwise_dstar(table, k=3)
        rows = list(csv.reader(io.StringIO(matrix.to_csv())))[1:]
        assert {r[0] for r in rows} == {r[1] for r in rows} == set(table.images)
        assert table.index_of(" b") == 1 and matrix.value(" a ", "b") == matrix.values[0, 1]
        with pytest.raises(DomainError):
            FiringRateTable.from_arrays(["a", " a"], [[1.0], [2.0]])

    def test_from_csv_errors(self):
        with pytest.raises(DomainError):
            FiringRateTable.from_csv("")
        with pytest.raises(DomainError):
            FiringRateTable.from_csv("id,neuron_1\nimgA,1.0\n")
        with pytest.raises(DomainError):
            FiringRateTable.from_csv("image_id\nimgA\n")
        with pytest.raises(DomainError, match="line 3"):
            FiringRateTable.from_csv("image_id,neuron_1\nimgA,1.0\nimgB,1.0,2.0\n")
        with pytest.raises(DomainError, match="line 2"):
            FiringRateTable.from_csv("image_id,neuron_1\nimgA,fast\n")
        with pytest.raises(DomainError):
            FiringRateTable.from_csv("image_id,neuron_1\n")


class TestPairwiseDstar:
    def test_matrix_against_scalar_solver(self):
        # Multi-neuron rows are solved in one batch, which must give each
        # pair exactly its own single-configuration value.
        for rates in (
            [[1.0], [2.0]],
            [[1.0, 0.3, 4.0], [2.0, 0.3, 1.5], [0.0, 6.0, 2.5], [1.0, 0.31, 4.0]],
        ):
            ids = [f"i{n}" for n in range(len(rates))]
            table = FiringRateTable.from_arrays(ids, rates)
            matrix = pairwise_dstar(table, k=4)
            for a in range(len(ids)):
                for b in range(len(ids)):
                    if a != b:
                        config = OddConfig(4, 1, tuple(table.rates[a]), tuple(table.rates[b]))
                        assert matrix.values[a, b] == d_star(config)
            # Ordered pairs differ: the index is not symmetric.
            assert matrix.value("i0", "i1") != matrix.value("i1", "i0")

    def test_grid_search_cross_check(self):
        table = FiringRateTable.from_arrays(["a", "b"], [[1.0], [2.0]])
        matrix = pairwise_dstar(table, k=3)
        brute = brute_force_d_star(OddConfig(3, 1, 1.0, 2.0), grid_resolution=400)
        assert abs(matrix.value("a", "b") - brute) <= 2e-4

    def test_diagonal_and_duplicates_degenerate(self):
        table = FiringRateTable.from_csv(RATES_CSV)  # imgA == imgC
        matrix = pairwise_dstar(table, k=4)
        assert matrix.degenerate[0, 0]
        assert matrix.values[0, 0] == 0.0
        assert matrix.degenerate[0, 2] and matrix.degenerate[2, 0]
        assert matrix.values[0, 2] == 0.0
        assert not matrix.degenerate[0, 1]
        assert matrix.values[0, 1] > 0.0

    def test_floored_cell_counts(self):
        table = FiringRateTable.from_arrays(
            ["a", "b", "c"], [[0.0, 1.0], [2.0, 3.0], [0.0, 0.0]]
        )
        matrix = pairwise_dstar(table, k=3)
        assert matrix.floored_cells[0, 1] == 1  # a has one floored cell
        assert matrix.floored_cells[0, 2] == 3  # a: 1, c: 2
        assert matrix.floored_cells[1, 1] == 0

    def test_linear_scaling(self):
        arr = np.array([[1.0, 3.0], [2.0, 0.7]])
        base = pairwise_dstar(FiringRateTable.from_arrays(["a", "b"], arr), k=3)
        scaled = pairwise_dstar(FiringRateTable.from_arrays(["a", "b"], 2.5 * arr), k=3)
        np.testing.assert_allclose(scaled.values, 2.5 * base.values, rtol=1e-10)

    def test_parallelism_invariance(self):
        # The second table has 40 solved pairs, split into uneven chunks.
        for rates in ([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]], MULTI_NEURON_RATES):
            ids = [f"i{n}" for n in range(len(rates))]
            table = FiringRateTable.from_arrays(ids, rates)
            serial = pairwise_dstar(table, k=3, parallelism=1)
            for jobs in (2, 3):
                pooled = pairwise_dstar(table, k=3, parallelism=jobs)
                assert np.array_equal(serial.values, pooled.values)

    def test_pool_sized_by_chunks(self, monkeypatch):
        # Three images make three unordered pairs, each solved both ways in
        # one block: over four workers the pool starts three threads, and
        # a pair's orientations stay together. Two images make one pair,
        # solved in the calling thread.
        started, blocks = [], []
        real_pool = concurrent.futures.ThreadPoolExecutor
        real_pair_dstar = dissimilarity._pair_dstar

        def spy(max_workers=None, *args, **kwargs):
            started.append(max_workers)
            return real_pool(max_workers, *args, **kwargs)

        def pair_spy(table, k, pairs):
            blocks.append(pairs)
            return real_pair_dstar(table, k, pairs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(dissimilarity, "_pair_dstar", pair_spy)
        table = FiringRateTable.from_arrays(["a", "b", "c"], [[1.0], [2.0], [4.0]])
        pooled = pairwise_dstar(table, k=3, parallelism=4)
        assert started == [3]
        assert sorted(blocks) == [[(0, 1), (1, 0)], [(0, 2), (2, 0)], [(1, 2), (2, 1)]]
        assert np.array_equal(pooled.values, pairwise_dstar(table, k=3).values)
        two = FiringRateTable.from_arrays(["a", "b"], [[1.0], [2.0]])
        assert np.array_equal(pairwise_dstar(two, k=3, parallelism=4).values,
                              pairwise_dstar(two, k=3).values)
        assert started == [3]

    def test_to_csv(self):
        table = FiringRateTable.from_arrays(["a", "b"], [[1.0], [2.0]])
        matrix = pairwise_dstar(table, k=3)
        lines = matrix.to_csv().strip().split("\n")
        assert lines[0] == MATRIX_HEADER
        assert len(lines) == 3  # two ordered pairs
        cells = lines[1].split(",")
        assert cells[0] == "a" and cells[1] == "b"
        assert float(cells[2]) == pytest.approx(matrix.value("a", "b"), rel=1e-11)
        assert cells[3] == "0" and cells[4] == "0"

    def test_to_csv_quotes_ids_with_commas(self):
        # The reader accepts a quoted id; the writer must quote it back, or
        # its row would have six fields under a five-column header.
        table = FiringRateTable.from_csv('image_id,n1\n"face,front",1.0\nb,2.0\n')
        assert table.images == ("face,front", "b")
        matrix = pairwise_dstar(table, k=3)
        text = matrix.to_csv()
        assert text.split("\n")[1] == f'"face,front",b,{matrix.values[0, 1]:.12g},0,0'
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(r) for r in rows] == [5, 5, 5]
        assert [r[:2] for r in rows[1:]] == [["face,front", "b"], ["b", "face,front"]]

    def test_validation(self):
        table = FiringRateTable.from_arrays(["a", "b"], [[1.0], [2.0]])
        with pytest.raises(DomainError):
            pairwise_dstar(table, k=2)
        with pytest.raises(DomainError):
            pairwise_dstar(table, k=3.0)
        with pytest.raises(DomainError):
            pairwise_dstar(table, k=3, parallelism=0)


class TestLogAmGm:
    def test_frozen_value(self):
        assert abs(log_am_gm([1.0, 4.0]) - LOG_AM_GM_1_4) < 2e-15

    def test_equal_values_give_zero(self):
        assert log_am_gm([2.5, 2.5, 2.5]) == 0.0

    def test_scale_invariance(self):
        vals = [0.5, 1.7, 9.2, 3.3]
        assert log_am_gm([37.0 * v for v in vals]) == pytest.approx(
            log_am_gm(vals), abs=1e-12
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vals = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 9)))
            assert log_am_gm(vals) >= 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            log_am_gm([])
        with pytest.raises(DomainError):
            log_am_gm([1.0, 0.0])
        with pytest.raises(DomainError):
            log_am_gm([1.0, -2.0])
        with pytest.raises(DomainError):
            log_am_gm([1.0, math.inf])


class TestAnovaF:
    def test_identical_groups(self):
        # fsum of 87.86332500139687 * 6 / 6 is not the sample itself.
        for groups in ([[1.0, 1.0], [1.0, 1.0]], [[87.86332500139687] * 3] * 2):
            assert anova_f(groups) == (0.0, 1.0)

    def test_separated_constant_groups(self):
        # fsum(g) / len(g) does not return 87.86332500139687 exactly.
        for groups in (
            [[1.0, 1.0], [2.0, 2.0]],
            [[87.86332500139687] * 3, [82.3052568540083] * 3],
        ):
            f_stat, p = anova_f(groups)
            assert f_stat == math.inf
            assert p == 0.0

    def test_f_at_the_ends_of_its_range(self):
        # Equal means with spread give F = 0; a within-group variance of
        # ~1e-300 makes F overflow to inf.
        assert anova_f([[1.0, 3.0], [1.0, 3.0]]) == (0.0, 1.0)
        assert anova_f([[0.0, 1e-150], [1e5, 1e5]]) == (math.inf, 0.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            groups = [
                list(rng.normal(loc=mu, scale=1.0, size=int(rng.integers(3, 8))))
                for mu in rng.uniform(0, 3, size=int(rng.integers(2, 5)))
            ]
            f_ref, p_ref = scipy_stats.f_oneway(*groups)
            f_got, p_got = anova_f(groups)
            assert f_got == pytest.approx(float(f_ref), rel=1e-8)
            assert p_got == pytest.approx(float(p_ref), rel=1e-8, abs=1e-12)

    # Degrees of freedom of the tail tests, between and within groups.
    DF1 = (1, 2, 3, 7, 30, 333, 10**4)
    DF2 = (2, 3, 9, 50, 1001, 10**4)

    @staticmethod
    def _f_at(p, d1, d2):
        """The F statistic whose upper tail is p, by bisection on log F."""
        lo, hi = -745.0, 745.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _f_upper_tail(math.exp(mid), d1, d2) > p else (lo, mid)
        return math.exp(0.5 * (lo + hi))

    def test_p_value_matches_f_sf(self):
        """anova_f's p-value is `_f_upper_tail` of its F statistic, the
        F(d1, d2) upper tail from near 1 down to 1e-100."""
        f_stat, p_value = anova_f([[1.0, 2.0], [1.5, 2.5], [3.0, 3.5, 4.0]])
        assert p_value == _f_upper_tail(f_stat, 2, 4)
        for d1 in self.DF1:
            for d2 in self.DF2:
                for p in (1 - 1e-9, 0.999, 0.5, 1e-3, 1e-20, 1e-100):
                    f = self._f_at(p, d1, d2)
                    got = _f_upper_tail(f, d1, d2)
                    assert got == pytest.approx(p, rel=1e-6)
                    want = float(scipy_stats.f.sf(f, d1, d2))
                    assert got == pytest.approx(want, rel=1e-11, abs=0), (d1, d2, p)

    def test_p_value_near_1e_300(self):
        """Against a 50-digit incomplete beta: scipy's f.sf is itself 9% off
        at d1 = 30, d2 = 50 here and returns 0 at d1 = 30, d2 = 10^4, where
        the tail at this F is 2e-290."""
        with mpmath.workdps(50):
            for d1 in self.DF1:
                for d2 in self.DF2:
                    f = self._f_at(1e-300, d1, d2)
                    got = _f_upper_tail(f, d1, d2)
                    assert got == pytest.approx(1e-300, rel=1e-6)
                    x = d2 / (d2 + d1 * mpmath.mpf(f))
                    want = mpmath.betainc(mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2, 0, x,
                                          regularized=True)
                    assert abs(got - want) <= 1e-11 * want, (d1, d2)

    def test_tails_are_pinned_bit_for_bit(self):
        # Every tail's bits at four F values, by the digest of their
        # float.hex: a change to the divergence the binomial probability
        # calls must not move them.
        tails = " ".join(
            _f_upper_tail(f, d1, d2).hex()
            for d1 in self.DF1 for d2 in self.DF2 for f in (0.25, 1.0, 4.0, 100.0)
        )
        assert hashlib.sha256(tails.encode()).hexdigest() == (
            "9bea1b1d3201e757b1a6b8f5ea3c47aeb8c6ccdd6e4fb75ce97bedb3f461f996"
        )

    def test_separation_increases_f(self):
        base = [[0.9, 1.1], [0.95, 1.05]]
        spread = [[0.9, 1.1], [4.95, 5.05]]
        assert anova_f(spread)[0] > anova_f(base)[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            anova_f([[1.0, 2.0]])
        with pytest.raises(DomainError):
            anova_f([[1.0, 2.0], [1.0]])
        with pytest.raises(DomainError):
            anova_f([[1.0, 2.0], [1.0, math.nan]])


class TestCorrelation:
    def test_affine_relations(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert correlation(x, [3 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
        assert correlation(x, [-2 * v + 9 for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            x = rng.normal(size=12)
            y = 0.6 * x + rng.normal(size=12)
            ref = float(np.corrcoef(x, y)[0, 1])
            assert correlation(x, y) == pytest.approx(ref, abs=1e-12)

    def test_result_is_clamped(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            assert -1.0 <= correlation(x, y) <= 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            correlation([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            correlation([1.0, 2.0], [2.0, 4.0])  # fewer than 3 points
        with pytest.raises(DomainError):
            correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # zero variance
        with pytest.raises(DomainError):
            correlation([1.0, 2.0, math.nan], [1.0, 2.0, 3.0])


class TestDelaysCsv:
    def test_round_trip(self):
        delays = [("a", "b", 1.5), ("b", "a", 0.25), ("a", "c", 3.0)]
        text = delays_to_csv(delays)
        assert text.startswith(DELAYS_HEADER + "\n")
        assert parse_delays_csv(text) == delays

    def test_round_trip_ids_with_commas_and_quotes(self):
        delays = [("face,front", "b", 1.5), ('say "hi"', "face,front", 0.25), ("a", "b", 3.0)]
        text = delays_to_csv(delays)
        assert text.endswith("\na,b,3\n")  # plain ids stay unquoted
        assert parse_delays_csv(text) == delays

    def test_round_trip_strips_ids_once(self):
        # Ids lose surrounding whitespace on the way in and on the way out,
        # so writing parsed rows gives text that parses to the same rows.
        delays = [(" a", "b ", 1.5), ("\tb", " face,front ", 0.25)]
        text = delays_to_csv(delays)
        assert text.startswith(DELAYS_HEADER + "\na,b,1.5\n")
        parsed = parse_delays_csv(text)
        assert parsed == [("a", "b", 1.5), ("b", "face,front", 0.25)]
        assert parse_delays_csv(delays_to_csv(parsed)) == parsed
        spaced = "odd_id,distractor_id,delay\n a , b ,1.5\n"
        assert parse_delays_csv(spaced) == parse_delays_csv(delays_to_csv(parse_delays_csv(spaced)))

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_delays_csv("")
        with pytest.raises(DomainError):
            parse_delays_csv("odd,distractor,delay\na,b,1.0\n")
        with pytest.raises(DomainError, match="line 2"):
            parse_delays_csv("odd_id,distractor_id,delay\na,b\n")
        with pytest.raises(DomainError, match="line 3"):
            parse_delays_csv("odd_id,distractor_id,delay\na,b,1.0\na,c,slow\n")
        with pytest.raises(DomainError):
            parse_delays_csv("odd_id,distractor_id,delay\n")


class TestSynthesizeSearchDataset:
    def test_shapes_and_determinism(self):
        table, delays = synthesize_search_dataset(
            n_images=5, n_neurons=3, k=3, n_pairs=6, samples_per_pair=2,
            rng=np.random.default_rng(1),
        )
        assert table.n_images == 5
        assert table.n_neurons == 3
        assert len(delays) == 12
        assert len({(a, b) for a, b, _ in delays}) == 6
        for odd_id, distractor_id, delay in delays:
            assert odd_id != distractor_id
            assert delay > 0
            table.index_of(odd_id)
        again_table, again_delays = synthesize_search_dataset(
            n_images=5, n_neurons=3, k=3, n_pairs=6, samples_per_pair=2,
            rng=np.random.default_rng(1),
        )
        assert np.array_equal(table.rates, again_table.rates)
        assert delays == again_delays

    def test_noise_free_reciprocal_law(self):
        table, delays = synthesize_search_dataset(
            n_images=5, n_neurons=2, k=3, n_pairs=8, samples_per_pair=2,
            rng=np.random.default_rng(2), noise_scale=0.0, base_delay=2.0,
        )
        by_pair = {}
        for a, b, delay in delays:
            by_pair.setdefault((a, b), []).append(delay)
        for (a, b), vals in by_pair.items():
            assert vals[0] == vals[1]  # no noise, identical repeats
            diff = d_star(
                OddConfig(
                    3, 1,
                    tuple(table.rates[table.index_of(a)]),
                    tuple(table.rates[table.index_of(b)]),
                )
            )
            assert vals[0] == pytest.approx(2.0 / diff, rel=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            synthesize_search_dataset(1, 2, 3, 1, 1, rng)
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 0, 3, 1, 1, rng)
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 2, 2, 1, 1, rng)
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 2, 3, 13, 1, rng)  # > 4*3 pairs
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 2, 3, 1, 0, rng)
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 2, 3, 1, 1, rng, noise_scale=-0.1)
        with pytest.raises(DomainError):
            synthesize_search_dataset(4, 2, 3, 1, 1, rng, base_delay=0.0)


class TestAnalyzeSearchDelays:
    def test_noise_free_analysis_is_exact(self):
        table, delays = synthesize_search_dataset(
            n_images=6, n_neurons=2, k=3, n_pairs=10, samples_per_pair=3,
            rng=np.random.default_rng(3), noise_scale=0.0,
        )
        out = analyze_search_delays(table, delays, k=3)
        assert out["pairs"] == 10
        assert out["pearson_r"] > 1.0 - 1e-12
        assert out["log_am_gm"] < 1e-12
        # Zero within-pair variance with distinct means.
        assert out["anova_f"] == math.inf
        assert out["anova_p"] == 0.0

    def test_noisy_analysis_stays_close(self):
        table, delays = synthesize_search_dataset(
            n_images=8, n_neurons=3, k=4, n_pairs=20, samples_per_pair=4,
            rng=np.random.default_rng(4), noise_scale=0.05,
        )
        out = analyze_search_delays(table, delays, k=4)
        assert out["pearson_r"] > 0.9
        assert out["log_am_gm"] < 0.02
        assert out["anova_f"] > 1.0
        assert out["anova_p"] < 0.05

    def test_single_sample_pair_disables_anova(self):
        table = FiringRateTable.from_arrays(["a", "b", "c"], [[1.0], [2.0], [4.0]])
        delays = [
            ("a", "b", 1.0), ("a", "b", 1.1),
            ("b", "c", 2.0), ("b", "c", 2.1),
            ("a", "c", 0.5),  # single measurement
        ]
        out = analyze_search_delays(table, delays, k=3)
        assert math.isnan(out["anova_f"])
        assert math.isnan(out["anova_p"])
        assert -1.0 <= out["pearson_r"] <= 1.0

    def test_validation(self):
        table = FiringRateTable.from_arrays(["a", "b", "c"], [[1.0], [2.0], [4.0]])
        ok = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 0.5)]
        with pytest.raises(DomainError):
            analyze_search_delays(table, ok, k=2)
        with pytest.raises(DomainError):
            analyze_search_delays(table, ok[:2], k=3)  # fewer than 3 pairs
        with pytest.raises(DomainError):
            analyze_search_delays(table, ok + [("a", "a", 1.0)], k=3)
        with pytest.raises(DomainError):
            analyze_search_delays(table, ok + [("a", "b", -1.0)], k=3)
        with pytest.raises(DomainError):
            analyze_search_delays(table, ok + [("a", "z", 1.0)], k=3)

    def test_degenerate_pair_rejected(self):
        table = FiringRateTable.from_arrays(["a", "b", "c"], [[1.0], [1.0], [4.0]])
        delays = [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 0.5)]
        with pytest.raises(DomainError, match="identical rate vectors"):
            analyze_search_delays(table, delays, k=3)

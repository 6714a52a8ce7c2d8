"""Tests for the optimal-sampling solver.

High-precision reference values were computed with 45-digit mpmath at the
exact binary-double inputs: the stationarity equation was solved to 40
digits and frozen below. Grid-search cross-checks use `brute_force_d_star`,
which never touches the one-dimensional reduction under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddball import _native, reference, solver
from oddball.numerics import _SERIES_RADIUS, DomainError, poisson_kl
from oddball.solver import (
    CURVE_HEADER,
    DegenerateRatesError,
    OddConfig,
    brute_force_d_star,
    curve_rows,
    d_star,
    d_star_rows,
    lower_bound_expected_tau,
    mixed_rate,
    objective,
    solve_lambda_star,
)

# Frozen 40-digit references for the K=3, r1=1, r2=2 configuration.
REF_LAM_HAT = 0.613705638880109381166
REF_LAM_ODD = 0.44269504088896340736
REF_R_TILDE = 1.38629436111989061883
REF_D_STAR = 0.0596601011416096364297
REF_BOUND_1E3 = 115.536868647441988525  # alpha_max = 1e-3

# Equal-rates extension weights.
EXT_LAM_HAT_K3 = 0.585786437626904951198
EXT_LAM_ODD_K3 = 0.414213562373095048802
EXT_LAM_HAT_K4 = 0.550510257216821901803
EXT_LAM_ODD_K4 = 0.449489742783178098197


def residual(config, lam_hat):
    """Stationarity residual and its scale, from public primitives only."""
    rho = config.rho
    d1 = 0.0
    d2 = 0.0
    for a, b in zip(config.r1, config.r2):
        m = lam_hat * a + (1.0 - lam_hat) * b
        d1 += poisson_kl(a, m)
        d2 += poisson_kl(b, m)
    return d1 - rho * d2, max(d1, rho * d2)


class TestOddConfig:
    def test_scalar_construction(self):
        cfg = OddConfig(3, 1, 1.0, 2.0)
        assert cfg.r1 == (1.0,)
        assert cfg.r2 == (2.0,)
        assert cfg.dim == 1
        assert not cfg.is_degenerate
        assert cfg.rho == 0.5
        assert cfg.nu == 1.0 / 3.0

    def test_vector_construction(self):
        cfg = OddConfig(5, 3, [1.0, 2.0], [2.0, 2.0])
        assert cfg.dim == 2
        assert cfg.rho == 3.0 / 4.0
        with pytest.raises(DomainError):
            cfg.nu

    def test_degenerate_flag(self):
        assert OddConfig(3, 1, 2.0, 2.0).is_degenerate
        assert not OddConfig(3, 1, 2.0, 2.0 + 2.0**-50).is_degenerate

    def test_validation(self):
        with pytest.raises(DomainError):
            OddConfig(2, 1, 1.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3.0, 1, 1.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 0, 1.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 4, 1.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 1, 0.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 1, -1.0, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 1, math.inf, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 1, math.nan, 2.0)
        with pytest.raises(DomainError):
            OddConfig(3, 1, [1.0, 2.0], [2.0])
        with pytest.raises(DomainError):
            OddConfig(3, 1, [], [])


class TestMixedRate:
    def test_docstring_value(self):
        assert mixed_rate(0.5, 3.0, 2.0, 3) == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert mixed_rate(0.5, 2.0, 4.0, 3) == pytest.approx(8.0 / 3.0, rel=1e-15)

    def test_endpoints(self):
        # Full weight on the odd process pins r1 exactly; zero weight
        # recovers r2 up to one rounding of rho * r2 / rho.
        assert mixed_rate(1.0, 1.3, 2.7, 5) == 1.3
        assert mixed_rate(0.0, 1.3, 2.7, 5) == pytest.approx(2.7, rel=1e-15)

    def test_vector_mode(self):
        got = mixed_rate(0.5, [3.0, 1.0], [2.0, 1.0], 3)
        assert isinstance(got, tuple)
        assert got[0] == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert got[1] == pytest.approx(1.0, rel=1e-15)

    def test_between_the_rates(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lam = float(rng.uniform(0.0, 1.0))
            a, b = float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10))
            m = mixed_rate(lam, a, b, int(rng.integers(3, 12)))
            assert min(a, b) - 1e-12 <= m <= max(a, b) + 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            mixed_rate(-0.1, 1.0, 2.0, 3)
        with pytest.raises(DomainError):
            mixed_rate(1.1, 1.0, 2.0, 3)
        with pytest.raises(DomainError):
            mixed_rate(0.5, 1.0, 2.0, 2)


class TestObjective:
    def test_endpoints_vanish(self):
        cfg = OddConfig(3, 1, 1.0, 2.0)
        assert objective(cfg, 1.0) == 0.0
        assert abs(objective(cfg, 0.0)) < 1e-25

    def test_interior_positive(self):
        cfg = OddConfig(3, 1, 1.0, 2.0)
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert objective(cfg, lam) > 0.0

    def test_midpoint_concavity(self):
        cfg = OddConfig(4, 2, 3.0, 0.7)
        grid = np.linspace(0.0, 1.0, 41)
        vals = [objective(cfg, float(x)) for x in grid]
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b >= 0.5 * (a + c) - 1e-12


class TestSolveLambdaStar:
    def test_frozen_reference_solution(self):
        sol = solve_lambda_star(OddConfig(3, 1, 1.0, 2.0))
        assert abs(sol.lam_hat - REF_LAM_HAT) < 1e-9
        assert abs(sol.lam_odd - REF_LAM_ODD) < 1e-9
        assert abs(sol.r_tilde[0] - REF_R_TILDE) < 1e-9
        assert abs(sol.d_star - REF_D_STAR) / REF_D_STAR < 5e-13
        assert sol.nu == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_solution_structure(self):
        sol = solve_lambda_star(OddConfig(6, 4, 2.5, 0.5))
        assert len(sol.lam) == 6
        assert sol.lam[3] == sol.lam_odd
        off = [w for j, w in enumerate(sol.lam, start=1) if j != 4]
        assert all(w == off[0] for w in off)
        assert math.fsum(sol.lam) == pytest.approx(1.0, abs=1e-14)
        # lam_hat and lam_odd describe the same point.
        rho = 4.0 / 5.0
        back = sol.lam_odd / (sol.lam_odd + (1.0 - sol.lam_odd) * rho)
        assert abs(back - sol.lam_hat) < 1e-13

    def test_residual_contract(self):
        cases = [(3, 1.0, 2.0), (3, 10.0, 1.0), (7, 0.3, 0.9), (50, 4.0, 5.0)]
        # The policy's clamped nu grid points, and a large display.
        cases += [(5, 0.000001, 1.0 - 0.000001), (5, 0.999999, 1.0 - 0.999999)]
        cases += [(1000, 0.1, 0.9), (1000, 3.0, 1.0)]
        for k, a, b in cases:
            cfg = OddConfig(k, 1, a, b)
            sol = solve_lambda_star(cfg)
            g, scale = residual(cfg, sol.lam_hat)
            assert abs(g) <= 1e-10 * scale

    def test_root_matches_high_precision(self):
        # lam_hat against the root of g found with 50-digit mpmath at the
        # same binary-double inputs.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for k, a, b in [(3, 1.0, 2.0), (5, 10.0, 1.0), (50, 4.0, 1.0),
                            (3, 0.333333, 0.666667), (1000, 0.1, 0.9)]:
                rho = mpmath.mpf(k - 2) / (k - 1)
                ma, mb = mpmath.mpf(a), mpmath.mpf(b)

                def g(lam):
                    m = lam * ma + (1 - lam) * mb
                    return (ma * mpmath.log(ma / m) - ma + m) - rho * (mb * mpmath.log(mb / m) - mb + m)

                root = mpmath.findroot(g, mpmath.mpf(0.5))
                sol = solve_lambda_star(OddConfig(k, 1, a, b))
                assert abs(mpmath.mpf(sol.lam_hat) - root) <= 1.1e-11

    def test_stationarity_maximizes_objective(self):
        cfg = OddConfig(5, 2, 6.0, 1.5)
        sol = solve_lambda_star(cfg)
        for eps in (1e-4, 1e-3, 1e-2):
            assert sol.d_star >= objective(cfg, sol.lam_odd + eps)
            assert sol.d_star >= objective(cfg, sol.lam_odd - eps)

    def test_scale_invariance_of_weights(self):
        # The weights depend on the rates only through nu.
        a = solve_lambda_star(OddConfig(3, 1, 1.0, 2.0))
        b = solve_lambda_star(OddConfig(3, 1, 5.0, 10.0))
        assert abs(a.lam_hat - b.lam_hat) < 1e-9
        assert abs(a.lam_odd - b.lam_odd) < 1e-9

    def test_degenerate_takes_extension_weights(self):
        # Equal rates are not solved: they get the equal-rates limit.
        sol = solve_lambda_star(OddConfig(3, 1, 2.0, 2.0))
        assert sol.lam_hat == pytest.approx(EXT_LAM_HAT_K3, rel=1e-15)
        assert sol.lam_odd == pytest.approx(EXT_LAM_ODD_K3, rel=1e-15)
        assert sol.d_star == 0.0
        vec = solve_lambda_star(OddConfig(3, 1, (1.0, 5.0), (1.0, 5.0)))
        assert vec.lam_hat == sol.lam_hat
        assert vec.lam_odd == sol.lam_odd
        assert vec.d_star == 0.0
        assert vec.r_tilde == (1.0, 5.0)
        assert vec.nu is None

    def test_numerically_degenerate_rejected(self):
        # The rates differ, but D(r1 || r2) underflows to 0: no sign change.
        with pytest.raises(DegenerateRatesError):
            solve_lambda_star(OddConfig(3, 1, (1e-300, 1.0), (1e-300 * (1.0 + 1e-15), 1.0)))

    def test_near_half_nu_takes_extension_weight(self):
        # nu within 1e-9 of 1/2: the residual's digits are rounding noise,
        # so the equal-rates weight is returned instead.
        sol = solve_lambda_star(OddConfig(3, 1, 1.0, 1.0 + 1e-10))
        ext = solve_lambda_star(OddConfig(3, 1, 1.0, 1.0))
        assert sol.lam_hat == ext.lam_hat
        assert sol.lam_odd == ext.lam_odd

    def test_continuity_across_the_guard(self):
        # Just outside the guard the solved weight lands within ~2e-7 of
        # the extension value (the optimum moves linearly in nu - 1/2).
        ext = solve_lambda_star(OddConfig(3, 1, 1.0, 1.0))
        for nu in (0.5 + 1e-6, 0.5 - 1e-6):
            sol = solve_lambda_star(OddConfig(3, 1, nu, 1.0 - nu))
            assert abs(sol.lam_hat - ext.lam_hat) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=3, max_value=60),
        st.floats(min_value=0.02, max_value=0.45),
        st.booleans(),
    )
    def test_residual_contract_random(self, k, nu, flip):
        if flip:
            nu = 1.0 - nu
        cfg = OddConfig(k, 1, nu, 1.0 - nu)
        sol = solve_lambda_star(cfg)
        g, scale = residual(cfg, sol.lam_hat)
        assert abs(g) <= 1e-10 * scale
        assert 0.0 < sol.lam_odd < 1.0
        assert 0.0 < sol.lam_hat < 1.0


class TestContinuousExtension:
    """Equal rates through `solve_lambda_star`."""

    def test_k3_and_k4_values(self):
        e3 = solve_lambda_star(OddConfig(3, 1, 2.0, 2.0))
        assert e3.lam_hat == pytest.approx(EXT_LAM_HAT_K3, rel=1e-15)
        assert e3.lam_odd == pytest.approx(EXT_LAM_ODD_K3, rel=1e-15)
        e4 = solve_lambda_star(OddConfig(4, 1, 1.0, 1.0))
        assert e4.lam_hat == pytest.approx(EXT_LAM_HAT_K4, rel=1e-15)
        assert e4.lam_odd == pytest.approx(EXT_LAM_ODD_K4, rel=1e-15)

    def test_structure(self):
        sol = solve_lambda_star(OddConfig(5, 2, 3.0, 3.0))
        assert sol.d_star == 0.0
        assert sol.r_tilde == (3.0,)
        assert sol.nu == 0.5
        assert math.fsum(sol.lam) == pytest.approx(1.0, abs=1e-14)

    def test_large_k_limit(self):
        # rho -> 1, so the equal-rates weight tends to 1/2 from above.
        prev = solve_lambda_star(OddConfig(3, 1, 1.0, 1.0)).lam_hat
        for k in (10, 100, 1000):
            cur = solve_lambda_star(OddConfig(k, 1, 1.0, 1.0)).lam_hat
            assert 0.5 < cur < prev
            prev = cur


class TestDStar:
    def test_degenerate_is_exact_zero(self):
        assert d_star(OddConfig(3, 1, 4.0, 4.0)) == 0.0

    def test_odd_index_invariance(self):
        vals = {d_star(OddConfig(3, i, 1.0, 2.0)) for i in (1, 2, 3)}
        assert len(vals) == 1

    def test_linear_scaling(self):
        base = d_star(OddConfig(3, 1, 1.0, 2.0))
        scaled = d_star(OddConfig(3, 1, 3.7, 7.4))
        assert abs(scaled - 3.7 * base) <= 1e-10 * scaled

    def test_vector_single_active_coordinate(self):
        # Equal coordinates contribute nothing, so a vector config with one
        # differing coordinate reduces to the scalar problem.
        scalar = d_star(OddConfig(3, 1, 1.0, 2.0))
        vec = d_star(OddConfig(3, 1, [1.0, 5.0], [2.0, 5.0]))
        assert abs(vec - scalar) <= 1e-12 * scalar

    def test_vector_bracketed_by_coordinates(self):
        # Sum-structure: max_c d_star_c <= d_star_vec <= sum_c d_star_c.
        parts = [d_star(OddConfig(4, 1, a, b)) for a, b in [(1.0, 2.0), (5.0, 3.0)]]
        vec = d_star(OddConfig(4, 1, [1.0, 5.0], [2.0, 3.0]))
        assert vec >= max(parts) - 1e-12
        assert vec <= sum(parts) + 1e-12


class TestBruteForce:
    def test_matches_solver_k3(self):
        for cfg in (OddConfig(3, 1, 1.0, 2.0), OddConfig(3, 2, 2.0, 1.0)):
            exact = d_star(cfg)
            grid = brute_force_d_star(cfg, grid_resolution=400)
            assert grid <= exact + 1e-12
            assert exact - grid <= 2e-4

    def test_matches_solver_k4(self):
        cfg = OddConfig(4, 3, 4.0, 1.5)
        exact = d_star(cfg)
        grid = brute_force_d_star(cfg, grid_resolution=120)
        assert grid <= exact + 1e-12
        assert exact - grid <= 5e-4 * max(1.0, exact)

    def test_refusals(self):
        with pytest.raises(DomainError):
            brute_force_d_star(OddConfig(5, 1, 1.0, 2.0))
        with pytest.raises(DomainError):
            brute_force_d_star(OddConfig(3, 1, [1.0, 2.0], [2.0, 3.0]))
        with pytest.raises(DomainError):
            brute_force_d_star(OddConfig(3, 1, 1.0, 2.0), grid_resolution=5)
        with pytest.raises(DomainError):
            brute_force_d_star(OddConfig(3, 1, 1.0, 2.0), grid_resolution=100.0)


class TestLowerBound:
    def test_frozen_value(self):
        got = lower_bound_expected_tau(OddConfig(3, 1, 1.0, 2.0), 1e-3)
        assert abs(got - REF_BOUND_1E3) / REF_BOUND_1E3 < 1e-10

    def test_monotone_in_alpha(self):
        cfg = OddConfig(4, 1, 2.0, 3.0)
        bounds = [lower_bound_expected_tau(cfg, a) for a in (1e-6, 1e-4, 1e-2, 0.3)]
        for hi, lo in zip(bounds, bounds[1:]):
            assert hi > lo

    def test_degenerate_is_infinite(self):
        assert lower_bound_expected_tau(OddConfig(3, 1, 1.0, 1.0), 0.01) == math.inf

    def test_alpha_validation(self):
        cfg = OddConfig(3, 1, 1.0, 2.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                lower_bound_expected_tau(cfg, bad)


class TestDStarRows:
    def test_rows_match_scalar_solver_bitwise(self):
        # Scalar rates (D = 1) and 3-coordinate rates (D = 3); each row is
        # d_star of its own config, alone or in a batch.
        rng = np.random.default_rng(41)
        for k, dim in [(3, 1), (7, 1), (4, 3), (50, 3)]:
            r1 = rng.uniform(0.1, 20.0, size=(6, dim))
            r2 = rng.uniform(0.1, 20.0, size=(6, dim))
            batch = d_star_rows(k, r1, r2)
            for i in range(6):
                expected = d_star(OddConfig(k, 1, list(r1[i]), list(r2[i])))
                assert batch[i] == expected
                assert d_star_rows(k, r1[i:i + 1], r2[i:i + 1])[0] == expected


class TestCurveRows:
    def test_header_is_pinned(self):
        assert CURVE_HEADER == "K,nu,lambda_odd,lambda_hat,d_star_scaled"

    def test_shape_and_ranges(self):
        rows = curve_rows([3, 5], 21)
        assert len(rows) == 42
        for k, nu, lam_odd, lam_hat, scaled in rows:
            assert k in (3, 5)
            assert 0.01 <= nu <= 0.99
            assert 0.0 < lam_odd < 1.0
            assert 0.0 < lam_hat < 1.0
            assert scaled >= 0.0
        nus_k3 = [r[1] for r in rows if r[0] == 3]
        assert nus_k3 == sorted(nus_k3)
        assert nus_k3[0] == pytest.approx(0.01)
        assert nus_k3[-1] == pytest.approx(0.99)

    @pytest.mark.parametrize("steps", [range(2, 101), (997, 1000, 4999, 5000)])
    def test_grid_is_numpy_linspace(self, steps):
        # The grid is built without numpy, bit for bit as np.linspace.
        for nu_steps in steps:
            nus = [row[1] for row in curve_rows([3], nu_steps)]
            assert nus == np.linspace(0.01, 0.99, nu_steps).tolist()

    def test_midpoint_uses_extension(self):
        # 99 steps put nu = 1/2 on the grid: the degenerate row must carry
        # the extension weight and a d_star of exactly zero.
        rows = curve_rows([3], 99)
        mid = [r for r in rows if abs(r[1] - 0.5) < 1e-12]
        assert len(mid) == 1
        _, _, lam_odd, lam_hat, scaled = mid[0]
        assert lam_hat == pytest.approx(EXT_LAM_HAT_K3, rel=1e-15)
        assert lam_odd == pytest.approx(EXT_LAM_ODD_K3, rel=1e-15)
        assert scaled == 0.0

    def test_rows_are_solver_optimum(self):
        # 500 steps put grid points within 1e-3 of 1/2 but not on it; those
        # rows carry the optimum too, not the equal-rates weight.
        for k, nu, lam_odd, lam_hat, scaled in curve_rows([3, 50], 500):
            sol = solve_lambda_star(OddConfig(k, 1, nu, 1.0 - nu))
            assert (lam_odd, lam_hat, scaled) == (sol.lam_odd, sol.lam_hat, sol.d_star)

    def test_validation(self):
        with pytest.raises(DomainError):
            curve_rows([], 10)
        with pytest.raises(DomainError):
            curve_rows([2], 10)
        with pytest.raises(DomainError):
            curve_rows([3], 1)
        with pytest.raises(DomainError):
            curve_rows([3.0], 10)


def _solve_on(loop, r1, r2, rho, solve=reference._solve_rows):
    """`solve` (`reference._solve_rows`, or `solver._solve_pairs` on rows and
    pairs) on `loop`, the kernel library or None for the Python loop:
    lam_hat and D* of each row as lists of floats, or DegenerateRatesError
    when it raises that."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_loaded", [loop])
        try:
            lam_hat, values = solve(r1, r2, rho)
        except DegenerateRatesError:
            return DegenerateRatesError
    return np.asarray(lam_hat).tolist(), np.asarray(values).tolist()


def _kernel_or_skip():
    lib = _native.kernel()
    if lib is None:
        pytest.skip("the compiled kernel cannot be built on this machine")
    return lib


# Coordinate pairs (r1, r2) on which poisson_kl's terms, at the sign-change
# test and at the iterates between them, take each of its branches: below
# y = x / 2 the direct log and, where x log(x / y) + y overflows, the
# form x (log(x / y) - 1) + y, each with log(x / y) whole and split (x / y
# overflows); the series (|u| <= 0.09, both sides of the radius), the
# direct u form, the log split ((y - x) / x overflows) and rates at the
# 1e-3 floor.
_BRANCH_PAIRS = [
    *[(base, base * (1.0 + u)) for base in (0.7, 3.0, 1e-3)
      for u in (0.0899, 0.09, 0.0901, -0.0899, -0.09, -0.0901, 1e-7, -1e-7, 0.5, -0.5)],
    (1e-3, 8.0), (8.0, 1e-3), (1e-3, 2e-3), (1e-3, 1e-3 * (1.0 + 1e-9)),
    (1e-300, 1e10), (1e10, 1e-300), (1e-3, 1e-320), (1.5e308, 1e308), (1.0, 1.0 + 1e-10),
    (1.7e308, 1.7e307), (1.798e305, 9.17e-130),
]


class TestKernelSolve:
    """The kernel's `oddball_solve_rows` repeats `_root_row` and
    `_objective_sum`: every lam_hat and D* bitwise, and a
    DegenerateRatesError for the same rows."""

    @pytest.fixture(autouse=True)
    def kernel(self):
        self.lib = _kernel_or_skip()

    def check(self, r1, r2):
        for k in (3, 6, 50):
            rho = (k - 2) / (k - 1)
            want = _solve_on(None, r1, r2, rho)
            assert want is not DegenerateRatesError
            assert _solve_on(self.lib, r1, r2, rho) == want
            for i in range(len(r1)):  # each row alone, as `d_star` solves it
                one = _solve_on(self.lib, r1[i : i + 1], r2[i : i + 1], rho)
                assert one == ([want[0][i]], [want[1][i]])

    def test_pairs_reach_every_branch(self):
        x, y = np.array(_BRANCH_PAIRS).T
        with np.errstate(over="ignore"):
            u = (y - x) / x
            r = x / y
            d = x * np.where(np.isinf(r), np.log(x) - np.log(y), np.log(r)) + y - x
        below = y < 0.5 * x
        for whole in (np.isfinite(r), np.isinf(r)):
            assert np.any(below & whole & np.isfinite(d)) and np.any(below & whole & np.isinf(d))
        rest = ~below
        assert np.any(rest & (np.abs(u) <= _SERIES_RADIUS)) and np.any(rest & np.isinf(u))
        assert np.any(rest & (np.abs(u) > _SERIES_RADIUS) & np.isfinite(u))
        assert np.any(x == 1e-3) and np.any(y == 1e-3)

    def test_one_coordinate(self):
        rng = np.random.default_rng(21)
        pairs = [*_BRANCH_PAIRS, *rng.uniform(1e-3, 50.0, (200, 2)).tolist()]
        self.check([[a] for a, _ in pairs], [[b] for _, b in pairs])

    def test_two_coordinates(self):
        rng = np.random.default_rng(22)
        pairs = _BRANCH_PAIRS
        rows = [(pairs[i], pairs[j]) for i in range(len(pairs)) for j in rng.choice(len(pairs), 3)]
        self.check([[p[0], q[0]] for p, q in rows], [[p[1], q[1]] for p, q in rows])

    def test_hundred_coordinates(self):
        # The benchmark's rates, with floored cells and every branch pair
        # in some row.
        rng = np.random.default_rng(23)
        r1 = rng.uniform(0.5, 8.0, (40, 100))
        r2 = rng.uniform(0.5, 8.0, (40, 100))
        r1[rng.random(r1.shape) < 0.05] = 1e-3
        r2[rng.random(r2.shape) < 0.05] = 1e-3
        for i, (a, b) in enumerate(_BRANCH_PAIRS):
            r1[i % 40, i % 100], r2[i % 40, i % 100] = a, b
        self.check(r1, r2)

    def test_tables_of_other_shapes_are_refused(self):
        refused = (
            ([[1.0, 2.0]], [[1.0, 2.0, 3.0]]), ([1.0, 2.0], [2.0, 1.0]), ([[]], [[]]),
            (np.empty((2, 0)), np.empty((2, 0))), ([[1.0, 2.0]], []),
        )
        for loop in (None, self.lib):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_native, "_loaded", [loop])
                for r1, r2 in refused:
                    with pytest.raises(DomainError, match="2-D of one shape"):
                        d_star_rows(3, r1, r2)
                # A table of no rows has no D* to solve, on either loop.
                for empty in ([], np.empty((0, 3))):
                    got = d_star_rows(3, empty, empty)
                    assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_degenerate_rows_raise_on_both_loops(self):
        # Rows whose residual has no sign change: equal vectors, and
        # vectors that differ only where the divergence underflows to 0. A
        # batch raises on both loops when any row does, and only then.
        tiny = 1e-300
        bad = [([2.0, 3.0], [2.0, 3.0]), ([tiny, 1.0], [tiny * (1.0 + 2.0**-40), 1.0])]
        good = [([2.0, 3.0], [2.0, 3.5]), ([tiny, 1.0], [2.0 * tiny, 1.0])]
        assert poisson_kl(tiny, tiny * (1.0 + 2.0**-40)) == 0.0
        for rows, raises in (([*good, bad[0]], True), ([bad[1], *good], True), (good, False)):
            r1, r2 = [a for a, _ in rows], [b for _, b in rows]
            got = [_solve_on(loop, r1, r2, 0.5) for loop in (None, self.lib)]
            assert got[0] == got[1]
            assert (got[0] is DegenerateRatesError) == raises


class TestSharedSignTest:
    """The kernel's `oddball_solve_rows` takes a pair's sign-test sums,
    swapped, from the pair before it when that pair is its reverse, and
    applies each orientation's own test to them. Batches of pairs in every
    arrangement give each pair the lam_hat and D* of the Python loop, bit
    for bit, and raise DegenerateRatesError exactly where it does."""

    @pytest.fixture(autouse=True)
    def kernel(self):
        self.lib = _kernel_or_skip()

    def check(self, rows, pairs, rho, raises=False):
        want = _solve_on(None, rows, pairs, rho, solver._solve_pairs)
        assert (want is DegenerateRatesError) == raises
        assert _solve_on(self.lib, rows, pairs, rho, solver._solve_pairs) == want
        if not raises:
            for i, pair in enumerate(pairs):  # each pair alone
                one = _solve_on(self.lib, rows, [pair], rho, solver._solve_pairs)
                assert one == ([want[0][i]], [want[1][i]])

    @pytest.mark.parametrize("d", [1, 2, 100])
    def test_reversed_pairs_adjacent_and_apart(self, d):
        rng = np.random.default_rng(31 + d)
        rows = rng.uniform(0.5, 8.0, (5, d))
        rows[rng.random(rows.shape) < 0.05] = 1e-3
        unordered = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        adjacent = [p for a, b in unordered for p in ((a, b), (b, a))]
        apart = unordered + [(b, a) for a, b in unordered]
        # Reversed again and again, and a pair that repeats.
        chain = [(0, 1), (1, 0), (0, 1), (1, 0), (1, 0), (2, 1), (1, 2), (2, 1)]
        for k in (3, 6, 50):
            for pairs in (adjacent, apart, chain):
                self.check(rows.tolist(), pairs, (k - 2) / (k - 1))

    def test_near_equal_pair_shares_nothing(self):
        # At D = 1, (1, x) is tested and (x, 1) takes the equal-rates
        # weight untested: a / (a + b) and b / (a + b) fall on the two
        # sides of NEAR_DEGENERATE_NU. Neither the untested pair nor the
        # one after it may take sums that were never made for them.
        x = 1.000000004
        assert abs(solver._nu(1.0, x) - 0.5) >= solver.NEAR_DEGENERATE_NU
        assert abs(solver._nu(x, 1.0) - 0.5) < solver.NEAR_DEGENERATE_NU
        rows = [[1.0], [x], [2.0], [3.0], [2 * 5e-324], [5 * 5e-324]]
        for pairs in (
            [(0, 1), (1, 0)], [(1, 0), (0, 1)], [(2, 3), (1, 0), (3, 2)],
            [(2, 3), (1, 0), (0, 1), (3, 2)], [(1, 0), (0, 1), (1, 0)],
            # The sums of (4, 5), swapped, would fail (0, 1)'s test at K = 3
            # (see test_underflow_in_one_orientation).
            [(4, 5), (1, 0), (0, 1)],
        ):
            for k in (3, 50):
                self.check(rows, pairs, (k - 2) / (k - 1))

    @pytest.mark.parametrize("coords", [[], [1e-300], [1e-300, 4.0]])
    def test_underflow_in_one_orientation(self, coords):
        # With rho = 1/2, D(a || b) is one subnormal step and D(b || a)
        # two: (a, b) passes its test and (b, a) fails it, as rho times
        # one step rounds to 0. Coordinates equal in both rows add 0.
        a, b = 2 * 5e-324, 5 * 5e-324
        assert (poisson_kl(a, b), poisson_kl(b, a)) == (5e-324, 1e-323)
        assert 0.5 * poisson_kl(a, b) == 0.0 < 0.5 * poisson_kl(b, a)
        rows = [[a, *coords], [b, *coords], [1.0, *coords], [2.0, *coords]]
        self.check(rows, [(0, 1)], 0.5)
        self.check(rows, [(2, 3), (0, 1), (3, 2)], 0.5)
        for pairs in ([(1, 0)], [(0, 1), (1, 0)], [(1, 0), (0, 1)], [(0, 1), (2, 3), (1, 0)]):
            self.check(rows, pairs, 0.5, raises=True)

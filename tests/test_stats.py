import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collabnet.roles import ContingencyTable2x2
from collabnet.stats import (
    _subset_sum_counts,
    barnard_test,
    exact_u_distribution,
    mann_whitney_from_u,
    mann_whitney_u,
    wald_pooled_statistic,
)

from oracles import oracle_barnard_region, oracle_exact_u_distribution

STUDY_TABLE = ContingencyTable2x2(8, 1, 5, 6)
# regression pin: this implementation's enumeration value for the study table
STUDY_BARNARD_P = 0.05092281472021028


def assert_exact_matches_pairwise_oracle(a, b):
    """Exact p-values against an independent oracle that scores every
    assignment by direct pair comparison."""
    pooled = a + b
    n1, n = len(a), len(a) + len(b)

    def u_first_by_pairs(group_a_idx):
        in_a = set(group_a_idx)
        u = 0.0
        for i in in_a:
            for j in range(n):
                if j in in_a:
                    continue
                if pooled[i] < pooled[j]:
                    u += 1.0
                elif pooled[i] == pooled[j]:
                    u += 0.5
        return u

    u_obs = u_first_by_pairs(range(n1))
    total = lower = upper = 0
    for combo in itertools.combinations(range(n), n1):
        u = u_first_by_pairs(combo)
        total += 1
        lower += u <= u_obs + 1e-9
        upper += u >= u_obs - 1e-9
    mu = n1 * (n - n1) / 2
    expected_one = (lower if u_obs <= mu else upper) / total
    expected_two = min(1.0, 2 * min(lower, upper) / total)

    res = mann_whitney_u(a, b, method="exact")
    assert res.p_one_sided == pytest.approx(expected_one, abs=1e-12)
    assert res.p_two_sided == pytest.approx(expected_two, abs=1e-12)


class TestUFromSamples:
    """U as mann_whitney_u reports it, with the min(U_a, U_b) convention."""

    def test_complete_separation(self):
        assert mann_whitney_u([1, 2, 3], [4, 5, 6]).u == 0.0

    def test_min_convention_symmetric(self):
        assert mann_whitney_u([4, 5, 6], [1, 2, 3]).u == 0.0

    def test_interleaved(self):
        assert mann_whitney_u([1, 3], [2, 4]).u == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestNormalApproximation:
    # published (U, n1, n2) -> (z, r) anchor points
    CASES = [
        (1, 7, 14, -3.5810, 0.781, 1e-4),
        (0, 6, 14, -3.4641, 0.775, 3e-4),
        (45, 7, 14, -0.2984, 0.065, 0.397),
        (4, 6, 14, -3.1342, 0.701, 1e-3),
    ]

    @pytest.mark.parametrize("u,n1,n2,z,r,p_ref", CASES)
    def test_effect_sizes_from_u_alone(self, u, n1, n2, z, r, p_ref):
        res = mann_whitney_from_u(u, n1, n2)
        assert res.z == pytest.approx(z, abs=5e-4)
        assert res.r == pytest.approx(r, abs=1e-3)
        # tail convention unstated upstream; hold one-sided p within a factor of 2
        assert p_ref / 2 <= res.p_one_sided <= p_ref * 2

    def test_u_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_from_u(99, 7, 2)

    def test_continuity_correction_shrinks_z(self):
        plain = mann_whitney_from_u(1, 7, 14)
        corrected = mann_whitney_from_u(1, 7, 14, continuity_correction=True)
        assert abs(corrected.z) < abs(plain.z)
        assert corrected.continuity_correction


class TestMannWhitneyU:
    def test_identical_samples(self):
        res = mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.u == 9 / 2
        assert res.z == 0.0
        assert res.p_two_sided == 1.0
        assert res.p_one_sided == 0.5

    def test_r_matches_invariant(self):
        res = mann_whitney_u([5, 6, 7, 8], [1, 2, 3, 9])
        assert res.r == pytest.approx(abs(res.z) / math.sqrt(res.n1 + res.n2))

    def test_swap_negates_z_preserves_p_and_r(self):
        a, b = [3.0, 5.0, 9.0, 1.0], [2.0, 8.0, 8.0, 4.0, 7.0]
        fwd = mann_whitney_u(a, b)
        rev = mann_whitney_u(b, a)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)
        assert fwd.r == pytest.approx(rev.r, abs=1e-12)
        assert fwd.u == rev.u

    def test_tie_corrected_sd(self):
        # pooled [1,1,2,3]: one tie group of 2 -> tie term (t^3 - t) = 6
        res = mann_whitney_u([1.0, 2.0], [1.0, 3.0])
        var = (2 * 2 / 12) * ((4 + 1) - 6 / (4 * 3))
        ranks_a = [1.5, 3.0]  # midranks of sample_a within the pooled ordering
        u_a = 2 * 2 + 2 * 3 / 2 - sum(ranks_a)
        assert res.z == pytest.approx((u_a - 2.0) / math.sqrt(var), abs=1e-12)

    @pytest.mark.parametrize("continuity", [False, True])
    def test_normal_with_ties_matches_scipy(self, continuity):
        # scipy's asymptotic method applies the same tie correction to the sd
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(26)
        for _ in range(200):
            n1, n2, top = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 6)
            a = [float(rng.randint(0, top)) for _ in range(n1)]
            b = [float(rng.randint(0, top)) for _ in range(n2)]
            if len(set(a + b)) == 1:
                continue   # every value tied: the sd is 0 and scipy's z is undefined
            ref = scipy_stats.mannwhitneyu(a, b, method="asymptotic", alternative="two-sided",
                                           use_continuity=continuity)
            res = mann_whitney_u(a, b, continuity_correction=continuity)
            assert res.u == min(ref.statistic, n1 * n2 - ref.statistic), (a, b)
            assert res.p_two_sided == pytest.approx(ref.pvalue, rel=1e-12), (a, b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_bad_options_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([1], [2], tails="three")
        with pytest.raises(ValueError):
            mann_whitney_u([1], [2], method="bootstrap")


class TestExactMethod:
    def test_distribution_sums_to_binomial(self):
        counts = exact_u_distribution(7, 14)
        assert sum(counts.values()) == math.comb(21, 7)
        assert counts[0] == 1
        assert counts[1] == 1

    def test_matches_enumeration_oracle(self):
        for n1, n2 in [(1, 1), (2, 2), (3, 4), (5, 3)]:
            assert exact_u_distribution(n1, n2) == \
                oracle_exact_u_distribution(n1, n2)

    def test_small_distributions(self):
        assert exact_u_distribution(1, 1) == {0: 1, 1: 1}
        dist = exact_u_distribution(2, 2)
        assert dist == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_tail_probability_u_le_1(self):
        counts = exact_u_distribution(7, 14)
        total = math.comb(21, 7)
        assert Fraction(counts[0] + counts[1], total) == Fraction(2, 116280)

    def test_exact_p_on_constructed_samples(self):
        # leaders hold the top seven values except one crossing pair: U_a = 1
        a = [14.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0]
        b = [float(v) for v in range(1, 14)] + [15.0]
        res = mann_whitney_u(a, b, method="exact")
        assert res.u == 1
        assert res.p_one_sided == pytest.approx(2 / 116280, rel=1e-12)

    def test_exact_with_ties_enumerates(self):
        res = mann_whitney_u([1.0, 1.0, 2.0], [1.0, 2.0, 2.0], method="exact")
        assert 0.0 <= res.p_one_sided <= 1.0
        assert res.method == "exact"
        # symmetric situation: two-sided p is 1
        assert res.p_two_sided == 1.0

    @pytest.mark.parametrize("a,b", [
        ([1.0, 1.0, 5.0], [1.0, 2.0, 2.0, 2.0]),   # asymmetric tie pattern
        ([3.0, 3.0, 3.0, 9.0], [1.0, 3.0, 7.0]),
        ([0.0, 2.0], [2.0, 2.0, 4.0, 4.0]),
    ])
    def test_exact_ties_match_pairwise_scoring_oracle(self, a, b):
        assert_exact_matches_pairwise_oracle(a, b)

    # values drawn from 0..4 make ties the rule; pooled size stays <= 12
    tied_samples = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=6)

    @given(tied_samples, tied_samples)
    @settings(max_examples=60, deadline=None)
    def test_exact_random_ties_match_pairwise_scoring_oracle(self, a, b):
        assert_exact_matches_pairwise_oracle(a, b)

    def test_exact_cap_enforced(self):
        with pytest.raises(ValueError, match="capped at pooled size 220, got 221"):
            mann_whitney_u(list(range(110)), list(range(110, 221)), method="exact")
        res = mann_whitney_u(list(range(110)), list(range(110, 220)), method="exact")
        # complete separation: one assignment of C(220, 110) is this extreme
        assert res.p_one_sided == float(Fraction(1, math.comb(220, 110)))

    def test_exact_beyond_float_precision(self):
        # C(60, 30) > 2**53: the counts must stay exact Python ints
        counts = exact_u_distribution(30, 30)
        assert math.comb(60, 30) > 2**53
        assert sum(counts.values()) == math.comb(60, 30)
        assert all(counts[u] == counts[900 - u] for u in range(901))

    @pytest.mark.parametrize("n, k", [(16, 8), (20, 10), (33, 16), (60, 30)])
    def test_one_field_holds_every_subset(self, n, k):
        # equal values put all C(n, k) subsets in one field, the widest count
        assert _subset_sum_counts([0] * n, k) == {0: math.comb(n, k)}
        assert _subset_sum_counts([3] * n, k) == {3 * k: math.comb(n, k)}

    @given(st.lists(st.integers(0, 12), max_size=10), st.data())
    @settings(max_examples=200, deadline=None)
    def test_subset_sums_match_brute_force(self, values, data):
        k = data.draw(st.integers(0, len(values)))
        brute = Counter(map(sum, itertools.combinations(values, k)))
        assert _subset_sum_counts(values, k) == dict(brute)

    @pytest.mark.parametrize("n1, n2, seed", [(13, 14, 1), (7, 21, 2), (20, 20, 3)])
    def test_exact_matches_scipy_without_ties(self, n1, n2, seed):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(seed)
        pool = rng.sample(range(1000), n1 + n2)
        a = [float(v) for v in pool[:n1]]
        b = [v + 300.5 for v in pool[n1:]]   # no ties: scipy's exact method ignores them
        res = mann_whitney_u(a, b, method="exact")
        # a sits below b, so the one-sided p is the tail scipy calls "less"
        ref = {side: scipy_stats.mannwhitneyu(a, b, method="exact", alternative=side).pvalue
               for side in ("less", "two-sided")}
        assert res.p_one_sided == pytest.approx(ref["less"], rel=1e-12)
        assert res.p_two_sided == pytest.approx(ref["two-sided"], rel=1e-12)

    def test_exact_and_normal_agree_in_tail(self):
        a = [float(v) for v in range(14, 24)]
        b = [float(v) for v in range(1, 14)]
        exact = mann_whitney_u(a, b, method="exact")
        normal = mann_whitney_u(a, b, method="normal")
        assert abs(exact.p_two_sided - normal.p_two_sided) < 0.005


class TestWaldPooledStatistic:
    def test_study_table(self):
        t = wald_pooled_statistic(STUDY_TABLE)
        assert t == pytest.approx(2.026, abs=1e-3)
        assert t == pytest.approx(2.026026679188629, abs=1e-12)

    def test_degenerate_pooled_proportion(self):
        assert wald_pooled_statistic(ContingencyTable2x2(3, 0, 3, 0)) == 0.0
        assert wald_pooled_statistic(ContingencyTable2x2(0, 3, 0, 3)) == 0.0

    def test_equal_proportions(self):
        assert wald_pooled_statistic(ContingencyTable2x2(5, 5, 5, 5)) == 0.0

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row sums"):
            wald_pooled_statistic(ContingencyTable2x2(0, 0, 5, 5))


class TestBarnard:
    def test_study_table_two_sided(self):
        res = barnard_test(STUDY_TABLE)
        assert res.t == pytest.approx(2.026, abs=1e-3)
        assert res.p == pytest.approx(0.05, abs=0.01)
        assert res.p == pytest.approx(STUDY_BARNARD_P, abs=1e-9)
        assert res.nuisance_argmax == pytest.approx(0.3981, abs=1e-3)
        assert res.tails == "two"

    def test_one_sided_not_larger(self):
        res = barnard_test(STUDY_TABLE)
        assert res.p_one_sided <= res.p_two_sided + 1e-12

    def test_zero_statistic_gives_p_one(self):
        # P = 1 is reached only in the limit pi -> 0, so a search read the
        # one-sided p as 1 - (2 to 10)e-10 and the two-sided argmax as
        # rounding noise in (0, 1e-4], such as 0.0001 for (5, 5, 5, 5)
        for cells in ((5, 5, 5, 5), (2, 4, 3, 6), (6, 0, 2, 0), (2, 2, 8, 8), (5, 0, 3, 0),
                      (0, 3, 0, 4), (3, 0, 4, 0)):
            for tails in ("one", "two"):
                res = barnard_test(ContingencyTable2x2(*cells), tails=tails)
                assert res.t == 0.0
                assert res.p == res.p_one_sided == res.p_two_sided == 1.0, (cells, tails)
                assert res.nuisance_argmax == 0.0, (cells, tails)

    def test_perfect_split_is_significant(self):
        res = barnard_test(ContingencyTable2x2(10, 0, 0, 10))
        assert res.p < 0.05

    def test_row_and_column_swap_invariance(self):
        res = barnard_test(STUDY_TABLE)
        swapped = barnard_test(ContingencyTable2x2(6, 5, 1, 8))
        assert swapped.p == pytest.approx(res.p, abs=1e-10)
        assert swapped.t == pytest.approx(res.t, abs=1e-12)

    def test_finer_grid_never_loses_mass(self):
        coarse = barnard_test(STUDY_TABLE, grid_resolution=1e-4)
        fine = barnard_test(STUDY_TABLE, grid_resolution=5e-5)
        assert fine.p >= coarse.p - 1e-4
        assert fine.p == pytest.approx(coarse.p, abs=1e-4)

    def test_degenerate_margin_rejected(self):
        with pytest.raises(ValueError, match="row sums"):
            barnard_test(ContingencyTable2x2(0, 0, 5, 5))

    def test_bad_grid_rejected(self):
        # steps below 1e-6 are refused before the grid is allocated
        for step in (0.5, 0.0, 9.9e-7, 1e-12):
            with pytest.raises(ValueError, match=r"grid_resolution must be in \[1e-06, 0.1\]"):
                barnard_test(STUDY_TABLE, grid_resolution=step)

    def test_large_table_stays_finite(self):
        # binomial weights of a 1,200 total overflow float64 unless kept as logs
        res = barnard_test(ContingencyTable2x2(300, 300, 200, 400))
        for p in (res.p, res.p_one_sided, res.p_two_sided):
            assert math.isfinite(p) and 0.0 <= p <= 1.0
        assert res.p_one_sided <= res.p_two_sided + 1e-12

    def test_grid_memory_is_flat(self):
        # a dense grid x (N+1) array per tail peaked at ~94 MB for the first
        # table, and a (m1+1) x (m2+1) score matrix at ~111 MiB for the second.
        # A warm-up call loads numpy first, so only the test is traced.
        barnard_test(ContingencyTable2x2(1, 0, 0, 1))
        for cells in ((420, 180, 380, 220), (1000, 500, 900, 600)):
            tracemalloc.start()
            try:
                barnard_test(ContingencyTable2x2(*cells))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, cells

    def test_tied_mirror_table_in_two_sided_region(self):
        # For (3, 4, 5, 1) the mirror table (x1, x2) = (4, 1) scores exactly
        # |t_obs|. With D = x1*m2 - x2*m1 and s = x1 + x2, |T| >= |t_obs| is
        # D**2 * s_o * (N - s_o) >= D_o**2 * s * (N - s) in integers; s in
        # {0, N} scores 0 and stays out.
        a, b, c, d = 3, 4, 5, 1
        m1, m2 = a + b, c + d
        n = m1 + m2
        region = oracle_barnard_region((a, b, c, d), "two")
        assert (4, 1) in region
        res = barnard_test(ContingencyTable2x2(a, b, c, d))
        pi = res.nuisance_argmax
        p = sum(math.comb(m1, x1) * math.comb(m2, x2) * pi ** (x1 + x2)
                * (1 - pi) ** (n - x1 - x2) for x1, x2 in region)
        assert res.p_two_sided == pytest.approx(p, abs=1e-12)

    # Mass terms and pmf values come from differences of log k! values of
    # size about N log N, so their rounding grows with N; this pins p within
    # a relative 1e-12 up to a table total of 1,500
    @pytest.mark.parametrize("tails", ["one", "two"])
    @pytest.mark.parametrize("cells", [(78, 18, 38, 16), (420, 180, 380, 220),
                                       (753, 203, 375, 169)])
    def test_p_is_exact_region_probability_at_large_n(self, cells, tails):
        a, b, c, d = cells
        m1, m2 = a + b, c + d
        n = m1 + m2
        res = barnard_test(ContingencyTable2x2(*cells), tails=tails)
        # the region's integer weight W_s on each diagonal s = x1 + x2
        comb1 = [math.comb(m1, x) for x in range(m1 + 1)]
        comb2 = [math.comb(m2, x) for x in range(m2 + 1)]
        weights = [0] * (n + 1)
        for x1, x2 in oracle_barnard_region(cells, tails):
            weights[x1 + x2] += comb1[x1] * comb2[x2]
        # a float argmax is i / j exactly, so the region probability is
        # sum_s W_s * i**s * (j - i)**(n - s) / j**n; Horner's rule in ints
        i, j = res.nuisance_argmax.as_integer_ratio()
        numer, power = 0, 1
        for w in weights:
            numer = numer * (j - i) + w * power
            power *= i
        p_num, p_den = res.p.as_integer_ratio()
        # |p / exact - 1| <= 1e-12, cross-multiplied
        assert 10**12 * abs(p_num * j**n - numer * p_den) <= numer * p_den, (cells, tails)

    # (3, 4, 5, 1) is left out: its mirror table ties |t_obs| exactly (see
    # the test above), and scipy's float scores drop it from the region
    @pytest.mark.parametrize("cells", [(8, 1, 5, 6), (10, 0, 0, 10), (60, 40, 20, 30)])
    def test_matches_scipy_pooled_barnard(self, cells):
        scipy_stats = pytest.importorskip("scipy.stats")
        a, b, c, d = cells
        ref = scipy_stats.barnard_exact([[a, c], [b, d]], pooled=True, n=64)
        res = barnard_test(ContingencyTable2x2(*cells))
        assert res.t == pytest.approx(ref.statistic, abs=1e-12)
        assert res.p_two_sided == pytest.approx(ref.pvalue, abs=1e-12)

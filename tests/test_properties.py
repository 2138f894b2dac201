"""Invariant checks over randomized inputs (hypothesis)."""

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from collabnet import measures, stats, synth
from collabnet.measures import (
    build_network,
    heterogeneity,
    max_entropy_constant,
    type_histogram,
    weighted_degree,
)
from collabnet.model import InteractionRecord, ProjectSpec, Subtask

from conftest import degree, random_case, student_measures
from collabnet.roles import ContingencyTable2x2, Role, Thresholds, classify
from collabnet.stats import (
    barnard_test,
    exact_u_distribution,
    mann_whitney_u,
)
from oracles import (
    oracle_barnard_dense,
    oracle_barnard_region,
    oracle_barnard_sup_bounds,
    oracle_max_entropy,
)


def region_masses(cells):
    """barnard_test's masses for both tails, and log C(N, s), of a table."""
    a, b, c, d = cells
    lf = stats._log_factorials(a + b + c + d)
    log_comb = lf[-1] - lf - lf[::-1]
    return stats._region_masses(a, c, a + b, c + d, lf, log_comb), log_comb


class TestNetworkInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_duplicate_event_idempotence(self, seed):
        spec, roster, events = random_case(seed)
        assume(events)
        rng = random.Random(seed + 1)
        doubled = events + (rng.choice(events),)
        net_a, m_a = student_measures(spec, roster, events)
        net_b, m_b = student_measures(spec, roster, doubled)
        assert net_a == net_b
        assert m_a == m_b

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_measures_in_unit_interval(self, seed):
        spec, roster, events = random_case(seed)
        _, m = student_measures(spec, roster, events)
        for d, dw, h in m.values():
            assert 0.0 <= d <= 1.0
            assert 0.0 <= dw <= 1.0
            assert 0.0 <= h <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_weighted_degree_equals_degree_for_flat_weights(self, seed):
        spec, roster, events = random_case(seed)
        flat = ProjectSpec("P", tuple(
            Subtask(stk.subtask_id, "P", stk.task_type, 7) for stk in spec.subtasks))
        net = build_network(roster, flat, events)
        for s in net.student_nodes:
            assert weighted_degree(net, flat, s) == pytest.approx(
                degree(net, s), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_adding_an_edge_never_decreases_degrees(self, seed):
        spec, roster, events = random_case(seed)
        net, m = student_measures(spec, roster, events)
        student = sorted(roster.members)[0]
        untouched = [j for j in net.subtask_nodes
                     if (student, j) not in net.edges]
        assume(untouched)
        extra = InteractionRecord("P", "T1", student, untouched[0])
        _, m2 = student_measures(spec, roster, events + (extra,))
        assert m2[student][0] > m[student][0]
        assert m2[student][1] > m[student][1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_relabeling_subtasks_preserves_measures(self, seed):
        spec, roster, events = random_case(seed)
        rng = random.Random(seed + 7)
        ids = [stk.subtask_id for stk in spec.subtasks]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        rename = dict(zip(ids, shuffled))
        spec2 = ProjectSpec("P", tuple(
            Subtask(rename[stk.subtask_id], "P", stk.task_type, stk.points)
            for stk in spec.subtasks))
        events2 = tuple(
            InteractionRecord("P", "T1", e.student_id, rename[e.subtask_id])
            for e in events)
        _, m1 = student_measures(spec, roster, events)
        _, m2 = student_measures(spec2, roster, events2)
        for s in m1:
            assert m1[s][1] == pytest.approx(m2[s][1], abs=1e-12)
            assert m1[s][2] == pytest.approx(m2[s][2], abs=1e-12)

    def test_no_same_side_edges_possible(self):
        spec, roster, events = random_case(123)
        net, _ = student_measures(spec, roster, events)
        subtask_ids = set(net.subtask_nodes)
        for i, j in net.edges:
            assert i in net.student_nodes
            assert j in subtask_ids


class TestEntropyNormalizer:
    @given(
        st.lists(st.integers(0, 15), min_size=2, max_size=4),
        st.integers(0, 30),
    )
    @settings(max_examples=300, deadline=None)
    def test_water_filling_matches_enumeration(self, caps, n):
        capacities = {f"T{i}": c for i, c in enumerate(caps)}
        assume(n <= sum(caps))
        assert max_entropy_constant(n, capacities) == pytest.approx(
            oracle_max_entropy(n, capacities), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_base_invariance(self, seed):
        spec, roster, events = random_case(seed)
        net = build_network(roster, spec, events)
        for s in net.student_nodes:
            hist = type_histogram(net, spec, s)
            h = heterogeneity(hist, spec.type_capacities)
            if hist.total <= 1:
                continue
            n = hist.total
            raw2 = -sum((c / n) * math.log2(c / n)
                        for c in hist.counts.values() if c)
            comp = measures.max_entropy_composition(n, spec.type_capacities)
            q2 = -sum((c / n) * math.log2(c / n) for c in comp.values() if c)
            expected = raw2 / q2 if q2 else 0.0
            assert h == pytest.approx(expected, abs=1e-12)


class TestClassification:
    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300)
    def test_total_and_exclusive(self, q, h):
        role = classify(q, h)
        assert isinstance(role, Role)
        others = [r for r in Role if r is not role]
        assert len(others) == 3

    @given(st.floats(0, 1), st.floats(0, 1),
           st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=300)
    def test_threshold_symmetry(self, q, h, cut_a, cut_b):
        swap = {
            Role.COMPREHENSIVE_CONTRIBUTOR: Role.COMPREHENSIVE_CONTRIBUTOR,
            Role.FREE_RIDER: Role.FREE_RIDER,
            Role.SPECIALIZED_CONTRIBUTOR: Role.VERSATILE_PARTICIPANT,
            Role.VERSATILE_PARTICIPANT: Role.SPECIALIZED_CONTRIBUTOR,
        }
        direct = classify(q, h, Thresholds(cut_a, cut_b))
        mirrored = classify(h, q, Thresholds(cut_b, cut_a))
        assert swap[direct] is mirrored

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=300)
    def test_quantity_monotonicity(self, q1, q2, h):
        lo, hi = min(q1, q2), max(q1, q2)
        low_role = classify(lo, h)
        high_role = classify(hi, h)
        high_q_roles = {Role.COMPREHENSIVE_CONTRIBUTOR, Role.SPECIALIZED_CONTRIBUTOR}
        if low_role in high_q_roles:
            assert high_role in high_q_roles


class TestMannWhitney:
    samples = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=10)

    @given(samples, samples)
    @settings(max_examples=200, deadline=None)
    def test_swap_antisymmetry(self, a, b):
        fwd = mann_whitney_u(a, b)
        rev = mann_whitney_u(b, a)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-9)
        assert fwd.p == pytest.approx(rev.p, abs=1e-9)
        assert fwd.r == pytest.approx(rev.r, abs=1e-9)

    # integer-valued points keep the transforms strictly increasing in floats
    int_samples = st.lists(st.integers(-50, 50).map(float), min_size=1, max_size=10)

    @given(int_samples, int_samples)
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_under_monotone_transforms(self, a, b):
        u_raw = mann_whitney_u(a, b).u
        for f in (lambda x: 3.0 * x + 11.0, math.atan, lambda x: x**3):
            assert mann_whitney_u([f(x) for x in a], [f(x) for x in b]).u == u_raw

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_exact_distribution_sums_to_binomial(self, n1, n2):
        counts = exact_u_distribution(n1, n2)
        assert sum(counts.values()) == math.comb(n1 + n2, n1)
        assert min(counts) == 0
        assert max(counts) == n1 * n2

    def test_exact_and_normal_agree_in_the_tail(self):
        # The normal approximation differs from the exact tail by about half
        # a pmf step near the center of the U distribution (~0.02 at n=16),
        # so the 0.005 agreement band is checked where it is meaningful:
        # fixtures whose exact p lands in the rejection region.
        rng = random.Random(2024)
        checked = 0
        for _ in range(400):
            n1, n2 = rng.randint(8, 12), rng.randint(8, 12)
            pool = rng.sample(range(1000), n1 + n2)
            a = [float(v) for v in pool[:n1]]
            b = [float(v) + 250.0 for v in pool[n1:]]
            exact = mann_whitney_u(a, b, method="exact")
            if exact.p_two_sided > 0.05:
                continue
            normal = mann_whitney_u(a, b, method="normal")
            assert abs(exact.p_two_sided - normal.p_two_sided) <= 0.005
            checked += 1
        assert checked > 50


class TestBarnard:
    tables = st.tuples(st.integers(0, 8), st.integers(0, 8),
                       st.integers(0, 8), st.integers(0, 8))

    @given(tables)
    @settings(max_examples=60, deadline=None)
    def test_row_plus_column_swap_invariance(self, cells):
        a, b, c, d = cells
        assume(a + b >= 1 and c + d >= 1)
        base = barnard_test(ContingencyTable2x2(a, b, c, d), grid_resolution=1e-3)
        swapped = barnard_test(ContingencyTable2x2(d, c, b, a), grid_resolution=1e-3)
        assert swapped.p == pytest.approx(base.p, abs=1e-9)

    @given(tables)
    @settings(max_examples=40, deadline=None)
    def test_p_dominates_any_single_nuisance_value(self, cells):
        a, b, c, d = cells
        assume(a + b >= 1 and c + d >= 1)
        res = barnard_test(ContingencyTable2x2(a, b, c, d), grid_resolution=1e-3)
        masses, log_comb = region_masses(cells)
        for pi in (0.1, 0.25, 0.5, 0.75, 0.9):
            single = float(stats._binomial_pmf(pi, log_comb) @ masses[1])
            assert res.p >= single - 1e-12

    @given(tables, st.sampled_from(["one", "two"]))
    @settings(max_examples=60, deadline=None)
    def test_region_probability_matches_cellwise_loop(self, cells, tails):
        # reference: decide every table on its own in integers and sum exact
        # binomial terms
        a, b, c, d = cells
        assume(a + b >= 1 and c + d >= 1)
        m1, m2 = a + b, c + d
        n = m1 + m2
        region = oracle_barnard_region(cells, tails)
        masses, log_comb = region_masses(cells)
        mass = masses[0 if tails == "one" else 1]
        weights = [0] * (n + 1)
        for x1, x2 in region:
            weights[x1 + x2] += math.comb(m1, x1) * math.comb(m2, x2)
        for s, (w, h) in enumerate(zip(weights, mass)):
            assert h == pytest.approx(w / math.comb(n, s), rel=1e-12, abs=0.0)
        pis = [0.05, 0.3, 0.5, 0.8]
        got = stats._binomial_pmf(np.array(pis), log_comb) @ mass
        for pi, p in zip(pis, got):
            expected = 0.0
            for x1, x2 in region:
                expected += (math.comb(m1, x1) * math.comb(m2, x2)
                             * pi ** (x1 + x2) * (1 - pi) ** (m1 + m2 - x1 - x2))
            assert p == pytest.approx(expected, rel=1e-12, abs=1e-15)
            single = float(stats._binomial_pmf(pi, log_comb) @ mass)
            assert single == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @given(tables)
    @settings(max_examples=60, deadline=None)
    def test_masses_are_bounded_and_nested(self, cells):
        # The one-sided region is a subset of the two-sided one and each
        # diagonal is summed in the same order, so the nesting is exact. A
        # full diagonal sums to 1 only up to the rounding of log k!, as in
        # (0, 1, 0, 1), whose middle diagonal reads 1 + 2**-51.
        assume(cells[0] + cells[1] >= 1 and cells[2] + cells[3] >= 1)
        (one, two), _ = region_masses(cells)
        assert np.all(one >= 0.0)
        assert np.all(one <= two)
        assert np.all(two <= 1.0 + 1e-13)

    def test_every_zero_statistic_table_reports_the_limit(self):
        checked = 0
        for a, b, c, d in itertools.product(range(11), repeat=4):
            if a + b == 0 or c + d == 0 or a * (c + d) != c * (a + b):
                continue
            for tails in ("one", "two"):
                res = barnard_test(ContingencyTable2x2(a, b, c, d), tails=tails)
                assert (res.p_one_sided, res.p_two_sided, res.nuisance_argmax) == (1.0, 1.0, 0.0)
            checked += 1
        assert checked > 400

    @given(st.tuples(*[st.integers(0, 10)] * 4))
    @settings(max_examples=150, deadline=None)
    def test_p_lies_within_the_exact_supremum_bounds(self, cells):
        assume(cells[0] + cells[1] >= 1 and cells[2] + cells[3] >= 1)
        res = barnard_test(ContingencyTable2x2(*cells))
        for tails, p in (("one", res.p_one_sided), ("two", res.p_two_sided)):
            lower, upper = oracle_barnard_sup_bounds(cells, tails)
            assert float(lower) * (1 - 1e-12) <= p <= float(upper) * (1 + 1e-12), tails


class TestBarnardGrid:
    """The blocked two-tail grid against the dense per-tail search it replaced."""

    tables = st.tuples(st.integers(1, 40), st.integers(1, 40)).flatmap(
        lambda m: st.tuples(st.integers(0, m[0]), st.just(m[0]),
                            st.integers(0, m[1]), st.just(m[1])))

    @staticmethod
    def assert_matches_dense_search(cells, step):
        expected = oracle_barnard_dense(cells, step)
        for tails in ("one", "two"):
            res = barnard_test(ContingencyTable2x2(*cells), tails=tails,
                               grid_resolution=step)
            assert res.p_one_sided == expected["one"][0]
            assert res.p_two_sided == expected["two"][0]
            assert res.nuisance_argmax == expected[tails][1]

    @given(tables, st.sampled_from([1e-3, 1e-4]))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_dense_search(self, shape, step):
        x1, m1, x2, m2 = shape
        self.assert_matches_dense_search((x1, m1 - x1, x2, m2 - x2), step)

    @pytest.mark.parametrize("cells", [(8, 1, 5, 6), (3, 4, 5, 1), (420, 180, 380, 220)])
    def test_bit_identical_to_dense_search_fixed(self, cells):
        self.assert_matches_dense_search(cells, 1e-4)

    @given(tables)
    @settings(max_examples=40, deadline=None)
    def test_block_size_does_not_change_the_grid(self, shape):
        # 999 grid points: 7-row blocks leave a partial last block. The same
        # _GRID_BLOCK sizes the region pass, here from a few diagonals per block
        # (partial last block included) to one block for all.
        x1, m1, x2, m2 = shape
        cells = (x1, m1 - x1, x2, m2 - x2)
        masses, log_comb = region_masses(cells)
        pis = np.arange(1, 1000) * 1e-3
        grids = []
        for rows in (1, 7, pis.size):
            with mock.patch.object(stats, "_GRID_BLOCK", rows * (m1 + m2 + 1)):
                grids.append(stats._nuisance_grid(masses, log_comb, pis))
                assert np.array_equal(region_masses(cells)[0], masses)
        for grid in grids[:-1]:
            for got, want in zip(grid, grids[-1]):
                assert (int(np.argmax(got >= got.max() * (1.0 - 1e-12)))
                        == int(np.argmax(want >= want.max() * (1.0 - 1e-12))))
                assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


class TestPlantedRecovery:
    def test_recovery_with_margin(self):
        from test_synth import study_like_cohort
        import dataclasses
        expected = {0: Role.COMPREHENSIVE_CONTRIBUTOR,
                    1: Role.VERSATILE_PARTICIPANT,
                    2: Role.FREE_RIDER}
        for seed in range(5):
            ds = synth.generate_cohort(dataclasses.replace(
                study_like_cohort(), seed=seed))
            from collabnet import pipeline
            for p in pipeline.project_profiles(ds)["TP1"]:
                slot = (int(p.student_id[1:]) - 1) % 3
                assert p.role is expected[slot], (seed, p)

    def test_seed_determinism(self):
        from test_synth import study_like_cohort
        assert synth.generate_cohort(study_like_cohort(4)) == \
            synth.generate_cohort(study_like_cohort(4))

"""Brute-force oracles, deliberately independent of the code they cross-check."""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from typing import Mapping


def oracle_max_entropy(n: int, capacities: Mapping[str, int], max_n: int = 60) -> float:
    """Maximum entropy over every capacity-feasible composition of n items.

    Exhaustive enumeration, deliberately independent of the water-filling
    routine it cross-checks. Capped at n <= max_n (desk scale).
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if n > max_n:
        raise ValueError(f"oracle capped at n={max_n}, got {n}")
    caps = [int(capacities[t]) for t in sorted(capacities)]
    if any(c < 0 for c in caps):
        raise ValueError("capacities must be nonnegative")
    if n > sum(caps):
        raise ValueError(f"n={n} exceeds total capacity {sum(caps)}")
    if n == 0:
        return 0.0

    best = 0.0

    def entropy(parts):
        return -sum((c / n) * math.log(c / n) for c in parts if c > 0)

    def rec(idx, left, parts):
        nonlocal best
        if idx == len(caps) - 1:
            if left <= caps[idx]:
                best = max(best, entropy(parts + [left]))
            return
        remaining_cap = sum(caps[idx + 1:])
        for k in range(max(0, left - remaining_cap), min(left, caps[idx]) + 1):
            rec(idx + 1, left - k, parts + [k])

    rec(0, n, [])
    return best


def oracle_exact_u_distribution(n1: int, n2: int, cap: int = 21) -> dict[int, int]:
    """Null distribution of U by direct enumeration of all group assignments.

    Tie-free ranks 1..n1+n2; the counts sum to C(n1+n2, n1). Independent of
    the subset-sum recurrence used by the stats module.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both group sizes must be at least 1")
    n = n1 + n2
    if n > cap:
        raise ValueError(f"oracle capped at pooled size {cap}, got {n}")
    base = n1 * (n1 + 1) // 2
    counts: dict[int, int] = {}
    for combo in itertools.combinations(range(1, n + 1), n1):
        u = sum(combo) - base
        counts[u] = counts.get(u, 0) + 1
    return counts


def oracle_barnard_region(cells: tuple[int, int, int, int], tails: str) -> list[tuple[int, int]]:
    """Every table (x1, x2) with the margins of cells that is at least as extreme.

    Each table is decided on its own, in integers: with D = x1*m2 - x2*m1 and
    s = x1 + x2, the pooled score satisfies |T| >= |t_obs| exactly when
    D**2 * s_o*(N - s_o) >= D_o**2 * s*(N - s); s in {0, N} scores 0. The
    one-sided region keeps the side of sign(D_o).
    """
    a, b, c, d = cells
    m1, m2 = a + b, c + d
    n, s_o, d_o = m1 + m2, a + c, a * m2 - c * m1
    region = []
    for x1 in range(m1 + 1):
        for x2 in range(m2 + 1):
            s, dist = x1 + x2, x1 * m2 - x2 * m1
            if d_o == 0:
                hit = tails == "two" or dist >= 0
            else:
                hit = (0 < s < n and dist ** 2 * s_o * (n - s_o) >= d_o ** 2 * s * (n - s)
                       and (tails == "two" or dist * d_o > 0))
            if hit:
                region.append((x1, x2))
    return region


def oracle_barnard_sup_bounds(cells: tuple[int, int, int, int],
                              tails: str) -> tuple[Fraction, Fraction]:
    """Exact (lower, upper) bounds on Barnard's p, the maximum over pi in [0, 1].

    P(region | pi) = sum_s h_s * C(N,s) * pi**s * (1-pi)**(N-s) is a
    polynomial in Bernstein form whose coefficients are the region's
    hypergeometric masses h_s = W_s / C(N, s). On an interval its maximum
    lies between the values at the ends, the first and last coefficients,
    and the largest coefficient (Cargo and Shisha 1966, J. Res. Nat. Bur.
    Standards 70B:79-81). The interval with the largest upper bound is split
    at its midpoint by de Casteljau's rule, in Fractions, until
    upper - lower <= 1e-12 * upper. Uses nothing from collabnet.stats.
    """
    a, b, c, d = cells
    m1, m2 = a + b, c + d
    n = m1 + m2
    weights = [0] * (n + 1)
    for x1, x2 in oracle_barnard_region(cells, tails):
        weights[x1 + x2] += math.comb(m1, x1) * math.comb(m2, x2)
    coeffs = [Fraction(w, math.comb(n, s)) for s, w in enumerate(weights)]
    lower = max(coeffs[0], coeffs[-1])
    rel = Fraction(1, 10**12)
    order = itertools.count(1)  # breaks ties between equal bounds before the lists compare
    heap = [(-max(coeffs), 0, coeffs)]
    while -heap[0][0] - lower > rel * -heap[0][0]:
        _, _, row = heapq.heappop(heap)
        left, right = [], []
        while row:
            left.append(row[0])
            right.append(row[-1])
            row = [(x + y) / 2 for x, y in zip(row, row[1:])]
        lower = max(lower, left[-1])  # the value at the midpoint
        for half in (left, right[::-1]):
            heapq.heappush(heap, (-max(half), next(order), half))
    return lower, -heap[0][0]


def oracle_barnard_dense(cells: tuple[int, int, int, int],
                         step: float) -> dict[str, tuple[float, float]]:
    """Barnard's (p, nuisance argmax) for each tail by a dense, unblocked search.

    A table with t = 0 (a*m2 == c*m1) gives (1.0, 0.0) for both tails, with
    no search. Otherwise the pmf of the whole grid is dotted with the masses
    in one block; then the lowest grid point within a relative 1e-12 of the
    maximum, and _golden_max around it. Returns {"one": (p, argmax), "two":
    (p, argmax)}. The masses (_region_masses) and the evaluator are the ones
    barnard_test uses, so this checks only the blocking of the grid.
    """
    import numpy as np

    from collabnet.stats import _binomial_pmf, _golden_max, _log_factorials, _region_masses

    a, b, c, d = cells
    m1, m2 = a + b, c + d
    if a * m2 == c * m1:
        return {"one": (1.0, 0.0), "two": (1.0, 0.0)}
    n = m1 + m2
    lf = _log_factorials(n)
    log_comb = lf[n] - lf - lf[::-1]
    masses = _region_masses(a, c, m1, m2, lf, log_comb)
    pis = np.arange(1, int(round(1.0 / step))) * step
    pmf = _binomial_pmf(pis, log_comb)
    out = {}
    for side, mass in zip(("one", "two"), masses):
        probs = pmf @ mass
        best = int(np.argmax(probs >= probs.max() * (1.0 - 1e-12)))

        def scalar(pi: float) -> float:
            return float(_binomial_pmf(pi, log_comb) @ mass)

        best_pi = float(pis[best])
        best_p = scalar(best_pi)
        lo = max(best_pi - step, step * 1e-6)
        hi = min(best_pi + step, 1.0 - step * 1e-6)
        pi, p = _golden_max(scalar, lo, hi)
        if p > best_p:
            best_pi, best_p = pi, p
        out[side] = (min(best_p, 1.0), best_pi)
    return out

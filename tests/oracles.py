"""Brute-force oracles, deliberately independent of the code they cross-check."""

from __future__ import annotations

import itertools
import math
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


def oracle_barnard_dense(cells: tuple[int, int, int, int],
                         step: float) -> dict[str, tuple[float, float]]:
    """Barnard's (p, nuisance argmax) for each tail by the dense per-tail search.

    The search barnard_test ran before its nuisance grid was blocked: one
    grid x (N+1) array per tail through _region_probability, the lowest grid
    point within a relative 1e-12 of the maximum, then _golden_max around
    it. Returns {"one": (p, argmax), "two": (p, argmax)}. The region
    (_region_log_weights) and the evaluator (_region_probability) are the
    ones barnard_test uses, so this checks only the blocking of the grid.
    """
    import numpy as np

    from collabnet.stats import _golden_max, _region_log_weights, _region_probability

    a, b, c, d = cells
    m1, m2 = a + b, c + d
    total = m1 + m2
    pis = np.arange(1, int(round(1.0 / step))) * step
    out = {}
    for side, log_weights in zip(("one", "two"), _region_log_weights(a, c, m1, m2)):
        probs = _region_probability(log_weights, total, pis)
        best = int(np.argmax(probs >= probs.max() * (1.0 - 1e-12)))
        best_pi, best_p = float(pis[best]), float(probs[best])

        def scalar(pi: float) -> float:
            return float(_region_probability(log_weights, total, np.array([pi]))[0])

        lo = max(best_pi - step, step * 1e-6)
        hi = min(best_pi + step, 1.0 - step * 1e-6)
        refined_pi, refined_p = _golden_max(scalar, lo, hi)
        if refined_p > best_p:
            best_pi, best_p = refined_pi, refined_p
        out[side] = (min(best_p, 1.0), best_pi)
    return out

"""Small-sample hypothesis tests: Mann-Whitney U and Barnard's exact test.

Both tests are implemented from first principles so that every reported
number is auditable: the Mann-Whitney exact method counts group
assignments with one subset-sum recurrence, and Barnard's test maximizes
the log-space rejection-region probability over a dense nuisance-parameter
grid with a local golden-section refinement.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .roles import ContingencyTable2x2

DEFAULT_EXACT_CAP = 25
DEFAULT_GRID_RESOLUTION = 1e-4
_REGION_EPS = 1e-12


def _norm_sf(x: float) -> float:
    """Survival function of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _midranks(values: Sequence[float]) -> list[float]:
    """Fractional ranks, 1-based; tied values share the mean of their ranks."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _u_first(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """U statistic of sample_a: the number of (a, b) pairs with a < b, ties half."""
    n1, n2 = len(sample_a), len(sample_b)
    ranks = _midranks(list(sample_a) + list(sample_b))
    r1 = sum(ranks[:n1])
    return n1 * n2 + n1 * (n1 + 1) / 2 - r1


def u_from_samples(sample_a: Sequence[float], sample_b: Sequence[float]) -> float:
    """Mann-Whitney U via midranks, reported with the min(U_a, U_b) convention."""
    if not sample_a or not sample_b:
        raise ValueError("both samples must be nonempty")
    u_a = _u_first(sample_a, sample_b)
    return min(u_a, len(sample_a) * len(sample_b) - u_a)


def _tie_corrected_sd(pooled: Sequence[float], n1: int, n2: int) -> float:
    """Standard deviation of U under the null, with the tie correction."""
    n = n1 + n2
    tie_term = 0.0
    for _, group in itertools.groupby(sorted(pooled)):
        t = len(list(group))
        tie_term += t**3 - t
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    return math.sqrt(var) if var > 0 else 0.0


def _subset_sum_counts(values: Sequence[int], k: int) -> dict[int, int]:
    """{sum: number of k-subsets} of nonnegative ints; exact, summing to C(len, k)."""
    top = sum(sorted(values, reverse=True)[:k])
    ways = [[0] * (top + 1) for _ in range(k + 1)]
    ways[0][0] = 1
    for i, v in enumerate(values):
        for m in range(min(i + 1, k), 0, -1):
            row, prev = ways[m], ways[m - 1]
            row[v:] = map(operator.add, row[v:], prev[:top + 1 - v])
    return {t: c for t, c in enumerate(ways[k]) if c}


def exact_u_distribution(n1: int, n2: int) -> dict[int, int]:
    """Null distribution of U for tie-free samples, as {u: assignment count}.

    Counts the rank sums of n1-subsets of ranks 1..n1+n2, so the result is
    exact; the counts sum to C(n1+n2, n1).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both group sizes must be at least 1")
    base = n1 * (n1 + 1) // 2
    return {t - base: c for t, c in _subset_sum_counts(range(1, n1 + n2 + 1), n1).items()}


def _exact_tail_fractions(u_a: float, n1: int, n2: int,
                          pooled: Sequence[float]) -> tuple[Fraction, Fraction]:
    """P(U* <= u_a) and P(U* >= u_a) over all C(n1+n2, n1) assignments.

    Doubled midranks are integers even with ties, and 2*U_a is base minus
    their sum over sample a (the first-sample convention of _u_first).
    """
    doubled = [int(round(2 * r)) for r in _midranks(pooled)]
    base = 2 * n1 * n2 + n1 * (n1 + 1)
    counts = _subset_sum_counts(doubled, n1)
    total = math.comb(n1 + n2, n1)
    du = int(round(2 * u_a))
    lower = sum(c for t, c in counts.items() if base - t <= du)
    upper = sum(c for t, c in counts.items() if base - t >= du)
    return Fraction(lower, total), Fraction(upper, total)


@dataclass(frozen=True)
class MwuResult:
    """Mann-Whitney outcome with full method metadata.

    u is reported with the min(U_a, U_b) convention; z keeps the sign of
    sample_a's statistic so that swapping the samples negates it. Both
    one- and two-sided p-values are retained; p echoes the configured tails.
    """

    u: float
    z: float
    p: float
    r: float
    n1: int
    n2: int
    method: str
    tails: str
    continuity_correction: bool
    p_one_sided: float
    p_two_sided: float

    def to_dict(self) -> dict:
        return {
            "test": "mann_whitney_u",
            "u": self.u,
            "z": self.z,
            "p": self.p,
            "r": self.r,
            "n1": self.n1,
            "n2": self.n2,
            "method": self.method,
            "tails": self.tails,
            "continuity_correction": self.continuity_correction,
            "p_one_sided": self.p_one_sided,
            "p_two_sided": self.p_two_sided,
        }


def _check_tails(tails: str) -> str:
    if tails not in ("one", "two"):
        raise ValueError(f"tails must be 'one' or 'two', got {tails!r}")
    return tails


def _z_score(u_a: float, mu: float, sd: float, continuity_correction: bool) -> float:
    if sd == 0.0:
        return 0.0
    delta = u_a - mu
    if continuity_correction:
        delta = math.copysign(max(abs(delta) - 0.5, 0.0), delta)
    return delta / sd


def _mwu_result(u_a: float, n1: int, n2: int, z: float, p_one: float, p_two: float,
                method: str, tails: str, continuity_correction: bool) -> MwuResult:
    """Assemble a result; U is reported as min(U_a, U_b) and r as |z| / sqrt(n1 + n2)."""
    return MwuResult(
        u=min(u_a, n1 * n2 - u_a),
        z=z,
        p=p_one if tails == "one" else p_two,
        r=abs(z) / math.sqrt(n1 + n2),
        n1=n1,
        n2=n2,
        method=method,
        tails=tails,
        continuity_correction=continuity_correction,
        p_one_sided=p_one,
        p_two_sided=p_two,
    )


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float], *,
                   tails: str = "one", continuity_correction: bool = False,
                   method: str = "normal", exact_cap: int = DEFAULT_EXACT_CAP) -> MwuResult:
    """Two-sample Mann-Whitney U test with midrank tie handling.

    Parameters
    ----------
    sample_a, sample_b : sequences of reals, both nonempty
    tails : 'one' (default) or 'two'; selects which p-value the `p` field echoes
    continuity_correction : shrink |U - mean| by 0.5 before the normal score
    method : 'normal' for the tie-corrected normal approximation, 'exact' to
        count all C(n1+n2, n1) group assignments with a subset-sum
        recurrence over doubled midranks (exact with or without ties)
    exact_cap : refuse 'exact' above this pooled size

    The effect size r is |z| / sqrt(n1 + n2) in every mode.
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be nonempty")
    _check_tails(tails)
    if method not in ("normal", "exact"):
        raise ValueError(f"method must be 'normal' or 'exact', got {method!r}")
    n1, n2 = len(sample_a), len(sample_b)
    n = n1 + n2
    pooled = list(sample_a) + list(sample_b)
    u_a = _u_first(sample_a, sample_b)
    mu = n1 * n2 / 2.0
    sd = _tie_corrected_sd(pooled, n1, n2)
    z = _z_score(u_a, mu, sd, continuity_correction)

    if method == "exact":
        if n > exact_cap:
            raise ValueError(f"exact method capped at pooled size {exact_cap}, got {n}")
        lower, upper = _exact_tail_fractions(u_a, n1, n2, pooled)
        p_one = float(lower if u_a <= mu else upper)
        p_two = float(min(1, 2 * min(lower, upper)))
    else:
        p_one = _norm_sf(abs(z))
        p_two = min(1.0, 2.0 * p_one)

    return _mwu_result(u_a, n1, n2, z, p_one, p_two, method, tails, continuity_correction)


def mann_whitney_from_u(u: float, n1: int, n2: int, *, tails: str = "one",
                        continuity_correction: bool = False) -> MwuResult:
    """Normal-approximation result from a reported U and the group sizes alone.

    No raw data means no tie correction; z carries the sign of (u - mean),
    which is nonpositive when u follows the min convention.
    """
    _check_tails(tails)
    if n1 < 1 or n2 < 1:
        raise ValueError("both group sizes must be at least 1")
    if not (0 <= u <= n1 * n2):
        raise ValueError(f"u must be in [0, {n1 * n2}], got {u}")
    n = n1 + n2
    mu = n1 * n2 / 2.0
    sd = math.sqrt(n1 * n2 * (n + 1) / 12.0)
    z = _z_score(u, mu, sd, continuity_correction)
    p_one = _norm_sf(abs(z))
    p_two = min(1.0, 2.0 * p_one)
    return _mwu_result(u, n1, n2, z, p_one, p_two, "normal", tails, continuity_correction)


# ---------------------------------------------------------------------------
# Barnard's exact unconditional test
# ---------------------------------------------------------------------------

def wald_pooled_statistic(table: ContingencyTable2x2) -> float:
    """Pooled-variance score statistic for a 2x2 table of two proportions.

    Rows are the two binomial samples (sizes a+b and c+d). Degenerate pooled
    proportions (0 or 1) return 0 so such tables never look extreme.
    """
    a, b, c, d = table.cells()
    m1, m2 = a + b, c + d
    if m1 == 0 or m2 == 0:
        raise ValueError("both row sums must be positive")
    return float(_pooled_scores(a, c, m1, m2))


def _pooled_scores(x1, x2, m1: int, m2: int) -> np.ndarray:
    """Pooled score statistic of the tables (x1, m1-x1, x2, m2-x2); broadcasts."""
    pooled = (x1 + x2) / (m1 + m2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (x1 / m1 - x2 / m2) / np.sqrt(pooled * (1 - pooled) * (1 / m1 + 1 / m2))
    return np.where((pooled == 0.0) | (pooled == 1.0), 0.0, t)


@dataclass(frozen=True)
class BarnardResult:
    """Barnard outcome: statistic, maximized p, and the maximizing nuisance."""

    t: float
    p: float
    nuisance_argmax: float
    grid_resolution: float
    tails: str
    table: tuple[int, int, int, int]
    p_one_sided: float
    p_two_sided: float

    def to_dict(self) -> dict:
        return {
            "test": "barnard",
            "t": self.t,
            "p": self.p,
            "nuisance_argmax": self.nuisance_argmax,
            "grid_resolution": self.grid_resolution,
            "tails": self.tails,
            "table": list(self.table),
            "p_one_sided": self.p_one_sided,
            "p_two_sided": self.p_two_sided,
        }


def _region_log_weights(scores: np.ndarray, t_obs: float, tails: str) -> np.ndarray:
    """log sum of C(m1,x1)*C(m2,x2) over rejection cells of scores[x1, x2], by x1+x2."""
    if tails == "two":
        hit = np.abs(scores) >= abs(t_obs) - _REGION_EPS
    elif t_obs >= 0:
        hit = scores >= t_obs - _REGION_EPS
    else:
        hit = scores <= t_obs + _REGION_EPS
    m1, m2 = scores.shape[0] - 1, scores.shape[1] - 1
    x1, x2 = np.nonzero(hit)
    lf = np.array([math.lgamma(x + 1) for x in range(m1 + m2 + 1)])
    log_terms = (lf[m1] - lf[x1] - lf[m1 - x1]) + (lf[m2] - lf[x2] - lf[m2 - x2])
    s = x1 + x2
    peak = np.full(m1 + m2 + 1, -np.inf)
    np.maximum.at(peak, s, log_terms)
    sums = np.bincount(s, weights=np.exp(log_terms - peak[s]), minlength=peak.size)
    with np.errstate(divide="ignore"):
        return peak + np.log(sums)


def _region_probability(log_weights: np.ndarray, total: int, pis: np.ndarray) -> np.ndarray:
    """P(region | pi) = sum_s exp(logW_s + s log pi + (total-s) log(1-pi)); terms <= 1."""
    ss = np.nonzero(np.isfinite(log_weights))[0]
    log_q = np.log1p(-pis)  # s*log(pi) + (total-s)*log_q, as one array built in place
    terms = np.multiply.outer(np.log(pis) - log_q, ss)
    terms += log_weights[ss]
    terms += (total * log_q)[:, None]
    return np.exp(terms, out=terms).sum(axis=1)


def _golden_max(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def _max_region_probability(log_weights: np.ndarray, total: int,
                            step: float) -> tuple[float, float]:
    """Maximize the region probability over the nuisance grid, then refine.

    The grid argmax is the lowest point within a relative 1e-12 of the maximum,
    since a two-sided region's mirror peaks at pi and 1-pi tie up to rounding.
    """
    k = int(round(1.0 / step))
    pis = np.arange(1, k) * step
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
    return min(best_p, 1.0), best_pi


def barnard_test(table: ContingencyTable2x2, *, tails: str = "two",
                 grid_resolution: float = DEFAULT_GRID_RESOLUTION) -> BarnardResult:
    """Barnard's exact unconditional test for a 2x2 table.

    For every nuisance value pi on a grid over (0, 1), sums the probability
    of all tables at least as extreme as the observed one (by the pooled
    score statistic, absolute for two-sided, signed for one-sided) under
    independent Binomial(m1, pi) and Binomial(m2, pi) rows. The p-value is
    the maximum over the grid, sharpened by one golden-section refinement
    around the grid argmax.

    grid_resolution is the grid step; the default 1e-4 places 9999 interior
    points, enough for two-digit reproducibility on desk-scale tables.
    """
    _check_tails(tails)
    if not (0.0 < grid_resolution <= 0.1):
        raise ValueError(f"grid_resolution must be in (0, 0.1], got {grid_resolution}")
    a, b, c, d = table.cells()
    m1, m2 = a + b, c + d
    if m1 == 0 or m2 == 0:
        raise ValueError("both row sums must be at least 1")
    scores = _pooled_scores(np.arange(m1 + 1)[:, None], np.arange(m2 + 1)[None, :], m1, m2)
    t_obs = float(scores[a, c])

    results = {side: _max_region_probability(_region_log_weights(scores, t_obs, side),
                                             m1 + m2, grid_resolution)
               for side in ("one", "two")}
    p_one, argmax_one = results["one"]
    p_two, argmax_two = results["two"]
    p, argmax = (p_one, argmax_one) if tails == "one" else (p_two, argmax_two)
    return BarnardResult(
        t=t_obs,
        p=p,
        nuisance_argmax=argmax,
        grid_resolution=grid_resolution,
        tails=tails,
        table=(a, b, c, d),
        p_one_sided=p_one,
        p_two_sided=p_two,
    )

"""Small-sample hypothesis tests: Mann-Whitney U and Barnard's exact test.

Both tests are implemented from first principles so that every reported
number is auditable. Mann-Whitney ranks the pooled sample once, in doubled
integer midranks, which give U, the normal method's tie correction and the
exact method's counts; the exact method counts group assignments with one
subset-sum recurrence on packed Python ints, exact at any size. Barnard's
test holds its rejection region as one vector of hypergeometric masses per
tail and maximizes the region probability, the binomial pmf dotted with
those masses, over a dense nuisance-parameter grid with a local
golden-section refinement; t = 0 gives p = 1 unsearched.

numpy serves only that search and is imported inside the functions that
use it, so importing this module, or collabnet, does not load it, and
neither do the exact Mann-Whitney method, wald_pooled_statistic and a
Barnard call with t = 0; the first search in a process pays for the import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .roles import ContingencyTable2x2

if TYPE_CHECKING:
    import numpy as np

DEFAULT_EXACT_CAP = 220  # a tied 110 + 110 split runs in about 1 s
DEFAULT_GRID_RESOLUTION = 1e-4
_GRID_BLOCK = 1 << 17  # floats per block held at once by the region pass and the grid
_GOLDEN_ITERS = 60


def _norm_sf(x: float) -> float:
    """Survival function of the standard normal."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _doubled_midranks(values: Sequence[float]) -> tuple[list[int], int]:
    """Twice the 1-based midranks, as ints, and the tie term sum(t**3 - t).

    A group of t equal values after `below` smaller ones shares the midrank
    below + (t + 1) / 2, so its doubled midrank 2*below + t + 1 is an integer
    with or without ties.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks2 = [0] * len(values)
    tie_term = below = 0
    for _, group in itertools.groupby(order, key=values.__getitem__):
        group = list(group)
        t = len(group)
        for i in group:
            ranks2[i] = 2 * below + t + 1
        tie_term += t**3 - t
        below += t
    return ranks2, tie_term


def _subset_sum_counts(values: Sequence[int], k: int) -> dict[int, int]:
    """{sum: number of k-subsets} of nonnegative ints; exact, summing to C(len, k).

    rows[m] is the generating polynomial of the m-subsets of the values seen
    so far, sum_t count(t) * x**t, evaluated at x = 2**width, so adding a
    value v is one shift-and-add per row. That identity holds at any width;
    the width only has to hold each count of rows[k], at most C(len, k), for
    its fields to be read back apart. A row below k - (values left) can no
    longer reach rows[k] and is not updated, and the values are divided by
    their gcd and taken in ascending order, so the rows grow as late as they
    can.
    """
    n = len(values)
    nbytes = max(1, (math.comb(n, k).bit_length() + 7) // 8)
    width = 8 * nbytes
    g = math.gcd(*values) or 1
    rows = [1] + [0] * k
    for i, v in enumerate(sorted(values)):
        shift = v // g * width
        for m in range(min(i + 1, k), max(0, k - n + i), -1):
            rows[m] += rows[m - 1] << shift
    packed = rows[k]
    data = packed.to_bytes(-(-packed.bit_length() // width) * nbytes, "little")
    counts = {}
    for t, lo in enumerate(range(0, len(data), nbytes)):
        c = int.from_bytes(data[lo:lo + nbytes], "little")
        if c:
            counts[t * g] = c
    return counts


def exact_u_distribution(n1: int, n2: int) -> dict[int, int]:
    """Null distribution of U for tie-free samples, as {u: assignment count}.

    Counts the rank sums of n1-subsets of ranks 1..n1+n2, so the result is
    exact; the counts sum to C(n1+n2, n1).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("both group sizes must be at least 1")
    base = n1 * (n1 + 1) // 2
    return {t - base: c for t, c in _subset_sum_counts(range(1, n1 + n2 + 1), n1).items()}


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
                   method: str = "normal") -> MwuResult:
    """Two-sample Mann-Whitney U test with midrank tie handling.

    Parameters
    ----------
    sample_a, sample_b : sequences of reals, both nonempty
    tails : 'one' (default) or 'two'; selects which p-value the `p` field echoes
    continuity_correction : shrink |U - mean| by 0.5 before the normal score
    method : 'normal' for the tie-corrected normal approximation, 'exact' to
        count all C(n1+n2, n1) group assignments with a subset-sum
        recurrence over doubled midranks, in packed Python ints, so the
        counts are exact with or without ties and at any size; refused above
        a pooled size of DEFAULT_EXACT_CAP (220), where one tied, balanced
        call takes about a second

    U_a counts the (a, b) pairs with a < b, ties half. One ranking of the
    pooled sample in doubled integer midranks gives 2*U_a as an exact int,
    the tie term of the normal method's sd, and the values the exact method
    sums. The effect size r is |z| / sqrt(n1 + n2) in every mode.
    """
    if not sample_a or not sample_b:
        raise ValueError("both samples must be nonempty")
    _check_tails(tails)
    if method not in ("normal", "exact"):
        raise ValueError(f"method must be 'normal' or 'exact', got {method!r}")
    n1, n2 = len(sample_a), len(sample_b)
    n = n1 + n2
    ranks2, tie_term = _doubled_midranks(list(sample_a) + list(sample_b))
    # 2*U_a from sample a's doubled rank sum, an exact int with or without ties
    rank_sum2 = sum(ranks2[:n1])
    u_a = (2 * n1 * n2 + n1 * (n1 + 1) - rank_sum2) / 2
    mu = n1 * n2 / 2.0
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    sd = math.sqrt(var) if var > 0 else 0.0
    z = _z_score(u_a, mu, sd, continuity_correction)

    if method == "exact":
        if n > DEFAULT_EXACT_CAP:
            raise ValueError(
                f"exact method capped at pooled size {DEFAULT_EXACT_CAP}, got {n}")
        # U* falls as an assignment's doubled rank sum rises: U* <= U_a is sum >= rank_sum2
        counts = _subset_sum_counts(ranks2, n1)
        lower = sum(c for t, c in counts.items() if t >= rank_sum2)
        upper = sum(c for t, c in counts.items() if t <= rank_sum2)
        total = math.comb(n, n1)
        # int / int is correctly rounded, so p is the nearest float to the exact ratio
        p_one = (lower if u_a <= mu else upper) / total
        p_two = min(total, 2 * min(lower, upper)) / total
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
    pooled = (a + c) / (m1 + m2)
    if pooled in (0.0, 1.0):
        return 0.0
    return (a / m1 - c / m2) / math.sqrt(pooled * (1 - pooled) * (1 / m1 + 1 / m2))


@dataclass(frozen=True)
class BarnardResult:
    """Barnard outcome: statistic, maximized p, and the maximizing nuisance.

    nuisance_argmax 0.0 means the supremum is the limit pi -> 0: a table with
    t = 0, whose p is 1 for both tails.
    """

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


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    import numpy as np

    return np.array([math.lgamma(x + 1) for x in range(n + 1)])


def _region_masses(a: int, c: int, m1: int, m2: int, lf: np.ndarray,
                   log_comb: np.ndarray) -> np.ndarray:
    """Sum of C(m1,x1)*C(m2,x2)/C(N,s) over each tail's rejection region, by s = x1+x2.

    Each h_s is a hypergeometric mass in [0, 1] (Vandermonde's identity) and
    each term is <= 1, so terms lost to underflow move p by at most about
    N*1e-308; lf is log k! and log_comb log C(N, s). Row 0 is the one-sided
    region of the observed table (a, c), row 1 the two-sided one. With
    D = x1*N - s*m1 on the diagonal s, the pooled score is
    T = D * sqrt(N / (m1*m2*s*(N-s))), so |T| >= |t_obs| holds exactly when
    D**2 * s_o*(N-s_o) >= D_o**2 * s*(N-s):
    the two-sided region is D >= far_s or D <= -far_s, with far_s the least
    such D >= 0, and the one-sided region keeps the side of sign(D_o). The
    bounds are Python ints, so no tolerance decides a tie. The cells with s
    in {0, N} score 0 and enter only when t_obs = 0. Diagonals are filled
    _GRID_BLOCK cells at a time, each block as wide as its widest diagonal,
    and every diagonal is summed in ascending x1, so memory stays linear in
    N and the masses do not depend on the block size.
    """
    import numpy as np

    n = m1 + m2
    s_o = a + c
    d_o = a * n - s_o * m1
    # D = 0 on s in {0, N}, so far_s = 1 keeps those cells out when t_obs != 0
    far = np.array([0 if d_o == 0 else 1 if s in (0, n)
                    else math.isqrt((d_o * d_o * s * (n - s) - 1) // (s_o * (n - s_o))) + 1
                    for s in range(n + 1)])
    ss = np.arange(n + 1)
    first = np.maximum(ss - m2, 0)  # x1 runs over first..last on diagonal s
    last = np.minimum(ss, m1)
    out = np.empty((2, n + 1))
    rows = max(1, _GRID_BLOCK // (min(m1, m2) + 1))
    for lo in range(0, n + 1, rows):
        block = slice(lo, lo + rows)
        s, start, end = ss[block, None], first[block, None], last[block, None]
        x1 = start + np.arange((end - start).max() + 1)
        inside = x1 <= end
        x1 = np.minimum(x1, end)
        x2 = s - x1
        terms = np.exp((lf[m1] - lf[x1] - lf[m1 - x1]) + (lf[m2] - lf[x2] - lf[m2 - x2])
                       - log_comb[s])
        dist = x1 * n - s * m1
        upper = inside & (dist >= far[block, None])
        lower = inside & (dist <= -far[block, None])
        for row, hit in enumerate((upper if d_o >= 0 else lower, upper | lower)):
            out[row, block] = np.cumsum(np.where(hit, terms, 0.0), axis=1)[:, -1]
    return out


def _binomial_pmf(pis, log_comb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Binomial(N, pi) pmf over s = 0..N, one row per pi (a float or an array).

    Dotted with a tail's masses it is P(region | pi), on the grid and at single points.
    """
    import numpy as np

    log_q = np.log1p(-pis)
    pmf = np.multiply.outer(np.log(pis) - log_q, np.arange(log_comb.size), out=out)
    pmf += log_comb
    pmf += (log_q * (log_comb.size - 1))[..., None]
    return np.exp(pmf, out=pmf)


def _nuisance_grid(masses: np.ndarray, log_comb: np.ndarray, pis: np.ndarray) -> np.ndarray:
    """P(region | pi) on the grid pis per row of masses, in _GRID_BLOCK floats of pmf."""
    import numpy as np

    out = np.empty((len(masses), pis.size))
    rows = max(1, _GRID_BLOCK // log_comb.size)
    buf = np.empty((min(rows, pis.size), log_comb.size))
    for lo in range(0, pis.size, rows):
        block = pis[lo:lo + rows]
        pmf = _binomial_pmf(block, log_comb, out=buf[:block.size])
        for mass, row in zip(masses, out):
            np.dot(pmf, mass, out=row[lo:lo + block.size])
    return out


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERS):
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


def _supremum(mass: np.ndarray, log_comb: np.ndarray, pis: np.ndarray, probs: np.ndarray,
              step: float) -> tuple[float, float]:
    """Pick the grid maximum of probs and refine it with a golden-section pass.

    The grid argmax is the lowest point within a relative 1e-12 of the maximum,
    since a two-sided region's mirror peaks at pi and 1-pi tie up to rounding.
    The grid only chooses the bracket: the reported probabilities come from
    single points. For t != 0 the limits P(0+) = h_0 and P(1-) = h_N are 0,
    since the cells with s in {0, N} score 0, so no interior point loses to them.
    """
    import numpy as np

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
    return min(best_p, 1.0), best_pi


def barnard_test(table: ContingencyTable2x2, *, tails: str = "two",
                 grid_resolution: float = DEFAULT_GRID_RESOLUTION) -> BarnardResult:
    """Barnard's exact unconditional test for a 2x2 table.

    For every nuisance value pi on a grid over (0, 1), sums the probability
    of all tables at least as extreme as the observed one (by the pooled
    score statistic, absolute for two-sided, signed for one-sided) under
    independent Binomial(m1, pi) and Binomial(m2, pi) rows, as the Binomial(N,
    pi) pmf dotted with the region's hypergeometric masses. The p-value is the
    grid maximum, refined by a golden-section pass around the grid argmax.
    A table with t = 0 (a*m2 == c*m1) has p = 1 for both tails, the limit as
    pi -> 0, and returns it with argmax 0.0 before any search.

    grid_resolution is the grid step, in [1e-6, 0.1]; the default 1e-4 places
    9999 interior points, enough for two-digit reproducibility on desk-scale
    tables. The region is decided exactly in integers and both tails' masses
    and grid are evaluated in fixed-size blocks, so memory grows with neither
    m1 x m2 nor grid x total; the lower bound caps the grid at a
    million points to bound run time. The first search in a process imports
    numpy, which importing collabnet does not.
    """
    _check_tails(tails)
    if not (1e-6 <= grid_resolution <= 0.1):
        raise ValueError(f"grid_resolution must be in [1e-06, 0.1], got {grid_resolution}")
    a, b, c, d = table.cells()
    m1, m2 = a + b, c + d
    if m1 == 0 or m2 == 0:
        raise ValueError("both row sums must be at least 1")
    t_obs = wald_pooled_statistic(table)
    if a * m2 == c * m1:
        # both regions hold the s = 0 cell, whose probability tends to 1 as pi -> 0
        return BarnardResult(t=t_obs, p=1.0, nuisance_argmax=0.0,
                             grid_resolution=grid_resolution, tails=tails,
                             table=(a, b, c, d), p_one_sided=1.0, p_two_sided=1.0)
    import numpy as np

    n = m1 + m2
    lf = _log_factorials(n)
    log_comb = lf[n] - lf - lf[::-1]
    masses = _region_masses(a, c, m1, m2, lf, log_comb)
    pis = np.arange(1, int(round(1.0 / grid_resolution))) * grid_resolution
    grid = _nuisance_grid(masses, log_comb, pis)
    (p_one, argmax_one), (p_two, argmax_two) = (
        _supremum(mass, log_comb, pis, probs, grid_resolution)
        for mass, probs in zip(masses, grid))
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

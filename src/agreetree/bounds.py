"""Closed-form guarantee constants and bound evaluators.

Every logarithm in this package is base 2; that convention is library-wide.
Integer quantities (the extremal leaf-count ``f`` and its bounds) use exact
integer arithmetic; real-valued bounds use doubles and callers compare with
a 1e-9 slack.  Bounds that fall at or below 1 are clamped to 1 in reports,
since a single shared leaf is always an agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

LOG2 = math.log2

# Largest delta for which the pairwise-balanced constant beta stays positive.
BETA_DELTA_SUP = 1 / 3 - 1 / (3 * math.sqrt(2))

SLACK = 1e-9


def alpha(delta: float) -> float:
    """Guarantee density for matching against one balanced tree:
    (1 + log(1-d)) / (1 - log d), valid for d in (0, 1/2)."""
    if not 0 < delta < 0.5:
        raise ValueError(f"alpha needs delta in (0, 1/2), got {delta}")
    return (1 + LOG2(1 - delta)) / (1 - LOG2(delta))


def match1_bound(m: int, t: int, delta: float) -> float:
    """Lower bound on the one-balanced matcher's output size when the
    balanced side has height m and t leaves are shared:
    (m log(1-d) + log t) / (1 - log d)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if not 0 < delta < 0.5:
        raise ValueError(f"match1_bound needs delta in (0, 1/2), got {delta}")
    return (m * LOG2(1 - delta) + LOG2(t)) / (1 - LOG2(delta))


def beta(delta: float) -> float:
    """Guarantee exponent for matching two balanced trees:
    (1 + 2 log(1-3d)) / (log(1-3d) - log d); positive for
    d in (0, 1/3 - 1/(3*sqrt 2))."""
    if not 0 < delta < BETA_DELTA_SUP:
        raise ValueError(
            f"beta needs delta in (0, {BETA_DELTA_SUP:.6f}), got {delta}"
        )
    return (1 + 2 * LOG2(1 - 3 * delta)) / (LOG2(1 - 3 * delta) - LOG2(delta))


def match2_bound(m1: int, m2: int, t: int, delta: float) -> float:
    """Lower bound 2^g on the two-balanced matcher's output size, with
    g = ((m1+m2) log(1-3d) + log t) / (log(1-3d) - log d); d in (0, 1/4)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if m1 < 0 or m2 < 0:
        raise ValueError("heights must be >= 0")
    if not 0 < delta < 0.25:
        raise ValueError(f"match2_bound needs delta in (0, 1/4), got {delta}")
    g = ((m1 + m2) * LOG2(1 - 3 * delta) + LOG2(t)) / (
        LOG2(1 - 3 * delta) - LOG2(delta)
    )
    return 2.0**g


def alpha_k(k: float, delta: float) -> float:
    """Almost-balanced variant of alpha: (1 + k log(1-d)) / (1 - log d).
    The numerator must be positive (pick delta via delta_for_alpha_k)."""
    if not 0 < delta < 0.5:
        raise ValueError(f"alpha_k needs delta in (0, 1/2), got {delta}")
    num = 1 + k * LOG2(1 - delta)
    if num <= 0:
        raise ValueError(f"delta={delta} too large for k={k}: 1 + k log(1-d) <= 0")
    return num / (1 - LOG2(delta))


def beta_k(k: float, delta: float) -> float:
    """Almost-balanced variant of beta: (1 + 2k log(1-3d)) / (log(1-3d) - log d)."""
    if not 0 < delta < 0.25:
        raise ValueError(f"beta_k needs delta in (0, 1/4), got {delta}")
    num = 1 + 2 * k * LOG2(1 - 3 * delta)
    if num <= 0:
        raise ValueError(f"delta={delta} too large for k={k}: 1 + 2k log(1-3d) <= 0")
    return num / (LOG2(1 - 3 * delta) - LOG2(delta))


def delta_for_alpha_k(k: float) -> float:
    """A delta making alpha_k valid with margin: solves 1 + k log(1-d) = 1/2."""
    if k <= 0:
        raise ValueError("k must be positive")
    return 1 - 2 ** (-0.5 / k)


def delta_for_beta_k(k: float) -> float:
    """A delta making beta_k valid with margin: solves 1 + 2k log(1-3d) = 1/2."""
    if k <= 0:
        raise ValueError("k must be positive")
    return (1 - 2 ** (-0.25 / k)) / 3


def t2_constant(delta: float) -> float:
    """Additive exponent loss for vertex-centered balanced pairs:
    c = (log 3 - 1) / (log(1-3d) - log d)."""
    if not 0 < delta < 0.25:
        raise ValueError(f"t2_constant needs delta in (0, 1/4), got {delta}")
    return (LOG2(3) - 1) / (LOG2(1 - 3 * delta) - LOG2(delta))


# --------------------------------------------------------------------------
# Numeric optimisation of the constants
# --------------------------------------------------------------------------


def _golden_max(f, lo: float, hi: float, tol: float = 1e-9):
    """Golden-section maximisation of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


def grid_max(f, lo: float, hi: float, steps: int = 200_000):
    """Plain grid maximisation; the independent cross-check optimiser."""
    best_x, best_v = lo, -math.inf
    for i in range(1, steps):
        x = lo + (hi - lo) * i / steps
        v = f(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


@lru_cache(maxsize=1)
def optimal_delta_match1() -> tuple:
    """(delta*, alpha*) maximising alpha over (0, 1/2); approximately
    (0.1705, 0.2055)."""
    return _golden_max(alpha, 1e-9, 0.5 - 1e-9, tol=1e-9)


@lru_cache(maxsize=1)
def optimal_delta_match2() -> tuple:
    """(delta*, beta*) maximising beta over its positive domain (computed
    numerically; no closed form is claimed for the optimum)."""
    return _golden_max(beta, 1e-9, BETA_DELTA_SUP - 1e-9, tol=1e-9)


# --------------------------------------------------------------------------
# Extremal leaf counts f(h, k)
# --------------------------------------------------------------------------


def f_closed(h: int, k: int) -> int:
    """Max leaves of a height-<=h rooted tree with no balanced restriction
    higher than k: sum_{i=0..k} C(h-i-1, k-i) * 2^i (2^k if h=k or k=0)."""
    _check_hk(h, k)
    if h == k or k == 0:
        return 2**k
    return sum(math.comb(h - i - 1, k - i) * 2**i for i in range(k + 1))


def f_recurrence(h: int, k: int) -> int:
    """Same quantity by the recurrence f(h,k) = f(h-1,k) + f(h-1,k-1), with
    f = 2^k when h == k or k == 0, filled row by row over h."""
    _check_hk(h, k)
    row = [1]  # row[j] = f(i, j) for j <= min(i, k); first i = 0
    for i in range(1, h + 1):
        nxt = [1] + [row[j] + row[j - 1] for j in range(1, min(i, k + 1))]
        if i <= k:
            nxt.append(2**i)
        row = nxt
    return row[k]


def _check_hk(h, k):
    if not 0 <= k <= h:
        raise ValueError(f"need 0 <= k <= h, got h={h}, k={k}")


def fhk_upper(h: int, k: int) -> bool:
    """Exact check of f(h,k) <= (2h)^k for 1 <= k <= h."""
    if not 1 <= k <= h:
        raise ValueError(f"need 1 <= k <= h, got h={h}, k={k}")
    return f_closed(h, k) <= (2 * h) ** k


# --------------------------------------------------------------------------
# Decomposition thresholds and the general guarantee
# --------------------------------------------------------------------------


def phi(n: int, a: float) -> float:
    """Balanced-height threshold (log n)^a / 2."""
    if n <= 2:
        raise ValueError("phi needs n > 2")
    if not 0 < a < 1:
        raise ValueError("a must lie in (0, 1)")
    return LOG2(n) ** a / 2


def psi(n: int, b: float) -> float:
    """Path-length threshold exponent (log n)^b / log log n."""
    if n <= 2:
        raise ValueError("psi needs n > 2")
    if not 0 < b < 1:
        raise ValueError("b must lie in (0, 1)")
    return LOG2(n) ** b / LOG2(LOG2(n))


def general_bound(n: int) -> float:
    """Guaranteed agreement size for arbitrary pairs:
    (alpha*/2) sqrt(log n) + alpha* log(2/3)."""
    if n <= 2:
        raise ValueError("general_bound needs n > 2")
    _, a_star = optimal_delta_match1()
    return a_star / 2 * math.sqrt(LOG2(n)) + a_star * LOG2(2 / 3)


def clamp(bound: float) -> float:
    """Report clamp: any nonempty shared leaf set yields >= 1 agreed leaf."""
    return max(1.0, bound)


@dataclass
class GuaranteeReport:
    """A guarantee bound next to what an algorithm actually achieved."""

    algorithm: str
    bound_value: float  # already clamped to >= 1
    achieved: int
    params: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.achieved >= self.bound_value - SLACK

"""Welch's t-test and Holm-Bonferroni correction, self-contained.

``compare_groups`` is the one report: ``memgrad stats`` writes and prints
it, and ``config.reproduce`` takes its pairwise p-values from it.  The
two-tailed p-value goes through the Student-t survival function, evaluated
via the regularized incomplete beta function.  The incomplete beta uses the
modified Lentz continued fraction with relative tolerance 1e-12 and is
oracle-tested against arbitrary-precision evaluation.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

__all__ = [
    "regularized_incomplete_beta",
    "student_t_two_tailed_p",
    "welch_t_test",
    "holm_bonferroni",
    "compare_groups",
]

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 500
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise RuntimeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # the continued fraction converges fast only below the symmetry point
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(sample_a, sample_b) -> float:
    """Two-tailed Welch's t-test p-value, Welch-Satterthwaite degrees of freedom.

    Degenerate zero-variance samples follow the natural convention: equal
    means give p = 1, different means give p = 0.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 values")
    va, vb = a.var(ddof=1) / len(a), b.var(ddof=1) / len(b)
    pooled = va + vb
    if pooled == 0.0:
        return 1.0 if a.mean() == b.mean() else 0.0
    t = (a.mean() - b.mean()) / math.sqrt(pooled)
    df = pooled ** 2 / (va ** 2 / (len(a) - 1) + vb ** 2 / (len(b) - 1))
    return student_t_two_tailed_p(float(t), float(df))


def holm_bonferroni(p_values, alpha: float = 0.05) -> list[bool]:
    """Step-down Holm-Bonferroni decisions (True = reject) in input order."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    p = list(map(float, p_values))
    m = len(p)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda k: p[k])
    decisions = [False] * m
    for rank, k in enumerate(order):
        if p[k] <= alpha / (m - rank):
            decisions[k] = True
        else:
            break  # step-down: once one survives, all larger p survive too
    return decisions


def compare_groups(samples: dict[str, list[float]], alpha: float = 0.05) -> dict:
    """The ``stats.json`` report of named groups of values.

    Each group's mean and std (ddof 1), then every pair of names in
    ``combinations`` order with its Welch p-value and Holm decision at
    ``alpha``, then ``alpha``.
    """
    if len(samples) < 2:
        raise ValueError("need >= 2 groups")
    arrays = {n: np.asarray(v, dtype=float) for n, v in samples.items()}
    for n, v in arrays.items():
        if len(v) < 2:
            raise ValueError(f"group {n!r} needs at least 2 values")
    pairs = list(combinations(arrays, 2))
    p_values = [welch_t_test(arrays[a], arrays[b]) for a, b in pairs]
    return {
        "groups": {n: {"mean": float(v.mean()), "std": float(v.std(ddof=1))}
                   for n, v in arrays.items()},
        "pairwise": [{"a": a, "b": b, "p_value": p, "reject": r}
                     for (a, b), p, r in zip(pairs, p_values,
                                             holm_bonferroni(p_values, alpha))],
        "alpha": alpha,
    }

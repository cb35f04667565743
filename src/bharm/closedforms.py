"""Closed-form reference families on the example diagrams.

These are the regression oracles the verification suite compares solver
output against: the integer-valued harmonic function on the Pascal lattice,
the symmetric harmonic function on the weighted binary tree (with its
two-path energy reduction), and the repeating-diagram formula family.
"""
from __future__ import annotations

import numpy as np

from .diagram import Diagram
from .operators import LevelFunction


def pascal_value(n: int, i: int) -> float:
    """h(n, i) = n(n+1)/2 - i(n+1); antisymmetric across each level."""
    if n == 0:
        return 0.0
    return n * (n + 1) / 2.0 - i * (n + 1)


def pascal_harmonic(depth: int) -> LevelFunction:
    return LevelFunction([np.array([pascal_value(n, i) for i in range(n + 1)])
                          for n in range(depth + 1)])


def pascal_pins(depth: int) -> dict:
    """Per-level pin of the leftmost coordinate, h(n, 0) = n(n+1)/2."""
    return {n: {0: pascal_value(n, 0)} for n in range(2, depth + 1)}


def tree_path_value(n: int, lam: float) -> float:
    """Value of the symmetric tree function on the top extreme path,
    s_n = (1 + lam + ... + lam^{n-1}) / lam^{n-2}; s_0 = 0, s_1 = lam."""
    if n == 0:
        return 0.0
    if lam == 1.0:
        return float(n)
    return (lam ** n - 1.0) / ((lam - 1.0) * lam ** (n - 2))


def tree_symmetric_harmonic(depth: int, lam: float) -> LevelFunction:
    """The symmetric tree function: +-s_n on the extreme paths, constant on
    each hanging subtree (every non-extreme vertex inherits its parent)."""
    values = [np.zeros(1)]
    for n in range(1, depth + 1):
        v = np.repeat(values[-1], 2) if n > 1 else np.zeros(2)
        v[0] = tree_path_value(n, lam)
        v[-1] = -tree_path_value(n, lam)
        values.append(v)
    return LevelFunction(values)


def tree_pins(depth: int, lam: float) -> dict:
    """Pins for the recursion: both extreme path vertices per level."""
    return {n: {0: tree_path_value(n, lam), 2 ** n - 1: -tree_path_value(n, lam)}
            for n in range(2, depth + 1)}


def tree_energy_increments(lam: float, depth: int) -> list:
    """Exact per-edge-level energy of the symmetric tree function.

    Only the two extreme paths contribute (the function is constant on the
    hanging subtrees): increment 2 lam^n (s_{n+1} - s_n)^2, with drop lam at
    the root edges and lam^{1-n} deeper.
    """
    out = []
    for n in range(depth):
        drop = lam if n == 0 else lam ** (1 - n)
        out.append(2.0 * lam ** n * drop * drop)
    return out


def tree_energy_series(lam: float, terms: int) -> float:
    """The two-path series sum_{i>=1} (lam^{3-i} + lam^{2-i}).

    Relation to the edge-sum energy, recorded by the regression tests:
    edge sum = series + lam^2 (the series counts each extreme-path edge
    twice except the root edges, which appear once).
    """
    return float(sum(lam ** (3 - i) + lam ** (2 - i) for i in range(1, terms + 1)))


def stationary_kappa(n: int, lam: float) -> float:
    """Growth factor sum_{i=0}^{n-1} lam^{-i} of the formula family."""
    return float(sum(lam ** -i for i in range(n)))


def stationary_formula(d: Diagram, f_1: np.ndarray) -> LevelFunction:
    """The repeating-diagram formula family f_n = f_1 * kappa_n, f_0 = 0.

    Note: on diagrams with a connected repeating matrix this family is
    genuinely harmonic only for constant f_1 (the verification suite checks
    the residuals explicitly).
    """
    rule = d.extension
    if rule is None:
        raise ValueError("diagram was not built by the stationary generator")
    f_1 = np.asarray(f_1, dtype=float).reshape(-1)
    values = [np.zeros(1)]
    for n in range(1, d.num_levels + 1):
        values.append(f_1 * stationary_kappa(n, rule.lam))
    return LevelFunction(values)

"""Krylov references for the observability and deadbeat tests.

The stacked powers [C; CA; ...; CA^(n-1)] lose small directions at moderate
n, so the package decides observability and designs deadbeat gains on the
deflating staircase instead.  The tests keep these textbook forms to check
it against.
"""

import math
from fractions import Fraction

import numpy as np


def observability_matrix(a, c):
    """Stack [C; CA; ...; CA^(n-1)] for the pair (A, C)."""
    blocks = []
    block = c
    for _ in range(a.shape[0]):
        blocks.append(block)
        block = block @ a
    return np.vstack(blocks)


def default_rank_tol(n):
    # For numerical_rank: a singular value counts when it exceeds this
    # fraction of the largest one.
    return n * np.finfo(float).eps * 64


def numerical_rank(m, rank_tol):
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rank_tol * sv[0]))


def krylov_rank(a, c):
    return numerical_rank(observability_matrix(a, c), default_rank_tol(a.shape[0]))


def ackermann_deadbeat(a, c_row):
    """Single-output deadbeat gain L = A^n O^-1 e_n, O the observability matrix.

    Exact in rational arithmetic on the float inputs and rounded once at the
    end: solved in floating point, O^-1 alone loses up to 1e-12 relative at
    n = 16.  The gain is unchanged when A and C are scaled by the same
    factor, so both are scaled by the power of two that makes them integers.
    """
    n = a.shape[0]
    scale = max(Fraction(v).denominator for v in np.append(a, c_row).tolist())
    a_int = [[int(Fraction(v) * scale) for v in row] for row in a.tolist()]
    row = [int(Fraction(v) * scale) for v in np.ravel(c_row).tolist()]
    # Gaussian elimination of [O | e_n], then back-substitution for x.
    m = []
    for i in range(n):
        m.append([Fraction(v) for v in row] + [Fraction(int(i == n - 1))])
        row = [sum(r * a_int[p][q] for p, r in enumerate(row)) for q in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if m[i][k])
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (m[i][n] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    denominator = math.lcm(*(v.denominator for v in x))
    v = [int(xi * denominator) for xi in x]
    for _ in range(n):
        v = [sum(p * q for p, q in zip(r, v)) for r in a_int]
    return np.array([vi / denominator for vi in v]).reshape(n, 1)

"""Reference values computed apart from jacobi_mv, for the benchmark's checks.

Nothing here imports the package under test.  The formulas are the textbook
ones, chosen to differ from the package's own routes:

* 1-D moments of the normalized hermite, laguerre and jacobi weights from
  closed products (the package uses three-term moment recursions);
* monic orthogonal-polynomial norms h_k and recurrence coefficients b_k
  (x p_k = p_{k+1} + b_k p_k + a_k p_{k-1}) from Hankel determinants;
* ranks of Vandermonde matrices of atom sets and direct moment sums
  sum_i w_i x_i^beta.

All arithmetic is exact (Fraction).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

Atoms = Sequence[Tuple[Tuple[Fraction, ...], Fraction]]


# ---------------------------------------------------------------- 1-D moments


def hermite_moments(count: int) -> List[Fraction]:
    """m_k of exp(-x^2)/sqrt(pi): m_{2t} = (2t)! / (4^t t!), odd ones vanish."""
    out = []
    for k in range(count):
        if k % 2:
            out.append(Fraction(0))
        else:
            t = k // 2
            out.append(Fraction(math.factorial(k), 4**t * math.factorial(t)))
    return out


def laguerre_moments(alpha: Fraction, count: int) -> List[Fraction]:
    """m_k of x^alpha exp(-x)/Gamma(alpha+1) on (0, inf): the rising factorial (alpha+1)_k."""
    out = []
    for k in range(count):
        value = Fraction(1)
        for i in range(1, k + 1):
            value *= alpha + i
        out.append(value)
    return out


def jacobi_moments(a: Fraction, b: Fraction, count: int) -> List[Fraction]:
    """m_k of the normalized (1-x)^a (1+x)^b on [-1, 1].

    With x = 2t - 1, t is Beta(b+1, a+1) distributed, whose moments are
    E[t^i] = prod_{r<i} (b+1+r)/(a+b+2+r); expand (2t-1)^k binomially.
    """
    beta_moments = [Fraction(1)]
    for r in range(count):
        beta_moments.append(beta_moments[-1] * (b + 1 + r) / (a + b + 2 + r))
    out = []
    for k in range(count):
        total = Fraction(0)
        for i in range(k + 1):
            total += math.comb(k, i) * 2**i * (-1) ** (k - i) * beta_moments[i]
        out.append(total)
    return out


def coordinate_moments(family: str, params: Tuple[Fraction, ...], count: int) -> List[Fraction]:
    """1-D moments of one coordinate's weight.

    params is () for hermite, (alpha,) for laguerre and (a, b) for the jacobi
    weight (every symmetric family is passed in as its own (a, a)).
    """
    if family == "hermite":
        return hermite_moments(count)
    if family == "laguerre":
        return laguerre_moments(params[0], count)
    return jacobi_moments(params[0], params[1], count)


# ------------------------------------------------------- Hankel determinants


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with row swaps."""
    m = [list(row) for row in matrix]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def _hankel(m: Sequence[Fraction], k: int) -> Fraction:
    # D_k = det[m_{i+j}]_{i,j<k}, D_0 = 1
    return det([[m[i + j] for j in range(k)] for i in range(k)])


def _hankel_shifted(m: Sequence[Fraction], k: int) -> Fraction:
    # D_k with its last column m_{i+k-1} replaced by m_{i+k}; 0 when k = 0
    if k == 0:
        return Fraction(0)
    cols = list(range(k - 1)) + [k]
    return det([[m[i + j] for j in cols] for i in range(k)])


def recurrence_data(m: Sequence[Fraction], levels: int) -> Tuple[List[Fraction], List[Fraction]]:
    """(h_k, b_k) for k < levels, from moments m_0..m_{2*levels-1}.

    h_k = D_{k+1} / D_k is the squared norm of the monic p_k, and
    b_k = D'_{k+1}/D_{k+1} - D'_k/D_k, because the subleading coefficient of
    p_k is -D'_k/D_k.
    """
    if len(m) < 2 * levels:
        raise ValueError(f"need {2 * levels} moments, got {len(m)}")
    dets = [_hankel(m, k) for k in range(levels + 1)]
    shifted = [_hankel_shifted(m, k) for k in range(levels + 1)]
    h = [dets[k + 1] / dets[k] for k in range(levels)]
    b = [shifted[k + 1] / dets[k + 1] - shifted[k] / dets[k] for k in range(levels)]
    return h, b


# ------------------------------------------------------------ atom sets


def monomials_up_to(d: int, n: int) -> List[Tuple[int, ...]]:
    """Every exponent vector with total degree <= n (order irrelevant here)."""
    out = [()]
    for _ in range(d):
        out = [e + (k,) for e in out for k in range(n + 1)]
    return [e for e in out if sum(e) <= n]


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction Gaussian elimination."""
    m = [list(row) for row in matrix]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _power(point: Sequence[Fraction], beta: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for x, k in zip(point, beta):
        out *= x**k
    return out


def vandermonde_ranks(atoms: Atoms, levels: int) -> List[int]:
    """rank V_n for n = 0..levels, V_n[i][beta] = x_i^beta over |beta| <= n."""
    d = len(atoms[0][0])
    out = []
    for n in range(levels + 1):
        monos = monomials_up_to(d, n)
        out.append(rank([[_power(x, beta) for beta in monos] for x, _ in atoms]))
    return out


def atom_moment(atoms: Atoms, beta: Sequence[int]) -> Fraction:
    """phi(x^beta) = sum_i w_i x_i^beta."""
    return sum((w * _power(x, beta) for x, w in atoms), Fraction(0))

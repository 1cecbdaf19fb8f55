"""Polynomial forms of the operator blocks, as a reference for the tests.

The library's operator blocks act on level coordinates only.  These helpers
take and return Polynomials: vector(decomp, p) is p's coefficient vector
over the monomial basis, and apply(ops, j, p, step) applies a+_j (step 1),
a0_j (step 0) or a-_j (step -1) level by level, through split, expand and
the block accessors.  top_pairings(decomp, j) is the matrix
[phi(b_i x_j b_k)] over the top level, by polynomial products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from jacobi_mv import _linalg
from jacobi_mv._linalg import ZERO, Matrix
from jacobi_mv.cap_operators import CAPSystem
from jacobi_mv.orthodecomp import Decomposition
from jacobi_mv.polyring import Polynomial


def vector(decomp: Decomposition, p: Polynomial) -> List[Fraction]:
    """Coefficient vector of p over the monomial basis of decomp."""
    out = [ZERO] * len(decomp.moments.basis)
    for beta, c in p.terms.items():
        out[decomp.moments.position[beta]] = c
    return out


def apply(ops: CAPSystem, j: int, p: Polynomial, step: int) -> Polynomial:
    """The block of this step applied to each nonzero level of p.

    Creation out of the top level raises InvalidIndexError, as plus_matrix
    does; annihilation sends level 0 to nothing.
    """
    decomp = ops.decomposition
    block = {1: ops.plus_matrix, 0: ops.zero_matrix, -1: ops.minus_matrix}[step]
    out = [ZERO] * len(decomp.moments.basis)
    for n, coords in enumerate(decomp.split(vector(decomp, p))):
        if not any(coords) or n + step < 0:
            continue
        image = decomp.expand(n + step, _linalg.mat_vec(block(j, n), coords))
        out = [x + y for x, y in zip(out, image)]
    return decomp.polynomial(out)


def top_pairings(decomp: Decomposition, j: int) -> Matrix:
    """[phi(b_i x_j b_k)] over the basis b of the top level."""
    phi = decomp.functional
    basis = decomp.polynomials(decomp.max_degree)
    x_j = Polynomial.variable(decomp.d, j)
    return [[phi.inner_product(b_i, b_k * x_j) for b_k in basis] for b_i in basis]

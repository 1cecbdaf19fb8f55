"""Multi-index arithmetic and enumeration of occupation-vector class bases.

A multi-index beta = (beta_1, ..., beta_d) is represented as a plain tuple of
non-negative ints.  Tuples over {1..d} of length n fall into equivalence
classes under reordering; each class is canonically labelled by its occupation
vector n_bar = (n_1, ..., n_d) with n_l = multiplicity of the letter l.  The
occupation vectors of weight n index the basis of the n-th symmetric tensor
power of C^d, and double as the exponent vectors of the degree-n monomials.

Canonical order within one degree is graded reverse-lexicographic:
(n,0,...,0) first, (0,...,0,n) last.  All matrix coordinates downstream
depend on this order, so it must never change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import InvalidDimensionError, InvalidIndexError, OutOfLatticeError

MultiIndex = Tuple[int, ...]


def degree(beta: Sequence[int]) -> int:
    """Total degree |beta| = sum of the components."""
    return sum(beta)


def factorial_of(beta: Sequence[int]) -> int:
    """Componentwise factorial beta! = beta_1! beta_2! ... beta_d!."""
    out = 1
    for b in beta:
        out *= math.factorial(b)
    return out


def shift(beta: Sequence[int], r: Sequence[int]) -> MultiIndex:
    """Componentwise sum beta + r, staying inside N^d.

    Raises OutOfLatticeError if any component would go negative; callers use
    this to implement the annihilation boundary (a-_{i|0} = 0).
    """
    if len(beta) != len(r):
        raise OutOfLatticeError(
            f"shift vectors have different lengths: {len(beta)} vs {len(r)}"
        )
    out = tuple(b + s for b, s in zip(beta, r))
    if any(c < 0 for c in out):
        raise OutOfLatticeError(f"shift of {tuple(beta)} by {tuple(r)} leaves N^d")
    return out


def occupation(d: int, letters: Iterable[int]) -> MultiIndex:
    """Occupation vector of a tuple over {1..d}.

    Two tuples yield the same vector exactly when one is a reordering of the
    other, so the vector is a canonical label of the equivalence class.
    """
    _check_dimension(d)
    counts = [0] * d
    for letter in letters:
        if not isinstance(letter, int) or not 1 <= letter <= d:
            raise InvalidIndexError(f"index {letter!r} not in 1..{d}")
        counts[letter - 1] += 1
    return tuple(counts)


def representative_tuple(n_bar: Sequence[int]) -> Tuple[int, ...]:
    """The weakly increasing tuple over {1..d} whose occupation vector is n_bar."""
    out = []
    for letter, count in enumerate(n_bar, start=1):
        out.extend([letter] * count)
    return tuple(out)


def canonical_key(beta: Sequence[int]) -> Tuple[int, ...]:
    """Sort key realizing graded reverse-lexicographic order within a degree.

    Ascending lexicographic comparison of the reversed tuple puts
    (n,0,...,0) first and (0,...,0,n) last.
    """
    return tuple(reversed(beta))


def class_count(d: int, n: int) -> int:
    """binomial(n+d-1, d-1): number of weight-n occupation vectors."""
    return math.comb(n + d - 1, d - 1)


def _compositions(d: int, n: int) -> list[MultiIndex]:
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n, -1, -1):
        for rest in _compositions(d - 1, n - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class ClassBasis:
    """Ordered basis of weight-n occupation vectors over d slots."""

    d: int
    n: int
    classes: Tuple[MultiIndex, ...]

    def __post_init__(self):
        assert len(self.classes) == class_count(self.d, self.n)
        assert len(set(self.classes)) == len(self.classes)
        assert all(sum(c) == self.n for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def index(self, n_bar: Sequence[int]) -> int:
        return self.classes.index(tuple(n_bar))


def enumerate_classes(d: int, n: int) -> ClassBasis:
    """All occupation vectors of weight n over d slots, in canonical order."""
    _check_dimension(d)
    if n < 0:
        raise InvalidIndexError(f"degree must be non-negative, got {n}")
    classes = sorted(_compositions(d, n), key=canonical_key)
    return ClassBasis(d=d, n=n, classes=tuple(classes))


def check_index(
    value, what: str, low: int, high: Optional[int] = None, span: str = ""
) -> None:
    """Refuse a level, coordinate or count that is no integer or leaves low..high.

    With high None only the lower bound applies.  Bools are refused: they
    are ints to Python but no index.  span names the range in the message
    ("level 5 outside computed range 0..3" for span "computed range ").
    """
    check_integer(value, what)
    if high is None:
        if value < low:
            raise InvalidIndexError(f"{what} must be an integer >= {low}, got {value!r}")
    elif not low <= value <= high:
        raise InvalidIndexError(f"{what} {value} outside {span}{low}..{high}")


def check_integer(value, what: str, error: type = InvalidIndexError) -> None:
    """Refuse a value that is no integer, as check_index does before its range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {value!r}")


def _check_dimension(d: int) -> None:
    check_integer(d, "dimension", InvalidDimensionError)
    if d < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {d!r}")

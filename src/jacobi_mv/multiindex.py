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

enumerate_classes checks its dimension and degree first, and only then
looks the pair up in a bounded per-process memo: the ClassBasis of each
(d, n) is enumerated, sorted and validated once, and every later call gets
that same frozen object.  The memo is keyed by two validated ints and holds
nothing but these immutable bases, and it is bounded by the exponent
entries they hold (SizedMemo), so one basis of a large d is not kept.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Optional, Sequence, Tuple, TypeVar

from .errors import InvalidDimensionError, InvalidIndexError, OutOfLatticeError, shown

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

    Raises OutOfLatticeError if any component would go negative.  The
    library shifts only by unit vectors e_j (multiplication by x_j).
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
            raise InvalidIndexError(f"index {shown(letter)} not in 1..{d}")
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
    check_integer(n, "degree")
    return math.comb(n + d - 1, d - 1)


def _compositions(d: int, n: int) -> list[MultiIndex]:
    """All weight-n vectors over d slots, lexicographically descending.

    Iterative, so d is not bounded by the recursion limit: each vector
    follows from the one before by taking one unit from its rightmost
    nonzero slot before the last, and moving it, with all of the last
    slot's weight, into the slot after.
    """
    c = [n] + [0] * (d - 1)
    out = [tuple(c)]
    while c[-1] != n:
        i = d - 2
        while not c[i]:
            i -= 1
        last, c[-1] = c[-1], 0
        c[i] -= 1
        c[i + 1] = last + 1
        out.append(tuple(c))
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


# exponent entries (monomials times d) a memo of the graded order keeps per
# process: one level of d = 1200 at degree 1 alone holds 1.44 million
MEMO_ENTRIES = 1 << 18

T = TypeVar("T")


class SizedMemo(Generic[T]):
    """A memo of a function of validated ints, bounded by the exponent
    entries its results hold, as entries(result) counts them.

    The most recently used results are kept while their entries sum to at
    most MEMO_ENTRIES; a result over that budget alone is built on every
    call and never kept.  A kept result is handed to every caller, so it
    must be immutable.
    """

    def __init__(self, build: Callable[..., T], entries: Callable[[T], int]):
        self._build = build
        self._entries = entries
        self._kept: "OrderedDict[tuple, Tuple[T, int]]" = OrderedDict()
        self._held = 0
        self._lock = threading.Lock()

    def __call__(self, *key: int) -> T:
        with self._lock:
            hit = self._kept.get(key)
            if hit is not None:
                self._kept.move_to_end(key)
                return hit[0]
        result = self._build(*key)
        size = self._entries(result)
        if size > MEMO_ENTRIES:
            return result
        with self._lock:
            if key in self._kept:  # built meanwhile by another thread
                return self._kept[key][0]
            self._kept[key] = result, size
            self._held += size
            while self._held > MEMO_ENTRIES:
                self._held -= self._kept.popitem(last=False)[1][1]
        return result


def enumerate_classes(d: int, n: int) -> ClassBasis:
    """All occupation vectors of weight n over d slots, in canonical order.

    The dimension and then the degree are checked before any work (a
    non-integer or bool degree raises InvalidIndexError), so the memo only
    ever sees two ints.  Each (d, n) is enumerated once per process and kept
    while the memo's budget of MEMO_ENTRIES exponent entries allows: a
    repeated call returns the same frozen ClassBasis.  A basis of more than
    MEMO_ENTRIES entries is enumerated on every call.
    """
    _check_dimension(d)
    check_integer(n, "degree")
    if n < 0:
        raise InvalidIndexError(f"degree must be non-negative, got {n}")
    return _class_basis(d, n)


def _enumerate(d: int, n: int) -> ClassBasis:
    classes = sorted(_compositions(d, n), key=canonical_key)
    return ClassBasis(d=d, n=n, classes=tuple(classes))


_class_basis = SizedMemo(_enumerate, lambda basis: basis.d * len(basis.classes))


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
            raise InvalidIndexError(f"{what} must be an integer >= {low}, got {shown(value)}")
    elif not low <= value <= high:
        raise InvalidIndexError(f"{what} {value} outside {span}{low}..{high}")


def check_integer(value, what: str, error: type = InvalidIndexError) -> None:
    """Refuse a value that is no integer, as check_index does before its range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"{what} must be an integer, got {shown(value)}")


def _check_dimension(d: int) -> None:
    check_integer(d, "dimension", InvalidDimensionError)
    if d < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {shown(d)}")

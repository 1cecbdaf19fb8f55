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

The module also holds the gates for values from outside: check_integer
(and check_index, check_degree) for integers, check_multi_index for
multi-indices, exact and exact_list for numbers, and _field and _typed for
the fields of a measure file, which the two readers in moments (atom list
and moment table) read through.  exact is the only place where a
caller's value becomes a Fraction, and check_multi_index the only place
where a multi-index is refused for its shape, length, entry type or sign,
so every entry point takes the same values and refuses the rest in the
same words.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Generic, List, Optional, Tuple, TypeVar

from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidIndexError,
    UnsupportedParameterError,
    shown,
)

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
    """binomial(n+d-1, d-1): number of weight-n occupation vectors, for the
    dimension and degree that enumerate_classes takes (_check_classes)."""
    _check_classes(d, n)
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
        """Position of n_bar in the basis; InvalidIndexError for a class of
        another weight."""
        n_bar = check_multi_index(n_bar, self.d)
        if sum(n_bar) != self.n:
            raise InvalidIndexError(f"class {n_bar} is not of weight {self.n}")
        return self.classes.index(n_bar)


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
    _check_classes(d, n)
    return _class_basis(d, n)


def _check_classes(d: int, n: int) -> None:
    """Refuse a dimension (_check_dimension), then a degree that is no
    integer or is negative (InvalidIndexError): the gate of
    enumerate_classes, class_count and polyring.monomial_basis."""
    _check_dimension(d)
    check_integer(n, "degree")
    if n < 0:
        raise InvalidIndexError(f"degree must be non-negative, got {n}")


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


def check_multi_index(beta, d: int) -> MultiIndex:
    """beta as a tuple of d non-negative ints, or the refusal of the first
    check it fails, in this order: no sequence, or a string
    (InvalidIndexError); a length other than d (DimensionMismatchError); an
    entry that is no int, bools included; a negative entry
    (InvalidIndexError).  Each caller keeps its own degree bound.

    A tuple of d non-negative ints, which is every multi-index the library
    builds itself, is returned as it is after one pass over its entries.
    """
    if type(beta) is not tuple:
        if isinstance(beta, str) or not isinstance(beta, Sequence):
            raise InvalidIndexError(
                f"multi-index must be a sequence of integers, got {shown(beta)}"
            )
        beta = tuple(beta)
    if len(beta) == d:
        for b in beta:
            if type(b) is not int or b < 0:
                break
        else:
            return beta
        for b in beta:
            check_integer(b, "multi-index entry")
        if any(b < 0 for b in beta):
            raise InvalidIndexError(f"negative entry in multi-index {beta}")
        return beta
    raise DimensionMismatchError(f"multi-index length {len(beta)} != dimension {d}")


# the largest dimension d: level 0 alone packs d unit codes of up to
# (d-1) log2(2N+2) bits and enumerates d-entry classes, so its time grows as
# d^2 (omega --family hermite at level 0 takes 0.6 s at d = 2048 and 2.2 s at
# d = 4096 on a 2-vCPU x86_64 VM under Python 3.11); the cap keeps level 0
# under a second, and every functional, graded index, class enumeration and
# polynomial checks it (_check_dimension)
MAX_DIMENSION = 2048

# the largest decimal exponent a number may be written with: Fraction expands
# "1e<k>" to an integer of k digits, which takes seconds past a million, so
# an exponent is held to the digit count that int and str convert by default
MAX_EXPONENT = getattr(sys.int_info, "default_max_str_digits", 4300)


def exact(value, what: str, *args, error: type = UnsupportedParameterError) -> Fraction:
    """value as a Fraction, or error naming it what.format(*args) when args
    are given, so a label is formatted only for a value refused.

    Accepted: an int, a Fraction, or a string that Fraction parses with a
    decimal exponent of at most MAX_EXPONENT in magnitude.  A float is
    refused, and so is a bool, which Fraction would take as 0 or 1: a JSON
    true or false is no number.  A string of an optional '-' and ASCII
    digits, then optionally '/' and ASCII digits not all zero, is read with
    int() directly.  Every other value goes through Fraction(value), whose
    parser refuses some strings that int() accepts (a space next to '/',
    and underscores on Python 3.10), so the value or the refusal is
    Fraction's own (it also takes a Decimal, exactly), except that the
    exponent of a string, what follows its last 'e' or 'E' with sign and
    underscores aside, is checked first, and so is a Decimal's own
    exponent, whose value must also be finite.  A digit string over the
    int/str digit limit is refused either way.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        what = what.format(*args) if args else what
        kind = "bool" if isinstance(value, bool) else "float"
        raise error(
            f"{what} must be exact (int, Fraction or 'p/q' string), got {kind} {shown(value)}"
        )
    try:
        if isinstance(value, str):
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if digits.isdigit() and digits.isascii() and (
                not slash or den.isdigit() and den.isascii() and den.strip("0")
            ):
                return Fraction(int(num), int(den) if slash else 1)
            _, e, exponent = value.strip().lower().rpartition("e")
            exponent = exponent.lstrip("+-").replace("_", "")
            if e and exponent.isdecimal():
                digits = exponent.lstrip("0")
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                    raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}")
        elif isinstance(value, Decimal):
            if not value.is_finite() or abs(value.as_tuple().exponent) > MAX_EXPONENT:
                raise ValueError(f"no finite Decimal with exponent within {MAX_EXPONENT}")
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        what = what.format(*args) if args else what
        raise error(f"bad {what}: {shown(value)}") from exc


def exact_list(values, what: str) -> List[Fraction]:
    """The entries of a parameter list, each through exact.

    A string would iterate as its characters and a bare number is no list,
    so both are refused, naming the parameter.
    """
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise UnsupportedParameterError(
            f"{what} list must be a sequence of exact numbers, got {shown(values)}"
        )
    return [exact(v, what) for v in values]


_KINDS = {int: "an integer", list: "a list"}


def _field(doc, key: str, what: str, kind: type = object):
    """doc[key] of a JSON object, or a named error when it is missing or mistyped."""
    if not isinstance(doc, dict) or key not in doc:
        raise UnsupportedParameterError(f"{what} needs a {key!r} field")
    return _typed(doc[key], kind, f"{what} field {key!r}")


def _typed(value, kind: type, what: str):
    # JSON true/false parse to bool, an int subclass; they are no count
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise UnsupportedParameterError(f"{what} must be {_KINDS[kind]}, got {shown(value)}")


def check_degree(value, what: str) -> None:
    """Refuse a top degree or level that is no integer or is negative."""
    check_integer(value, what)
    if value < 0:
        raise InvalidIndexError(f"{what} must be >= 0, got {value}")


def _check_dimension(d: int) -> None:
    check_integer(d, "dimension", InvalidDimensionError)
    if d < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {shown(d)}")
    if d > MAX_DIMENSION:
        raise InvalidDimensionError(f"dimension must be at most {MAX_DIMENSION}, got {shown(d)}")

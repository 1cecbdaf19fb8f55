"""One table of numbers through every public entry point that takes one.

multiindex.exact is the only place where a caller's value becomes a
Fraction, so every entry point reads the same numbers as the same Fraction
and refuses the same values in the gate's two wordings, each with the
entry point's own error type.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from jacobi_mv.cli import main
from jacobi_mv.closed_forms import family_spec
from jacobi_mv.errors import UnsupportedParameterError
from jacobi_mv.jacobi_sequences import compute_from_functional
from jacobi_mv.moments import GammaFunctional, atomic_functional, gaussian_functional, table_functional
from jacobi_mv.orthodecomp import decompose
from jacobi_mv.polyring import Polynomial
from jacobi_mv.symbolic import GammaProduct

ACCEPTED = [
    (3, Fraction(3)),
    (Fraction(-1, 2), Fraction(-1, 2)),
    ("-1/2", Fraction(-1, 2)),
    ("0.25", Fraction(1, 4)),
    ("25e-2", Fraction(1, 4)),
    (" 1 ", Fraction(1)),
    ("1e4300", Fraction(10**4300)),
    (Decimal("0.25"), Fraction(1, 4)),
]

# (value, how the refusal shows it after "got " or "bad <what>: ")
REFUSED = [
    (True, "got bool True"),
    (0.5, "got float 0.5"),
    (None, "None"),
    ("1/0", "'1/0'"),
    ("x", "'x'"),
    ("1e5000", "'1e5000'"),
    # before, a Decimal's exponent was not held to the bound of a string's,
    # and an infinite one raised a bare OverflowError
    (Decimal("1e5000"), "Decimal('1E+5000')"),
    (Decimal("-Infinity"), "Decimal('-Infinity')"),
]


def _atom_weight(v):
    # the weights must be positive and sum to 1, so a weight other than 1
    # is refused after it is read; the refusal still shows what was read
    try:
        return atomic_functional([([0], v)]).atoms[0][1]
    except UnsupportedParameterError as exc:
        if str(exc).startswith(("atom weights must be positive", "atom weights must sum")):
            return str(exc)
        raise


_DIRECTION = compute_from_functional(atomic_functional([([1], 1)]), 0)
_SPLIT = decompose(gaussian_functional(1), 2)

# (name, read, error type, label): read(v) is the Fraction the entry point took
ENTRY_POINTS = [
    ("atom coordinate", lambda v: atomic_functional([([v], 1)]).atoms[0][0][0],
     UnsupportedParameterError, "atom coordinate"),
    ("atom weight", _atom_weight, UnsupportedParameterError, "atom weight"),
    ("moment-table value", lambda v: table_functional(1, 1, {(0,): 1, (1,): v}).moment((1,)),
     UnsupportedParameterError, "moment[(1,)]"),
    ("family_spec", lambda v: family_spec("laguerre", alpha=[v]).weights[0][0],
     UnsupportedParameterError, "laguerre alpha"),
    ("GammaFunctional", lambda v: GammaFunctional([v]).alphas[0],
     UnsupportedParameterError, "gamma parameter"),
    ("Polynomial", lambda v: Polynomial(1, {(0,): v}).coefficient((0,)), TypeError, "coefficient"),
    ("Polynomial.from_json_dict",
     lambda v: Polynomial.from_json_dict({"d": 1, "terms": [{"beta": [0], "c": v}]}).coefficient((0,)),
     TypeError, "coefficient"),
    ("GammaProduct.from_rational", lambda v: GammaProduct.from_rational(v).rational,
     UnsupportedParameterError, "rational"),
    ("GammaProduct.from_json_dict", lambda v: GammaProduct.from_json_dict({"rational": v}).rational,
     UnsupportedParameterError, "rational"),
    ("Decomposition.split", lambda v: _SPLIT.split([v, 0, 0])[0][0],
     UnsupportedParameterError, "vector entry"),
    ("alpha_for_direction", lambda v: _DIRECTION.alpha_for_direction([v], 0)[0][0],
     UnsupportedParameterError, "direction"),
]
_IDS = [name for name, *_ in ENTRY_POINTS]


@pytest.mark.parametrize("name,read,error,label", ENTRY_POINTS, ids=_IDS)
def test_every_entry_point_reads_the_same_fraction(name, read, error, label):
    for value, expected in ACCEPTED:
        got = read(value)
        if name == "atom weight" and expected != 1:
            expected = _atom_weight(expected)  # what its Fraction twin gives
        assert got == expected and type(got) is type(expected), (name, value)


@pytest.mark.parametrize("name,read,error,label", ENTRY_POINTS, ids=_IDS)
def test_every_entry_point_refuses_in_the_gates_words(name, read, error, label):
    for value, shown in REFUSED:
        with pytest.raises(error) as info:
            read(value)
        if shown.startswith("got "):
            text = f"{label} must be exact (int, Fraction or 'p/q' string), {shown}"
        else:
            text = f"bad {label}: {shown}"
        assert str(info.value) == text, (name, value)


def _text(value: Fraction) -> str:
    """str(value), over the int/str digit limit too, as the CLI writes it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _omega_1(argv, capsys):
    status = main(["omega", "--family", "laguerre", *argv, "--max-level", "1"])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_the_cli_alpha_reads_and_refuses_as_the_library_does(capsys):
    # the CLI takes strings only: each reads as its number (omega_1 is
    # alpha + 1 for the normalized laguerre weight) or is refused with the
    # gate's text and exit 2
    for value, expected in ACCEPTED:
        if not isinstance(value, str):
            continue
        status, out, err = _omega_1(["--alpha", value], capsys)
        assert (status, err) == (0, ""), value
        assert json.loads(out)["levels"][1]["omega"] == [[_text(expected + 1)]]
    for value, shown in REFUSED:
        if not isinstance(value, str):
            continue
        status, out, err = _omega_1(["--alpha", value], capsys)
        assert (status, out) == (2, "")
        assert err == f"error: UnsupportedParameterError: bad laguerre alpha: {shown}\n"


def test_json_readers_refuse_a_json_float_and_bool():
    # before, both readers called Fraction() directly: a JSON 0.1 was read
    # as 3602879701896397/36028797018963968 and true as 1
    gate = "must be exact (int, Fraction or 'p/q' string), got"
    poly = json.loads('{"d": 1, "terms": [{"beta": [0], "c": 0.1}]}')
    with pytest.raises(TypeError) as info:
        Polynomial.from_json_dict(poly)
    assert str(info.value) == f"coefficient {gate} float 0.1"
    for doc, text in (
        ('{"rational": true}', f"rational {gate} bool True"),
        ('{"rational": "1", "pi_pow": 0.5}', f"pi_pow {gate} float 0.5"),
        ('{"rational": "1", "two_pow": "1e5000"}', "bad two_pow: '1e5000'"),
        ('{"rational": "1", "gamma": [[0.25, 1]]}', f"Gamma argument {gate} float 0.25"),
    ):
        with pytest.raises(UnsupportedParameterError) as info:
            GammaProduct.from_json_dict(json.loads(doc))
        assert str(info.value) == text
    # one Gamma argument written twice adds its multiplicities, as the
    # constructor adds them; before, the later entry replaced the earlier
    doc = {"rational": "1", "gamma": [["1/3", 1], ["2/6", 1]]}
    assert GammaProduct.from_json_dict(doc) == GammaProduct.gamma(Fraction(1, 3)) ** 2
    # what to_json_dict writes still reads back
    value = GammaProduct.gamma(Fraction(1, 3)) * GammaProduct.two_power(Fraction(1, 2)) * 5
    assert GammaProduct.from_json_dict(json.loads(json.dumps(value.to_json_dict()))) == value
    p = Polynomial(2, {(1, 0): Fraction(-3, 7), (0, 2): 4})
    assert Polynomial.from_json_dict(json.loads(json.dumps(p.to_json_dict()))) == p


@pytest.mark.parametrize("doc,text", [
    ({"terms": []}, "polynomial needs a 'd' field"),
    ({"d": 1}, "polynomial needs a 'terms' field"),
    ({"d": 1, "terms": 5}, "polynomial field 'terms' must be a list, got 5"),
    ({"d": 1, "terms": [{"c": "1"}]}, "polynomial term needs a 'beta' field"),
    ({"d": 1, "terms": [{"beta": [0]}]}, "polynomial term needs a 'c' field"),
    ({"d": 1, "terms": [{"beta": 5, "c": "1"}]}, "polynomial term field 'beta' must be a list, got 5"),
    ({"d": 1, "terms": [7]}, "polynomial term needs a 'beta' field"),
    ([1], "polynomial needs a 'd' field"),
])
def test_a_polynomial_document_names_its_missing_or_mistyped_field(doc, text):
    # before, a missing field raised a bare KeyError and a beta of 5 a bare
    # TypeError from tuple(5); the JSON readers' field texts name them now
    with pytest.raises(UnsupportedParameterError) as info:
        Polynomial.from_json_dict(doc)
    assert str(info.value) == text

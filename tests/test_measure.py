"""Measure values: validation, the JSON keys of both kinds, the fraction
text round trip and the bound on an exponent in fraction text."""

from fractions import Fraction

import pytest

from mixlab.measure import MAX_EXPONENT, MeasureValue, format_fraction, parse_fraction


def test_value_needed():
    with pytest.raises(ValueError, match="exact value or an estimate"):
        MeasureValue()
    with pytest.raises(ValueError, match="exact value or an estimate"):
        MeasureValue(stderr=0.1, samples=10)


@pytest.mark.parametrize("value", [Fraction(-1, 8), Fraction(9, 8), -1, 2])
def test_exact_value_outside_unit_interval_raises(value):
    with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
        MeasureValue.of_exact(value)


def test_exact_to_json_keys():
    assert MeasureValue.of_exact(Fraction(3, 8), method="window").to_json() == \
        {"exact": "3/8", "value": 0.375, "meta": {"method": "window"}}
    assert MeasureValue.of_exact(1).to_json() == {"exact": "1", "value": 1.0}


def test_estimate_to_json_keys():
    mv = MeasureValue.of_estimate(0.25, 0.01, 1000, torus=[21, 21], seed=3)
    out = mv.to_json()
    assert out == {"estimate": 0.25, "stderr": 0.01, "samples": 1000,
                   "meta": {"seed": 3, "torus": [21, 21]}}
    assert list(out["meta"]) == ["seed", "torus"]  # meta keys sorted


def test_meta_is_a_read_only_copy():
    # Measures are shared between callers, so no caller may change one.
    meta = {"method": "window"}
    mv = MeasureValue(exact=Fraction(1, 2), meta=meta)
    meta["method"] = "changed"
    assert mv.meta == {"method": "window"}
    with pytest.raises(TypeError):
        mv.meta["method"] = "changed"
    with pytest.raises(TypeError):
        MeasureValue.of_estimate(0.5, 0.1, 10, seed=1).meta["seed"] = 2


@pytest.mark.parametrize("x,text", [(Fraction(0), "0"), (Fraction(1), "1"),
                                    (Fraction(1, 2), "1/2"), (Fraction(3, 1024), "3/1024"),
                                    (Fraction(7, 3), "7/3")])
def test_fraction_text_round_trip(x, text):
    assert format_fraction(x) == text
    assert parse_fraction(text) == x


def test_exponent_notation_parses_within_its_bound():
    assert parse_fraction("1e-3") == Fraction(1, 1000)
    assert parse_fraction(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT


@pytest.mark.parametrize("text", ["1e-5000", f"2.5E+{MAX_EXPONENT + 1}", "1e1_0000_000 "])
def test_exponent_past_its_bound_is_refused(text):
    with pytest.raises(ValueError, match=f"passes {MAX_EXPONENT}"):
        parse_fraction(text)

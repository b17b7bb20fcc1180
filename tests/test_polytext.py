"""Polynomial text grammar and JSON forms."""

import pytest
from hypothesis import given, settings, strategies as st

from z4dc import polytext as pt
from z4dc.errors import PolyParseError
from z4dc.z4poly import canon


class TestParse:
    def test_terms(self):
        assert pt.parse("0") == ()
        assert pt.parse("3") == (3,)
        assert pt.parse("x") == (0, 1)
        assert pt.parse("2x") == (0, 2)
        assert pt.parse("x^0") == (1,)
        assert pt.parse("3x^4") == (0, 0, 0, 0, 3)
        assert pt.parse("x^3+2x^2+x+3") == (3, 1, 2, 1)

    def test_whitespace_ignored(self):
        assert pt.parse(" x^2 + x + 1 ") == (1, 1, 1)

    def test_repeated_exponents_sum_mod_4(self):
        assert pt.parse("3x+3x") == (0, 2)
        assert pt.parse("2+2") == ()
        assert pt.parse("x+x+x+x+1") == (1,)

    def test_coefficient_out_of_range(self):
        with pytest.raises(PolyParseError) as ei:
            pt.parse("4x^2")
        assert "coeff" in ei.value.rule

    def test_malformed_terms(self):
        for bad in ("x^", "x^-1", "y+1", "x**2", "", "1++x", "x2"):
            with pytest.raises(PolyParseError):
                pt.parse(bad)

    def test_rule_reported(self):
        with pytest.raises(PolyParseError) as ei:
            pt.parse("x+*")
        assert ei.value.rule

    @pytest.mark.parametrize("exponent", ["9" * 5000, "100000000000",
                                          str(pt.MAX_LENGTH + 1)])
    def test_exponent_past_the_bound(self, exponent):
        with pytest.raises(PolyParseError, match="exceeds"):
            pt.parse("x^" + exponent)

    def test_exponent_at_the_bound(self):
        assert pt.parse(f"x^{pt.MAX_LENGTH}+1") == (1,) + (0,) * (pt.MAX_LENGTH - 1) + (1,)
        assert pt.parse("x^" + "0" * 5000 + "3") == (0, 0, 0, 1)


class TestRender:
    def test_canonical_form(self):
        assert pt.render(()) == "0"
        assert pt.render((3, 1, 2, 1)) == "x^3+2x^2+x+3"
        assert pt.render((1, 0, 3)) == "3x^2+1"
        assert pt.render((0, 1)) == "x"
        assert pt.render((0, 2)) == "2x"

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 3), max_size=70).map(canon))
    def test_round_trip(self, p):
        assert pt.parse(pt.render(p)) == p


class TestJsonForm:
    def test_array_form(self):
        assert pt.from_json([3, 2, 1, 0, 1, 1, 1, 2, 0, 0, 3, 1]) == \
            pt.parse("x^11+3x^10+2x^7+x^6+x^5+x^4+x^2+2x+3")
        assert pt.from_json([]) == ()
        assert pt.from_json([5]) == (1,)  # entries reduced mod 4

    def test_string_form(self):
        assert pt.from_json("x+1") == (1, 1)

    def test_bad_types(self):
        with pytest.raises(PolyParseError):
            pt.from_json([1, "x"])
        with pytest.raises(PolyParseError):
            pt.from_json(12)
        with pytest.raises(PolyParseError):
            pt.from_json([True])

    def test_array_past_the_bound(self):
        assert len(pt.from_json([1] * (pt.MAX_LENGTH + 1))) == pt.MAX_LENGTH + 1
        with pytest.raises(PolyParseError, match="longer than"):
            pt.from_json([0] * (pt.MAX_LENGTH + 2))

"""Grammar for user-supplied integer sequence formulas."""

import json

import pytest
from hypothesis import given, strategies as st

from reclab import cli
from reclab.seqexpr import EBNF, SeqExprError, compile_sequence, parse_expr

THREE_FACTORS = "(2^499999)*(2^499999)*(2^499999)"


class TestEval:
    @pytest.mark.parametrize(
        "text,k,expected",
        [
            ("k^2", 7, 49),
            ("k^3 - k", 4, 60),
            ("2^k", 10, 1024),
            ("k*(k+1)", 3, 12),
            ("-k + 5", 2, 3),
            ("k mod 7", 23, 2),
            ("2^k mod 10", 6, 4),
            ("2*k^2 + 3*k + 1", 2, 15),
            ("((k))", 9, 9),
            ("7", 123, 7),
        ],
    )
    def test_values(self, text, k, expected):
        assert compile_sequence(text)(k) == expected

    def test_power_right_associates(self):
        assert compile_sequence("2^3^2")(0) == 512

    def test_power_binds_tighter_than_unary(self):
        # -2^2 parses as -(2^2)
        assert compile_sequence("-2^2")(0) == -4

    def test_mul_before_add(self):
        assert compile_sequence("1 + 2*3")(0) == 7

    def test_mod_is_multiplicative_level(self):
        assert compile_sequence("10 mod 3 + 1")(0) == 2

    def test_whitespace_tolerated(self):
        assert compile_sequence("  k ^ 2  ")(5) == 25

    @given(st.integers(0, 500))
    def test_shifted_squares_closed_form(self, k):
        assert compile_sequence("k^2 + 1")(k) == k * k + 1


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "k +",
            "k k",
            "(k",
            "k)",
            "2 ** 3",
            "k!",
            "x",
            "mod 3",
            "1.5",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(SeqExprError):
            parse_expr(text)

    def test_mod_zero(self):
        f = compile_sequence("k mod (k - 3)")
        assert f(5) == 1
        with pytest.raises(SeqExprError):
            f(3)

    def test_negative_exponent(self):
        f = compile_sequence("2^(k - 1)")
        assert f(3) == 4
        with pytest.raises(SeqExprError):
            f(0)

    def test_result_size_guard(self):
        f = compile_sequence("2^k")
        assert f(200) == 2**200  # big but fine
        with pytest.raises(SeqExprError):
            f(10_000_000)

    def test_stacked_power_guard(self):
        with pytest.raises(SeqExprError):
            compile_sequence("9^9^9")(0)

    def test_product_guard(self):
        # two factors reach 999,999 bits; the third would pass a million
        assert compile_sequence("(2^499999)*(2^499999)")(0) == 2**999998
        with pytest.raises(SeqExprError):
            compile_sequence(THREE_FACTORS)(0)

    @pytest.mark.parametrize(
        "text,bits",
        [("2^999999", 1_000_000), ("3^630000", 998_527), ("(2^499999)*(2^500000)", 1_000_000)],
    )
    def test_guards_admit_up_to_max_bits(self, text, bits):
        # MAX_BITS = 10**6 bits exactly is admitted
        assert compile_sequence(text)(0).bit_length() == bits

    @pytest.mark.parametrize("text", ["2^1000000", "3^630930", "(2^499999)*(2^500001)", "(-2)^1000000"])
    def test_guards_refuse_past_max_bits(self, text):
        with pytest.raises(SeqExprError):
            compile_sequence(text)(0)

    def test_power_past_max_bits_exits_2(self, capsys):
        # --rk, since --nk is parsed but never evaluated; on a rational
        # frequency the admitted offset's norm is shown exactly, where a
        # surd's would carry coefficients of 301,030 digits
        argv = ["dyn", "psi", "--alpha", "1/3", "--horizon", "3", "--nk", "k", "--rk"]
        assert cli.main([*argv, "2^999999"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["psi"]["exact"] == "1/3"
        assert cli.main([*argv, "2^1000000"]) == 2
        assert capsys.readouterr().out == ""

    def test_product_guard_exits_2(self, capsys):
        rc = cli.main(["dyn", "psi", "--alpha", "golden", "--nk", "k", "--rk", THREE_FACTORS, "--horizon", "3"])
        assert rc == 2
        assert capsys.readouterr().out == ""


class TestDepth:
    """Only a formula's length limits its nesting: neither pass recurses."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(" * 100_000 + "k" + ")" * 100_000, 3),
            ("+".join(["k"] * 100_000), 300_000),
            ("-" * 100_001 + "k", -3),
        ],
        ids=["nested-parentheses", "long-sum", "minus-signs"],
    )
    def test_deep_formula(self, text, expected):
        assert compile_sequence(text)(3) == expected

    def test_deep_formula_through_cli(self):
        # the --rk= form, since a formula may start with "-"; --rk is evaluated
        deep = "(" * 10_000 + "k" + ")" * 10_000
        assert cli.main(["dyn", "psi", "--alpha", "golden", "--nk", "k", "--rk=" + deep, "--horizon", "3"]) == 0


class TestEbnf:
    def test_constant_mentions_every_token(self):
        for tok in ("expr", "term", "power", "mod", '"k"', '"^"'):
            assert tok in EBNF

"""Parser and canonical formatter for the symbol language."""

import hashlib
import random
import re
import sys
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from bjcalc.exact import AmplitudePoly, ExactScalar, SymbolPoly
from bjcalc.symlang import (
    MAX_EXPONENT,
    MAX_TERM_PRODUCTS,
    _power_products,
    SymLangError,
    format_operator,
    format_symbol,
    parse,
)
from bjcalc.operators import OpPoly
from bjcalc.quantize import BornJordan, Tau, Weyl, quantize_symbol


def _random_symbol(rng, dim, max_deg=6, n_terms=4):
    a = SymbolPoly.zero(dim)
    for _ in range(n_terms):
        while True:
            kx = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            kp = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            if sum(kx) + sum(kp) <= max_deg:
                break
        coeff = ExactScalar.rational(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
        ) + ExactScalar.hbar(rng.randrange(3)).scale(rng.randrange(-3, 4))
        a = a + SymbolPoly.monomial(dim, coeff=coeff, x=kx, p=kp)
    return a


class TestParsing:
    def test_precedence(self):
        a = parse("2 + 3*x^2")
        expected = SymbolPoly.constant(1, ExactScalar.rational(2)) + (
            SymbolPoly.monomial(1, x=(2,)).scale(ExactScalar.rational(3))
        )
        assert a == expected

    def test_unary_minus_and_parens(self):
        assert parse("-(x - p)") == parse("p - x")
        assert parse("-x^2") == -parse("x^2")
        assert parse("(-x)^2") == parse("x^2")

    def test_rationals_and_constants(self):
        a = parse("1/2*hbar^2 + i*x")
        expected = SymbolPoly.constant(
            1, ExactScalar.hbar(2).scale(Fraction(1, 2))
        ) + SymbolPoly.monomial(1, coeff=ExactScalar.i(), x=(1,))
        assert a == expected

    def test_bare_variables_alias_in_1d(self):
        assert parse("x*p") == parse("x1*p1")

    def test_cancellation(self):
        assert parse("x1*p2 - p2*x1", dim=2).is_zero()
        assert format_symbol(parse("x - x")) == "0"

    def test_dimension_checks(self):
        with pytest.raises(SymLangError):
            parse("x", dim=2)  # ambiguous
        with pytest.raises(SymLangError):
            parse("x3", dim=2)
        assert not parse("x2*p1", dim=2).is_zero()

    @pytest.mark.parametrize("text, dim, message, position", [
        ("x", 2, "variable 'x' needs an index in dimension 2", 0),
        ("p1 + x3", 2, "variable index out of range for dimension 2: 'x3'", 5),
        ("x0", 1, "variable index out of range for dimension 1: 'x0'", 0),
        ("2*xhat", 1, "malformed variable name 'xhat'", 2),
        ("y1", 1, "unknown identifier 'y1'", 0),
        ("x + foo", 1, "unknown identifier 'foo'", 4),
        ("x1*p1_0", 10, "malformed variable name 'p1_0'", 3),
    ])
    def test_variable_name_errors(self, text, dim, message, position):
        """The parser reports exact.parse_var's rule at the name's position."""
        with pytest.raises(SymLangError) as exc:
            parse(text, dim)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    @pytest.mark.parametrize(
        "bad",
        [
            "", "x^-1", "x^", "2x", "x p", "x**2", "(x", "x)", "1/0", "q", "x^1/2",
            "hbar2", "+", "x+", "3.5", "x^9999999",
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(SymLangError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(SymLangError) as exc:
            parse("x + $")
        assert exc.value.position == 4

    def test_deep_nesting_bounded(self):
        deep = "(" * 400 + "x" + ")" * 400
        with pytest.raises(SymLangError):
            parse(deep)

    def test_exponent_cap(self):
        with pytest.raises(SymLangError):
            parse(f"x^{MAX_EXPONENT + 1}")

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no digit limit")
    def test_long_numerals(self):
        # leading zeros count for nothing; a numeral with more digits than
        # Python converts is an error at its position, in the parser's words
        limit = sys.get_int_max_str_digits()
        zeros = "0" * (limit + 100)
        assert parse(f"x^{zeros}2") == parse("x^2")
        assert parse(f"{zeros}3/{zeros}4*p") == parse("3/4*p")
        nines = "9" * limit
        assert format_symbol(parse(f"{nines}*x")) == f"{nines}*x"
        for text, message, position in [
            (f"9{nines}*x", f"numeral has more than {limit} digits", 0),
            (f"x + 1/{nines}7", f"numeral has more than {limit} digits", 6),
            (f"x^{nines}9", f"exponent exceeds limit {MAX_EXPONENT}", 2),
        ]:
            with pytest.raises(SymLangError) as exc:
                parse(text)
            assert str(exc.value) == f"{message} (at position {position})"


class TestRoundTrip:
    def test_random_symbols_roundtrip(self):
        rng = random.Random(67)
        for _ in range(200):
            dim = rng.choice([1, 1, 2, 3])
            a = _random_symbol(rng, dim)
            assert parse(format_symbol(a), dim=dim) == a

    def test_canonical_form_is_stable(self):
        rng = random.Random(71)
        for _ in range(50):
            a = _random_symbol(rng, 1)
            text = format_symbol(a)
            assert format_symbol(parse(text)) == text

    def test_known_strings(self):
        assert format_symbol(parse("x^2*p^2 + 1/6*hbar^2")) == (
            "x^2*p^2 + (1/6)*hbar^2"
        )
        assert format_symbol(parse("2*p - x")) == "-x + 2*p"

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_total(self, text):
        # any input either parses or raises SymLangError; never crashes
        try:
            parse(text)
        except SymLangError:
            pass


# -- independent oracle: evaluate the text at a point ------------------------
# A recursive-descent evaluator of the grammar over Gaussian rationals
# (pairs of Fractions), sharing nothing with bjcalc.


def _g_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _evaluate_text(text: str, point: dict):
    tokens = re.findall(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^/()]", text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        acc = term()
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            rhs = term()
            acc = (acc[0] + sign * rhs[0], acc[1] + sign * rhs[1])
        return acc

    def term():
        acc = factor()
        while peek() == "*":
            take()
            acc = _g_mul(acc, factor())
        return acc

    def factor():
        base = atom()
        if peek() == "^":
            take()
            out = (Fraction(1), Fraction(0))
            for _ in range(int(take())):
                out = _g_mul(out, base)
            return out
        return base

    def atom():
        tok = take()
        if tok == "(":
            inner = expr()
            assert take() == ")"
            return inner
        if tok == "-":
            v = factor()
            return (-v[0], -v[1])
        if tok.isdigit():
            if peek() == "/":
                take()
                return (Fraction(int(tok), int(take())), Fraction(0))
            return (Fraction(int(tok)), Fraction(0))
        if tok == "i":
            return (Fraction(0), Fraction(1))
        return (point[tok], Fraction(0))

    value = expr()
    assert pos == len(tokens)
    return value


def _evaluate_poly(a: SymbolPoly, point: dict, names: list[str]):
    """Value of a parsed symbol at the point, read off its public terms."""
    total = (Fraction(0), Fraction(0))
    for key, coeff in a.terms.items():
        mono = Fraction(1)
        for name, e in zip(names, (v for block in key for v in block)):
            mono *= point[name] ** e
        for (h, tau), (re, im) in coeff.terms.items():
            assert tau == 0
            scale = mono * point["hbar"] ** h
            total = (total[0] + re * scale, total[1] + im * scale)
    return total


def _random_text(rng, names, depth=0):
    """Linear forms, products, powers, nested parentheses and unary minus."""
    r = rng.random()
    if depth > 3 or r < 0.2:
        return rng.choice(names + ["hbar", "i", f"{rng.randrange(13)}/{rng.randrange(1, 9)}",
                                   str(rng.randrange(20))])
    if r < 0.35:
        return " + ".join(f"{rng.randrange(1, 7)}/{rng.randrange(1, 5)}*{n}" for n in names)
    if r < 0.55:
        return f"({_random_text(rng, names, depth + 1)} {rng.choice('+-')} " \
               f"{_random_text(rng, names, depth + 1)})"
    if r < 0.75:
        return f"({_random_text(rng, names, depth + 1)})*({_random_text(rng, names, depth + 1)})"
    if r < 0.9:
        return f"({_random_text(rng, names, depth + 1)})^{rng.randrange(4)}"
    return f"-{_random_text(rng, names, depth + 1)}"


class TestAgainstEvaluator:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_parse_agrees_at_random_points(self, dim):
        rng = random.Random(300 + dim)
        names = ["x", "p"] if dim == 1 else [
            f"{b}{j + 1}" for b in "xp" for j in range(dim)
        ]
        aliases = ["x1", "p1"] if dim == 1 else names
        for _ in range(60):
            text = _random_text(rng, names)
            a = parse(text, dim)
            for _ in range(2):
                point = {n: Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                         for n in names + ["hbar"]}
                point.update(zip(aliases, (point[n] for n in names)))
                assert _evaluate_poly(a, point, aliases) == _evaluate_text(text, point), text


def _linear_form(rng, names):
    """A rational linear form in every variable, written as the benchmark
    writes its symbols: (text, SymbolPoly built without the parser)."""
    dim = len(names) // 2
    text, poly = "", SymbolPoly.zero(dim)
    for j, name in enumerate(names):
        q = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        negative = rng.random() < 0.4
        if not text:
            text = ("-" if negative else "") + f"{q}*{name}"
        else:
            text += f" {'-' if negative else '+'} {q}*{name}"
        block, index = ("x", j) if j < dim else ("p", j - dim)
        poly = poly + SymbolPoly.variable(dim, (block, index)).scale(
            ExactScalar.rational(-q if negative else q))
    return f"({text})", poly


def _names_of(dim):
    return ["x", "p"] if dim == 1 else [f"{b}{j + 1}" for b in "xp" for j in range(dim)]


class TestParserShapes:
    """The shapes the parser folds or packs: runs of atoms, products of
    rational linear forms, exponents past any fixed field width, and sums
    and products that cancel."""

    @pytest.mark.parametrize("dim, factors", [
        (1, 2), (1, 5), (1, 9), (1, 14), (2, 2), (2, 5), (2, 9), (2, 14),
        (3, 2), (3, 5), (3, 9), (3, 14),
    ])
    def test_products_of_linear_forms(self, dim, factors):
        rng = random.Random(1000 * dim + factors)
        names = _names_of(dim)
        forms = [_linear_form(rng, names) for _ in range(factors)]
        text = "*".join(form for form, _ in forms)
        a = parse(text, dim)
        expected = forms[0][1]
        for _, poly in forms[1:]:
            expected = expected * poly
        assert a == expected and a._den == expected._den
        assert len(a._num) == comb(factors + 2 * dim - 1, 2 * dim - 1)
        aliases = ["x1", "p1"] if dim == 1 else names
        point = {n: Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for n in names + ["hbar"]}
        point.update(zip(aliases, (point[n] for n in names)))
        assert _evaluate_poly(a, point, aliases) == _evaluate_text(text, point)

    def test_runs_of_atoms(self):
        for text in ["3/4*x*2*hbar*p*i*x", "-2*i*hbar^2*x1^3*p2*1/3", "0*x^40*p", "x*x*x*p^0"]:
            dim = 2 if "x1" in text else 1
            names = _names_of(dim)
            aliases = ["x1", "p1"] if dim == 1 else names
            point = {n: Fraction(k + 2, 3) for k, n in enumerate(names + ["hbar"])}
            point.update(zip(aliases, (point[n] for n in names)))
            assert _evaluate_poly(parse(text, dim), point, aliases) == _evaluate_text(text, point)

    def test_exponents_past_any_fixed_width(self):
        assert parse("(hbar^1000)^1000", 1, 64) == SymbolPoly.constant(1, ExactScalar.hbar(10**6))
        a = parse("(x^1000*p^999*hbar^1000)^1000 + (x1^3)^0", 1)
        assert set(a._num) == {(10**6, 999_000, 10**6, 0), (0, 0, 0, 0)}
        b = parse("(x2^1000*p1)^1000*(p3^1000)^1000 - hbar", 3)
        assert set(b._num) == {(0, 10**6, 0, 1000, 0, 10**6, 0, 0), (0, 0, 0, 0, 0, 0, 1, 0)}

    @pytest.mark.parametrize("levels, exponent", [(99, 4), (127, 2)])
    def test_deep_power_chains(self, levels, exponent):
        # each parenthesis level counts twice against MAX_DEPTH: 127 levels
        # is the deepest chain, and 99 levels of ^4 reach x^(2^200)
        text = "(" * levels + f"x^{exponent}" + f")^{exponent}" * levels
        start = time.perf_counter()
        a = parse(text)
        assert time.perf_counter() - start < 0.5
        assert a == SymbolPoly.monomial(1, x=(exponent ** (levels + 1),))
        with pytest.raises(SymLangError, match="too deeply nested"):
            parse("(" * 128 + "x^2" + ")^2" * 128)

    @pytest.mark.parametrize("text, expected", [
        ("(x-x)*p", "0"),
        ("p*(x-x)", "0"),
        ("2*(x+p)*3/4*(x-p)", "(3/2)*x^2 - (3/2)*p^2"),
        ("(x+p)*(x-p) - x^2 + p^2", "0"),
        ("(1/2*x + 1/2*p)*(2*x - 2*p)", "x^2 - p^2"),
        ("(2/4*x + 2/4)^2", "(1/4)*x^2 + (1/2)*x + (1/4)"),
        ("(x+i*p)*(x-i*p) - p^2", "x^2"),
        ("-(x - x)^3 + 0*(x+p)^300*(x+p)^300", "0"),
    ])
    def test_cancellation(self, text, expected):
        a = parse(text)
        assert format_symbol(a) == expected
        assert a == parse(expected) and a._den == parse(expected)._den

    @pytest.mark.parametrize("term, count, x1", [
        ("x1^2", 20000, 2), ("(x1^2)^2", 4000, 4), ("x1^1000", 170, 1000),
    ])
    def test_many_exponents_stay_cheap(self, term, count, x1):
        # the key width follows a bound on the degree, which many exponent
        # literals in separate terms do not raise
        dense = TestTermBudget.DENSE_3D + "^16"
        text = dense + f" + {term}" * count
        start = time.perf_counter()
        a = parse(text, 3)
        assert time.perf_counter() - start < 2.0
        assert a == parse(dense, 3) + SymbolPoly.monomial(
            3, ExactScalar.rational(count), x=(x1, 0, 0))

    def test_degree_of_a_cancelled_product(self):
        # a product that cancels to zero has degree 0 for the budget
        assert parse("x^40*(p-p)*x^30", max_degree=64).is_zero()
        with pytest.raises(SymLangError, match="product degree 70"):
            parse("x^40*(p+p)*x^29", max_degree=64)


class TestDegreeBudget:
    @pytest.mark.parametrize("text", ["((x+p)^20)^20", "(x+p+x^2*p^3)^1000"])
    def test_rejected_before_expanding(self, text):
        start = time.perf_counter()
        with pytest.raises(SymLangError) as exc:
            parse(text, max_degree=64)
        assert time.perf_counter() - start < 0.5
        assert "degree" in str(exc.value)
        assert exc.value.position == text.rindex("^")

    def test_product_checked_at_its_operator(self):
        text = "x^40*p^30"
        with pytest.raises(SymLangError) as exc:
            parse(text, max_degree=64)
        assert "degree 70" in str(exc.value) and exc.value.position == text.index("*")
        assert parse(text, max_degree=70) == parse(text)

    def test_budget_is_exact(self):
        # a cancelling sum inside does not count against the budget, and
        # a power of exactly the budget passes
        assert parse("(x - x + p)^64", max_degree=64) == parse("p^64")
        with pytest.raises(SymLangError):
            parse("(x - x + p)^65", max_degree=64)

    @pytest.mark.parametrize("text", ["x", "p + 1", "hbar - x", "-(x)"])
    def test_result_above_budget(self, text):
        with pytest.raises(SymLangError) as exc:
            parse(text, max_degree=0)
        assert "symbol degree 1 exceeds max degree 0" in str(exc.value)
        assert exc.value.position == 0
        assert parse(text, max_degree=1) == parse(text)

    def test_unbounded_power_unchanged(self):
        a = parse("(x+p)^200")
        assert a == sum(
            (SymbolPoly.monomial(1, ExactScalar.rational(comb(200, k)), x=(k,), p=(200 - k,))
             for k in range(201)),
            SymbolPoly.zero(1),
        )


class TestTermBudget:
    DENSE_3D = "(x1+p1+x2+p2+x3+p3)"

    @pytest.mark.parametrize("text, dim, max_degree, operator", [
        ("((1+hbar)^100)^40", 1, 64, 14),
        ("(x1+p1+x2+p2+x3+p3)^64", 3, 64, 19),
        ("(x+p+x^2*p^3)^1000", 1, None, 13),
    ])
    def test_rejected_before_expanding(self, text, dim, max_degree, operator):
        start = time.perf_counter()
        with pytest.raises(SymLangError) as exc:
            parse(text, dim, max_degree)
        assert time.perf_counter() - start < 0.5
        assert "term products" in str(exc.value)
        assert exc.value.position == operator

    def test_dense_power_fits(self):
        a = parse(self.DENSE_3D + "^16", 3, max_degree=64)
        assert len(a.terms) == comb(21, 5)
        assert _power_products(parse(self.DENSE_3D, 3), 16) <= MAX_TERM_PRODUCTS

    def test_powers_of_collinear_terms_fit(self):
        # counting multisets of terms alone would charge these millions
        assert len(parse("(1+x+x^2)^200")._num) == 401
        assert parse("((1+hbar)^10)^30") == parse("(1+hbar)^300")

    def test_product_checked_at_its_operator(self):
        text = f"{self.DENSE_3D}^8*{self.DENSE_3D}^8"
        with pytest.raises(SymLangError) as exc:
            parse(text, 3)
        assert "term products" in str(exc.value) and exc.value.position == text.index("*")

    def test_budget_is_cumulative(self):
        # (x+p)^500 alone fits; twice it does not, and the second power is blamed
        assert _power_products(parse("x+p"), 500) == 2 * comb(501, 2)
        parse("(x+p)^500")
        text = "(x+p)^500 + (x+p)^500"
        with pytest.raises(SymLangError) as exc:
            parse(text)
        assert exc.value.position == text.rindex("^")

    @pytest.mark.parametrize("base, dim", [
        ("x+p", 1), ("1+hbar", 1), ("1+x+x^2", 1), ("x*p+x+p+1", 1),
        ("x-x", 1), ("7", 1), ("x+i*p+hbar*x^2", 1), ("x1+p2+x1*p1+hbar", 2),
        ("x1+p1+x2+p2+x3+p3", 3), ("(1+hbar)^3 + x", 1),
    ])
    def test_power_bound_covers_the_work(self, base, dim):
        b = parse(base, dim)
        for exponent in range(8):
            work, power = 0, parse("1", dim)
            for _ in range(exponent):
                work += len(power._num) * len(b._num)
                power = power * b
            assert work <= _power_products(b, exponent), exponent
            assert parse(f"({base})^{exponent}", dim) == power


def _format_corpus() -> list[str]:
    """Seeded 1-3-D symbols, their Weyl, Born-Jordan, tau = 1/3 and formal
    tau quantizations, and commutators of the Born-Jordan ones, as text."""
    rng = random.Random(20261019)
    texts = []
    for dim in (1, 1, 1, 2, 2, 3):
        ops = []
        for _ in range(4):
            a = _random_symbol(rng, dim, max_deg=5, n_terms=5)
            texts.append(format_symbol(a))
            for scheme in (Weyl(), BornJordan(), Tau(Fraction(1, 3)), Tau()):
                texts.append(format_operator(quantize_symbol(scheme, a)))
            ops.append(quantize_symbol(BornJordan(), a))
        texts.append(format_operator(ops[0].commutator(ops[1])))
        texts.append(format_operator(ops[2].commutator(ops[3])))
    return texts


class TestFormatterDigest:
    # SHA-256 of the corpus text as the formatter printed it before it
    # cached its factor strings: the output must stay byte-identical
    SHA256 = "fef786a6cf809165fd994ac8f3b88b350b16938bd426e322b1ca17fe9331b0b5"

    def test_corpus_digest(self):
        h = hashlib.sha256()
        for text in _format_corpus():
            h.update(text.encode())
            h.update(b"\n")
        assert h.hexdigest() == self.SHA256


class TestOperatorFormatting:
    def test_known_operator(self):
        op = quantize_symbol(Weyl(), parse("x*p"))
        assert format_operator(op) == "xhat*phat - (1/2)*i*hbar"

    def test_zero_and_identity(self):
        assert format_operator(OpPoly.zero(1)) == "0"
        assert format_operator(OpPoly.identity(1)) == "1"

    def test_two_dim_names(self):
        op = OpPoly.word(2, (1, 0), (0, 2))
        assert format_operator(op) == "xhat1*phat2^2"


class TestRepr:
    """Every exact kind prints as Kind(canonical text)."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_symbol_repr_parses_back(self, dim):
        rng = random.Random(dim)
        for _ in range(20):
            a = _random_symbol(rng, dim)
            text = format_symbol(a)
            assert repr(a) == f"SymbolPoly({text})"
            assert parse(text, dim) == a

    @pytest.mark.parametrize("dim", [1, 2])
    def test_operator_repr_is_its_text(self, dim):
        rng = random.Random(10 + dim)
        for _ in range(10):
            op = quantize_symbol(Weyl(), _random_symbol(rng, dim, max_deg=4))
            assert repr(op) == f"OpPoly({format_operator(op)})"

    def test_fixed_reprs(self):
        half, sixth = Fraction(1, 2), Fraction(1, 6)
        scalar = (ExactScalar.rational(Fraction(-3, 4), half)
                  + ExactScalar.hbar(2).scale(sixth) + ExactScalar.tau() * ExactScalar.hbar())
        bj = quantize_symbol(BornJordan(), parse("x1*p1^2 - 1/3*x2*p2", 2))
        amplitude = AmplitudePoly.monomial(1, ExactScalar.rational(half), x=(1,), y=(2,), p=(1,))
        cases = [
            (scalar, "ExactScalar(-(3/4-1/2*i) + hbar*tau + (1/6)*hbar^2)"),
            (ExactScalar.zero(), "ExactScalar(0)"),
            (ExactScalar.i(), "ExactScalar(i)"),
            (-ExactScalar.one(), "ExactScalar(-1)"),
            (quantize_symbol(Weyl(), parse("x^2*p^2")),
             "OpPoly(xhat^2*phat^2 - 2*i*hbar*xhat*phat - (1/2)*hbar^2)"),
            (bj, "OpPoly(xhat1*phat1^2 - (1/3)*xhat2*phat2 - i*hbar*phat1 + (1/6)*i*hbar)"),
            (OpPoly.zero(2), "OpPoly(0)"),
            (OpPoly.identity(1), "OpPoly(1)"),
            (SymbolPoly.variable(1, "x"), "SymbolPoly(x)"),
            (SymbolPoly.zero(2), "SymbolPoly(0)"),
            (amplitude + AmplitudePoly.constant(1, ExactScalar.hbar()),
             "AmplitudePoly((1/2)*x*y^2*p + hbar)"),
            (AmplitudePoly.variable(2, "y2")
             - AmplitudePoly.variable(2, "x1").scale(ExactScalar.i()), "AmplitudePoly(-i*x1 + y2)"),
        ]
        for value, text in cases:
            assert repr(value) == text

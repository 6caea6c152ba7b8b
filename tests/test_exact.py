"""Ring axioms and calculus identities for the exact scalar/polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bjcalc.exact import (
    AmplitudePoly,
    ExactScalar,
    ONE,
    SymbolPoly,
    parse_var,
)
from bjcalc.operators import OpPoly
from bjcalc.quantize import BornJordan, quantize_symbol
from bjcalc.symlang import parse

rationals = st.builds(
    Fraction, st.integers(-40, 40), st.integers(1, 8)
)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
        terms[key] = (draw(rationals), draw(rationals))
    return ExactScalar(terms)


class TestExactScalar:
    @given(scalars(), scalars(), scalars())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ExactScalar.zero() == a
        assert a * ONE == a
        assert (a - a).is_zero()

    def test_complex_unit(self):
        i = ExactScalar.i()
        assert i * i == ExactScalar.rational(-1)
        assert i.conjugate() == -i

    @given(scalars())
    @settings(max_examples=40, deadline=None)
    def test_conjugation_involution(self, a):
        assert a.conjugate().conjugate() == a

    def test_power_matches_repeated_product(self):
        a = ExactScalar.rational(Fraction(2, 3), 1) + ExactScalar.hbar()
        acc = ONE
        for k in range(6):
            assert a**k == acc
            acc = acc * a

    def test_integrate_unit_monomials(self):
        tau = ExactScalar.tau()
        for k in range(6):
            assert (tau**k).integrate_unit_interval() == ExactScalar.rational(
                Fraction(1, k + 1)
            )

    @given(scalars(), scalars())
    @settings(max_examples=40, deadline=None)
    def test_integrate_unit_linear(self, a, b):
        lhs = (a + b).integrate_unit_interval()
        rhs = a.integrate_unit_interval() + b.integrate_unit_interval()
        assert lhs == rhs

    def test_substitute_aux(self):
        v = ExactScalar.tau() ** 3 + ExactScalar.hbar()
        out = v.substitute_aux(Fraction(1, 2))
        assert out == ExactScalar.rational(Fraction(1, 8)) + ExactScalar.hbar()

    def test_to_complex(self):
        v = ExactScalar.rational(1, 2) + ExactScalar.hbar(2).scale(3)
        assert v.to_complex(2.0) == complex(13, 2)
        with pytest.raises(ValueError):
            ExactScalar.tau().to_complex(1.0)


def _g_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def _g_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _evaluate(s, hbar, tau):
    """s at a rational point, from its terms, as a Gaussian rational (re, im)."""
    total = (Fraction(0), Fraction(0))
    for (h, a), value in s.terms.items():
        total = _g_add(total, _g_mul(value, (hbar**h * tau**a, Fraction(0))))
    return total


class TestScalarEvaluation:
    """Evaluation at a rational (hbar, tau) commutes with every operation."""

    @given(scalars(), scalars(), rationals, rationals, rationals, st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_ring_operations(self, a, b, hbar, tau, q, k):
        def ev(s):
            return _evaluate(s, hbar, tau)

        va, vb = ev(a), ev(b)
        assert ev(a + b) == _g_add(va, vb)
        assert ev(a - b) == _g_add(va, (-vb[0], -vb[1]))
        assert ev(a * b) == _g_mul(va, vb)
        power = (Fraction(1), Fraction(0))
        for _ in range(k):
            power = _g_mul(power, va)
        assert ev(a**k) == power
        assert ev(a.scale(q)) == (q * va[0], q * va[1])
        assert ev(a.conjugate()) == (va[0], -va[1])

    @given(scalars(), rationals, rationals)
    @settings(max_examples=80, deadline=None)
    def test_aux_operations(self, a, hbar, tau):
        assert _evaluate(a.substitute_aux(tau), hbar, Fraction(5)) == _evaluate(
            a, hbar, tau
        )
        # integral over [0, 1] of tau^e is 1/(e + 1)
        integral = (Fraction(0), Fraction(0))
        for (h, e), value in a.terms.items():
            integral = _g_add(integral, _g_mul(value, (hbar**h / (e + 1), Fraction(0))))
        assert _evaluate(a.integrate_unit_interval(), hbar, Fraction(7)) == integral


class TestScalarValidation:
    @pytest.mark.parametrize("terms, error", [
        ({(0,): (1, 0)}, ValueError),
        ({(0, 0, 0): (1, 0)}, ValueError),
        ({(-1, 0): (1, 0)}, ValueError),
        ({(0, 1.0): (1, 0)}, ValueError),
        ({"hbar": (1, 0)}, ValueError),
        ({(0, 0): (0.5, 0)}, TypeError),
        ({(0, 0): (1, 0.25)}, TypeError),
        ({(0, -2): (1, 0)}, ValueError),
    ])
    def test_malformed_terms_are_rejected(self, terms, error):
        with pytest.raises(error):
            ExactScalar(terms)

    def test_negative_powers_are_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar.hbar(-1)

    def test_short_key_never_reaches_a_polynomial(self):
        with pytest.raises(ValueError):
            SymbolPoly.constant(1, ExactScalar({(0,): (Fraction(1, 2), 0)}))

    @pytest.mark.parametrize("q", [
        Fraction(10**20 + 1, 3 * 10**20),
        # float(num) / float(den) and num * (1 / den) are both off by one ulp here
        Fraction(10**20 + 2, 3 * 10**19 + 3),
    ])
    def test_to_complex_is_correctly_rounded(self, q):
        v = ExactScalar.rational(q, -q) + ExactScalar.hbar(2).scale(q)
        assert v.to_complex(0.0) == complex(float(q), float(-q))
        assert ExactScalar.hbar().scale(q).to_complex(1.0) == complex(float(q), 0.0)

    def test_to_complex_rounds_a_cancelling_sum_once(self):
        # -(5/3) i hbar + (500/27) i hbar^3 nearly cancels at hbar = 0.3: a
        # sum of rounded terms read -5.55e-17 i, the exact value -3.70e-17 i
        v = (ExactScalar.hbar().scale(ExactScalar.rational(0, Fraction(-5, 3)))
             + ExactScalar.hbar(3).scale(ExactScalar.rational(0, Fraction(500, 27))))
        h = Fraction(0.3)
        exact = Fraction(-5, 3) * h + Fraction(500, 27) * h**3
        assert v.to_complex(0.3) == complex(0.0, float(exact))
        assert abs(float(exact) + 3.70e-17) < 1e-19

    def test_to_complex_past_double_range_names_hbar(self):
        big = ExactScalar.hbar(2).scale(Fraction(1, 10**300))
        assert big.to_complex(1e200) == 1e100  # 1e400 * 1e-300, rounded once
        with pytest.raises(ValueError, match=r"exceeds the double range at hbar = 1e\+200"):
            ExactScalar.hbar(2).to_complex(1e200)
        with pytest.raises(ValueError, match="exceeds the double range at hbar = 1"):
            ExactScalar.rational(10**400).to_complex(1.0)


@st.composite
def symbol_polys(draw, dim):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        kx = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        kp = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        terms[(kx, kp)] = draw(scalars())
    return SymbolPoly(dim, terms)


def _triples(draw):
    dim = draw(st.integers(1, 2))
    return tuple(draw(symbol_polys(dim)) for _ in range(3))


class TestSymbolPolyRing:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, data):
        a, b, c = _triples(data.draw)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert (a + (-a)).is_zero() and a - a == SymbolPoly.zero(a.dim)
        assert a * b == b * a

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_terms_roundtrip_and_hash(self, data):
        a, b, c = _triples(data.draw)
        assert SymbolPoly(a.dim, a.terms) == a
        for lhs, rhs in (((a + b) + c, a + (b + c)), (a * b, b * a),
                         (a * (b + c), a * b + a * c)):
            assert lhs == rhs and hash(lhs) == hash(rhs)


def _termwise(poly, weight):
    """{(monomial, hbar power): (re, im)} of poly with each tau^t replaced by
    the Fraction weight(t), summed term by term."""
    out = {}
    for mono, coeff in poly.terms.items():
        for (h, t), (re, im) in coeff.terms.items():
            prev = out.get((mono, h), (Fraction(0), Fraction(0)))
            out[mono, h] = (prev[0] + re * weight(t), prev[1] + im * weight(t))
    return {key: value for key, value in out.items() if any(value)}


class TestAuxOnBlockPolys:
    """The tau integral and tau substitution on two-dimensional symbols and
    operators, against term-by-term Fraction evaluation."""

    MIXED = {
        ((1, 0), (0, 2)): ExactScalar({(0, 0): (Fraction(1, 3), 1), (0, 2): (-2, 0),
                                       (1, 1): (Fraction(5, 7), Fraction(-1, 2))}),
        ((0, 1), (1, 1)): ExactScalar({(2, 0): (4, 0), (2, 3): (0, Fraction(3, 4)),
                                       (1, 1): (-1, 1)}),
    }

    def check(self, poly, value):
        assert _termwise(poly.integrate_unit_interval(), lambda t: 1) == _termwise(
            poly, lambda t: Fraction(1, t + 1)
        )
        assert _termwise(poly.substitute_aux(value), lambda t: 1) == _termwise(
            poly, lambda t: value**t
        )
        for result in (poly.integrate_unit_interval(), poly.substitute_aux(value)):
            assert not result.has_aux() and type(result) is type(poly)

    @pytest.mark.parametrize("cls", [SymbolPoly, OpPoly])
    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 2), Fraction(-2, 7), 3])
    def test_mixed_hbar_and_tau_powers(self, cls, value):
        self.check(cls(2, self.MIXED), value)

    @given(symbol_polys(2), rationals)
    @settings(max_examples=60, deadline=None)
    def test_random(self, a, value):
        for cls in (SymbolPoly, OpPoly):
            self.check(cls(2, a.terms), value)


class TestPoly:
    def test_monomial_constructors(self):
        a = SymbolPoly.monomial(2, x=(1, 0), p=(0, 2))
        b = SymbolPoly.variable(2, ("x", 0)) * SymbolPoly.variable(2, ("p", 1)) ** 0
        x1 = SymbolPoly.variable(2, "x1")
        p2 = SymbolPoly.variable(2, "p2")
        assert a == x1 * p2 * p2
        assert b == x1
        assert SymbolPoly.monomial(2, x=(3, 1), p=(0, 2)).total_degree() == 6

    def test_parse_var(self):
        assert parse_var("x", 1) == ("x", 0)
        assert parse_var("p3", 4) == ("p", 2)
        with pytest.raises(ValueError):
            parse_var("x", 2)
        with pytest.raises(ValueError):
            parse_var("x5", 2)
        assert parse_var("p10", 10) == ("p", 9)

    @pytest.mark.parametrize("make, args", [
        (SymbolPoly.variable, (2, "x+1")),
        (SymbolPoly.variable, (2, "x 1")),
        (SymbolPoly.variable, (10, "p1_0")),
        (SymbolPoly.variable, (2, "x\u0661")),
        (OpPoly.variable, (2, ("x", -1))),
        (OpPoly.variable, (2, ("x", 5))),
        pytest.param(lambda: OpPoly.monomial(1, x=(-1,), p=(2,)), (), id="monomial-args6"),
        pytest.param(lambda: OpPoly.monomial(1, x=(1.5,), p=(0,)), (), id="monomial-args7"),
        (SymbolPoly.variable, (1, "y")),
        pytest.param(lambda: SymbolPoly.monomial(1, y=(1,)), (), id="monomial-y"),
        pytest.param(lambda: SymbolPoly.variable(1, "x") ** -1, (), id="power-minus-one"),
        (SymbolPoly, (0,)),
    ])
    def test_malformed_variables_and_exponents_rejected(self, make, args):
        with pytest.raises(ValueError):
            make(*args)

    def test_a_polynomial_is_not_equal_to_a_number(self):
        assert (parse("x") == 1) is False
        assert (parse("1") == 1) is False


class TestScale:
    """One `scale` for every kind: by a rational or by an ExactScalar."""

    KINDS = {
        "ExactScalar": lambda: ExactScalar.rational(Fraction(2, 3), -1)
        + ExactScalar.hbar(2) * ExactScalar.tau(),
        "SymbolPoly": lambda: parse("x^2*p - 3*i*hbar*x + 1/2"),
        "OpPoly": lambda: quantize_symbol(BornJordan(), parse("x1^2*p1*p2 + 7/3*x2", 2)),
        "AmplitudePoly": lambda: AmplitudePoly.variable(2, "y1")
        * AmplitudePoly.variable(2, "p2") - AmplitudePoly.constant(2, ExactScalar.hbar()),
    }

    @pytest.mark.parametrize("kind", list(KINDS))
    @pytest.mark.parametrize("q", [0, 3, Fraction(-5, 7)])
    def test_a_rational_scales_as_its_scalar(self, kind, q):
        k = self.KINDS[kind]()
        assert k.scale(q) == k.scale(ExactScalar.rational(q))
        assert type(k.scale(q)) is type(k)

    def test_values(self):
        assert parse("x - p").scale(Fraction(1, 2)) == parse("1/2*x - 1/2*p")
        assert ExactScalar.hbar().scale(3) == ExactScalar.hbar() * ExactScalar.rational(3)

    @pytest.mark.parametrize("factor", [
        parse("p"), OpPoly.variable(1, "x"), SymbolPoly.constant(1, ONE), 0.5,
    ], ids=["symbol", "operator", "constant-symbol", "float"])
    def test_anything_else_raises(self, factor):
        # a polynomial's keys are longer than a scalar's, so none is a factor
        with pytest.raises(TypeError):
            parse("x").scale(factor)

"""Quantization rules on monomials and polynomial symbols."""

import ast
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import bjcalc.quantize
from bjcalc.exact import ONE, AmplitudePoly, ExactScalar, SymbolPoly
from bjcalc.operators import DegreeLimitError, MAX_TOTAL_DEGREE, OpPoly
from bjcalc.quantize import (
    BornJordan,
    Tau,
    Weyl,
    amplitude_average,
    amplitude_to_tau_symbol,
    quantize_monomial,
    quantize_symbol,
    tau_average,
)
from bjcalc.transforms import bj_to_tau

I_HBAR = ExactScalar.i() * ExactScalar.hbar()


def _equal_weight_rule(r: int, s: int) -> OpPoly:
    """(1/(s+1)) sum_l phat^(s-l) xhat^r phat^l, assembled independently."""
    out = OpPoly.zero(1)
    for ell in range(s + 1):
        word = (
            OpPoly.monomial(1, x=(0,), p=(s - ell,))
            * OpPoly.monomial(1, x=(r,), p=(0,))
            * OpPoly.monomial(1, x=(0,), p=(ell,))
        )
        out = out + word
    return out.scale(Fraction(1, s + 1))


def _random_symbol(
    rng: random.Random, dim: int, max_deg: int, n_terms: int = 4, hbar: bool = False
):
    a = SymbolPoly.zero(dim)
    for _ in range(n_terms):
        while True:
            kx = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            kp = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            if sum(kx) + sum(kp) <= max_deg:
                break
        coeff = ExactScalar.rational(
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
            Fraction(rng.randrange(-5, 6)),
        )
        if hbar:
            coeff = coeff * ExactScalar.hbar(rng.randrange(3))
        a = a + SymbolPoly.monomial(dim, coeff=coeff, x=kx, p=kp)
    return a


def _word_product_quantize(scheme, a: SymbolPoly) -> OpPoly:
    """Reference quantizer built from OpPoly products only.

    Per dimension j, the tau-image of x_j^r p_j^s is
    sum_l C(s,l) (1-tau)^l tau^(s-l) phat_j^(s-l) xhat_j^r phat_j^l, each
    word a product of three normal-ordered words.  The images multiply
    across dimensions at a shared tau; Born-Jordan averages that product.
    """
    if isinstance(scheme, Weyl):
        tau = ExactScalar.rational(Fraction(1, 2))
    elif isinstance(scheme, Tau) and scheme.tau is not None:
        tau = ExactScalar.rational(Fraction(scheme.tau))
    else:
        tau = ExactScalar.tau()
    one_minus_tau = ExactScalar.one() - tau
    n = a.dim

    def e(j, k):
        return tuple(k if i == j else 0 for i in range(n))

    zero = (0,) * n
    out = OpPoly.zero(n)
    for (kx, kp), coeff in a.terms.items():
        factor = OpPoly.constant(n, ONE)
        for j in range(n):
            r, s = kx[j], kp[j]
            if not (r or s):
                continue
            image = OpPoly.zero(n)
            for ell in range(s + 1):
                weight = (one_minus_tau**ell) * (tau ** (s - ell))
                word = (
                    OpPoly.monomial(n, x=zero, p=e(j, s - ell))
                    * OpPoly.monomial(n, x=e(j, r), p=zero)
                    * OpPoly.monomial(n, x=zero, p=e(j, ell))
                )
                image = image + word.scale(weight.scale(comb(s, ell)))
            factor = factor * image
        out = out + factor.scale(coeff)
    return tau_average(out) if isinstance(scheme, BornJordan) else out


class TestMonomialRules:
    def test_xp_examples(self):
        x, p = OpPoly.variable(1, "x"), OpPoly.variable(1, "p")
        sym = (x * p + p * x).scale(Fraction(1, 2))
        assert quantize_monomial(Weyl(), 1, 1) == sym
        assert quantize_monomial(BornJordan(), 1, 1) == sym
        assert quantize_monomial(Tau(0), 1, 1) == x * p
        assert quantize_monomial(Tau(1), 1, 1) == p * x

    def test_r2s2_values(self):
        x, p = OpPoly.variable(1, "x"), OpPoly.variable(1, "p")
        base = x * x * p * p - (x * p).scale(I_HBAR.scale(2))
        hbar2 = OpPoly.constant(1, ExactScalar.hbar(2))
        assert quantize_monomial(BornJordan(), 2, 2) == base - hbar2.scale(Fraction(2, 3))
        assert quantize_monomial(Weyl(), 2, 2) == base - hbar2.scale(Fraction(1, 2))

    def test_born_jordan_equals_equal_weight_rule(self):
        for r in range(7):
            for s in range(7):
                assert quantize_monomial(BornJordan(), r, s) == _equal_weight_rule(r, s)

    def test_born_jordan_is_tau_average(self):
        for r in range(9):
            for s in range(9):
                formal = quantize_monomial(Tau(None), r, s)
                assert tau_average(formal) == quantize_monomial(BornJordan(), r, s)

    def test_midpoint_is_symmetric_rule(self):
        for r in range(7):
            for s in range(7):
                assert quantize_monomial(Tau(Fraction(1, 2)), r, s) == quantize_monomial(
                    Weyl(), r, s
                )

    def test_self_adjointness(self):
        for r in range(5):
            for s in range(5):
                for scheme in (Weyl(), BornJordan()):
                    op = quantize_monomial(scheme, r, s)
                    assert op.adjoint() == op

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            quantize_monomial(Weyl(), -1, 0)


class TestSymbolQuantization:
    def test_linearity(self):
        rng = random.Random(23)
        a = _random_symbol(rng, 1, 5)
        b = _random_symbol(rng, 1, 5)
        for scheme in (Weyl(), BornJordan(), Tau(Fraction(1, 3))):
            assert quantize_symbol(scheme, a + b) == quantize_symbol(
                scheme, a
            ) + quantize_symbol(scheme, b)

    def test_monomial_consistency(self):
        rng = random.Random(29)
        for _ in range(10):
            r, s = rng.randrange(5), rng.randrange(5)
            a = SymbolPoly.monomial(1, x=(r,), p=(s,))
            for scheme in (Weyl(), BornJordan(), Tau(Fraction(1, 4))):
                assert quantize_symbol(scheme, a) == quantize_monomial(scheme, r, s)

    def test_two_dim_average_of_shared_parameter(self):
        # the multi-dim Born-Jordan value averages the product at a shared
        # parameter; for x1 p1 x2 p2 this differs from the product of the
        # per-dimension averaged rules
        a = SymbolPoly.monomial(2, x=(1, 1), p=(1, 1))
        shared = quantize_symbol(BornJordan(), a)
        formal = quantize_symbol(Tau(None), a)
        assert shared == tau_average(formal)
        per_dim = tau_average(
            quantize_symbol(Tau(None), SymbolPoly.monomial(2, x=(1, 0), p=(1, 0)))
        ) * tau_average(
            quantize_symbol(Tau(None), SymbolPoly.monomial(2, x=(0, 1), p=(0, 1)))
        )
        assert shared != per_dim

    @pytest.mark.parametrize("dim,max_deg", [(1, 8), (2, 5), (3, 4)])
    def test_matches_word_products(self, dim, max_deg):
        rng = random.Random(37 + dim)
        schemes = (Weyl(), BornJordan(), Tau(Fraction(1, 3)), Tau(0), Tau(1), Tau(None))
        # x1 p1 ... xn pn reorders in every dimension at once
        ones = (1,) * dim
        mixed = SymbolPoly.monomial(
            dim, coeff=ExactScalar.rational(2, -1) * ExactScalar.hbar(), x=ones, p=ones
        )
        for _ in range(4):
            a = _random_symbol(rng, dim, max_deg, n_terms=5, hbar=True) + mixed
            for scheme in schemes:
                assert quantize_symbol(scheme, a) == _word_product_quantize(scheme, a)

    def test_degree_limit(self):
        over = MAX_TOTAL_DEGREE + 1
        for a in (
            SymbolPoly.monomial(1, x=(30,), p=(over - 30,)),
            SymbolPoly.monomial(3, x=(20, 0, 5), p=(0, over - 45, 20)),
        ):
            for scheme in (Weyl(), BornJordan(), Tau(None)):
                with pytest.raises(DegreeLimitError):
                    quantize_symbol(scheme, a)
        at_cap = SymbolPoly.monomial(1, x=(32,), p=(MAX_TOTAL_DEGREE - 32,))
        assert quantize_symbol(BornJordan(), at_cap).total_degree() == MAX_TOTAL_DEGREE

    def test_independent_of_transforms(self):
        # the conversions are checked against this quantizer, so it must not
        # be built from them
        tree = ast.parse(Path(bjcalc.quantize.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any("transforms" in name.split(".") for name in imported)

    def test_two_dim_cross_terms_commute(self):
        a = SymbolPoly.monomial(2, x=(2, 0), p=(0, 1))
        op = quantize_symbol(Weyl(), a)
        expected = OpPoly.monomial(2, x=(2, 0), p=(0, 1))
        assert op == expected


class TestAmplitudeRoute:
    def test_average_of_pure_x_square(self):
        # integral over tau of ((1-tau)x + tau y)^2 = (x^2 + x y + y^2)/3
        a = SymbolPoly.monomial(1, x=(2,))
        b = amplitude_average(a)
        third = ExactScalar.rational(Fraction(1, 3))
        expected = (
            AmplitudePoly.monomial(1, coeff=third, x=(2,))
            + AmplitudePoly.monomial(1, coeff=third, x=(1,), y=(1,))
            + AmplitudePoly.monomial(1, coeff=third, y=(2,))
        )
        assert b == expected

    @pytest.mark.parametrize("tau", [0, Fraction(1, 4), Fraction(1, 2), 1])
    def test_amplitude_symbol_matches_conversion(self, tau):
        rng = random.Random(31)
        for _ in range(5):
            a = _random_symbol(rng, 1, 5, n_terms=3)
            via_amplitude = amplitude_to_tau_symbol(amplitude_average(a), tau)
            assert via_amplitude == bj_to_tau(a, tau)

    def test_amplitude_symbol_quantizes_consistently(self):
        a = SymbolPoly.monomial(1, x=(2,), p=(2,))
        tau = Fraction(1, 3)
        sym = amplitude_to_tau_symbol(amplitude_average(a), tau)
        assert quantize_symbol(Tau(tau), sym) == quantize_symbol(BornJordan(), a)

    def test_average_integrates_a_coefficient_tau(self):
        # integral over tau of tau ((1-tau)x + tau y) = x/6 + y/3
        a = SymbolPoly.monomial(1, coeff=ExactScalar.tau(), x=(1,))
        expected = (
            AmplitudePoly.monomial(1, coeff=ExactScalar.rational(Fraction(1, 6)), x=(1,))
            + AmplitudePoly.monomial(1, coeff=ExactScalar.rational(Fraction(1, 3)), y=(1,))
        )
        assert amplitude_average(a) == expected

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("tau", [Fraction(1, 3), Fraction(-2, 7), None])
    def test_averaged_amplitude_matches_conversion(self, dim, tau):
        rng = random.Random(43 + dim)
        for _ in range(4):
            a = _random_symbol(rng, dim, 5, n_terms=3, hbar=True)
            assert amplitude_to_tau_symbol(amplitude_average(a), tau) == bj_to_tau(a, tau)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("tau", [0, Fraction(1, 3), Fraction(1, 2), 1])
    def test_general_amplitude_matches_operator_words(self, dim, tau):
        # b = sum c x^a y^c p^e is the operator sum c xhat^a phat^e xhat^c:
        # x acts on the left and y on the right of the momentum
        rng = random.Random(59 + dim)
        zero = (0,) * dim
        for _ in range(8):
            b, op = AmplitudePoly.zero(dim), OpPoly.zero(dim)
            for _ in range(3):
                ka, kc, ke = (tuple(rng.randrange(3) for _ in range(dim)) for _ in range(3))
                coeff = ExactScalar.rational(
                    Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)), rng.randrange(-2, 3)
                ) * ExactScalar.hbar(rng.randrange(2))
                b = b + AmplitudePoly.monomial(dim, coeff=coeff, x=ka, y=kc, p=ke)
                word = (OpPoly.monomial(dim, x=ka, p=zero) * OpPoly.monomial(dim, x=zero, p=ke)
                        * OpPoly.monomial(dim, x=kc, p=zero))
                op = op + word.scale(coeff)
            assert quantize_symbol(Tau(tau), amplitude_to_tau_symbol(b, tau)) == op

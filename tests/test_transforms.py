"""Symbol conversions, the coefficient family, and their consistency with
quantization."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from bjcalc.exact import ExactScalar, SymbolPoly
from bjcalc import transforms
from bjcalc.quantize import BornJordan, Tau, Weyl, quantize_symbol
from bjcalc.transforms import (
    CoeffTable,
    CoefficientCapError,
    bernoulli,
    bj_to_tau,
    bj_to_weyl,
    c_coeff_1d,
    c_coeff_multi,
    monomial_closed_form,
    tau_shift,
    weyl_to_bj,
)

F = Fraction

# (dimension, max total degree) for the checks against the quantizer.
DIMS = ((1, 6), (2, 4), (3, 4))


def _random_symbol(rng, dim, max_deg, n_terms=4):
    a = SymbolPoly.zero(dim)
    for _ in range(n_terms):
        while True:
            kx = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            kp = tuple(rng.randrange(max_deg + 1) for _ in range(dim))
            if sum(kx) + sum(kp) <= max_deg:
                break
        coeff = ExactScalar.rational(F(rng.randrange(-5, 6), rng.randrange(1, 4)))
        a = a + SymbolPoly.monomial(dim, coeff=coeff, x=kx, p=kp)
    return a


def _mixed_symbol(rng, dim, max_deg):
    """Random symbol plus x1 p1 ... xn pn, so that every d_xj d_pj and their
    products act on it."""
    ones = (1,) * dim
    return _random_symbol(rng, dim, max_deg, n_terms=3) + SymbolPoly.monomial(
        dim, x=ones, p=ones
    )


class TestCoefficients:
    def test_bernoulli_values(self):
        assert [bernoulli(k) for k in range(7)] == [
            F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)
        ]

    def test_bernoulli_against_akiyama_tanigawa(self):
        # an independent O(n^2) table, B_1 = +1/2 by that algorithm
        row, expected = [], []
        for m in range(61):
            row.append(F(1, m + 1))
            for j in range(m, 0, -1):
                row[j - 1] = j * (row[j - 1] - row[j])
            expected.append(row[0])
        expected[1] = -expected[1]
        assert [bernoulli(k) for k in range(61)] == expected

    def test_c_table_values(self):
        expected = {0: F(1), 2: F(-1, 3), 4: F(7, 15), 6: F(-31, 21), 8: F(127, 15)}
        table = CoeffTable.build(8)
        assert table.values == expected
        assert all(c_coeff_1d(k) == 0 for k in range(1, 13, 2))

    def test_multi_reduces_to_1d(self):
        for k in range(0, 11):
            assert c_coeff_multi((k,)) == c_coeff_1d(k)
            assert c_coeff_multi((k, 0)) == c_coeff_1d(k)

    def test_multi_against_ordered_composition_oracle(self):
        # brute-force alternating sum over ordered tuples of nonzero
        # even-order multi-indices summing to alpha
        def alpha_factorial(alpha):
            return prod(factorial(a) for a in alpha)

        def compositions(alpha):
            if not any(alpha):
                yield ()
                return
            for mu in product(*(range(a + 1) for a in alpha)):
                if sum(mu) == 0 or sum(mu) % 2:
                    continue
                for rest in compositions(tuple(a - m for a, m in zip(alpha, mu))):
                    yield (mu,) + rest

        def oracle(alpha):
            total = F(0)
            for tup in compositions(alpha):
                term = F((-1) ** len(tup))
                for mu in tup:
                    term /= alpha_factorial(mu) * (sum(mu) + 1)
                total += term
            return alpha_factorial(alpha) * total

        for alpha in [(2,), (4,), (1, 1), (2, 2), (3, 1), (2, 1, 1)]:
            assert c_coeff_multi(alpha) == oracle(alpha)

    def test_cap(self):
        with pytest.raises(CoefficientCapError):
            c_coeff_multi((14,), cap=12)


class TestConversions:
    def test_x2p2_examples(self):
        a = SymbolPoly.monomial(1, x=(2,), p=(2,))
        hbar2 = SymbolPoly.constant(1, ExactScalar.hbar(2))
        sixth = F(1, 6)
        assert bj_to_weyl(a) == a - hbar2.scale(ExactScalar.rational(sixth))
        assert weyl_to_bj(a) == a + hbar2.scale(ExactScalar.rational(sixth))

    def test_reciprocity_random(self):
        rng = random.Random(37)
        for _ in range(30):
            a = _random_symbol(rng, 1, 8)
            assert weyl_to_bj(bj_to_weyl(a)) == a
            assert bj_to_weyl(weyl_to_bj(a)) == a

    def test_reciprocity_two_dim(self):
        rng = random.Random(41)
        for _ in range(8):
            a = _random_symbol(rng, 2, 6, n_terms=3)
            assert weyl_to_bj(bj_to_weyl(a)) == a
            assert bj_to_weyl(weyl_to_bj(a)) == a

    def test_conversion_agrees_with_quantization(self):
        rng = random.Random(43)
        for dim, max_deg in DIMS:
            for _ in range(10 if dim == 1 else 4):
                a = _mixed_symbol(rng, dim, max_deg)
                assert quantize_symbol(Weyl(), bj_to_weyl(a)) == quantize_symbol(
                    BornJordan(), a
                )
                assert quantize_symbol(BornJordan(), weyl_to_bj(a)) == (
                    quantize_symbol(Weyl(), a)
                )

    def test_monomial_closed_form_matches_series(self):
        for r in range(7):
            for s in range(7):
                a = SymbolPoly.monomial(1, x=(r,), p=(s,))
                assert monomial_closed_form("weyl_of_bj", r, s) == bj_to_weyl(a)
                assert monomial_closed_form("bj_of_weyl", r, s) == weyl_to_bj(a)

    def test_monomial_closed_form_validation(self):
        with pytest.raises(ValueError):
            monomial_closed_form("sideways", 1, 1)
        with pytest.raises(ValueError):
            monomial_closed_form("weyl_of_bj", -1, 0)


class TestTauFamily:
    @pytest.mark.parametrize(
        "tau", [F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]
    )
    def test_bj_to_tau_quantizes_consistently(self, tau):
        rng = random.Random(47)
        for dim, max_deg in DIMS:
            for _ in range(5 if dim == 1 else 2):
                a = _mixed_symbol(rng, dim, max_deg)
                assert quantize_symbol(Tau(tau), bj_to_tau(a, tau)) == (
                    quantize_symbol(BornJordan(), a)
                )

    def test_bj_to_tau_midpoint_is_weyl_conversion(self):
        rng = random.Random(53)
        for _ in range(5):
            a = _random_symbol(rng, 1, 6, n_terms=3)
            assert bj_to_tau(a, F(1, 2)) == bj_to_weyl(a)

    def test_formal_tau_specializes(self):
        for dim in (1, 2, 3):
            ones = (1,) * (dim - 1)
            a = SymbolPoly.monomial(dim, x=(2,) + ones, p=(2,) + ones)
            formal = bj_to_tau(a)
            assert formal.has_aux()
            assert formal.substitute_aux("tau", F(1, 3)) == bj_to_tau(a, F(1, 3))

    def test_tau_shift_xp_example(self):
        # shifting x p from parameter tau' to tau adds i hbar (tau - tau')
        a = SymbolPoly.monomial(1, x=(1,), p=(1,))
        shifted = tau_shift(a, F(1, 2), F(3, 4))
        expected = a + SymbolPoly.constant(
            1, (ExactScalar.i() * ExactScalar.hbar()).scale(F(1, 4))
        )
        assert shifted == expected

    def test_tau_shift_quantizes_consistently(self):
        rng = random.Random(59)
        pairs = [(F(0), F(1)), (F(1, 3), F(1, 2)), (F(3, 4), F(1, 4))]
        for dim, max_deg in ((1, 5), (2, 4), (3, 4)):
            for t_from, t_to in pairs:
                a = _mixed_symbol(rng, dim, max_deg)
                assert quantize_symbol(Tau(t_to), tau_shift(a, t_from, t_to)) == (
                    quantize_symbol(Tau(t_from), a)
                )

    @pytest.mark.parametrize("t", [F(0), F(1, 2), F(-2, 7)])
    def test_tau_shift_to_the_same_parameter_is_the_identity(self, t, monkeypatch):
        calls = []
        apply_d = transforms._apply_d
        monkeypatch.setattr(
            transforms, "_apply_d", lambda *args: calls.append(1) or apply_d(*args)
        )
        a = _mixed_symbol(random.Random(67), 2, 6)
        assert tau_shift(a, t, t) == a
        assert calls == []

    def test_tau_shift_roundtrip_and_composition(self):
        rng = random.Random(61)
        a = _random_symbol(rng, 1, 6)
        assert tau_shift(tau_shift(a, F(0), F(1, 3)), F(1, 3), F(0)) == a
        assert tau_shift(tau_shift(a, F(0), F(1, 4)), F(1, 4), F(1)) == tau_shift(
            a, F(0), F(1)
        )

"""Normal-ordering correctness, checked against an independent
differential-operator representation on polynomial wavefunctions."""

import operator
import random
from fractions import Fraction

import pytest

from bjcalc.exact import ExactScalar, ONE, SymbolPoly
from bjcalc.operators import DegreeLimitError, MAX_TOTAL_DEGREE, OpPoly
from bjcalc.quantize import BornJordan, quantize_symbol
from bjcalc.symlang import parse

I_HBAR = ExactScalar.i() * ExactScalar.hbar()


# -- independent oracle: act on polynomials in x ----------------------------
# xhat = multiplication by x, phat = -i hbar d/dx.  A "wavefunction" is a
# dict x-exponent -> ExactScalar.  Operator equality in dimension 1 follows
# from equal action on all x^k (k up to twice the operator degree).


def _act_word(x_exp: int, p_exp: int, state: dict) -> dict:
    out = dict(state)
    for _ in range(p_exp):  # apply -i hbar d/dx
        nxt = {}
        for k, c in out.items():
            if k:
                nxt[k - 1] = nxt.get(k - 1, ExactScalar.zero()) + (
                    (-I_HBAR).scale(k) * c
                )
        out = nxt
    return {k + x_exp: c for k, c in out.items()}


def _act(op: OpPoly, state: dict) -> dict:
    total: dict = {}
    for ((x_exp,), (p_exp,)), coeff in op.terms.items():
        for k, c in _act_word(x_exp, p_exp, state).items():
            total[k] = total.get(k, ExactScalar.zero()) + c * coeff
    return {k: c for k, c in total.items() if not c.is_zero()}


def _same_action(a: OpPoly, b: OpPoly, max_k: int = 12) -> bool:
    for k in range(max_k + 1):
        if _act(a, {k: ONE}) != _act(b, {k: ONE}):
            return False
    return True


def _random_op(rng: random.Random, dim: int = 1, n_words: int = 3, deg: int = 3):
    out = OpPoly.zero(dim)
    for _ in range(n_words):
        kx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        kp = tuple(rng.randrange(deg + 1) for _ in range(dim))
        coeff = ExactScalar.rational(
            Fraction(rng.randrange(-4, 5)), Fraction(rng.randrange(-4, 5))
        )
        out = out + OpPoly.word(dim, kx, kp, coeff)
    return out


# -- independent oracle: one phat at a time ---------------------------------
# phat xhat^c phat^d = xhat^c phat^(d+1) - i hbar c xhat^(c-1) phat^d, applied
# once per phat, normal-orders phat^k xhat^r in one dimension; a product or
# adjoint reorders each dimension this way and multiplies the sums.


def _reorder_1d(p_exp: int, x_exp: int) -> dict:
    terms = {(x_exp, 0): ONE}
    minus_i_hbar = -I_HBAR
    for _ in range(p_exp):
        out: dict = {}
        for (c, d), coeff in terms.items():
            out[(c, d + 1)] = out.get((c, d + 1), ExactScalar.zero()) + coeff
            if c:
                key = (c - 1, d)
                out[key] = out.get(key, ExactScalar.zero()) + coeff * minus_i_hbar.scale(c)
        terms = out
    return terms


def _reordered_word(dim, ax, ap, bx, bp, coeff) -> dict:
    """coeff xhat^ax phat^ap xhat^bx phat^bp as {(kx, kp): scalar}."""
    partial = {((), ()): coeff}
    for j in range(dim):
        nxt: dict = {}
        for (px, pp), pc in partial.items():
            for (c, d), mc in _reorder_1d(ap[j], bx[j]).items():
                key = (px + (ax[j] + c,), pp + (d + bp[j],))
                nxt[key] = nxt.get(key, ExactScalar.zero()) + pc * mc
        partial = nxt
    return partial


def _oracle_product(a: OpPoly, b: OpPoly) -> OpPoly:
    out: dict = {}
    for (ax, ap), ca in a.terms.items():
        for (bx, bp), cb in b.terms.items():
            for key, c in _reordered_word(a.dim, ax, ap, bx, bp, ca * cb).items():
                out[key] = out.get(key, ExactScalar.zero()) + c
    return OpPoly(a.dim, out)


def _oracle_adjoint(a: OpPoly) -> OpPoly:
    zero = (0,) * a.dim
    out: dict = {}
    for (kx, kp), coeff in a.terms.items():
        for key, c in _reordered_word(a.dim, zero, kp, kx, zero, coeff.conjugate()).items():
            out[key] = out.get(key, ExactScalar.zero()) + c
    return OpPoly(a.dim, out)


def _rich_op(rng: random.Random, dim: int, n_words: int, deg: int) -> OpPoly:
    """Random operator with complex, hbar and formal-tau coefficients."""
    out = OpPoly.zero(dim)
    for _ in range(n_words):
        kx = tuple(rng.randrange(deg + 1) for _ in range(dim))
        kp = tuple(rng.randrange(deg + 1) for _ in range(dim))
        coeff = ExactScalar.rational(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 6)),
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 6)),
        )
        coeff = coeff + ExactScalar.hbar(rng.randrange(1, 3)).scale(
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        )
        if rng.random() < 0.5:
            coeff = coeff + (ExactScalar.tau() ** rng.randrange(1, 3)) * I_HBAR.scale(
                rng.randrange(-2, 3)
            )
        out = out + OpPoly.word(dim, kx, kp, coeff)
    return out


class TestAgainstReorderingOracle:
    @pytest.mark.parametrize("dim, deg, n_words", [(1, 5, 5), (2, 3, 4), (3, 2, 4)])
    def test_product_commutator_adjoint(self, dim, deg, n_words):
        rng = random.Random(100 + dim)
        for _ in range(6):
            a = _rich_op(rng, dim, n_words, deg)
            b = _rich_op(rng, dim, n_words, deg)
            assert a * b == _oracle_product(a, b)
            assert a.commutator(b) == _oracle_product(a, b) - _oracle_product(b, a)
            assert a.adjoint() == _oracle_adjoint(a)


class TestAgainstDifferentialOracle:
    def test_canonical_commutator(self):
        x, p = OpPoly.x_op(1), OpPoly.p_op(1)
        assert x.commutator(p) == OpPoly.constant(1, I_HBAR)

    def test_reordering_single_pair(self):
        # phat xhat = xhat phat - i hbar
        p, x = OpPoly.p_op(1), OpPoly.x_op(1)
        assert p * x == x * p - OpPoly.constant(1, I_HBAR)

    def test_p2x2_example(self):
        p, x = OpPoly.p_op(1), OpPoly.x_op(1)
        lhs = (p * p) * (x * x)
        rhs = (
            x * x * p * p
            - (x * p).scale(I_HBAR.scale(4))
            - OpPoly.constant(1, ExactScalar.hbar(2).scale(2))
        )
        assert lhs == rhs
        assert _same_action(lhs, rhs)

    def test_product_matches_sequential_action(self):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_op(rng)
            b = _random_op(rng)
            prod = a * b
            for k in range(9):
                state = {k: ONE}
                assert _act(prod, state) == _act(a, _act(b, state))

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(10):
            a, b, c = (_random_op(rng, deg=2) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_jacobi_identity(self):
        rng = random.Random(13)
        for _ in range(6):
            a, b, c = (_random_op(rng, deg=2, n_words=2) for _ in range(3))
            total = (
                a.commutator(b.commutator(c))
                + c.commutator(a.commutator(b))
                + b.commutator(c.commutator(a))
            )
            assert total.is_zero()


class TestMultiDimension:
    def test_cross_dimension_commuting(self):
        x1 = OpPoly.x_op(2, 0)
        p2 = OpPoly.p_op(2, 1)
        assert x1.commutator(p2).is_zero()
        assert OpPoly.x_op(2, 1).commutator(OpPoly.p_op(2, 1)) == OpPoly.constant(
            2, I_HBAR
        )

    def test_product_reorders_each_dimension(self):
        rng = random.Random(17)
        for _ in range(8):
            a = _random_op(rng, dim=2, deg=2, n_words=2)
            b = _random_op(rng, dim=2, deg=2, n_words=2)
            assert (a * b) * a == a * (b * a)


class TestStructure:
    def test_adjoint_involution_and_antihomomorphism(self):
        rng = random.Random(19)
        for _ in range(10):
            a = _random_op(rng)
            b = _random_op(rng)
            assert a.adjoint().adjoint() == a
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()

    def test_self_adjoint_generators(self):
        assert OpPoly.x_op(1).adjoint() == OpPoly.x_op(1)
        assert OpPoly.p_op(1).adjoint() == OpPoly.p_op(1)

    @pytest.mark.parametrize(
        "other", [SymbolPoly.variable(1, "x"), ExactScalar.hbar(), OpPoly.x_op(2)]
    )
    def test_mixed_operands_are_rejected(self, other):
        # a symbol's monomials are not operator words, in either order
        op = OpPoly.p_op(1)
        for combine in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                combine(op, other)
            with pytest.raises(ValueError):
                combine(other, op)

    def test_degree_guardrail(self):
        big = OpPoly.word(1, (MAX_TOTAL_DEGREE // 2 + 1,), (0,))
        with pytest.raises(DegreeLimitError):
            big * big


# -- the packed kernel's hazards ----------------------------------------------
# The product, commutator and adjoint add packed keys whose slot width comes
# from the operands, and the commutator skips the j = 0 terms of both orders.


def _check_against_oracles(a: OpPoly, b: OpPoly) -> None:
    for x, y in ((a, b), (b, a)):
        assert x * y == _oracle_product(x, y)
        assert x.commutator(y) == _oracle_product(x, y) - _oracle_product(y, x)
        assert x.adjoint() == _oracle_adjoint(x)


def _dense_symbol(rng: random.Random, dim: int, degree: int) -> SymbolPoly:
    """A product of `degree` rational linear forms in every variable."""
    names = ["x", "p"] if dim == 1 else [f"{v}{j + 1}" for v in "xp" for j in range(dim)]
    forms = (" + ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 5)}/{rng.randint(1, 4)}*{name}"
                        for name in names) for _ in range(degree))
    return parse("*".join(f"({form})" for form in forms), dim)


class TestPackedKernel:
    def test_slots_past_eight_bits(self):
        hbar, tau = ExactScalar.hbar, ExactScalar.tau()
        a = OpPoly.word(1, (1,), (0,), hbar(1000))
        b = OpPoly.word(1, (0,), (1,), hbar(700) * tau ** 300)
        _check_against_oracles(a, b)
        assert a.commutator(b) == OpPoly.constant(1, hbar(1700) * tau ** 300 * I_HBAR)

    def test_degree_cap_in_three_dimensions(self):
        coeff = ExactScalar.rational(Fraction(2, 3), -1) + ExactScalar.hbar(2).scale(5)
        a = OpPoly.word(3, (10, 11, 0), (0, 0, 11), coeff)
        b = OpPoly.word(3, (0, 6, 10), (11, 5, 0), ExactScalar.tau() * I_HBAR)
        assert a.total_degree() + b.total_degree() == MAX_TOTAL_DEGREE
        _check_against_oracles(a, b + OpPoly.x_op(3, 2))
        with pytest.raises(DegreeLimitError):
            a.commutator(b * OpPoly.p_op(3, 0))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_and_commuting_operands_give_the_canonical_zero(self, dim):
        rng = random.Random(23 + dim)
        a, zero = _rich_op(rng, dim, 4, 3), OpPoly.zero(dim)
        results = [a * zero, zero * a, a.commutator(zero), zero.commutator(a), zero.adjoint(),
                   a.commutator(a)]
        if dim > 1:  # polynomials in distinct dimensions commute
            first = OpPoly.word(dim, (2,) + (0,) * (dim - 1), (1,) + (0,) * (dim - 1),
                                ExactScalar.rational(Fraction(3, 7)))
            last = OpPoly.word(dim, (0,) * (dim - 1) + (3,), (0,) * (dim - 1) + (2,),
                               ExactScalar.rational(Fraction(5, 4), Fraction(1, 6)))
            results += [first.commutator(last), last.commutator(first)]
        for out in results:
            assert out == zero and out._num == {} and out._den == 1

    @pytest.mark.parametrize("dim, degree", [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
    def test_commutator_of_born_jordan_operators(self, dim, degree):
        rng = random.Random(29 * dim + degree)
        for _ in range(3):
            a, b = (quantize_symbol(BornJordan(), _dense_symbol(rng, dim, degree))
                    for _ in range(2))
            ab = a.commutator(b)
            assert ab == a * b - b * a
            assert ab == -b.commutator(a)

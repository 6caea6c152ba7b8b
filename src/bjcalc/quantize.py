"""Quantization rules mapping phase-space symbols to operators.

Three calculi are implemented on monomials and extended by linearity:

* the ordering-parameter family: the tau-image of x^r p^s is
  sum_l C(s,l) (1-tau)^l tau^(s-l) phat^(s-l) xhat^r phat^l,
* the symmetric (Weyl) rule, which is that family at tau = 1/2,
* the Born-Jordan rule, the uniform average of the family over tau in
  [0,1]; on a single monomial it is the historical equal-weight rule
  (1/(s+1)) sum_l phat^(s-l) xhat^r phat^l.

Each word is normal-ordered in closed form,

    phat^(s-l) xhat^r phat^l
        = sum_j C(s-l,j) r!/(r-j)! (-i hbar)^j xhat^(r-j) phat^(s-j),

so the tau-image of x^r p^s is

    sum_j (-i hbar)^j xhat^(r-j) phat^(s-j) sum_l c_(j,l) (1-tau)^l tau^(s-l)

with integers c_(j,l) = C(s,l) C(s-l,j) r!/(r-j)!.  A multi-dimensional
monomial is the product over dimensions at a shared tau.  Factors from
distinct dimensions commute, so their normal-ordered keys concatenate: the
j's add into J and the l-polynomials multiply into one polynomial
sum_L c_L (1-tau)^L tau^(S-L), where S = |kp|.  Each scheme then weighs
that polynomial once:

* a rational tau evaluates it;
* Born-Jordan integrates it over [0,1] with the Beta integral
  int (1-tau)^L tau^(S-L) dtau = L! (S-L)! / (S+1)!, which is the average of
  the product at a shared tau, not the product of per-dimension averages;
* a formal tau (Tau(None)) expands it into powers of tau.

The operator product of operators.py is not used here, so the tests can
check this module against products of OpPoly words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm, perm
from typing import Callable, Union

from .exact import (
    AmplitudePoly,
    ExactScalar,
    RationalLike,
    SymbolPoly,
    _rotate,
    mi_iter_box,
    mi_abs,
    mi_factorial,
)
from .operators import MAX_TOTAL_DEGREE, DegreeLimitError, OpPoly


@dataclass(frozen=True)
class Weyl:
    """The symmetric (tau = 1/2) rule."""


@dataclass(frozen=True)
class BornJordan:
    """Uniform average of the tau family over [0, 1]."""


@dataclass(frozen=True)
class Tau:
    """Fixed ordering parameter; tau=None keeps it as a formal variable."""

    tau: Fraction | int | None = None


QuantizationScheme = Union[Weyl, BornJordan, Tau]

# A scheme's weight maps (S, [c_0, ..., c_M]) to the coefficients, by power
# of tau, of sum_L c_L (1-tau)^L tau^(S-L) under that scheme, as integer
# numerators over one denominator: ({power: numerator}, denominator).
Weight = Callable[[int, list[int]], tuple[dict[int, int], int]]


@lru_cache(maxsize=None)
def _ordering_table(r: int, s: int) -> tuple[tuple[int, ...], ...]:
    """Row j of the tau-image of x^r p^s: c_(j,l) for l = 0..s-j.

    Callers check r + s <= MAX_TOTAL_DEGREE first, which bounds the cache.
    """
    return tuple(
        tuple(comb(s, ell) * comb(s - ell, j) * perm(r, j) for ell in range(s - j + 1))
        for j in range(min(r, s) + 1)
    )


def _convolve(a: list[int], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for k, v in enumerate(b):
                out[i + k] += u * v
    return out


def _rational_weight(tau: Fraction) -> Weight:
    num, den = tau.numerator, tau.denominator

    def weight(total: int, c: list[int]) -> tuple[dict[int, int], int]:
        # (1-tau)^L tau^(S-L) = (den-num)^L num^(S-L) / den^S
        w = sum(
            cl * (den - num) ** ell * num ** (total - ell) for ell, cl in enumerate(c)
        )
        return {0: w}, den**total

    return weight


def _born_jordan_weight(total: int, c: list[int]) -> tuple[dict[int, int], int]:
    w = sum(cl * factorial(ell) * factorial(total - ell) for ell, cl in enumerate(c))
    return {0: w}, factorial(total + 1)


def _formal_weight(total: int, c: list[int]) -> tuple[dict[int, int], int]:
    powers = [0] * (total + 1)
    for ell, cl in enumerate(c):
        for i in range(ell + 1):
            powers[total - ell + i] += (-1) ** i * comb(ell, i) * cl
    return dict(enumerate(powers)), 1


def _scheme_weight(scheme: QuantizationScheme) -> Weight:
    if isinstance(scheme, Weyl):
        return _rational_weight(Fraction(1, 2))
    if isinstance(scheme, BornJordan):
        return _born_jordan_weight
    if isinstance(scheme, Tau):
        if scheme.tau is None:
            return _formal_weight
        return _rational_weight(Fraction(scheme.tau))
    raise TypeError(f"unknown quantization scheme {scheme!r}")


def tau_average(op: OpPoly) -> OpPoly:
    """Coefficientwise exact integral of the formal ordering parameter over [0,1]."""
    return op.integrate_unit_interval("tau")


def quantize_monomial(scheme: QuantizationScheme, r: int, s: int) -> OpPoly:
    """Quantize p^s x^r in one dimension under the chosen rule.

    With a formal Tau scheme the result carries the ordering parameter in its
    coefficients, ready for tau_average.
    """
    if r < 0 or s < 0:
        raise ValueError("monomial exponents must be non-negative")
    return quantize_symbol(scheme, SymbolPoly.monomial(1, x=(r,), p=(s,)))


def quantize_symbol(scheme: QuantizationScheme, a: SymbolPoly) -> OpPoly:
    """Quantize a polynomial symbol; linear in a.

    Monomials in distinct dimensions quantize at a shared ordering
    parameter; Born-Jordan averages their product over that parameter.
    Raises DegreeLimitError on a term of total degree above MAX_TOTAL_DEGREE.
    Works on the flat map of a: each term's numerator is multiplied by
    (-i)^J, the scheme's weight numerator and the denominator's cofactor,
    and hbar^J and the tau powers shift the key.
    """
    weight = _scheme_weight(scheme)
    n = a.dim
    parts = []  # (key, re, im, weight numerators, weight denominator)
    for key, (re, im) in a._num.items():
        kx, kp = key[:n], key[n:2 * n]
        hbar, tau = key[2 * n:]
        degree = sum(kx) + sum(kp)
        if degree > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(
                f"term degree {degree} exceeds cap {MAX_TOTAL_DEGREE}"
            )
        total = sum(kp)
        tables = [_ordering_table(r, s) for r, s in zip(kx, kp)]
        for js in product(*(range(len(row)) for row in tables)):
            c = [1]
            for table, j in zip(tables, js):
                c = _convolve(c, table[j])
            w, w_den = weight(total, c)
            big_j = sum(js)
            head = (
                tuple(r - j for r, j in zip(kx, js))
                + tuple(s - j for s, j in zip(kp, js))
            )
            parts.append((head, hbar + big_j, tau, *_rotate(re, im, big_j), w, w_den))
    den = lcm(*{part[-1] for part in parts})
    out: dict[tuple, tuple[int, int]] = {}
    for head, hbar, tau, re, im, w, w_den in parts:
        f = den // w_den
        for m, wm in w.items():
            if wm:
                key = head + (hbar, tau + m)
                g = wm * f
                prev = out.get(key, (0, 0))
                out[key] = (prev[0] + re * g, prev[1] + im * g)
    return OpPoly._from_flat(n, out, a._den * den)


def amplitude_average(a: SymbolPoly) -> AmplitudePoly:
    """The averaged amplitude b(x,y,p) = integral over tau of a((1-tau)x+tau y, p)."""
    tau = ExactScalar.tau()
    one_minus_tau = ExactScalar.one() - tau
    b = a.promote()
    for j in range(a.dim):
        b = b.substitute_affine(
            ("x", j),
            linear={("x", j): one_minus_tau, ("y", j): tau},
        )
    return b.integrate_unit_interval("tau")


def amplitude_to_tau_symbol(
    b: AmplitudePoly, tau: RationalLike | None = None
) -> SymbolPoly:
    """Exact symbol of the amplitude operator in the tau calculus.

    Finite sum over pairs of multi-indices (beta, gamma):
        (1/(beta! gamma!)) tau^|beta| (1-tau)^|gamma|
        d_p^(beta+gamma) (i hbar d_x)^beta (-i hbar d_y)^gamma b |_{y=x}.
    tau=None keeps the ordering parameter formal.
    """
    n = b.dim
    tau_s = ExactScalar.tau() if tau is None else ExactScalar.rational(Fraction(tau))
    one_minus_tau = ExactScalar.one() - tau_s

    x_bounds = tuple(b.block_degree("x", j) for j in range(n))
    y_bounds = tuple(b.block_degree("y", j) for j in range(n))
    p_bound = b.block_degree("p")

    i_hbar = ExactScalar.i() * ExactScalar.hbar()
    out = SymbolPoly.zero(n)
    for beta in mi_iter_box(x_bounds):
        for gamma in mi_iter_box(y_bounds):
            if mi_abs(beta) + mi_abs(gamma) > p_bound:
                continue
            d = b
            for j in range(n):
                if beta[j]:
                    d = d.differentiate(("x", j), beta[j])
                if gamma[j]:
                    d = d.differentiate(("y", j), gamma[j])
                total = beta[j] + gamma[j]
                if total:
                    d = d.differentiate(("p", j), total)
            if d.is_zero():
                continue
            coeff = (tau_s ** mi_abs(beta)) * (one_minus_tau ** mi_abs(gamma))
            coeff = coeff * (i_hbar ** mi_abs(beta))
            coeff = coeff * ((-i_hbar) ** mi_abs(gamma))
            coeff = coeff.scale(
                Fraction(1, mi_factorial(beta) * mi_factorial(gamma))
            )
            out = out + d.collapse_y().scale(coeff)
    return out

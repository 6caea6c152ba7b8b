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

The amplitude route is the same kind of closed form: integer tables per
dimension, multiplied into one polynomial in (1-tau) and tau, weighed once.

The operator product of operators.py is not used here, so the tests can
check this module against products of OpPoly words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, perm, prod
from typing import Callable, Union

from .exact import AmplitudePoly, RationalLike, SymbolPoly, Weight, _collect, _rotate
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

# A scheme's weight maps (S, [c_0, ..., c_M]) to the Weight of
# sum_L c_L (1-tau)^L tau^(S-L) under that scheme.
SchemeWeight = Callable[[int, list[int]], Weight]


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


def _rational_weight(tau: Fraction) -> SchemeWeight:
    num, den = tau.numerator, tau.denominator

    def weight(total: int, c: list[int]) -> Weight:
        # (1-tau)^L tau^(S-L) = (den-num)^L num^(S-L) / den^S
        w = sum(
            cl * (den - num) ** ell * num ** (total - ell) for ell, cl in enumerate(c)
        )
        return {0: w}, den**total

    return weight


def _born_jordan_weight(total: int, c: list[int]) -> Weight:
    w = sum(cl * factorial(ell) * factorial(total - ell) for ell, cl in enumerate(c))
    return {0: w}, factorial(total + 1)


def _formal_weight(total: int, c: list[int]) -> Weight:
    powers = [0] * (total + 1)
    for ell, cl in enumerate(c):
        for i in range(ell + 1):
            powers[total - ell + i] += (-1) ** i * comb(ell, i) * cl
    return dict(enumerate(powers)), 1


def _scheme_weight(scheme: QuantizationScheme) -> SchemeWeight:
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
    Each term of a's flat map gives exact._collect one part per tuple of
    j's: its numerator rotated by (-i)^J, hbar raised by J, and the scheme's
    weight.
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
    return OpPoly._from_flat(n, *_collect(parts, a._den))


def amplitude_average(a: SymbolPoly) -> AmplitudePoly:
    """The averaged amplitude b(x,y,p) = integral over tau of a((1-tau)x+tau y, p).

    Closed form: a term x^r p^s tau^t (the tau of a coefficient is averaged
    along) gives, for each multi-index j <= r, with R = |r| and J = |j|,

        prod_d C(r_d, j_d) (R-J)! (J+t)! / (R+t+1)!  x^(r-j) y^j p^s,

    the Beta integral of (1-tau)^(R-J) tau^(J+t).
    """
    n = a.dim
    parts = []
    for key, (re, im) in a._num.items():
        kx, kp = key[:n], key[n:2 * n]
        hbar, t = key[2 * n:]
        big_r = sum(kx)
        for js in product(*(range(r + 1) for r in kx)):
            big_j = sum(js)
            w = prod(map(comb, kx, js)) * factorial(big_r - big_j) * factorial(big_j + t)
            head = tuple(r - j for r, j in zip(kx, js)) + js + kp
            parts.append((head, hbar, 0, re, im, {0: w}, factorial(big_r + t + 1)))
    return AmplitudePoly._from_flat(n, *_collect(parts, a._den))


def _amplitude_table(a: int, c: int, e: int) -> list[tuple[int, ...]]:
    """Row s of the tau-symbol of x^a y^c p^e, for s = beta + gamma: the
    integer (-1)^gamma C(a, s-gamma) C(c, gamma) e!/(e-s)! for gamma = 0..s,
    the weight of (1-tau)^gamma tau^(s-gamma) in x^(a+c-s) p^(e-s)."""
    return [
        tuple((-1) ** g * comb(a, s - g) * comb(c, g) * perm(e, s) for g in range(s + 1))
        for s in range(min(a + c, e) + 1)
    ]


def amplitude_to_tau_symbol(
    b: AmplitudePoly, tau: RationalLike | None = None
) -> SymbolPoly:
    """Exact symbol of the amplitude operator in the tau calculus.

    It is the finite sum over pairs of multi-indices (beta, gamma) of
    (1/(beta! gamma!)) tau^|beta| (1-tau)^|gamma|
    d_p^(beta+gamma) (i hbar d_x)^beta (-i hbar d_y)^gamma b |_{y=x}.  In
    closed form, a term x^a y^c p^e gives, for beta <= a, gamma <= c and
    beta + gamma <= e in each dimension, with B = |beta| and G = |gamma|,

        C(a,beta) C(c,gamma) e!/(e-beta-gamma)! (-i)^(G-B) hbar^(B+G)
            tau^B (1-tau)^G  x^(a-beta+c-gamma) p^(e-beta-gamma).

    The Tau(tau) weight of quantize_symbol weighs the tau factors, and
    tau=None keeps the ordering parameter formal.
    """
    weight = _scheme_weight(Tau(tau))
    n = b.dim
    parts = []
    for key, (re, im) in b._num.items():
        kx, ky, kp = key[:n], key[n:2 * n], key[2 * n:3 * n]
        hbar, t = key[3 * n:]
        tables = [_amplitude_table(*e) for e in zip(kx, ky, kp)]
        for ss in product(*(range(len(table)) for table in tables)):
            c = [1]
            for table, s in zip(tables, ss):
                c = _convolve(c, table[s])
            big_s = sum(ss)
            w, w_den = weight(big_s, c)
            head = (
                tuple(r + q - s for r, q, s in zip(kx, ky, ss))
                + tuple(e - s for e, s in zip(kp, ss))
            )
            # i^B (-i)^G = (-1)^G (-i)^(-S); the tables carry the (-1)^G
            parts.append((head, hbar + big_s, t, *_rotate(re, im, -big_s), w, w_den))
    return SymbolPoly._from_flat(n, *_collect(parts, b._den))

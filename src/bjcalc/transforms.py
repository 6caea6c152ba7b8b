"""Exact symbol conversions between the Born-Jordan, symmetric (Weyl) and
ordering-parameter (tau) calculi on polynomial symbols.

Every conversion is a power series in the one commuting operator
D = sum_j d_xj d_pj.  With s = i hbar D / 2 the generating functions are

    bj_to_weyl   sinh(s)/s
    weyl_to_bj   s/sinh(s)
    tau_shift    exp(i hbar (tau_to - tau_from) D)
    bj_to_tau    integral of exp(i hbar u D) over u from tau - 1 to tau

D lowers the degree of a polynomial, so each series is the finite sum
sum_k w_k (i hbar)^k / k! D^k a, and each conversion only supplies its
weights w_k.  The Taylor coefficients of x/sinh(x) are c_k / k! with
c_k = (2 - 2^k) B_k and B_k the Bernoulli numbers: `c_coeff_1d(k)` and
`bernoulli(k)`.  In n dimensions `c_coeff_multi(alpha)` is c_|alpha|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Literal

from .exact import (
    ExactScalar,
    FlatMap,
    MultiIndex,
    RationalLike,
    SymbolPoly,
    Weight,
    _collect,
    _rotate,
)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """First-kind Bernoulli number (B_1 = -1/2 convention), exactly.

    Standard recurrence sum_{j=0}^{k} C(k+1, j) B_j = 0, over the nonzero
    terms only: B_j = 0 for odd j >= 3.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k <= 1:
        return Fraction(1) if k == 0 else Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    acc = Fraction(1) - Fraction(k + 1, 2)  # j = 0 and j = 1
    for j in range(2, k, 2):
        acc += comb(k + 1, j) * bernoulli(j)
    return -acc / (k + 1)


def c_coeff_1d(k: int) -> Fraction:
    """One-dimensional reciprocal coefficient: (2 - 2^k) B_k for even k, 0 for odd."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k % 2 == 1:
        return Fraction(0)
    return (2 - 2**k) * bernoulli(k)


def c_coeff_multi(alpha: MultiIndex) -> Fraction:
    """Multi-dimensional reciprocal coefficient c_alpha.

    Equals the alternating sum over ordered tuples of nonzero even-order
    multi-indices composing alpha, times alpha!.  The forward series
    sum over even alpha of z^alpha / (alpha! (|alpha|+1)) is sinh(t)/t at
    t = z_1 + ... + z_n, so its reciprocal t/sinh(t) gives c_alpha = c_|alpha|.
    """
    alpha = tuple(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be non-negative")
    return c_coeff_1d(sum(alpha))


# ---------------------------------------------------------------------------
# Symbol-level conversions: finite power series in D
# ---------------------------------------------------------------------------

def _apply_d(num: FlatMap, dim: int) -> FlatMap:
    """One application of D = sum_j d_xj d_pj to a symbol's numerator map.

    The denominator is unchanged, since D only multiplies by integers.
    """
    out: FlatMap = {}
    for key, (re, im) in num.items():
        for j in range(dim):
            ex, ep = key[j], key[dim + j]
            if ex and ep:
                f = ex * ep
                nkey = (key[:j] + (ex - 1,) + key[j + 1:dim + j]
                        + (ep - 1,) + key[dim + j + 1:])
                prev = out.get(nkey, (0, 0))
                out[nkey] = (prev[0] + re * f, prev[1] + im * f)
    return {key: v for key, v in out.items() if v[0] or v[1]}


def _rational(q: Fraction) -> Weight:
    return {0: q.numerator}, q.denominator


def _d_series(a: SymbolPoly, weight: Callable[[int], Weight]) -> SymbolPoly:
    """sum_k weight(k) (i hbar)^k / k! D^k a.

    Each entry of D^k a becomes one part of exact._collect: hbar raised by
    k, the numerator rotated by i^k, and the weight w_k over its denominator
    times k!.  Zero weights are skipped without touching the terms.
    """
    m = 2 * a.dim
    parts = []
    dk = a._num
    k = 0
    while dk:
        w, w_den = weight(k)
        if any(w.values()):
            den = w_den * factorial(k)
            parts.extend((key[:m], key[m] + k, key[m + 1], *_rotate(re, im, -k), w, den)
                         for key, (re, im) in dk.items())
        dk = _apply_d(dk, a.dim)
        k += 1
    return SymbolPoly._from_flat(a.dim, *_collect(parts, a._den))


def bj_to_weyl(a: SymbolPoly) -> SymbolPoly:
    """Symmetric-rule symbol of the operator whose Born-Jordan symbol is a.

    sinh(s)/s at s = i hbar D / 2: the Born-Jordan-to-tau series at tau = 1/2.
    """
    return bj_to_tau(a, Fraction(1, 2))


def weyl_to_bj(a: SymbolPoly) -> SymbolPoly:
    """Born-Jordan symbol of the operator whose symmetric-rule symbol is a.

    s/sinh(s) at s = i hbar D / 2, i.e. weights c_k / 2^k; exact two-sided
    inverse of bj_to_weyl on polynomials.
    """
    return _d_series(a, lambda k: _rational(c_coeff_1d(k) / 2**k))


def bj_to_tau(a: SymbolPoly, tau: RationalLike | None = None) -> SymbolPoly:
    """Ordering-parameter symbol of the operator with Born-Jordan symbol a.

    Integral of exp(i hbar u D) a over u from tau - 1 to tau, i.e. weights
    (tau^(k+1) - (tau-1)^(k+1)) / (k+1).  tau=None keeps the parameter formal:
    the coefficient of tau^m in that weight is (-1)^(k-m) C(k+1, m) / (k+1).
    """
    if tau is None:
        return _d_series(
            a, lambda k: ({m: (-1) ** (k - m) * comb(k + 1, m) for m in range(k + 1)}, k + 1)
        )
    t = Fraction(tau)
    return _d_series(a, lambda k: _rational((t ** (k + 1) - (t - 1) ** (k + 1)) / (k + 1)))


def tau_shift(
    a: SymbolPoly, tau_from: RationalLike, tau_to: RationalLike
) -> SymbolPoly:
    """Convert the symbol at ordering parameter tau_from to the one at tau_to.

    exp(i hbar (tau_to - tau_from) D) a, i.e. weights (tau_to - tau_from)^k;
    the hbar placement is normalized so that both parameters' quantizations
    yield the same operator.  Equal parameters return a itself.
    """
    shift = Fraction(tau_to) - Fraction(tau_from)
    if not shift:
        return a
    return _d_series(a, lambda k: _rational(shift**k))


Direction = Literal["weyl_of_bj", "bj_of_weyl"]


def monomial_closed_form(direction: Direction, r: int, s: int) -> SymbolPoly:
    """Closed form of the x^r p^s conversion in one dimension.

    weyl_of_bj: sum over even k <= min(r,s) of
        (i hbar / 2)^k (k!/(k+1)) C(r,k) C(s,k) x^(r-k) p^(s-k);
    bj_of_weyl: same sum with weight k! c_k (i hbar / 2)^k.
    """
    if r < 0 or s < 0:
        raise ValueError("exponents must be non-negative")
    if direction not in ("weyl_of_bj", "bj_of_weyl"):
        raise ValueError(f"unknown direction {direction!r}")
    i_hbar_half = (ExactScalar.i() * ExactScalar.hbar()).scale(Fraction(1, 2))
    out = SymbolPoly.zero(1)
    for k in range(0, min(r, s) + 1, 2):
        if direction == "weyl_of_bj":
            weight = Fraction(factorial(k), k + 1)
        else:
            weight = factorial(k) * c_coeff_1d(k)
        coeff = (i_hbar_half ** k).scale(weight * comb(r, k) * comb(s, k))
        out = out + SymbolPoly.monomial(1, coeff, x=(r - k,), p=(s - k,))
    return out

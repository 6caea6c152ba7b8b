"""Normal-ordered noncommutative polynomials in the position and momentum
operators, reduced with [xhat_j, phat_j] = i*hbar.

This is the ground-truth representation: two operator expressions are equal
iff their normal-ordered forms coincide.  Canonical form puts every xhat to
the left of every phat within each dimension; distinct dimensions commute.
An OpPoly is a flat map of exact.py with the blocks x and p, keyed by x
exponents, p exponents, then hbar, tau.  It shares its storage, sums
and powers with its ExactScalar coefficients and with the symbols, and its
constructors with the symbols; only the product and the adjoint are its own.

The product needs one identity.  Moving phat^k past xhat^r in one
dimension gives

    phat^k xhat^r = sum_j C(k,j) r!/(r-j)! (-i hbar)^j xhat^(r-j) phat^(k-j),

so xhat^a phat^b * xhat^c phat^d is a sum over j of integer multiples of
(-i hbar)^j xhat^(a+c-j) phat^(b+d-j).  The integers come from a table per
(k, r).  In several dimensions the factors of distinct dimensions commute:
the keys concatenate and the per-dimension j's add into one power of
(-i hbar).  The adjoint of xhat^a phat^b is phat^b xhat^a, the same
identity with (k, r) = (b, a).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, perm

from .exact import ExactScalar, FlatMap, MultiIndex, ONE, RationalLike, _BlockPoly, _rotate

MAX_TOTAL_DEGREE = 64


class DegreeLimitError(Exception):
    """Raised when an operation would exceed the normal-ordering degree cap."""


@lru_cache(maxsize=None)
def _reorder_table(k: int, r: int) -> tuple[int, ...]:
    """C(k,j) r!/(r-j)! for j = 0..min(k, r): phat^k xhat^r in normal order.

    Callers check the degree cap first, which bounds the cache.
    """
    return tuple(comb(k, j) * perm(r, j) for j in range(min(k, r) + 1))


def _reorder_terms(ks: tuple[int, ...], rs: tuple[int, ...]) -> list[tuple[tuple, int, int]]:
    """phat^ks xhat^rs in normal order over all dimensions.

    Each entry is (shift, coefficient, J mod 4) for the term
    coefficient (-i hbar)^J xhat^(rs-js) phat^(ks-js), J = |js|.  A flat key
    minus shift = js + js + (-J, 0) lowers each x and p exponent by its j
    and raises hbar by J.
    """
    out = []
    rows = [_reorder_table(k, r) for k, r in zip(ks, rs)]
    for js in product(*(range(len(row)) for row in rows)):
        c = 1
        for row, j in zip(rows, js):
            c *= row[j]
        total = sum(js)
        out.append((js + js + (-total, 0), c, total % 4))
    return out


def _accumulate(out: FlatMap, base: tuple, re: int, im: int, reorder) -> None:
    """Add (re + i im) times a reordered word, shifted from the key base."""
    for shift, c, quarter in reorder:
        key = tuple([u - v for u, v in zip(base, shift)])
        a, b = _rotate(re * c, im * c, quarter)
        prev = out.get(key)
        out[key] = (a, b) if prev is None else (prev[0] + a, prev[1] + b)


class OpPoly(_BlockPoly):
    """Normal-ordered polynomial in xhat_1..xhat_n, phat_1..phat_n."""

    blocks = ("x", "p")

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "OpPoly":
        return cls.constant(dim, ONE)

    @classmethod
    def word(cls, dim: int, x_exp: MultiIndex, p_exp: MultiIndex,
             coeff: ExactScalar = ONE) -> "OpPoly":
        """coeff * xhat^x_exp phat^p_exp (already normal-ordered)."""
        return cls.monomial(dim, coeff, x=x_exp, p=p_exp)

    @classmethod
    def x_op(cls, dim: int, j: int = 0) -> "OpPoly":
        return cls.variable(dim, ("x", j))

    @classmethod
    def p_op(cls, dim: int, j: int = 0) -> "OpPoly":
        return cls.variable(dim, ("p", j))

    # -- arithmetic --------------------------------------------------------

    def scale_rational(self, q: RationalLike) -> "OpPoly":
        return self.scale(ExactScalar.rational(q))

    def __mul__(self, other: "OpPoly") -> "OpPoly":
        """Normal-ordered operator product."""
        self._check_compatible(other)
        if self.total_degree() + other.total_degree() > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(
                f"product degree exceeds cap {MAX_TOTAL_DEGREE}"
            )
        n = self.dim
        # Group the right factor by its x exponents: the reordering of
        # phat^ap xhat^bx depends on ap and bx only.
        by_x: dict[tuple, list] = {}
        for key, value in other._num.items():
            by_x.setdefault(key[:n], []).append((key, value))
        reorders: dict[tuple, list] = {}
        out: FlatMap = {}
        for ka, (a, b) in self._num.items():
            ap = ka[n:2 * n]
            for bx, group in by_x.items():
                reorder = reorders.get((ap, bx))
                if reorder is None:
                    reorder = reorders[ap, bx] = _reorder_terms(ap, bx)
                for kb, (c, d) in group:
                    base = tuple([u + v for u, v in zip(ka, kb)])
                    _accumulate(out, base, a * c - b * d, a * d + b * c, reorder)
        return OpPoly._from_flat(n, out, self._den * other._den)

    def commutator(self, other: "OpPoly") -> "OpPoly":
        return self * other - other * self

    def adjoint(self) -> "OpPoly":
        """Formal adjoint: conjugate coefficients, reverse factor order.

        (c xhat^kx phat^kp)^dagger = conj(c) phat^kp xhat^kx, normal-ordered
        with the product's identity.
        """
        if self.total_degree() > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(
                f"product degree exceeds cap {MAX_TOTAL_DEGREE}"
            )
        n = self.dim
        out: FlatMap = {}
        for key, (re, im) in self._num.items():
            _accumulate(out, key, re, -im, _reorder_terms(key[n:2 * n], key[:n]))
        return OpPoly._from_flat(n, out, self._den)

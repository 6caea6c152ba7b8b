"""Normal-ordered noncommutative polynomials in the position and momentum
operators, reduced with [xhat_j, phat_j] = i*hbar.

This is the ground-truth representation: two operator expressions are equal
iff their normal-ordered forms coincide.  Canonical form puts every xhat to
the left of every phat within each dimension; distinct dimensions commute.
An OpPoly is a flat map of exact.py with the blocks x and p, keyed by x
exponents, p exponents, then hbar, tau.  It shares its storage, sums, powers
and `scale` with its ExactScalar coefficients and with the symbols, and its
constructors (`zero`, `constant`, `monomial`, `variable`) with the symbols;
only the product, the commutator and the adjoint are its own.

The product needs one identity.  Moving phat^k past xhat^r in one
dimension gives

    phat^k xhat^r = sum_j C(k,j) r!/(r-j)! (-i hbar)^j xhat^(r-j) phat^(k-j),

so xhat^a phat^b * xhat^c phat^d is a sum over j of integer multiples of
(-i hbar)^j xhat^(a+c-j) phat^(b+d-j).  The integers come from a table per
(k, r).  In several dimensions the factors of distinct dimensions commute:
the per-dimension j's add into one power J of (-i hbar).  The adjoint of
xhat^a phat^b is phat^b xhat^a, the same identity with (k, r) = (b, a).

The kernels use the packed keys of exact.py: each entry of the identity is
one shift that lowers each x and p slot by its j and raises hbar by J, so a
term's key is the sum of its factors' keys and the shift.  The slot width
bounds the operands' largest slots plus their total degrees, which bound J.
The j = 0 term, xhat^(a+c) phat^(b+d) with coefficient 1, is the same in
both orders, so the commutator sums only the terms with J > 0 of A*B and,
negated, of B*A: it never forms the terms that cancel.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

from .exact import MultiIndex, _BlockPoly, _pack, _rotate, _slot_width, _unpack

MAX_TOTAL_DEGREE = 64


class DegreeLimitError(Exception):
    """Raised when an operation would exceed the normal-ordering degree cap."""


@lru_cache(maxsize=None)
def _reorder_table(k: int, r: int) -> tuple[int, ...]:
    """C(k,j) r!/(r-j)! for j = 0..min(k, r): phat^k xhat^r in normal order.

    Callers check the degree cap first, which bounds the cache.
    """
    return tuple(comb(k, j) * perm(r, j) for j in range(min(k, r) + 1))


def _reorder_entries(ks: MultiIndex, rs: MultiIndex, width: int, skip: int) -> list:
    """phat^ks xhat^rs in normal order: (shift, re, im) per multi-index j
    from j = 0 on, the first `skip` left out.  Added to a packed key, shift
    lowers x_d and p_d by j_d and raises hbar by J = |j|; re + i im is
    (-i)^J times the table product."""
    n = len(ks)
    hbar = 1 << 2 * n * width
    out = [(0, 1, 0)]  # (shift, table product, J) over the dimensions so far
    for d, (k, r) in enumerate(zip(ks, rs)):
        if k and r:
            step = hbar - (1 << d * width) - (1 << (n + d) * width)
            row = _reorder_table(k, r)
            out = [(s + j * step, c * cj, t + j) for s, c, t in out for j, cj in enumerate(row)]
    return [(s, *_rotate(c, 0, t)) for s, c, t in out[skip:]]


def _grouped(num, lo: int, hi: int, width: int) -> dict[tuple, list]:
    """Packed terms (key, re, im), grouped by the key slots lo..hi-1."""
    groups: dict[tuple, list] = {}
    for key, (re, im) in num.items():
        groups.setdefault(key[lo:hi], []).append((_pack(key, width), re, im))
    return groups


class OpPoly(_BlockPoly):
    """Normal-ordered polynomial in xhat_1..xhat_n, phat_1..phat_n."""

    blocks = ("x", "p")

    __slots__ = ()

    # -- arithmetic --------------------------------------------------------

    def _products(self, other: "OpPoly", skip: int, orders: tuple) -> "OpPoly":
        """The sum of sign * L * R over orders (L, R, sign), each term pair
        reordered without its first `skip` entries."""
        self._check_compatible(other)
        degree = self.total_degree() + other.total_degree()
        if degree > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(f"product degree exceeds cap {MAX_TOTAL_DEGREE}")
        n = self.dim
        width = _slot_width(degree + max(map(max, self._num), default=0)
                            + max(map(max, other._num), default=0))
        out: dict = {}
        get = out.get
        memo: dict = {}  # the entries of each (p exponents of L, x exponents of R)
        for left, right, sign in orders:
            by_x = _grouped(right._num, 0, n, width)
            for ap, terms_a in _grouped(left._num, n, 2 * n, width).items():
                row = memo.setdefault(ap, {})
                for bx, terms_b in by_x.items():
                    entries = row.get(bx)
                    if entries is None:
                        entries = row[bx] = _reorder_entries(ap, bx, width, skip)
                    for shift, fr, fi in entries:
                        fr, fi = sign * fr, sign * fi
                        for ka, a, b in terms_a:
                            ar, ai, base = a * fr - b * fi, a * fi + b * fr, ka + shift
                            for kb, c, d in terms_b:
                                key, re, im = base + kb, ar * c - ai * d, ar * d + ai * c
                                prev = get(key)
                                out[key] = ((re, im) if prev is None
                                            else (prev[0] + re, prev[1] + im))
        return OpPoly._from_flat(n, _unpack(out, 2 * n + 2, width), self._den * other._den)

    def __mul__(self, other: "OpPoly") -> "OpPoly":
        """Normal-ordered operator product."""
        return self._products(other, 0, ((self, other, 1),))

    def commutator(self, other: "OpPoly") -> "OpPoly":
        """self * other - other * self, without the j = 0 terms that cancel."""
        return self._products(other, 1, ((self, other, 1), (other, self, -1)))

    def adjoint(self) -> "OpPoly":
        """Formal adjoint: conjugate coefficients, reverse factor order.

        (c xhat^kx phat^kp)^dagger = conj(c) phat^kp xhat^kx, normal-ordered
        with the product's entries, shifted from the key itself.
        """
        degree = self.total_degree()
        if degree > MAX_TOTAL_DEGREE:
            raise DegreeLimitError(f"operator degree {degree} exceeds cap {MAX_TOTAL_DEGREE}")
        n = self.dim
        width = _slot_width(degree + max(map(max, self._num), default=0))
        out: dict = {}
        get = out.get
        for key, (re, im) in self._num.items():
            base = _pack(key, width)
            for shift, fr, fi in _reorder_entries(key[n:2 * n], key[:n], width, 0):
                k, a, b = base + shift, re * fr + im * fi, re * fi - im * fr
                prev = get(k)
                out[k] = (a, b) if prev is None else (prev[0] + a, prev[1] + b)
        return OpPoly._from_flat(n, _unpack(out, 2 * n + 2, width), self._den)
